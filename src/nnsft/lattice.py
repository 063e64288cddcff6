"""Square-lattice geometry and finite configurations.

Sites are integer pairs (x, y). Rectangles, among them the centered
boxes [-n, n] x [-n, n], give the shapes; a Window is a dense
configuration on a rectangle, and a sparse patch is a plain dict from
sites to symbols.

Two same-domain windows are compared with the dyadic metric 2**-i,
where i is the smallest Chebyshev norm of a site where they disagree.
Windows agreeing on their whole (finite) domain cannot be told apart,
so the comparison returns an agreement sentinel carrying a certified
upper bound rather than a fabricated exact value.

All deterministic site iteration in this package is row-major with the
top row (largest y) first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

Site = tuple[int, int]
SparsePatch = dict[Site, int]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle of lattice sites, inclusive of its corners."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("rectangle must have positive width and height")

    @classmethod
    def centered(cls, n: int) -> "Rect":
        """The box [-n, n] x [-n, n]."""
        if n < 0:
            raise ValueError("box radius must be >= 0")
        return cls(-n, -n, 2 * n + 1, 2 * n + 1)

    @property
    def x1(self) -> int:
        return self.x0 + self.width - 1

    @property
    def y1(self) -> int:
        return self.y0 + self.height - 1

    @property
    def area(self) -> int:
        return self.width * self.height

    def contains(self, u: Site) -> bool:
        return self.x0 <= u[0] <= self.x1 and self.y0 <= u[1] <= self.y1

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and other.x1 <= self.x1
            and other.y1 <= self.y1
        )

    def inflate(self, k: int) -> "Rect":
        """Grow (or shrink, k < 0) by k sites on every edge."""
        return Rect(self.x0 - k, self.y0 - k, self.width + 2 * k, self.height + 2 * k)

    def centered_radius(self) -> int:
        """Largest n with [-n, n]^2 inside this rectangle (-1 if none)."""
        return max(-1, min(-self.x0, self.x1, -self.y0, self.y1))


class Window:
    """A dense configuration on a rectangle: one symbol per site.

    Immutable after construction; the backing array, integer symbols
    stored as int64, is frozen. Row 0 is the top row (largest y).
    """

    __slots__ = ("rect", "array")

    def __init__(self, rect: Rect, array: np.ndarray, *, _copy: bool = True):
        arr = np.asarray(array)
        if arr.dtype.kind not in "biu":  # bool, signed or unsigned integers
            raise ValueError(f"window symbols must be integers, not {arr.dtype}")
        arr = arr.astype(np.int64, copy=_copy)
        if arr.shape != (rect.height, rect.width):
            raise ValueError(
                f"array shape {arr.shape} does not match rectangle "
                f"{rect.height}x{rect.width}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "rect", rect)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Window is immutable")

    @classmethod
    def filled(cls, rect: Rect, symbol: int) -> "Window":
        return cls(rect, np.full((rect.height, rect.width), symbol, dtype=np.int64), _copy=False)

    def _index(self, u: Site) -> tuple[int, int]:
        if not self.rect.contains(u):
            raise KeyError(f"site {u} outside window domain")
        return (self.rect.y1 - u[1], u[0] - self.rect.x0)

    def get(self, u: Site) -> int:
        r, c = self._index(u)
        return int(self.array[r, c])

    def with_patch(self, patch: SparsePatch) -> "Window":
        """A new window with the patch written over this one."""
        arr = self.array.copy()
        for u, a in patch.items():
            r, c = self._index(u)
            arr[r, c] = a
        return Window(self.rect, arr, _copy=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Window):
            return NotImplemented
        return self.rect == other.rect and bool(np.array_equal(self.array, other.array))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        r = self.rect
        return f"Window({r.x0}, {r.y0}, {r.width}x{r.height})"


@dataclass(frozen=True)
class MetricResult:
    """Distance between two same-domain windows.

    exact is the distance 2**-radius as a Fraction when the windows
    disagree inside the domain; for windows agreeing on the whole
    domain, exact is None and radius is a certified lower bound on the
    first-disagreement Chebyshev norm of any pair of extensions, so
    2**-radius is still a sound upper bound on the true distance.
    """

    exact: Fraction | None
    radius: int

    @property
    def is_agreement(self) -> bool:
        return self.exact is None

    @property
    def value(self) -> Fraction:
        if self.exact is None:
            raise ValueError("windows agree on domain; only an upper bound is certified")
        return self.exact


def metric_exact(w: Window, v: Window) -> MetricResult:
    """Dyadic distance between same-domain windows; see MetricResult."""
    from fractions import Fraction  # imported by its one user, which no CLI command calls

    if w.rect != v.rect:
        raise ValueError("mismatched domains")
    diff = w.array != v.array
    rows, cols = np.nonzero(diff)
    if rows.size == 0:
        return MetricResult(exact=None, radius=w.rect.centered_radius() + 1)
    xs = cols.astype(np.int64) + w.rect.x0
    ys = w.rect.y1 - rows.astype(np.int64)
    i = int(np.minimum.reduce(np.maximum(np.abs(xs), np.abs(ys))))
    return MetricResult(exact=Fraction(1, 2**i), radius=i)


RENDER_BLOCK = 1 << 14  # symbols rendered per numpy pass
MAX_SYMBOL_DIGITS = 18  # every symbol of at most 18 digits fits an int64


def render_window(w: Window) -> str:
    """Header, then one row per line, top row first, each symbol as str()
    writes it and followed by a space, or a newline after a row's last.
    Built as bytes in blocks of rows: digits right-aligned to the block's
    widest symbol, leading zeros then dropped. Raises ValueError on a
    negative symbol, which the format cannot hold."""
    r = w.rect
    parts = [f"window {r.x0} {r.y0} {r.width} {r.height}\n"]
    step = max(1, RENDER_BLOCK // r.width)
    for top in range(0, r.height, step):
        block = w.array[top : top + step]
        if block.min() < 0:
            raise ValueError("symbols must be nonnegative")
        width = len(str(block.max()))
        text = np.empty(block.shape + (width + 1,), dtype=np.uint8)
        rest = block
        for j in range(width - 1, 0, -1):
            rest, text[..., j] = np.divmod(rest, 10)
        text[..., 0] = rest
        text[..., :width] += ord("0")
        text[..., width] = ord(" ")
        text[:, -1, width] = ord("\n")
        if width > 1:
            # a digit is kept once a nonzero digit has come; the last always is
            keep = np.logical_or.accumulate(text != ord("0"), axis=-1)
            keep[..., width - 1] = True
            text = text[keep]
        parts.append(text.tobytes().decode("ascii"))
    return "".join(parts)


def parse_window(text: str) -> Window:
    """Parse the text form produced by render_window: after the header,
    `height` rows of `width` symbols separated by spaces or tabs, blank
    lines ignored. A symbol is 1 to 18 ASCII decimal digits, so it is
    nonnegative and below 10**18. Every row is checked before anything
    is allocated; then one numpy parse converts them all."""
    rect, body = _checked_body(text)
    arr = np.fromstring(body, dtype=np.int64, sep=" ")
    return Window(rect, arr.reshape(rect.height, rect.width), _copy=False)


def _checked_body(text: str) -> tuple[Rect, str]:
    """The header's rectangle and the rows joined by spaces, once every
    row holds `width` well-formed symbols; ValueError names the first
    row that does not."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty window text")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "window":
        raise ValueError("window text must start with 'window x0 y0 width height'")
    try:
        x0, y0, width, height = (int(t) for t in head[1:])
    except ValueError as exc:
        raise ValueError(f"bad window header: {lines[0]!r}") from exc
    rect = Rect(x0, y0, width, height)
    rows = lines[1:]
    if len(rows) != height:
        raise ValueError(f"expected {height} rows, found {len(rows)}")
    for i, ln in enumerate(rows):
        vals = ln.split()
        if len(vals) != width:
            raise ValueError(f"row {i + 1}: expected {width} symbols, found {len(vals)}")
        digits = ln.replace(" ", "").replace("\t", "")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"row {i + 1}: symbols must be ASCII digits separated by blanks")
        # a symbol over the limit leaves the row at least width + MAX_SYMBOL_DIGITS digits
        if len(digits) >= width + MAX_SYMBOL_DIGITS and max(map(len, vals)) > MAX_SYMBOL_DIGITS:
            raise ValueError(f"row {i + 1}: a symbol has more than {MAX_SYMBOL_DIGITS} digits")
    return rect, " ".join(rows)
