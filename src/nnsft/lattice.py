"""Square-lattice geometry and finite configurations.

Sites are integer pairs (x, y). Rectangles, among them the centered
boxes [-n, n] x [-n, n], give the shapes; a Window is a dense
configuration on a rectangle in the narrowest integer type (a byte for
an SSF alphabet), and a sparse patch is a dict from sites to symbols.

An array over a rectangle (a Window's among them) holds site (x, y) at
row y1 - y, column x - x0, so row 0 is the top row. Rect owns that
layout: every module goes through its cut, bands, norms, sites and cells.

Two same-domain windows are compared with the dyadic metric 2**-i,
where i is the smallest Chebyshev norm of a site where they disagree.
Windows agreeing on their whole (finite) domain cannot be told apart,
so the comparison returns an agreement sentinel carrying a certified
upper bound rather than a fabricated exact value.

All deterministic site iteration in this package is row-major with the
top row (largest y) first.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

Site = tuple[int, int]
SparsePatch = dict[Site, int]

# sites per row band (at least one row): render_window writes a band
# per numpy pass, and the harness's checks evaluate g a band at a time,
# 63 rows at N = 128 and one band up to N = 63
BAND_SITES = 2**14


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

    def cut(self, sub: "Rect") -> tuple[slice, slice]:
        """The rows and columns of an array over this rect that hold sub."""
        (r0, c0), (r1, c1) = self.cells(sub.x0, sub.y1), self.cells(sub.x1, sub.y0)
        return slice(r0, r1 + 1), slice(c0, c1 + 1)

    def bands(self, sites: int) -> Iterator["Rect"]:
        """This rect in row bands of at most `sites` sites (at least one
        row each), top band first."""
        rows = max(1, sites // self.width)
        for top in range(self.y1, self.y0 - 1, -rows):
            height = min(rows, top - self.y0 + 1)
            yield Rect(self.x0, top - height + 1, self.width, height)

    def norms(self) -> np.ndarray:
        """The Chebyshev norm of each site, as an array over this rect."""
        xs, ys = self.sites(np.arange(self.height), np.arange(self.width))
        return np.maximum.outer(np.abs(ys), np.abs(xs))

    def sites(self, rows, cols):
        """The sites (xs, ys) at cells (rows, cols) of an array over this
        rect; ints or integer arrays, as given."""
        return cols + self.x0, self.y1 - rows

    def cells(self, xs, ys):
        """The cells (rows, cols) of an array over this rect at sites (xs, ys)."""
        return self.y1 - ys, xs - self.x0


class Window:
    """A dense configuration on a rectangle: one symbol per site.

    Immutable after construction; the backing array is frozen, C ordered
    and of the narrowest integer type that holds the symbols, the one
    place that type is chosen (uint8 for q <= 64). Row 0 is the top row.
    """

    __slots__ = ("rect", "array")

    def __init__(self, rect: Rect, array: np.ndarray, *, _copy: bool = True):
        arr = np.asarray(array)
        if arr.dtype.kind not in "biu":  # bool, signed or unsigned integers
            raise ValueError(f"window symbols must be integers, not {arr.dtype}")
        if arr.shape != (rect.height, rect.width):
            raise ValueError(
                f"array shape {arr.shape} does not match rectangle "
                f"{rect.height}x{rect.width}"
            )
        lo, hi = int(arr.min()), int(arr.max())
        # a signed type holds hi exactly when it holds -hi - 1
        arr = arr.astype(np.min_scalar_type(hi if lo >= 0 else min(lo, -hi - 1)), order="C", copy=_copy)
        arr.flags.writeable = False
        object.__setattr__(self, "rect", rect)
        object.__setattr__(self, "array", arr)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Window is immutable")

    @classmethod
    def filled(cls, rect: Rect, symbol: int) -> "Window":
        return cls(rect, np.full((rect.height, rect.width), symbol), _copy=False)

    def _index(self, u: Site) -> tuple[int, int]:
        if not self.rect.contains(u):
            raise KeyError(f"site {u} outside window domain")
        return self.rect.cells(*u)

    def get(self, u: Site) -> int:
        r, c = self._index(u)
        return int(self.array[r, c])

    def with_patch(self, patch: SparsePatch) -> "Window":
        """A new window with the patch written over this one; any int64 symbol fits."""
        arr = self.array.astype(np.int64)
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
    if not diff.any():
        return MetricResult(exact=None, radius=w.rect.centered_radius() + 1)
    i = int(w.rect.norms()[diff].min())
    return MetricResult(exact=Fraction(1, 2**i), radius=i)


MAX_SYMBOL_DIGITS = 18  # every symbol of at most 18 digits fits an int64


def render_window(w: Window) -> str:
    """Header, then one row per line, top row first, each symbol as str()
    writes it and followed by a space, or a newline after a row's last.
    Built as bytes a row band (Rect.bands) at a time: digits
    right-aligned to the band's widest symbol, leading zeros then
    dropped. Raises ValueError on a negative symbol, which the format
    cannot hold."""
    r = w.rect
    parts = [f"window {r.x0} {r.y0} {r.width} {r.height}\n"]
    for band in r.bands(BAND_SITES):
        block = w.array[r.cut(band)]
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
