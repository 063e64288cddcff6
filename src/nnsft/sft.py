"""Nearest-neighbor SFTs: forbidden pairs, admissibility, fillability.

An NnSft is an alphabet size q plus two sets of ordered forbidden
pairs: (a, b) in hforbid bans a immediately left of b, and (a, b) in
vforbid bans a immediately below b. A window is locally admissible when
none of its stored adjacent pairs is forbidden.

A site u of a window is *bad* when the pair (u, u+e1) or (u, u+e2) is
forbidden; badness is attributed to the lower/left endpoint, so the
penalty potential in the potentials module is exactly -1 on bad sites.
Near window edges only sites whose right and up neighbors are stored
are evaluated, and the evaluable sub-rectangle is reported alongside.

Single-site fillability (SSF): for every assignment of four symbols to
a site's neighbors, some center symbol is compatible with all four
constraints. The fill table holds, for each direction and neighbor
symbol, the bitmask of compatible centers, so the centers that fit a
boundary are the AND of four masks. The SSF check ANDs them over all
q**4 boundary assignments (admissible or not); the sampler and repair
pick their symbols from the same masks. A safe symbol is a center that
works for every boundary, i.e. a symbol in no forbidden pair.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # `check` runs nothing of lattice, so it is not loaded for it
    from .lattice import Rect, Site, Window

Pair = tuple[int, int]

SSF_BRUTE_FORCE_LIMIT = 64  # q**4 boundaries; also the width of a uint64 center mask
STATE_ENUM_GUARD = 2_000_000  # strip states entropy may enumerate; load_sft refuses past it

# rows of NnSft.fill_table, in the order of an SSF witness
NORTH, SOUTH, EAST, WEST = range(4)


@dataclass(frozen=True)
class NnSft:
    """A nearest-neighbor SFT over symbols 0..q-1."""

    q: int
    hforbid: frozenset[Pair] = field(default_factory=frozenset)
    vforbid: frozenset[Pair] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError("alphabet size must be >= 1")
        object.__setattr__(self, "hforbid", frozenset(self.hforbid))
        object.__setattr__(self, "vforbid", frozenset(self.vforbid))
        for name, pairs in (("hforbid", self.hforbid), ("vforbid", self.vforbid)):
            for a, b in pairs:
                if not (0 <= a < self.q and 0 <= b < self.q):
                    raise ValueError(f"{name} pair ({a}, {b}) outside alphabet 0..{self.q - 1}")

    @cached_property
    def h_table(self) -> np.ndarray:
        """Boolean q x q table; [a, b] is True when a-left-of-b is forbidden."""
        t = np.zeros((self.q, self.q), dtype=bool)
        for a, b in self.hforbid:
            t[a, b] = True
        t.flags.writeable = False
        return t

    @cached_property
    def v_table(self) -> np.ndarray:
        """Boolean q x q table; [a, b] is True when a-below-b is forbidden."""
        t = np.zeros((self.q, self.q), dtype=bool)
        for a, b in self.vforbid:
            t[a, b] = True
        t.flags.writeable = False
        return t

    @cached_property
    def fill_table(self) -> np.ndarray:
        """uint64 array of shape (4, q + 1): row d, column b is the bitmask
        (bit a for center a) of the centers compatible with neighbor b in
        direction d (NORTH, SOUTH, EAST, WEST). Column q stands for "no
        neighbor" and has all q bits set."""
        q = self.q
        if q > SSF_BRUTE_FORCE_LIMIT:
            raise ValueError(f"alphabet too large for a fill table (q > {SSF_BRUTE_FORCE_LIMIT})")
        bits = np.left_shift(np.uint64(1), np.arange(q, dtype=np.uint64))
        t = np.empty((4, q + 1), dtype=np.uint64)
        # ok[b, a]: center a may sit next to neighbor b in that direction
        for d, ok in (
            (NORTH, ~self.v_table.T),
            (SOUTH, ~self.v_table),
            (EAST, ~self.h_table.T),
            (WEST, ~self.h_table),
        ):
            t[d, :q] = np.bitwise_or.reduce(np.where(ok, bits, np.uint64(0)), axis=1)
        t[:, q] = np.bitwise_or.reduce(bits)
        t.flags.writeable = False
        return t

    @cached_property
    def pick_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The sampler's lookup: for a west neighbor l and a south neighbor
        d (q for "none"), row l*(q+1) + d of the (q+1)**2 x q table lists
        the centers compatible with both, in increasing order and first,
        and the count array says how many there are."""
        q = self.q
        both = self.fill_table[WEST][:, None] & self.fill_table[SOUTH][None, :]
        ok = (both.reshape(-1, 1) >> np.arange(q, dtype=np.uint64) & np.uint64(1)).astype(bool)
        table = np.argsort(~ok, axis=1, kind="stable")
        count = ok.sum(axis=1)
        table.flags.writeable = count.flags.writeable = False
        return table, count

    @cached_property
    def ssf(self) -> "SsfResult":
        return check_ssf(self)


@dataclass(frozen=True)
class SsfResult:
    ok: bool
    # a blocking boundary (north, south, east, west) when ok is False
    witness: tuple[int, int, int, int] | None


@dataclass(frozen=True)
class BadSites:
    sites: frozenset[Site]
    evaluable: Rect | None  # None when the window is too thin to evaluate anywhere


class SymbolRangeError(ValueError):
    def __init__(self, site: Site, symbol: int, q: int):
        self.site = site
        self.symbol = symbol
        super().__init__(f"symbol {symbol} at {site} outside alphabet 0..{q - 1}")


def _check_symbols(w: Window, sft: NnSft) -> None:
    arr = w.array
    if arr.size and (int(arr.max()) >= sft.q or int(arr.min()) < 0):
        bad = (arr >= sft.q) | (arr < 0)
        r, c = map(int, np.argwhere(bad)[0])
        site = (w.rect.x0 + c, w.rect.y1 - r)
        raise SymbolRangeError(site, int(arr[r, c]), sft.q)


def bad_site_mask(w: Window, sft: NnSft) -> tuple[np.ndarray, Rect | None]:
    """Boolean array over the window marking bad sites, plus the evaluable rect.

    A site is evaluable when its right and up neighbors are stored; the
    mask is False outside the evaluable sub-rectangle.
    """
    _check_symbols(w, sft)
    arr = w.array
    h, wd = arr.shape
    mask = np.zeros((h, wd), dtype=bool)
    if h < 2 or wd < 2:
        return mask, None
    # evaluable sites occupy rows 1.. and columns ..-2 of the array
    right = sft.h_table[arr[1:, :-1], arr[1:, 1:]]
    up = sft.v_table[arr[1:, :-1], arr[:-1, :-1]]
    mask[1:, :-1] = right | up
    from .lattice import Rect

    return mask, Rect(w.rect.x0, w.rect.y0, w.rect.width - 1, w.rect.height - 1)


def bad_sites(w: Window, sft: NnSft) -> BadSites:
    """Sites whose right or up pair is forbidden (window version of the
    penalty potential's support)."""
    mask, evaluable = bad_site_mask(w, sft)
    rows, cols = np.nonzero(mask)
    sites = frozenset(zip((cols + w.rect.x0).tolist(), (w.rect.y1 - rows).tolist()))
    return BadSites(sites, evaluable)


def check_ssf(sft: NnSft) -> SsfResult:
    """Exhaustive single-site fillability check.

    For every boundary assignment (north, south, east, west) there must
    be a center symbol a with (west, a) and (a, east) horizontally
    allowed and (south, a) and (a, north) vertically allowed, i.e. the
    AND of the four fill-table masks is nonzero. On failure the
    lexicographically first blocking boundary is returned. One north
    symbol is checked at a time, so at most q**3 masks are held.
    """
    q = sft.q
    if q > SSF_BRUTE_FORCE_LIMIT:
        raise ValueError(f"alphabet too large for exhaustive SSF check (q > {SSF_BRUTE_FORCE_LIMIT})")
    t = sft.fill_table[:, :q]
    ew = (t[EAST][:, None] & t[WEST][None, :]).ravel()  # index e * q + w
    for n in range(q):
        blocked = (t[NORTH][n] & t[SOUTH][:, None] & ew[None, :]) == 0  # [s, e * q + w]
        if blocked.any():
            s, e_w = divmod(int(np.argmax(blocked)), q * q)
            e, w = divmod(e_w, q)
            return SsfResult(False, (n, s, e, w))
    return SsfResult(True, None)


def find_safe_symbols(sft: NnSft) -> list[int]:
    """Symbols compatible with every boundary: members of no forbidden pair."""
    blocked = set()
    for a, b in sft.hforbid:
        blocked.add(a)
        blocked.add(b)
    for a, b in sft.vforbid:
        blocked.add(a)
        blocked.add(b)
    return [a for a in range(sft.q) if a not in blocked]


# ---------------------------------------------------------------------------
# Built-in SFTs and the line-oriented spec format


def hard_square() -> NnSft:
    """Binary shift with no two adjacent 1s."""
    return NnSft(2, frozenset({(1, 1)}), frozenset({(1, 1)}))


def checkerboard(k: int) -> NnSft:
    """k symbols, equal adjacent symbols forbidden in both directions."""
    if k < 2:
        raise ValueError("checkerboard needs k >= 2")
    eq = frozenset((a, a) for a in range(k))
    return NnSft(k, eq, eq)


def full_shift(q: int) -> NnSft:
    """No forbidden pairs."""
    return NnSft(q, frozenset(), frozenset())


class SftParseError(ValueError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def parse_sft(text: str) -> NnSft:
    """Parse the spec format: 'alphabet q', then 'hforbid a b' / 'vforbid a b'.

    '#' starts a comment; unknown keywords are errors with line numbers.
    """
    q: int | None = None
    hf: set[Pair] = set()
    vf: set[Pair] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        if key == "alphabet":
            if q is not None:
                raise SftParseError(lineno, "duplicate alphabet line")
            if len(parts) != 2:
                raise SftParseError(lineno, "expected: alphabet <q>")
            try:
                q = int(parts[1])
            except ValueError:
                raise SftParseError(lineno, f"alphabet size must be an integer, got {parts[1]!r}")
            if q < 1:
                raise SftParseError(lineno, "alphabet size must be >= 1")
        elif key in ("hforbid", "vforbid"):
            if q is None:
                raise SftParseError(lineno, "alphabet line must come first")
            if len(parts) != 3:
                raise SftParseError(lineno, f"expected: {key} <a> <b>")
            try:
                a, b = int(parts[1]), int(parts[2])
            except ValueError:
                raise SftParseError(lineno, "forbidden pair symbols must be integers")
            if not (0 <= a < q and 0 <= b < q):
                raise SftParseError(lineno, f"symbol outside alphabet 0..{q - 1}")
            (hf if key == "hforbid" else vf).add((a, b))
        else:
            raise SftParseError(lineno, f"unknown keyword {key!r}")
    if q is None:
        raise SftParseError(1, "missing alphabet line")
    return NnSft(q, frozenset(hf), frozenset(vf))


def load_sft(spec: str) -> NnSft:
    """Resolve a built-in name (hardsquare, checkerboard:<k>, full:<q>) or
    read and parse a spec file."""
    if spec == "hardsquare":
        return hard_square()
    if spec.startswith("checkerboard:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad checkerboard spec {spec!r}; expected checkerboard:<k>")
        # refused before the pairs are built: past q = 64 only entropy runs, on q**2 states
        if k * k > STATE_ENUM_GUARD:
            raise ValueError(f"checkerboard:{k} is too large: no command runs for k**2 > {STATE_ENUM_GUARD}")
        return checkerboard(k)
    if spec.startswith("full:"):
        try:
            q = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad full-shift spec {spec!r}; expected full:<q>")
        return full_shift(q)
    if not os.path.exists(spec):
        raise ValueError(f"no such SFT spec file or built-in name: {spec!r}")
    with open(spec, "r", encoding="utf-8") as f:
        return parse_sft(f.read())
