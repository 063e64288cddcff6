"""Nearest-neighbor SFTs: forbidden pairs, admissibility, fillability.

An NnSft is an alphabet size q plus two sets of ordered forbidden
pairs: (a, b) in hforbid bans a immediately left of b, and (a, b) in
vforbid bans a immediately below b. A window is locally admissible when
none of its stored adjacent pairs is forbidden.

A site u of a window is *bad* when the pair (u, u+e1) or (u, u+e2) is
forbidden (NnSft.bad); badness is attributed to the lower/left
endpoint, so the penalty potential in the potentials module is exactly
-1 on bad sites. A site of a window's top row or right column has a
neighbor outside it, so it is never marked bad.

Single-site fillability (SSF): for every assignment of four symbols to
a site's neighbors, some center symbol is compatible with all four
constraints. The fill table holds, for each direction and neighbor
symbol, the bitmask of compatible centers as a Python int, so the
centers that fit a boundary are the AND of four masks. The SSF check
decides all q**4 boundary assignments (admissible or not) from the same
masks with bitsets; the sampler and repair pick their symbols from them.
A safe symbol is a center that works for every boundary, i.e. a symbol
in no forbidden pair.

Only the functions that build arrays import numpy, so deciding SSF
(the `check` command) loads none. NnSft, SsfResult and BadSites are
written out by hand as frozen value classes, compared, hashed and shown
as frozen dataclasses are, so `check` loads no `dataclasses` either, nor
the `inspect`, `ast` and `tokenize` that it imports.
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # `check` runs nothing of lattice or numpy, so neither is loaded for it
    import numpy as np

    from .lattice import Site, Window

Pair = tuple[int, int]

# the widest alphabet: pick_table stores the masks as uint64, and repair's
# windows hold one symbol per byte
SSF_BRUTE_FORCE_LIMIT = 64
# the widest alphabet of NnSft.bad's q**3 table (2 MiB); 3x3 pattern codes
# fit an int64 only up to the same q
BAD_TABLE_LIMIT = 128
STATE_ENUM_GUARD = 2_000_000  # strip states entropy may enumerate; load_sft refuses past it

# rows of NnSft.fill_table, in the order of an SSF witness
NORTH, SOUTH, EAST, WEST = range(4)


class _Frozen:
    """A value whose fields, named in `_fields`, are set once in __init__
    (with object.__setattr__) and compared, hashed and shown in that
    order, as a frozen dataclass's are; assigning or deleting an
    attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NnSft(_Frozen):
    """A nearest-neighbor SFT over symbols 0..q-1."""

    _fields = ("q", "hforbid", "vforbid")
    q: int
    hforbid: frozenset[Pair]
    vforbid: frozenset[Pair]

    def __init__(self, q: int, hforbid=frozenset(), vforbid=frozenset()) -> None:
        if q < 1:
            raise ValueError("alphabet size must be >= 1")
        object.__setattr__(self, "q", q)
        for name, pairs in (("hforbid", frozenset(hforbid)), ("vforbid", frozenset(vforbid))):
            for a, b in pairs:
                if not (0 <= a < q and 0 <= b < q):
                    raise ValueError(f"{name} pair ({a}, {b}) outside alphabet 0..{q - 1}")
            object.__setattr__(self, name, pairs)

    @cached_property
    def h_table(self) -> np.ndarray:
        """Boolean q x q table; [a, b] is True when a-left-of-b is forbidden."""
        return _pair_table(self.q, self.hforbid)

    @cached_property
    def v_table(self) -> np.ndarray:
        """Boolean q x q table; [a, b] is True when a-below-b is forbidden."""
        return _pair_table(self.q, self.vforbid)

    @cached_property
    def bad_table(self) -> np.ndarray:
        """Flat boolean table of q**3 entries; entry (center*q + right)*q + up
        is True when (center, right) or (center, up) is forbidden."""
        if self.q > BAD_TABLE_LIMIT:
            raise ValueError(f"alphabet too large for a bad-site table (q > {BAD_TABLE_LIMIT})")
        t = (self.h_table[:, :, None] | self.v_table[:, None, :]).ravel()
        t.flags.writeable = False
        return t

    def bad(self, center: np.ndarray, right: np.ndarray, up: np.ndarray) -> np.ndarray:
        """Whether the pair (center, right) or (center, up) is forbidden,
        for symbol arrays of one shape. Every symbol must be below q, which
        callers check: a larger one can land on another entry unseen."""
        import numpy as np

        at = center.astype(np.intp)
        at *= self.q
        at += right
        at *= self.q
        at += up
        return self.bad_table.take(at)

    @cached_property
    def fill_table(self) -> tuple[tuple[int, ...], ...]:
        """Four tuples of q + 1 ints: row d, column b is the bitmask (bit a
        for center a) of the centers compatible with neighbor b in
        direction d (NORTH, SOUTH, EAST, WEST). Column q stands for "no
        neighbor" and has all q bits set."""
        q = self.q
        if q > SSF_BRUTE_FORCE_LIMIT:
            raise ValueError(f"alphabet too large for a fill table (q > {SSF_BRUTE_FORCE_LIMIT})")
        t = [[(1 << q) - 1] * (q + 1) for _ in range(4)]
        # a forbidden pair (a, b) bans center b next to a, and center a next to b
        for pairs, before, after in ((self.hforbid, WEST, EAST), (self.vforbid, SOUTH, NORTH)):
            for a, b in pairs:
                t[before][a] &= ~(1 << b)
                t[after][b] &= ~(1 << a)
        return tuple(map(tuple, t))

    @cached_property
    def pick_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The sampler's lookup: for a west neighbor l and a south neighbor
        d (q for "none"), row l*(q+1) + d of the (q+1)**2 x q table lists
        the centers compatible with both, in increasing order and first,
        and the count array says how many there are."""
        import numpy as np

        q = self.q
        west, south = (np.array(self.fill_table[d], dtype=np.uint64) for d in (WEST, SOUTH))
        both = west[:, None] & south[None, :]
        ok = (both.reshape(-1, 1) >> np.arange(q, dtype=np.uint64) & np.uint64(1)).astype(bool)
        table = np.argsort(~ok, axis=1, kind="stable")
        count = ok.sum(axis=1)
        table.flags.writeable = count.flags.writeable = False
        return table, count

    @cached_property
    def ssf(self) -> "SsfResult":
        return check_ssf(self)


def _pair_table(q: int, pairs: frozenset[Pair]) -> np.ndarray:
    import numpy as np

    t = np.zeros((q, q), dtype=bool)
    for a, b in pairs:
        t[a, b] = True
    t.flags.writeable = False
    return t


class SsfResult(_Frozen):
    _fields = ("ok", "witness")
    ok: bool
    # a blocking boundary (north, south, east, west) when ok is False
    witness: tuple[int, int, int, int] | None

    def __init__(self, ok: bool, witness: tuple[int, int, int, int] | None) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)


class BadSites(_Frozen):
    _fields = ("sites",)
    sites: frozenset[Site]

    def __init__(self, sites: frozenset[Site]) -> None:
        object.__setattr__(self, "sites", sites)


class SymbolRangeError(ValueError):
    def __init__(self, site: Site, symbol: int, q: int):
        self.site = site
        self.symbol = symbol
        super().__init__(f"symbol {symbol} at {site} outside alphabet 0..{q - 1}")


def _check_symbols(w: Window, sft: NnSft) -> None:
    import numpy as np

    arr = w.array
    if arr.size and (int(arr.max()) >= sft.q or int(arr.min()) < 0):
        bad = (arr >= sft.q) | (arr < 0)
        r, c = map(int, np.argwhere(bad)[0])
        raise SymbolRangeError(w.rect.sites(r, c), int(arr[r, c]), sft.q)


def bad_site_mask(w: Window, sft: NnSft) -> np.ndarray:
    """Boolean array over the window marking bad sites; False on the top
    row and the right column, whose right or up neighbor is not stored."""
    import numpy as np

    _check_symbols(w, sft)
    arr = w.array
    mask = np.zeros(arr.shape, dtype=bool)
    # sites with both neighbors stored occupy rows 1.. and columns ..-2
    mask[1:, :-1] = sft.bad(arr[1:, :-1], arr[1:, 1:], arr[:-1, :-1])
    return mask


def bad_sites(w: Window, sft: NnSft) -> BadSites:
    """Sites whose right or up pair is forbidden (window version of the
    penalty potential's support)."""
    xs, ys = w.rect.sites(*bad_site_mask(w, sft).nonzero())
    return BadSites(frozenset(zip(xs.tolist(), ys.tolist())))


def check_ssf(sft: NnSft) -> SsfResult:
    """Exhaustive single-site fillability check.

    For every boundary assignment (north, south, east, west) there must
    be a center symbol a with (west, a) and (a, east) horizontally
    allowed and (south, a) and (a, north) vertically allowed, i.e. the
    AND of the four fill-table masks is nonzero. Bit e*q + w of cover[a]
    is set when center a fits east e and west w; a (north, south) pair
    is fillable when the covers of the centers fitting both OR to all
    q**2 bits, decided once per distinct mask of those centers. On
    failure the lexicographically first blocking boundary is returned:
    the first failing (north, south), with the lowest missing bit.
    """
    q = sft.q
    if q > SSF_BRUTE_FORCE_LIMIT:
        raise ValueError(f"alphabet too large for exhaustive SSF check (q > {SSF_BRUTE_FORCE_LIMIT})")
    north, south, east, west = sft.fill_table
    cover = []
    for a in range(q):
        wests = sum(1 << w for w in range(q) if west[w] >> a & 1)
        cover.append(sum(wests << e * q for e in range(q) if east[e] >> a & 1))
    everything = (1 << q * q) - 1
    missing: dict[int, int] = {}  # centers mask -> the (e, w) bits none of them covers
    for n in range(q):
        for s in range(q):
            centers = north[n] & south[s]
            gap = missing.get(centers)
            if gap is None:
                covered, m = 0, centers
                while m and covered != everything:  # stop once every (e, w) is covered
                    low = m & -m
                    covered |= cover[low.bit_length() - 1]
                    m ^= low
                gap = missing[centers] = everything & ~covered
            if gap:
                e, w = divmod((gap & -gap).bit_length() - 1, q)
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
