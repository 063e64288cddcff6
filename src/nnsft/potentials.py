"""Penalty potential, range-1 perturbations, and windowed sums.

The penalty potential of a nearest-neighbor SFT is -1 at a site whose
rightward or upward pair is forbidden and 0 otherwise, so it vanishes
exactly on admissible configurations and its value at a site depends
only on the 3x3 patch there. PerturbedPotential.patch_parts is the one
evaluator of g = penalty + h: it takes the nine patch-symbol arrays of
some sites, in PATCH_OFFSETS order, and returns the bad-site indicator
and h there, searching the sorted pattern codes only at the sites whose
code passes a bit filter of the stored codes. PerturbedPotential.parts
gathers those arrays from a window at arrays of sites, for value and
the level-set check; region_patches cuts them from a window array as
nine views, for birkhoff_sum and the harness's per-shell accounting,
with no copy and no index gather. sum_parts turns an evaluation into a
windowed sum.

Perturbations are range-1: an array of distinct 3x3 patterns (row-major,
top row first) and one of their coefficients, each finite and within a
cap. Such a function is Lipschitz for the dyadic metric and
its norms are computable exactly: two configurations achieving the
variation sup can agree everywhere outside the patch, so the seminorm is
the maximum of |c_p - c_p'| * 2**i(p, p') over patch pairs, where
i(p, p') is 0 when the patterns differ at the center and 1 otherwise.
Patterns absent from the table form an implicit zero-coefficient class.
With max_a and min_a the extremes of the coefficients of center a, 0
among them when a pattern with center a is absent, that maximum is the
larger of 2*(max_a - min_a) over centers a and max_a - min_b over
centers a != b. Letting the latter range over a == b too adds values at
most half the former, so it is the largest max_a less the smallest
min_b. Float subtraction is monotone, so these extremes give the
pairwise maximum of the rounded |c_p - c_p'| to the bit.

Norm convention: ||h||_Lip = sup|h| + Lip(h).

certify_norm_gap, the certified gap, is that sum, the largest |c| plus
the seminorm above, up to SEMINORM_ENUM_GUARD stored patterns. Beyond
it is the analytic bound: configurations agreeing on the 3x3 patch
have equal h, so any pair with h(x) != h(y) differs inside the patch
and has d(x, y) >= 1/2; hence Lip(h) <= 2*cap / (1/2) = 4*cap and
||h||_Lip <= cap + 4*cap = 5*cap.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from math import inf

import numpy as np

from .lattice import Rect, Site, Window, metric_exact
from .sft import NnSft, _check_symbols

# 3x3 patch offsets (dx, dy) in documented order: row-major, top row first
PATCH_OFFSETS: tuple[Site, ...] = (
    (-1, 1), (0, 1), (1, 1),
    (-1, 0), (0, 0), (1, 0),
    (-1, -1), (0, -1), (1, -1),
)
PATCH_CENTER = 4  # index of (0, 0) in PATCH_OFFSETS
_UP, _RIGHT = 1, 5  # indices of (0, 1) and (1, 0)

SEMINORM_ENUM_GUARD = 10_000  # certify_norm_gap's switch to the 5*cap bound
SUPPORT_GUARD = 2**21  # largest sampled perturbation support, in patterns


@dataclass(frozen=True, eq=False, init=False)
class RangeOnePerturbation:
    """n distinct 3x3 patterns, an (n, 9) int64 array in PATCH_OFFSETS
    order, and their n float coefficients, each at most cap in absolute
    value; both arrays read-only. Built from a dict mapping 9-tuples of
    nonnegative integers (bools count) to coefficients."""

    patterns: np.ndarray
    values: np.ndarray
    cap: float

    def __init__(self, coeffs: dict[tuple[int, ...], float], cap: float) -> None:
        patterns = np.array(list(coeffs) or np.empty((0, 9), np.int64))
        self._set(patterns, np.fromiter(coeffs.values(), float, len(coeffs)), cap)

    @classmethod
    def _from_arrays(cls, patterns: np.ndarray, values: np.ndarray, cap: float) -> "RangeOnePerturbation":
        h = cls.__new__(cls)
        h._set(patterns, values, cap)
        return h

    def _set(self, patterns: np.ndarray, values: np.ndarray, cap: float) -> None:
        # both constructors' one check. Rows are distinct dict keys or codes;
        # patterns of unequal lengths numpy refuses before, with ValueError
        if not 0 < cap < inf:
            raise ValueError("cap must be positive and finite")
        if patterns.dtype.kind not in "biu" or patterns.shape != (len(values), 9):
            raise ValueError("patterns must be 9-tuples of integer symbols below 2**63")
        patterns = patterns.astype(np.int64, copy=False)  # a uint64 of 2**63 or more turns negative
        if patterns.size and patterns.min() < 0:
            raise ValueError("pattern symbols must be nonnegative")
        if not (np.abs(values) <= cap).all():  # refuses NaN too
            raise ValueError(f"coefficient {values[~(np.abs(values) <= cap)][0]} exceeds cap {cap}")
        patterns.flags.writeable = values.flags.writeable = False
        for name, value in (("patterns", patterns), ("values", values), ("cap", cap)):
            object.__setattr__(self, name, value)

    @property
    def support_size(self) -> int:
        return len(self.values)


def _check_alphabet(h: RangeOnePerturbation, q: int) -> None:
    """Refuse symbols of q or more and, unless h is empty, a q too large for _pattern_codes."""
    if h.support_size:
        _check_code_range(q)
        if h.patterns.max() >= q:
            raise ValueError(f"pattern symbol {h.patterns.max()} outside alphabet 0..{q - 1}")


def lipschitz_seminorm_exact(h: RangeOnePerturbation, q: int) -> float:
    """Exact Lipschitz seminorm of a range-1 function over alphabet 0..q-1,
    from each center's coefficient extremes (see the module docstring),
    in one pass over the stored patterns."""
    _check_alphabet(h, q)
    _, at, counts = np.unique(h.patterns[:, PATCH_CENTER], return_inverse=True, return_counts=True)
    hi = np.full(len(counts), -inf)
    lo = np.full(len(counts), inf)
    np.maximum.at(hi, at, h.values)
    np.minimum.at(lo, at, h.values)
    partial = counts < q**8  # the center's absent patterns add a 0
    hi[partial] = np.maximum(hi[partial], 0.0)
    lo[partial] = np.minimum(lo[partial], 0.0)
    if len(counts) < q:  # a center with no stored pattern has only 0
        hi, lo = np.append(hi, 0.0), np.append(lo, 0.0)
    # the leading 0.0 keeps a zero seminorm +0.0
    return float(max(0.0, 2.0 * (hi - lo).max(), hi.max() - lo.min()))


@dataclass
class PerturbedPotential:
    """Penalty potential plus a range-1 perturbation, with gap, the
    certified upper bound on the Lipschitz norm of the difference,
    computed once at construction, which refuses symbols of q or more."""

    sft: NnSft
    h: RangeOnePerturbation
    gap: float = field(init=False)

    def __post_init__(self) -> None:
        _check_alphabet(self.h, self.sft.q)
        self.gap = certify_norm_gap(self.h, self.sft.q)

    @classmethod
    def build(cls, sft: NnSft, h: RangeOnePerturbation) -> "PerturbedPotential":
        return cls(sft, h)

    def patch_parts(self, patch: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(bad, h) at sites given by their 3x3 patches: patch holds nine
        symbol arrays of one shape, in PATCH_OFFSETS order, and the two
        results have that shape. bad is the bad-site indicator, from
        NnSft.bad's flat table; h is the perturbation, looked up by 3x3
        pattern code. Only the sites whose code passes _code_filter can
        hold a stored pattern; those alone are searched for among the
        sorted codes, and every other site gets h = 0.
        """
        bad = self.sft.bad(patch[PATCH_CENTER], patch[_RIGHT], patch[_UP])
        codes, vals = self._code_lookup
        h = np.zeros(bad.size)
        if codes.size:
            code = _pattern_codes(patch, self.sft.q).ravel()
            filt = self._code_filter
            at = np.flatnonzero(filt[code & (len(filt) - 1)])
            code = code[at]
            idx = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
            hit = codes[idx] == code
            h[at[hit]] = vals[idx[hit]]
        return bad, h.reshape(bad.shape)

    def sum_parts(self, bad: int, h: np.ndarray) -> float:
        """The sum of g over some sites, given the number of bad sites
        among them and patch_parts' h there: minus the bad count plus
        numpy's sum of h, which is left out for an empty table. numpy
        groups a sum by the array's layout, so equal sums need h of one
        shape and contiguous."""
        total = -float(bad)
        if self.h.support_size:
            total += float(h.sum())
        return total

    def parts(self, w: Window, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """patch_parts at the sites (xs, ys) of w, two arrays of their
        broadcast shape.

        Every site's 3x3 patch must be stored, and every symbol of w be
        below q (SymbolRangeError otherwise).
        """
        _check_symbols(w, self.sft)
        rect, flat = w.rect, w.array.ravel()
        r, c = rect.cells(np.asarray(xs), np.asarray(ys))
        if r.size and c.size and (
            r.min() < 1 or c.min() < 1 or r.max() > rect.height - 2 or c.max() > rect.width - 2
        ):
            raise ValueError("insufficient margin")
        width = rect.width
        at = r * width + c  # index of each site in the row-major array
        return self.patch_parts([flat[at + dx - dy * width] for dx, dy in PATCH_OFFSETS])

    def value(self, w: Window, xs, ys) -> np.ndarray:
        """g at the sites (xs, ys) of w: h minus the bad-site indicator."""
        bad, h = self.parts(w, xs, ys)
        return h - bad

    @cached_property
    def _code_lookup(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored patterns' codes in increasing order, and their
        coefficients in the same order."""
        codes = _pattern_codes(self.h.patterns.T, self.sft.q)
        order = np.argsort(codes)  # codes are unique: no ties to break
        return codes[order], self.h.values[order]

    @cached_property
    def _code_filter(self) -> np.ndarray:
        """True at code & (len - 1) for every stored code: a site whose
        code lands on False holds no stored pattern. The length is a
        power of two, at least 64 per stored pattern, at most 2**20 and
        at most the first power of two >= q**9, where the filter is
        exact."""
        codes, _ = self._code_lookup
        bits = min((64 * len(codes) - 1).bit_length(), 20, (self.sft.q**9 - 1).bit_length())
        filt = np.zeros(1 << bits, dtype=bool)
        filt[codes & ((1 << bits) - 1)] = True
        return filt


def certify_norm_gap(h: RangeOnePerturbation, q: int) -> float:
    """Upper bound on ||h||_Lip over alphabet 0..q-1: the exact sup norm
    plus the exact seminorm up to SEMINORM_ENUM_GUARD stored patterns,
    the 5*cap analytic bound beyond (see the module docstring)."""
    if h.support_size <= SEMINORM_ENUM_GUARD:
        return float(np.abs(h.values).max(initial=0.0)) + lipschitz_seminorm_exact(h, q)
    return 5.0 * h.cap


def _check_code_range(q: int) -> None:
    """Refuse an alphabet whose 3x3 pattern codes, 0..q**9 - 1, do not
    all fit an int64: q > 128."""
    if q**9 > 2**63:
        raise ValueError("alphabet too large to index 3x3 patterns")


def _pattern_codes(patch: Sequence[np.ndarray], q: int) -> np.ndarray:
    """Code of each 3x3 pattern, the sum of patch[k] * q**k over the nine
    symbol arrays in PATCH_OFFSETS order, by Horner's rule in place."""
    code = np.array(patch[8], dtype=np.int64)
    for symbols in patch[7::-1]:
        code *= q
        code += symbols
    return code


def region_patches(a: np.ndarray, rect: Rect, region: Rect) -> list[np.ndarray]:
    """The 3x3 patches of the region's sites in a 2D array over rect (row
    0 the top row, as in a Window), as nine views of a in PATCH_OFFSETS
    order, each of the region's shape with row 0 its top row.

    The region inflated by one must fit in rect.
    """
    if not rect.contains_rect(region.inflate(1)):
        raise ValueError("insufficient margin")
    rows, cols = rect.cut(region)
    return [
        a[rows.start - dy : rows.stop - dy, cols.start + dx : cols.stop + dx]
        for dx, dy in PATCH_OFFSETS
    ]


def birkhoff_sum(g: PerturbedPotential, w: Window, region: Rect) -> float:
    """Sum of g over every site of the region.

    The region inflated by one must fit in the window domain, so every
    summand has its full 3x3 patch stored, and every symbol of w must be
    below q. The sum is minus the bad count plus the numpy sum of h in
    row-major order, top row first.
    """
    _check_symbols(w, g.sft)
    bad, h = g.patch_parts(region_patches(w.array, w.rect, region))
    return g.sum_parts(int(np.count_nonzero(bad)), h)


def _check_sampling(cap: float, support_size: int, q: int) -> None:
    """Refuse the arguments sample_perturbation cannot draw from."""
    if not 0 < cap < inf:
        raise ValueError("cap must be positive and finite")
    if q < 1:
        raise ValueError("alphabet size must be >= 1")
    _check_code_range(q)
    if support_size < 0:
        raise ValueError("perturbation support size must be >= 0")
    if support_size > q**9:
        raise ValueError(f"support_size {support_size} exceeds the {q**9} distinct patterns")
    if support_size > SUPPORT_GUARD:
        raise ValueError(f"support_size {support_size} is over the sampling guard ({SUPPORT_GUARD})")


def sample_perturbation(
    cap: float,
    support_size: int,
    q: int,
    seed: int | np.random.Generator,
) -> RangeOnePerturbation:
    """Draw support_size distinct 3x3 patterns uniformly with coefficients
    uniform in [-cap, cap]. Deterministic given the seed.

    Pattern codes are drawn in rounds of as many as are still missing,
    keeping first occurrences: the same draws, in the same order, as one
    code at a time until support_size distinct ones are found. Arguments
    that _check_sampling refuses are refused before any draw."""
    _check_sampling(cap, support_size, q)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    seen: set[int] = set()
    codes: list[int] = []
    while len(codes) < support_size:
        # a round never overdraws: at least this many more draws are needed
        for v in rng.integers(0, q**9, size=support_size - len(codes)).tolist():
            if v not in seen:
                seen.add(v)
                codes.append(v)
    values = rng.uniform(-cap, cap, size=support_size)
    patterns = np.array(codes, dtype=np.int64)[:, None] // q ** np.arange(9) % q
    return RangeOnePerturbation._from_arrays(patterns, values, cap)


@dataclass(frozen=True)
class LevelSetCheckResult:
    ok: bool
    checked: int
    skipped: int  # pairs agreeing on the whole domain: no exact distance
    worst_slack: float  # min over checked pairs of gap*d - |g(x) - g(y)|


def check_levelset_lipschitz(
    g: PerturbedPotential,
    pairs: list[tuple[Window, Window]],
    level: int,
) -> LevelSetCheckResult:
    """Verify |g(x) - g(y)| <= gap * d(x, y) at the origin for window
    pairs whose penalty value at the origin is the given level.

    Pairs agreeing on their whole domain are skipped (their distance
    has only an upper bound, under which the inequality is trivial).
    """
    if level not in (0, -1):
        raise ValueError("level must be 0 or -1")
    gap = g.gap
    ok = True
    checked = 0
    skipped = 0
    worst = float("inf")
    for wx, wy in pairs:
        gs = []  # g at each origin, formed as value forms it
        for bad, h in (g.parts(w, 0, 0) for w in (wx, wy)):
            if -int(bad) != level:
                raise ValueError("window pair is not on the required penalty level set")
            gs.append(h - bad)
        m = metric_exact(wx, wy)
        if m.is_agreement:
            skipped += 1
            continue
        d = float(m.value)
        lhs = abs(float(gs[0] - gs[1]))
        slack = gap * d - lhs
        worst = min(worst, slack)
        if slack < 0:
            ok = False
        checked += 1
    if checked == 0:
        worst = 0.0
    return LevelSetCheckResult(ok, checked, skipped, worst)
