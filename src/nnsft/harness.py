"""End-to-end verification of the repair construction's quantitative bounds.

One trial: sample an admissible window, corrupt it site-wise, sample a
certified perturbation g of the penalty potential, repair the corrupted
window shell by shell, then check every bound with eps replaced by the
certified norm gap of g (never the looser nominal value):

* average bounds: an admissible window has normalized windowed sum
  >= -gap; a window at least half of whose sites are bad has normalized
  sum <= -1/2 + gap;
* per-shell improvement: repairing shell i raises the windowed sum by
  at least (1 - 32*gap)*pending_i - 112*gap, where pending_i counts the
  shell's sites still bad when its turn comes. The input window's full
  shell count |S_i| can exceed pending_i: a fill validates every pair
  it touches, so repairing shell i-1 can collaterally fix a site of
  S_i whose only forbidden pair pointed inward. Such sites are refilled
  but yield no improvement, so the bound taken over the full |S_i| is
  genuinely violated on a few percent of random trials; the harness
  records that literal margin without asserting it. The per-shell sums
  and counts come from the repair's input and output alone (see
  check_shell_gaps), so no intermediate window is built;
* total improvement: summed over shells and with a dyadic tail
  allowance 2*(8N+8) for the influence of the first unrepaired shell,
  the window-averaged improvement is at least
  (1 - 32*gap)*bad_fraction - (112*gap*(N+1) + 2*(8N+8)) / (2N+1)**2.

A trial evaluates g once per window state. check_average_bounds does so
on the admissible window, before repair, which frees that window;
check_shell_gaps over the box of radius N, the region, on four states:
at a site of norm k, its patch repaired at norms <= k + shift, shift =
-2..1, from the corrupted window to the repaired one. Its report also
carries the corrupted window's bad count on each shell, the repaired
window's bad count, the windowed sum of both, and the number of sites
repair changed other than the corrupted window's bad sites in the
region. run_trial checks those shell counts against repair's own, and
builds from them the corrupted window's average bound, through the same
helper as check_average_bounds, the total bound, and its locality and
cleanliness checks, so it builds no bad-site mask of its own.

Both checks evaluate g over row bands, Rect.bands(BAND_SITES), so
their working set is a band's temporaries plus what must span the
region: one float array of h per window state whose windowed sum is
reported, because numpy groups a sum by the array's layout and only a
contiguous array over the whole region gives birkhoff_sum's grouping
(8 bytes per region site each), and check_shell_gaps' nonzero
per-shell terms, which one sort over the region puts in replay order.

The normalized total bound is asymptotic in N: at small N its right
side drops below zero and the check is vacuous. The harness labels that
regime explicitly and still reports the observed improvement instead of
passing silently.

All randomness derives from (master seed, trial index), so a trial's
report does not depend on which trials ran before it, nor on how trials
are chunked: the first trial of a chunk samples the windows of all of
its trials in one sweep, each from its trial's own generator, which
then goes on through the trial exactly as if it had sampled alone.
run_experiment(cfg, write) hands each trial's CSV lines to write when
the trial ends and keeps no report, so its memory is flat in the
number of trials.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .lattice import BAND_SITES, Rect, Window
from .potentials import (
    PATCH_CENTER,
    PerturbedPotential,
    _check_sampling,
    region_patches,
    sample_perturbation,
)
from .repair import _check_rule_name, repair
# bad_site_mask is unused here but stays in the namespace: the
# benchmark's tracer test patches and reads harness.bad_site_mask
from .sft import NnSft, _check_symbols, _Frozen, bad_site_mask  # noqa: F401

DEFAULT_EPSILON = 1.0 / 64.0
DEFAULT_CAP = 1.0 / 384.0

SHELL_SLACK_COEFF = 112.0  # per-shell allowance, in units of the norm gap
SHELL_SITE_COEFF = 32.0    # per-bad-site degradation coefficient, likewise

WINDOW_SITE_GUARD = 2**22  # largest sampled window or stack, in sites (radius 1023)
# run_experiment's trials sample their windows in chunks of at most
# this many sites (at least one window), each chunk in one sweep: 11
# windows at N = 24, one from N = 62 on
CHUNK_SITES = 2**15


def tail_slack(n: int) -> float:
    """Allowance for the first unseen shell: 8n+8 sites, dyadic falloff."""
    return 2.0 * (8 * n + 8)


def trial_seed(master: int, index: int) -> int:
    return master * 1_000_003 + index


class TrialConfig(_Frozen):
    """Configuration for a batch of verification trials."""

    sft: NnSft
    n: int = 24
    epsilon: float = DEFAULT_EPSILON
    cap: float = DEFAULT_CAP
    corrupt_rate: float = 0.15
    support_size: int = 8
    seed: int = 0
    trials: int = 1
    rule: str = "smallest"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("box radius must be >= 1")
        _check_corrupt_rate(self.corrupt_rate)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        _check_rule_name(self.rule)
        # a NaN makes the hypothesis test below False; an infinite epsilon passes any cap
        if not (math.isfinite(self.epsilon) and math.isfinite(self.cap)):
            raise ValueError("epsilon and cap must be finite")
        if 5.0 * self.cap > self.epsilon:
            raise ValueError(
                f"5*cap = {5.0 * self.cap} exceeds epsilon = {self.epsilon}; "
                "the certified gap may leave the hypothesis"
            )
        _check_sampling(self.cap, self.support_size, self.sft.q)
        # what the first trial's sampler would refuse, refused before it runs
        _check_stack(self.sft, self.window_radius, 1)

    @property
    def window_radius(self) -> int:
        # room for shell-n badness (one step out) and the 3x3 potential patch
        return self.n + 2

    @property
    def region(self) -> Rect:
        return Rect.centered(self.n)


def sample_admissible(sft: NnSft, radius: int, rng: np.random.Generator) -> Window:
    """A locally admissible window on the box of the given radius.

    Each site draws uniformly among the symbols compatible with its left
    and down neighbors (a missing neighbor allows every symbol); SSF
    guarantees there is one. One uniform draw per site, indexed in
    raster order from the bottom row up, picks the compatible symbol of
    rank int(draw * count), counting from 0 in increasing order, by one
    lookup in NnSft.pick_table. A site depends only on its left and down
    neighbors, so the sites are placed one anti-diagonal at a time, each
    diagonal in one vectorized step that reads the draws at the sites'
    raster positions: the window is the one a raster sweep with the same
    draws would produce. The output is verified violation-free.

    This is sample_admissible_stack with a stack of one.
    """
    return sample_admissible_stack(sft, radius, [rng])[0]


def sample_admissible_stack(
    sft: NnSft, radius: int, rngs: Sequence[np.random.Generator]
) -> list[Window]:
    """One window per generator, each the one sample_admissible gives
    with that generator, which is left where sample_admissible leaves it.

    Each generator draws its window's uniforms in turn, into one row of a
    stack; one anti-diagonal sweep with a leading batch axis places every
    window of the stack, and one vectorized test checks them all for
    forbidden pairs. A lone window takes no batch axis, which would make
    its sweep a quarter slower. The draws are freed once the windows are
    placed and the stack on return: each window is a contiguous byte copy.

    Stacks of more than WINDOW_SITE_GUARD sites in all are refused
    before anything is allocated.
    """
    if radius < 0:
        raise ValueError("box radius must be >= 0")
    _check_stack(sft, radius, len(rngs))
    side = 2 * radius + 1
    if len(rngs) == 1:
        draws = rngs[0].random(side * side)
    else:
        draws = np.empty((len(rngs), side * side))
        for k, rng in enumerate(rngs):  # a row view left over would keep draws alive
            rng.random(out=draws[k])
    grids = _sweep(sft, draws, side).reshape(len(rngs), side + 1, side + 1)
    del draws  # before the pair test's temporaries, which are as large
    # rows bottom first, so the pair below a site is one row down; a pair
    # (a, b) is entry a*q + b of its flattened table
    placed = grids[:, 1:, 1:]
    for forbidden, first, second in (
        (sft.h_table, placed[:, :, :-1], placed[:, :, 1:]),
        (sft.v_table, placed[:, :-1, :], placed[:, 1:, :]),
    ):
        if _pair_table_hits(forbidden, first, second):
            raise RuntimeError("sampler produced an inadmissible window")
    return [Window(Rect.centered(radius), grid[side:0:-1, 1:]) for grid in grids]


def _check_stack(sft: NnSft, radius: int, count: int) -> None:
    """Refuse what the sampler cannot place: count windows of this radius
    over WINDOW_SITE_GUARD sites in all, or an SFT that is not SSF."""
    sites = count * (2 * radius + 1) ** 2
    if sites > WINDOW_SITE_GUARD:
        what = f"a stack of {count} windows" if count > 1 else "a window"
        raise ValueError(
            f"{what} of radius {radius} has {sites} sites, over the sampling guard ({WINDOW_SITE_GUARD})"
        )
    if not sft.ssf.ok:
        raise ValueError("sampling requires a single-site fillable SFT")


def _pair_table_hits(table: np.ndarray, first: np.ndarray, second: np.ndarray) -> bool:
    """Whether the q x q boolean table holds any pair (first, second)."""
    pairs = first * len(table)
    pairs += second
    return bool(table.ravel().take(pairs).any())


def _sweep(sft: NnSft, draws: np.ndarray, side: int) -> np.ndarray:
    """The anti-diagonal sweep: windows placed from draws of shape
    (..., side * side), as a grid of shape (..., side + 1, side + 1)
    with the bottom row first; row 0 and column 0 hold q, "no
    neighbor"."""
    q = sft.q
    table, count = sft.pick_table
    count = count.astype(float)
    # intp, the type numpy indexes with: an int32 grid costs a cast in
    # every lookup, a fifth of the sweep; the sample command's peak RSS
    # still does not rise, as the draws are freed before the copy out
    padded = np.full((*draws.shape[:-1], side + 1, side + 1), q, dtype=np.intp)
    flat = padded.reshape(*draws.shape[:-1], (side + 1) ** 2)
    step = max(side - 1, 1)  # a slice step; radius 0 has a single site
    for d in range(2 * side - 1):
        # sites (b, d - b) for b in lo..hi, b counting rows from the bottom;
        # consecutive ones lie side apart in flat and side - 1 apart in draws
        lo, hi = max(0, d - side + 1), min(d, side - 1)
        n = hi - lo + 1
        start = (lo + 1) * (side + 1) + d - lo + 1
        stop = start + n * side
        idx = flat[..., start - 1 : stop - 1 : side] * (q + 1)  # the left neighbor
        idx += flat[..., start - side - 1 : stop - side - 1 : side]  # the down neighbor
        k = lo * side + d - lo
        rank = draws[..., k : k + (n - 1) * step + 1 : step] * count.take(idx)
        flat[..., start:stop:side] = table[idx, rank.astype(np.intp)]
    return padded


def _check_corrupt_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError("corrupt rate must be in [0, 1]")


def corrupt(w: Window, q: int, rate: float, rng: np.random.Generator) -> Window:
    """Independently resample each site uniformly over 0..q-1 with the
    given probability (a resampled site may keep its value)."""
    _check_corrupt_rate(rate)
    hit = rng.random(w.array.shape) < rate
    draws = rng.integers(0, q, size=w.array.shape)  # int64: a narrower type draws another stream
    # the copy's type holds both the window's symbols and every draw
    out = w.array.astype(np.result_type(w.array, np.min_scalar_type(q - 1)))
    np.copyto(out, draws, casting="unsafe", where=hit)
    return Window(w.rect, out, _copy=False)


class AverageBoundReport(_Frozen):
    """Normalized windowed sum of g against the density-split bounds.

    status: "zero_ok"/"zero_fail" for a window with no bad site in the
    region, "half_ok"/"half_fail" for one with bad fraction >= 1/2, and
    "na" in between (neither bound applies).
    """

    bad_fraction: float
    average: float
    status: str
    margin: float

    @property
    def ok(self) -> bool:
        return not self.status.endswith("fail")


def check_average_bounds(g: PerturbedPotential, w: Window, region: Rect) -> AverageBoundReport:
    """The density-split bounds on w's normalized windowed sum over the
    region; one pass of the evaluator, in row bands, gives
    both the region's bad count and the sum. The band's h go into one
    contiguous array over the region, which numpy sums in birkhoff_sum's
    grouping."""
    if not w.rect.contains_rect(region.inflate(1)):
        raise ValueError("insufficient margin")
    _check_symbols(w, g.sft)
    bad = 0
    h = np.empty((region.height, region.width))
    for band in region.bands(BAND_SITES):
        band_bad, band_h = g.patch_parts(region_patches(w.array, w.rect, band))
        bad += int(np.count_nonzero(band_bad))
        h[region.cut(band)] = band_h
    return _average_report(g.gap, bad, g.sum_parts(bad, h), region.area)


def _average_report(gap: float, bad: int, total: float, area: int) -> AverageBoundReport:
    """The density-split verdict on a region of the given area with bad
    bad sites and windowed sum total."""
    bf = bad / area
    avg = total / area
    if bad == 0:
        margin = avg + gap
        status = "zero_ok" if margin >= 0 else "zero_fail"
    elif bf >= 0.5:
        margin = (-0.5 + gap) - avg
        status = "half_ok" if margin >= 0 else "half_fail"
    else:
        margin = math.nan
        status = "na"
    return AverageBoundReport(bf, avg, status, margin)


class ShellGapRow(_Frozen):
    i: int
    size: int               # |S_i|: bad sites of the input window on shell i
    pending: int            # of those, still bad when shell i is repaired
    observed: float         # S g(x_i) - S g(x_{i-1}) over the region
    required: float         # (1 - 32*gap)*pending - 112*gap
    required_literal: float  # same with the full |S_i| count; recorded, not asserted

    @property
    def margin(self) -> float:
        return self.observed - self.required

    @property
    def literal_margin(self) -> float:
        return self.observed - self.required_literal


class ShellGapReport(_Frozen):
    """Observed per-shell improvements against their lower bounds, one
    row per shell 0..n of the box of radius n.

    The asserted bound counts the sites a shell's repair still has to
    fix when its turn comes (pending). Sites of S_i already validated
    collaterally by the previous shell's fills contribute no improvement
    of their own, so the bound over the full |S_i| is not guaranteed;
    its margin is carried alongside for reporting.

    The evaluations of the input and the output also give the box's
    windowed sum in each and its bad sites in the output, for the other
    checks (the input's are the rows' sizes), and stray_changes counts
    the sites where the output differs from the input other than the
    box's bad input sites (repair's locality).
    """

    rows: tuple[ShellGapRow, ...]
    min_margin: float
    min_literal_margin: float
    input_sum: float           # S g(input) over the box
    output_bad_count: int
    output_sum: float          # S g(output) over the box
    stray_changes: int

    @property
    def ok(self) -> bool:
        return self.min_margin >= 0


def check_shell_gaps(
    g: PerturbedPotential, corrupted: Window, repaired: Window, n: int
) -> ShellGapReport:
    """Require each shell i = 0..n of the box of radius n to improve the
    windowed sum over that box by at least (1 - 32*gap)*pending_i -
    112*gap, pending_i counting the shell's sites still bad when its
    turn comes.

    repaired is repair's output on corrupted with this n; the windows
    must contain the box of radius n+1 and hold symbols below q only.
    Repair writes each site of shell i once, while it repairs shell i,
    so the window before shell i is the output at Chebyshev norms < i
    and the input elsewhere. At a site of norm k, whose 3x3 patch spans
    norms k-1..k+1, g thus takes four values, one for each shift = -2,
    -1, 0, 1: on the patch repaired at norms <= k + shift. That is the
    input (C) at -2, a mix A at -1 and a mix B at 0, and the output (R)
    at 1; shell k + shift gains the value at shift less the value at
    shift - 1 there, and no other shell moves it. So four evaluations
    over the box give every term. A shell's observed gain sums its
    nonzero terms with builtin sum, site by site in sorted (x, y) order,
    the order of a site-by-site replay; |S_i| counts the shell's sites
    bad in the input, and pending_i those also bad in A.

    The loop runs over the box's row bands. A band's patches of the
    norms, the input and the output are cut once, and a mixed state is
    built for its own evaluation alone, so the norms, the mixed states,
    the pattern codes and the terms' masks exist for one band of at
    most BAND_SITES sites at a time. Only what a band cannot finish
    spans the box: the terms kept, with their keys (global rows), which
    one sort puts in replay order; the bad counts, |S_i| and pending_i,
    summed over bands; and h in C and in R, written into one contiguous
    array over the box each, so that the box's windowed sums in C and R
    are birkhoff_sum's to the bit. The changed sites that are not bad
    in C are counted from the band's centre patches.
    """
    if n < 0:
        raise ValueError("box radius must be >= 0")
    rect = corrupted.rect
    if repaired.rect != rect:
        raise ValueError("mismatched domains")
    region = Rect.centered(n)
    if not rect.contains_rect(region.inflate(1)):
        raise ValueError("insufficient margin")
    _check_symbols(corrupted, g.sft)
    _check_symbols(repaired, g.sft)
    side = region.width
    ends_h = [np.empty((side, side)) for _ in range(2)]  # C's and R's h
    output_bad = 0
    sizes = np.zeros(n + 1, dtype=np.int64)
    pending = np.zeros(n + 1, dtype=np.int64)
    allowed = 0  # changed sites that are bad in C
    keys, terms = [], []
    # the windows hold one byte a symbol (q <= 64 under SSF), and so do the mixed states
    for band in region.bands(BAND_SITES):
        cut = region.cut(band)
        top = cut[0].start  # the band's first row in the box
        around = band.inflate(1)
        dist = region_patches(around.norms(), around, band)
        before = region_patches(corrupted.array[rect.cut(around)], around, band)
        after = region_patches(repaired.array[rect.cut(around)], around, band)
        norm = dist[PATCH_CENTER]
        previous = None
        for shift in range(-2, 2):  # at norm k, the patch repaired at norms <= k + shift
            if shift == -2:  # C, the input
                bad, h = g.patch_parts(before)
                bad_in = bad
                sizes += np.bincount(norm[bad], minlength=n + 1)
                ends_h[0][cut] = h
            elif shift == 1:  # R, the output
                bad, h = g.patch_parts(after)
                output_bad += int(np.count_nonzero(bad))
                ends_h[1][cut] = h
            else:  # A, then B: d < k, then d <= k (a k + shift array raised peak RSS)
                below = np.less if shift == -1 else np.less_equal
                bad, h = g.patch_parts([np.where(below(d, norm), r, c) for d, r, c in zip(dist, after, before)])
                if shift == -1:  # A is the window before shell k's repair
                    pending += np.bincount(norm[bad_in & bad], minlength=n + 1)
            value = h - bad
            if previous is not None:  # shell k + shift gains value - previous at norm k
                term = value - previous
                keep = (term != 0) & (norm >= -shift) & (norm <= n - shift)
                # key (shell, x, y): x-major, then y ascending, within a shell
                row, col = np.divmod(np.flatnonzero(keep), side)
                keys.append((norm[keep] + shift) * region.area + col * side + (side - 1 - top - row))
                terms.append(term[keep])
            previous = value
        changed = before[PATCH_CENTER] != after[PATCH_CENTER]
        allowed += int(np.count_nonzero(changed & bad_in))
    key = np.concatenate(keys)
    order = np.argsort(key)
    sorted_terms = np.concatenate(terms)[order].tolist()
    bounds = np.searchsorted(key[order], np.arange(n + 2) * region.area).tolist()

    gap = g.gap
    site_coeff = 1.0 - SHELL_SITE_COEFF * gap
    slack = SHELL_SLACK_COEFF * gap
    # positional: a row per shell and trial, and the base binds keywords more slowly
    rows = tuple(
        ShellGapRow(i, size, still, sum(sorted_terms[bounds[i] : bounds[i + 1]], 0.0),
                    site_coeff * still - slack, site_coeff * size - slack)
        for i, (size, still) in enumerate(zip(sizes.tolist(), pending.tolist()))
    )
    return ShellGapReport(
        rows,
        min(row.margin for row in rows),
        min(row.literal_margin for row in rows),
        input_sum=g.sum_parts(int(sizes.sum()), ends_h[0]),
        output_bad_count=output_bad,
        output_sum=g.sum_parts(output_bad, ends_h[1]),
        stray_changes=_count_changed(corrupted, repaired) - allowed,
    )


def _count_changed(a: Window, b: Window) -> int:
    """The number of sites where two windows of one domain differ,
    counted in row bands."""
    cuts = (a.rect.cut(band) for band in a.rect.bands(BAND_SITES))
    return sum(int(np.count_nonzero(a.array[cut] != b.array[cut])) for cut in cuts)


class TotalBoundReport(_Frozen):
    """Raw and normalized forms of the total improvement bound."""

    total_gap: float           # S g(original) - S g(repaired) over the region
    total_bound: float         # raw upper bound on total_gap
    raw_ok: bool
    improvement: float         # -total_gap / area
    required: float            # (1 - 32*gap)*bad_fraction - overhead/area
    vacuous: bool              # required <= 0: the bound asserts nothing
    normalized_ok: bool        # improvement >= required, or vacuous

    @property
    def ok(self) -> bool:
        return self.raw_ok and self.normalized_ok


def _total_report(gap: float, bad_total: int, before: float, after: float, n: int) -> TotalBoundReport:
    """The total bound for a repair of bad_total sites that took the
    windowed sum over the box of radius n from before to after."""
    area = (2 * n + 1) ** 2
    total_gap = before - after
    overhead = SHELL_SLACK_COEFF * gap * (n + 1) + tail_slack(n)
    total_bound = overhead + (-1.0 + SHELL_SITE_COEFF * gap) * bad_total
    improvement = -total_gap / area
    required = (1.0 - SHELL_SITE_COEFF * gap) * (bad_total / area) - overhead / area
    vacuous = required <= 0.0
    return TotalBoundReport(
        total_gap=total_gap,
        total_bound=total_bound,
        raw_ok=total_gap <= total_bound,
        improvement=improvement,
        required=required,
        vacuous=vacuous,
        normalized_ok=vacuous or improvement >= required,
    )


class TrialReport(_Frozen):
    """Everything recorded about one trial; pass flags are pure
    functions of the recorded numbers."""

    index: int
    seed: int
    n: int
    q: int
    bad_total: int
    bad_fraction: float
    certified_gap: float
    admissible_check: AverageBoundReport
    corrupted_check: AverageBoundReport
    shell_check: ShellGapReport
    total_check: TotalBoundReport
    repaired_clean: bool
    locality_ok: bool

    @property
    def case1_status(self) -> str:
        return f"{self.admissible_check.status};{self.corrupted_check.status}"

    @property
    def all_pass(self) -> bool:
        return (
            self.repaired_clean
            and self.locality_ok
            and self.admissible_check.ok
            and self.corrupted_check.ok
            and self.shell_check.ok
            and self.total_check.ok
        )

    def csv_lines(self) -> str:
        """The trial's CSV row and comment lines, each ending in a newline."""
        cells = [
            str(self.index),
            str(self.seed),
            str(self.n),
            str(self.q),
            str(self.bad_total),
            repr(float(self.bad_fraction)),
            repr(float(self.certified_gap)),
            repr(float(self.shell_check.min_margin)),
            repr(float(self.total_check.total_gap)),
            repr(float(self.total_check.total_bound)),
            self.case1_status,
            "true" if self.all_pass else "false",
        ]
        text = ",".join(cells) + "\n"
        tc = self.total_check
        if tc.vacuous:
            text += f"# trial {self.index}: normalized bound vacuous (required={tc.required!r}); "
            text += f"observed improvement {tc.improvement!r}\n"
        if not self.all_pass:
            text += f"# trial {self.index}: FAIL (seed {self.seed})\n"
        return text


CSV_HEADER = (
    "trial,seed,N,q,bad_total,bad_fraction,certified_gap,"
    "min_shell_margin,total_gap,total_bound,case1_status,all_pass"
)


class TrialChunk:
    """Consecutive trials of one experiment whose windows are sampled in
    one sample_admissible_stack sweep, when the first of them takes its
    window; each trial takes its own generator and window once."""

    def __init__(self, cfg: TrialConfig, indices: range):
        self.cfg = cfg
        self.indices = indices
        self._sampled: dict[int, tuple[np.random.Generator, Window]] | None = None

    def take(self, index: int) -> tuple[np.random.Generator, Window]:
        if self._sampled is None:
            cfg = self.cfg
            rngs = [np.random.default_rng(trial_seed(cfg.seed, i)) for i in self.indices]
            windows = sample_admissible_stack(cfg.sft, cfg.window_radius, rngs)
            self._sampled = dict(zip(self.indices, zip(rngs, windows)))
        return self._sampled.pop(index)


def run_trial(cfg: TrialConfig, index: int, chunk: TrialChunk | None = None) -> TrialReport:
    """Trial index of the configured experiment. Its generator and
    admissible window come from chunk, a chunk of one trial by default;
    the report is the same for any chunk that holds the trial."""
    seed = trial_seed(cfg.seed, index)
    sft = cfg.sft
    if chunk is None:
        chunk = TrialChunk(cfg, range(index, index + 1))
    rng, base = chunk.take(index)
    corrupted = corrupt(base, sft.q, cfg.corrupt_rate, rng)
    h = sample_perturbation(cfg.cap, cfg.support_size, sft.q, rng)
    g = PerturbedPotential.build(sft, h)
    region = cfg.region
    # one evaluation per window state (see the module docstring); the
    # admissible window's comes first, so that it is freed before repair
    admissible_check = check_average_bounds(g, base, region)
    del base
    result = repair(corrupted, sft, cfg.n, rule=cfg.rule, rng=rng)
    shell_check = check_shell_gaps(g, corrupted, result.window, cfg.n)
    if result.shell_sizes != [row.size for row in shell_check.rows]:
        raise RuntimeError("shell decomposition lost bad sites")
    bad_total = result.total_bad
    corrupted_check = _average_report(g.gap, bad_total, shell_check.input_sum, region.area)
    total_check = _total_report(g.gap, bad_total, shell_check.input_sum, shell_check.output_sum, cfg.n)

    repaired_clean = shell_check.output_bad_count == 0
    # the bad sites of shells 0..n are the only sites repair may change
    locality_ok = shell_check.stray_changes == 0

    return TrialReport(
        index=index,
        seed=seed,
        n=cfg.n,
        q=sft.q,
        bad_total=bad_total,
        bad_fraction=bad_total / region.area,
        certified_gap=g.gap,
        admissible_check=admissible_check,
        corrupted_check=corrupted_check,
        shell_check=shell_check,
        total_check=total_check,
        repaired_clean=repaired_clean,
        locality_ok=locality_ok,
    )


def run_experiment(cfg: TrialConfig, write: Callable[[str], object]) -> bool:
    """Run all configured trials in order, in the calling thread, in
    chunks of at most CHUNK_SITES window sites (at least one window):
    the first run_trial of a chunk samples all of the chunk's windows in
    one sweep, and each trial goes on from its own generator and window.

    The CSV goes to write as the run goes: the header with the first
    trial's lines, each later trial's lines when it ends, the summary
    line last. Only the summary's counts and minimum margins outlive a
    trial. Returns whether every trial passed."""
    side = 2 * cfg.window_radius + 1
    per_chunk = max(1, CHUNK_SITES // (side * side))
    passed = vacuous = 0
    min_margin = min_literal = math.inf
    for first in range(0, cfg.trials, per_chunk):
        chunk = TrialChunk(cfg, range(first, min(first + per_chunk, cfg.trials)))
        for i in chunk.indices:
            r = run_trial(cfg, i, chunk)
            passed += r.all_pass
            vacuous += r.total_check.vacuous
            min_margin = min(min_margin, r.shell_check.min_margin)
            min_literal = min(min_literal, r.shell_check.min_literal_margin)
            write(f"{CSV_HEADER}\n{r.csv_lines()}" if i == 0 else r.csv_lines())
    write(
        f"# summary: trials={cfg.trials} passed={passed} "
        f"failed={cfg.trials - passed} min_shell_margin={float(min_margin)!r} "
        f"min_literal_shell_margin={float(min_literal)!r} "
        f"vacuous_normalized={vacuous}\n"
    )
    return passed == cfg.trials
