"""Shell-by-shell repair of corrupted windows over an SSF SFT.

Bad sites of the input window are grouped by Chebyshev shell. Within
shell i they split into four sides: top (y = i), bottom (y = -i), right
(x = i, |y| < i) and left (x = -i, |y| < i); the four corner sites
belong to the top or bottom side. Each side is a slice of the input's
bad-site mask and decomposes into maximal contiguous runs of bad sites.

A run is rewritten by a sweep from its alpha end to its beta end
(left to right for horizontal runs, bottom to top for vertical ones).
At each site the sweep ANDs the fill-table masks (NnSft.fill_table) of
its four current neighbors, giving the symbols that fit all four, and
writes the lowest of them (rule "smallest") or one drawn uniformly
among them (rule "random"); single-site fillability guarantees the AND
is nonzero. The site just swept is a neighbor of the next, so every
adjacent pair touching the run is validated by the later of its two
endpoints and the patched window has no violation involving any run
site.

Shells are processed outward, sides in top, bottom, right, left order,
runs in their side order, each fill seeing the partially repaired
window. The shells themselves are always computed from the window the
repair started from, not recomputed between shells; completed radii
stay clean because fills never create new forbidden pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import Rect, Site, SparsePatch, Window
from .sft import NnSft, bad_site_mask

SIDES = ("top", "bottom", "right", "left")


def _require_ssf(sft: NnSft) -> None:
    res = sft.ssf
    if not res.ok:
        raise ValueError(
            f"SFT is not single-site fillable (blocking boundary {res.witness}); repair requires SSF"
        )


@dataclass(frozen=True, slots=True)
class Run:
    """A maximal contiguous segment of bad sites on one side of a shell.

    Sites are [alpha, beta] x {i} (top), [alpha, beta] x {-i} (bottom),
    {i} x [alpha, beta] (right) or {-i} x [alpha, beta] (left).
    """

    side: str
    i: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if self.i < 0:
            raise ValueError("shell radius must be >= 0")
        if self.alpha > self.beta:
            raise ValueError("alpha must be <= beta")
        # horizontal segments may span any interval (segment filling is
        # not restricted to shells); vertical runs exclude corner rows
        if self.side in ("right", "left"):
            if self.alpha < -self.i + 1 or self.beta > self.i - 1:
                raise ValueError("vertical run must avoid the corner rows")

    def __len__(self) -> int:
        return self.beta - self.alpha + 1

    def sites(self) -> list[Site]:
        """Run sites in sweep order (alpha end first)."""
        span = range(self.alpha, self.beta + 1)
        if self.side == "top":
            return [(x, self.i) for x in span]
        if self.side == "bottom":
            return [(x, -self.i) for x in span]
        if self.side == "right":
            return [(self.i, y) for y in span]
        return [(-self.i, y) for y in span]


@dataclass(frozen=True)
class ShellDecomposition:
    """Bad sites of one shell, split into per-side maximal runs.

    Top/bottom runs are indexed left to right, right/left runs bottom
    to top. iter_runs() yields them in processing order.
    """

    i: int
    runs: dict[str, tuple[Run, ...]] = field(default_factory=dict)

    @cached_property
    def total_bad(self) -> int:
        return sum(len(r) for side in SIDES for r in self.runs.get(side, ()))

    def iter_runs(self):
        for side in SIDES:
            yield from self.runs.get(side, ())

    def sites(self) -> set[Site]:
        return {s for run in self.iter_runs() for s in run.sites()}

    @property
    def is_empty(self) -> bool:
        return all(not self.runs.get(side) for side in SIDES)


def _runs(side: str, i: int, line: np.ndarray, first: int) -> tuple[Run, ...]:
    """Maximal runs of True in a side's slice of the bad-site mask;
    line[k] is the site at coordinate first + k."""
    coords = line.nonzero()[0]
    if not coords.size:
        return ()
    cut = np.flatnonzero(np.diff(coords) != 1).tolist()
    c = (coords + first).tolist()
    alphas = [c[0]] + [c[k + 1] for k in cut]
    betas = [c[k] for k in cut] + [c[-1]]
    return tuple(Run(side, i, a, b) for a, b in zip(alphas, betas))


def _decompose_from_mask(rect: Rect, mask: np.ndarray, i: int) -> ShellDecomposition:
    # array row of y is rect.y1 - y, column of x is x - rect.x0
    r0, c0 = rect.y1, -rect.x0
    if i == 0:
        runs = {"top": (Run("top", 0, 0, 0),)} if mask[r0, c0] else {}
        return ShellDecomposition(0, runs)
    sides = {
        "top": _runs("top", i, mask[r0 - i, c0 - i : c0 + i + 1], -i),
        "bottom": _runs("bottom", i, mask[r0 + i, c0 - i : c0 + i + 1], -i),
        # rows run downward, so y = -i + 1 .. i - 1 reads the column reversed
        "right": _runs("right", i, mask[r0 + i - 1 : r0 - i : -1, c0 + i], -i + 1),
        "left": _runs("left", i, mask[r0 + i - 1 : r0 - i : -1, c0 - i], -i + 1),
    }
    return ShellDecomposition(i, {side: runs for side, runs in sides.items() if runs})


def _check_rule(rule: str, rng: np.random.Generator | None) -> None:
    if rule not in ("smallest", "random"):
        raise ValueError(f"unknown fill rule {rule!r}; expected 'smallest' or 'random'")
    if rule == "random" and rng is None:
        raise ValueError("fill rule 'random' needs a random generator")


def _fill_run(
    arr: np.ndarray,
    rect: Rect,
    table: list[list[int]],
    run: Run,
    rule: str,
    rng: np.random.Generator | None,
) -> list[int]:
    """Sweep the run from its alpha end, writing at each site the lowest
    compatible symbol (rule "smallest") or one drawn uniformly among the
    compatible ones (rule "random").

    table is the SFT's fill table as lists: the symbols that fit a site
    are the AND of its four current neighbors' masks. Mutates arr in
    place and returns the symbols written, in sweep order. Callers
    guarantee every site and its four neighbors are inside rect.
    """
    north, south, east, west = table
    x0, y1 = rect.x0, rect.y1
    out: list[int] = []
    for x, y in run.sites():
        r, c = y1 - y, x - x0
        left, right, down, up = arr[r, c - 1], arr[r, c + 1], arr[r + 1, c], arr[r - 1, c]
        m = west[left] & east[right] & south[down] & north[up]
        if not m:
            raise RuntimeError(
                f"SSF contract violated: no symbol fits at {(x, y)} "
                f"against neighbors (left={left}, right={right}, down={down}, up={up})"
            )
        if rule == "random":
            for _ in range(int(rng.integers(m.bit_count()))):
                m &= m - 1  # drop the lowest symbol that fits
        a = (m & -m).bit_length() - 1
        arr[r, c] = a
        out.append(a)
    return out


def fill_segment(
    w: Window,
    sft: NnSft,
    run: Run,
    rule: str = "smallest",
    rng: np.random.Generator | None = None,
) -> SparsePatch:
    """Replacement symbols for the run's sites such that the patched
    window has no violation involving any run site."""
    _require_ssf(sft)
    sites = run.sites()
    for s in sites:
        x, y = s
        for t in ((x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if not w.rect.contains(t):
                raise ValueError("run and its boundary must lie inside the window domain")
    _check_rule(rule, rng)
    arr = w.array.copy()
    return dict(zip(sites, _fill_run(arr, w.rect, sft.fill_table.tolist(), run, rule, rng)))


@dataclass
class RepairResult:
    """Outcome of a full repair pass.

    window is the repaired window; shells[i] is the decomposition of
    shell i computed from the input window; intermediates, when
    captured, holds the input window followed by the window after each
    shell (length len(shells) + 1). Only tests capture them: the window
    after shell i is the output on shells 0..i and the input elsewhere,
    so check_shell_gaps needs only the input and the output, and
    evaluates g at each site with its patch in four such states.
    """

    window: Window
    shells: list[ShellDecomposition]
    intermediates: list[Window]

    @property
    def total_bad(self) -> int:
        return sum(d.total_bad for d in self.shells)


def repair(
    w: Window,
    sft: NnSft,
    n: int,
    rule: str = "smallest",
    rng: np.random.Generator | None = None,
    keep_intermediates: bool = False,
) -> RepairResult:
    """Repair shells 0..n of w in order.

    The window must contain the box of radius n+1. The output agrees
    with w outside the union of the shell bad-site sets and has no
    violation with both endpoints inside the box of radius n.
    """
    _require_ssf(sft)
    if not w.rect.contains_rect(Rect.centered(n + 1)):
        raise ValueError("insufficient margin")
    _check_rule(rule, rng)
    mask, _ = bad_site_mask(w, sft)
    shells = [_decompose_from_mask(w.rect, mask, i) for i in range(n + 1)]
    table = sft.fill_table.tolist()
    arr = w.array.copy()
    intermediates: list[Window] = []
    if keep_intermediates:
        intermediates.append(w)
    for dec in shells:
        for run in dec.iter_runs():
            _fill_run(arr, w.rect, table, run, rule, rng)
        if keep_intermediates:
            intermediates.append(Window(w.rect, arr.copy(), _copy=False))
    return RepairResult(Window(w.rect, arr, _copy=False), shells, intermediates)


def changed_sites(before: Window, after: Window) -> set[Site]:
    """Sites where two same-domain windows differ."""
    if before.rect != after.rect:
        raise ValueError("mismatched domains")
    out: set[Site] = set()
    for r, c in np.argwhere(before.array != after.array):
        out.add((before.rect.x0 + int(c), before.rect.y1 - int(r)))
    return out
