"""Shell-by-shell repair of corrupted windows over an SSF SFT.

Shell i holds the sites of Chebyshev norm i, in four sides: top (y = i),
bottom (y = -i), right (x = i, |y| < i) and left (x = -i, |y| < i); the
corners belong to top or bottom. Repair rewrites the input window's
bad sites on shells 0..n in the order of one sort: shells outward,
sides top, bottom, right, left, then by ascending x (top, bottom) or y
(right, left). At each site the sweep ANDs the fill-table masks
(NnSft.fill_table) of its four current neighbors and writes the lowest
symbol that fits all four (rule "smallest") or one drawn uniformly
among them (rule "random"); single-site fillability guarantees the AND
is nonzero. Every adjacent pair touching a rewritten site is validated
by the later of its two endpoints, so fills create no forbidden pair
and the bad sites of all shells are found once and swept in one pass.

A side's bad sites form maximal runs (Run), each swept from its alpha
end. Runs do not change what is written: they exist for inspection
(RepairResult.shells, cut from the same sort) and for filling one
segment (fill_segment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import Rect, Site, SparsePatch, Window
from .sft import NnSft, _check_symbols, bad_site_mask

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

    def iter_runs(self):
        for side in SIDES:
            yield from self.runs.get(side, ())

    def sites(self) -> set[Site]:
        return {s for run in self.iter_runs() for s in run.sites()}

    @property
    def is_empty(self) -> bool:
        return all(not self.runs.get(side) for side in SIDES)


def _sweep_order(rect: Rect, mask: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """The bad sites of the box of radius n in sweep order: their flat
    indices into the window's array, shells, sides (indices into SIDES)
    and coordinates along the side."""
    box = Rect.centered(n)
    rows, cols = rect.cut(box)
    row, col = np.divmod(np.flatnonzero(mask[rows, cols]), box.width)
    x, y = box.sites(row, col)
    shell = np.maximum(np.abs(x), np.abs(y))
    # corners and the origin go to top or bottom
    side = np.where(y == shell, 0, np.where(y == -shell, 1, np.where(x == shell, 2, 3)))
    along = np.where(side < 2, x, y)
    order = np.argsort((shell * 4 + side) * box.width + along + n)
    at = (row + rows.start) * rect.width + col + cols.start
    return at[order], shell[order], side[order], along[order]


def _decompose(
    n: int, shell: np.ndarray, side: np.ndarray, along: np.ndarray
) -> list[ShellDecomposition]:
    """Shells 0..n split into runs, from their bad sites' shells, sides
    and coordinates along the side, in sweep order."""
    # a run starts where the shell or the side changes or the coordinate skips
    new_side = np.diff(shell * 4 + side, prepend=-1) != 0
    starts = np.flatnonzero(new_side | (np.diff(along, prepend=0) != 1))
    lengths = np.diff(starts, append=len(shell))
    runs: list[dict[str, list[Run]]] = [{} for _ in range(n + 1)]
    firsts = (v.tolist() for v in (shell[starts], side[starts], along[starts], lengths))
    for i, k, a, m in zip(*firsts):
        runs[i].setdefault(SIDES[k], []).append(Run(SIDES[k], i, a, a + m - 1))
    return [ShellDecomposition(i, {k: tuple(v) for k, v in d.items()}) for i, d in enumerate(runs)]


def _check_rule_name(rule: str) -> None:
    if rule not in ("smallest", "random"):
        raise ValueError(f"unknown fill rule {rule!r}; expected 'smallest' or 'random'")


def _check_rule(rule: str, rng: np.random.Generator | None) -> None:
    _check_rule_name(rule)
    if rule == "random" and rng is None:
        raise ValueError("fill rule 'random' needs a random generator")


def _sweep(
    buf: bytearray,
    rect: Rect,
    table: tuple[tuple[int, ...], ...],
    sites: list[int],
    rule: str,
    rng: np.random.Generator | None,
) -> None:
    """Rewrite the sites, flat indices into buf (rect's array raveled
    row-major, one byte per symbol), in order. Each gets the lowest
    symbol that fits its four current neighbors (rule "smallest") or
    one drawn uniformly among them (rule "random"); table is
    NnSft.fill_table. Callers guarantee that every site and its four
    neighbors are inside rect.
    """
    north, south, east, west = table
    width = rect.width
    for k in sites:
        m = west[buf[k - 1]] & east[buf[k + 1]] & south[buf[k + width]] & north[buf[k - width]]
        if not m:
            raise RuntimeError(
                f"SSF contract violated: no symbol fits at {rect.sites(*divmod(k, width))} "
                f"against neighbors (left={buf[k - 1]}, right={buf[k + 1]}, "
                f"down={buf[k + width]}, up={buf[k - width]})"
            )
        if rule == "random":
            for _ in range(int(rng.integers(m.bit_count()))):
                m &= m - 1  # drop the lowest symbol that fits
        buf[k] = (m & -m).bit_length() - 1


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
    (xa, ya), (xb, yb) = sites[0], sites[-1]
    # the rect holds the run's neighbors exactly when it holds their bounding box
    if not w.rect.contains_rect(Rect(xa, ya, xb - xa + 1, yb - ya + 1).inflate(1)):
        raise ValueError("run and its boundary must lie inside the window domain")
    _check_rule(rule, rng)
    _check_symbols(w, sft)
    rect = w.rect
    flat = [r * rect.width + c for r, c in (rect.cells(*u) for u in sites)]
    buf = bytearray(w.array)  # one byte a symbol: _check_symbols kept them below q <= 64
    _sweep(buf, rect, sft.fill_table, flat, rule, rng)
    return {s: buf[k] for s, k in zip(sites, flat)}


@dataclass
class RepairResult:
    """Outcome of a full repair pass: the repaired window and, for each
    shell i, the number of the input's bad sites on it, all rewritten
    while shell i was repaired. sweep holds the shell, side and
    coordinate along the side of each rewritten site, in sweep order;
    shells cuts each shell's runs from it on first use (for tests and
    the benchmark's tracer). Repair with n = i, from the same rng state,
    gives the window after shell i: where(Chebyshev norm <= i, window, input)."""

    window: Window
    shell_sizes: list[int]
    sweep: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False, compare=False)
    intermediates = ()  # always empty; the benchmark's tracer still reads it

    @property
    def total_bad(self) -> int:
        return sum(self.shell_sizes)

    @cached_property
    def shells(self) -> list[ShellDecomposition]:
        if not self.sweep[0].size:  # a clean input: every shell is empty
            return [ShellDecomposition(i) for i in range(len(self.shell_sizes))]
        return _decompose(len(self.shell_sizes) - 1, *self.sweep)


def repair(
    w: Window,
    sft: NnSft,
    n: int,
    rule: str = "smallest",
    rng: np.random.Generator | None = None,
) -> RepairResult:
    """Repair shells 0..n of w in order.

    The window must contain the box of radius n+1. The output agrees
    with w outside the union of the shell bad-site sets and has no
    violation with both endpoints inside the box of radius n.
    """
    _require_ssf(sft)
    rect = w.rect
    if not rect.contains_rect(Rect.centered(n + 1)):
        raise ValueError("insufficient margin")
    _check_rule(rule, rng)
    mask = bad_site_mask(w, sft)
    sites, *sweep = _sweep_order(rect, mask, n)
    sizes = np.bincount(sweep[0], minlength=n + 1).tolist()
    buf = bytearray(w.array)  # one byte a symbol: bad_site_mask checked they are below q <= 64
    _sweep(buf, rect, sft.fill_table, sites.tolist(), rule, rng)
    # the output window wraps buf, which nothing else holds
    out = Window(rect, np.frombuffer(buf, np.uint8).reshape(mask.shape), _copy=False)
    return RepairResult(out, sizes, tuple(sweep))


def changed_sites(before: Window, after: Window) -> set[Site]:
    """Sites where two same-domain windows differ."""
    if before.rect != after.rect:
        raise ValueError("mismatched domains")
    xs, ys = before.rect.sites(*np.nonzero(before.array != after.array))
    return set(zip(xs.tolist(), ys.tolist()))
