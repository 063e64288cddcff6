"""Shared helpers for the test suite: independent oracles and seeded
random SFT/window generators."""

from __future__ import annotations

import copy
import functools
import math
from collections import Counter

import numpy as np

from nnsft.entropy import TOL_FLOOR, ConvergenceError, EmptySubshiftError, StripEntropyResult, StripTransfer
from nnsft.harness import (
    TrialReport,
    _total_report,
    check_average_bounds,
    check_shell_gaps,
    corrupt,
    sample_admissible,
    trial_seed,
)
from nnsft.lattice import Rect, Window
from nnsft.potentials import (
    PATCH_CENTER,
    PerturbedPotential,
    RangeOnePerturbation,
    birkhoff_sum,
    sample_perturbation,
)
from nnsft.repair import Run, ShellDecomposition, repair
from nnsft.sft import NnSft, SsfResult, bad_site_mask, check_ssf


def window_from_rows(x0: int, y0: int, rows: list[list[int]]) -> Window:
    """Build a window from rows listed top row first."""
    height = len(rows)
    width = len(rows[0])
    return Window(Rect(x0, y0, width, height), np.array(rows, dtype=np.int64))


def rect_sites(rect: Rect) -> list[tuple[int, int]]:
    """A rectangle's sites, row-major with the top row first."""
    return [(x, y) for y in range(rect.y1, rect.y0 - 1, -1) for x in range(rect.x0, rect.x1 + 1)]


def random_window(rect: Rect, q: int, rng: np.random.Generator) -> Window:
    return Window(rect, rng.integers(0, q, size=(rect.height, rect.width)), _copy=False)


def random_ssf_sfts(
    count: int, seed: int, q_lo: int = 2, q_hi: int = 5
) -> list[NnSft]:
    """Deterministically draw forbidden-pair sets and keep the SSF ones."""
    rng = np.random.default_rng(seed)
    out: list[NnSft] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 500 * count:
            raise AssertionError("SSF rejection sampling stalled")
        q = int(rng.integers(q_lo, q_hi + 1))
        nh = int(rng.integers(0, q * q // 2 + 1))
        nv = int(rng.integers(0, q * q // 2 + 1))
        hf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q))) for _ in range(nh)
        )
        vf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q))) for _ in range(nv)
        )
        sft = NnSft(q, hf, vf)
        if check_ssf(sft).ok:
            out.append(sft)
    return out


def spec_text(sft: NnSft, rng: np.random.Generator) -> str:
    """Spec-file text for sft, written without the package's code: a
    comment, the alphabet line, then each forbidden pair once or twice,
    shuffled among a blank line and comments, some of them trailing."""
    lines = ["", "# a comment"]
    for key, pairs in (("hforbid", sft.hforbid), ("vforbid", sft.vforbid)):
        for a, b in sorted(pairs):
            lines += [f"{key} {a} {b}" + ("  # trailing" if rng.random() < 0.2 else "")] * int(rng.integers(1, 3))
    rng.shuffle(lines)
    return "\n".join(["# spec", f"alphabet {sft.q}", *lines]) + "\n"


def random_sft(rng: np.random.Generator, q_hi: int = 5) -> NnSft:
    """Any SFT, fillable or not: 1..q_hi symbols and up to 2*q*q forbidden
    pairs, each horizontal or vertical at random."""
    q = int(rng.integers(1, q_hi + 1))
    pairs = rng.integers(0, q, size=(int(rng.integers(0, 2 * q * q + 1)), 3)).tolist()
    return NnSft(
        q,
        frozenset((a, b) for h, a, b in pairs if h % 2),
        frozenset((a, b) for h, a, b in pairs if not h % 2),
    )


def forbidden_pairs(w: Window, sft: NnSft) -> set[tuple[tuple[int, int], str]]:
    """Independent pair oracle: every stored adjacent pair looked up site
    by site; the forbidden ones as (lower/left site, "horizontal" or
    "vertical")."""
    out = set()
    rect = w.rect
    for y in range(rect.y0, rect.y1 + 1):
        for x in range(rect.x0, rect.x1 + 1):
            a = w.get((x, y))
            if x < rect.x1 and (a, w.get((x + 1, y))) in sft.hforbid:
                out.add(((x, y), "horizontal"))
            if y < rect.y1 and (a, w.get((x, y + 1))) in sft.vforbid:
                out.add(((x, y), "vertical"))
    return out


def pair_scan_bad_sites(w: Window, sft: NnSft) -> set[tuple[int, int]]:
    """Independent bad-site oracle: the lower/left sites of forbidden
    pairs whose right and up neighbors are both stored."""
    rect = w.rect
    return {
        (x, y) for (x, y), _ in forbidden_pairs(w, sft) if x < rect.x1 and y < rect.y1
    }


def patch_admissible_around(
    w: Window, sft: NnSft, patch: dict[tuple[int, int], int]
) -> bool:
    """Exhaustive oracle: after writing the patch, no pair touching a
    patched site is forbidden."""
    patched = w.with_patch(patch)
    for x, y in patch:
        a = patched.get((x, y))
        if (patched.get((x - 1, y)), a) in sft.hforbid:
            return False
        if (a, patched.get((x + 1, y))) in sft.hforbid:
            return False
        if (patched.get((x, y - 1)), a) in sft.vforbid:
            return False
        if (a, patched.get((x, y + 1))) in sft.vforbid:
            return False
    return True


def potential_oracle(g, w: Window, x: int, y: int) -> float:
    """g at one site from its 3x3 pattern: forbidden-pair set lookups
    plus the coefficient table, as penalty + h."""
    r, c = w.rect.y1 - y, x - w.rect.x0
    pat = tuple(int(v) for v in w.array[r - 1 : r + 2, c - 1 : c + 2].ravel())
    bad = (pat[4], pat[5]) in g.sft.hforbid or (pat[4], pat[1]) in g.sft.vforbid
    return -int(bad) + coefficient_dict(g.h).get(pat, 0.0)


@functools.lru_cache(maxsize=8)
def coefficient_dict(h) -> dict[tuple[int, ...], float]:
    """h as the dict {pattern: coefficient} that builds it, in h's order;
    a perturbation hashes by identity, so each is converted once."""
    return dict(zip(map(tuple, h.patterns.tolist()), h.values.tolist()))


def encode_pattern(pat: tuple[int, ...], q: int) -> int:
    """The per-pattern encoder that PerturbedPotential._code_lookup
    replaced: sum of pat[k] * q**k, by Horner's rule on Python ints."""
    if any(not (0 <= s < q) for s in pat):
        raise ValueError(f"pattern {pat!r} has symbols outside alphabet 0..{q - 1}")
    code = 0
    for k in range(8, -1, -1):
        code = code * q + pat[k]
    return code


def reference_sample_perturbation(cap: float, support_size: int, q: int, rng: np.random.Generator):
    """sample_perturbation one code at a time: one rng.integers call per
    code until support_size distinct codes are found, then the
    coefficients; pattern digit k of code c is c // q**k % q, as
    encode_pattern reads it."""
    seen: set[int] = set()
    codes: list[int] = []
    while len(codes) < support_size:
        v = int(rng.integers(0, q**9))
        if v not in seen:
            seen.add(v)
            codes.append(v)
    values = rng.uniform(-cap, cap, size=support_size)
    return RangeOnePerturbation(
        {tuple(c // q**k % q for k in range(9)): float(v) for c, v in zip(codes, values)}, cap
    )


def reference_code_lookup(h, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The (codes, coefficients) table as _code_lookup built it before:
    encoded one pattern at a time, then sorted as pairs."""
    items = sorted((encode_pattern(p, q), c) for p, c in coefficient_dict(h).items())
    codes = np.array([k for k, _ in items], dtype=np.int64)
    vals = np.array([v for _, v in items], dtype=float)
    return codes, vals


def reference_seminorm(h, q: int) -> float:
    """The pairwise Lipschitz seminorm that lipschitz_seminorm_exact
    replaced: every pair of stored patterns in blocks of 512 rows, then
    each stored coefficient against the implicit zero class."""
    coeffs = coefficient_dict(h)
    n = len(coeffs)
    if n == 0:
        return 0.0
    pats = np.array(sorted(coeffs), dtype=np.int64)
    if int(pats.max()) >= q:
        raise ValueError("pattern symbol outside alphabet")
    cs = np.array([coeffs[tuple(int(s) for s in p)] for p in pats], dtype=float)
    best = 0.0
    chunk = 512
    for k in range(0, n, chunk):
        block = pats[k : k + chunk]
        diff_any = (block[:, None, :] != pats[None, :, :]).any(axis=2)
        center_diff = block[:, None, PATCH_CENTER] != pats[None, :, PATCH_CENTER]
        factor = np.where(center_diff, 1.0, 2.0)
        vals = np.abs(cs[k : k + chunk, None] - cs[None, :]) * factor
        vals[~diff_any] = 0.0
        if vals.size:
            best = max(best, float(vals.max()))
    total_patterns = q**9
    if n < total_patterns:
        per_center = q**8
        stored_per_center = Counter(int(p[PATCH_CENTER]) for p in pats)
        for idx in range(n):
            cp = abs(float(cs[idx]))
            if cp == 0.0:
                continue
            center = int(pats[idx, PATCH_CENTER])
            if per_center - stored_per_center[center] > 0:
                # an absent pattern differing from this one only off-center
                best = max(best, 2.0 * cp)
            elif (total_patterns - per_center) - (n - stored_per_center[center]) > 0:
                best = max(best, cp)
    return best


def shell_windows(w: Window, sft: NnSft, n: int, rule: str = "smallest", rng=None) -> list[Window]:
    """w followed by the window after each shell i = 0..n: repair's own
    output on shells 0..i, from a copy of rng, so each starts where a
    full repair of w with rng starts; rng itself does not move."""
    return [w] + [repair(w, sft, i, rule=rule, rng=copy.deepcopy(rng)).window for i in range(n + 1)]


def reference_shell_rows(g, shells, windows: list[Window], region: Rect):
    """(size, pending, observed) per shell from the window before and
    after each shell's repair, site by site.

    observed sums g(after) - g(before) with builtin sum, in sorted (x, y)
    order, over the region sites whose 3x3 patch meets a changed site;
    pending counts the shell's bad sites still bad before its repair.
    """
    rows = []
    for dec, prev, cur in zip(shells, windows, windows[1:]):
        rect = prev.rect
        affected = set()
        for r, c in np.argwhere(prev.array != cur.array):
            x, y = rect.x0 + int(c), rect.y1 - int(r)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if region.contains((x + dx, y + dy)):
                        affected.add((x + dx, y + dy))
        observed = sum(
            potential_oracle(g, cur, x, y) - potential_oracle(g, prev, x, y)
            for x, y in sorted(affected)
        )
        still_bad = pair_scan_bad_sites(prev, g.sft)
        pending = sum(1 for u in dec.sites() if u in still_bad)
        rows.append((len(dec.sites()), pending, observed))
    return rows


def reference_run_trial(cfg, index: int):
    """A trial assembled from the public checks, as run_trial did before
    it shared one evaluation per window state: check_average_bounds on
    the base and on the corrupted window, check_shell_gaps, the total
    bound from birkhoff_sum on the corrupted and repaired windows, and
    bad-site masks of those windows for the cross-check, locality and
    cleanliness."""
    seed = trial_seed(cfg.seed, index)
    rng = np.random.default_rng(seed)
    sft = cfg.sft
    base = sample_admissible(sft, cfg.window_radius, rng)
    corrupted = corrupt(base, sft.q, cfg.corrupt_rate, rng)
    h = sample_perturbation(cfg.cap, cfg.support_size, sft.q, rng)
    g = PerturbedPotential.build(sft, h)
    result = repair(corrupted, sft, cfg.n, rule=cfg.rule, rng=rng)
    region = cfg.region

    bad_total = result.total_bad
    bad_mask = bad_site_mask(corrupted, sft)
    # the region's rows and columns of the window's array
    cut = (
        slice(corrupted.rect.y1 - region.y1, corrupted.rect.y1 - region.y0 + 1),
        slice(region.x0 - corrupted.rect.x0, region.x1 - corrupted.rect.x0 + 1),
    )
    bad_in_region = np.zeros_like(bad_mask)
    bad_in_region[cut] = bad_mask[cut]
    if bad_total != int(bad_in_region.sum()):
        raise RuntimeError("shell decomposition lost bad sites")
    changed = corrupted.array != result.window.array
    return TrialReport(
        index=index,
        seed=seed,
        n=cfg.n,
        q=sft.q,
        bad_total=bad_total,
        bad_fraction=bad_total / region.area,
        certified_gap=g.gap,
        admissible_check=check_average_bounds(g, base, region),
        corrupted_check=check_average_bounds(g, corrupted, region),
        shell_check=check_shell_gaps(g, corrupted, result.window, cfg.n),
        total_check=_total_report(
            g.gap,
            bad_total,
            birkhoff_sum(g, corrupted, region),
            birkhoff_sum(g, result.window, region),
            cfg.n,
        ),
        repaired_clean=not bad_site_mask(result.window, sft)[cut].any(),
        locality_ok=not (changed & ~bad_in_region).any(),
    )


# ---------------------------------------------------------------------------
# Per-site references for the fill-table code paths: the SSF check over a
# q**4 boolean array, the raster sampler, the per-site decomposition and
# the per-site run fill; and the row-by-row window text. Outputs must
# match the package's exactly.


def reference_check_ssf(sft: NnSft) -> SsfResult:
    """OR over centers of the four compatibilities into fillable[n, s, e, w];
    the witness is the first blocked boundary in lexicographic order."""
    q = sft.q
    h_ok = ~sft.h_table
    v_ok = ~sft.v_table
    fillable = np.zeros((q, q, q, q), dtype=bool)
    for a in range(q):
        fillable |= (
            v_ok[a, :][:, None, None, None]
            & v_ok[:, a][None, :, None, None]
            & h_ok[a, :][None, None, :, None]
            & h_ok[:, a][None, None, None, :]
        )
    if fillable.all():
        return SsfResult(True, None)
    n, s, e, w = map(int, np.argwhere(~fillable)[0])
    return SsfResult(False, (n, s, e, w))


def reference_sample_admissible(sft: NnSft, radius: int, rng: np.random.Generator) -> Window:
    """Raster sweep from the bottom row up, left to right; each site takes
    the int(draw * len(opts))-th symbol compatible with its placed left
    and down neighbors, one draw per site in sweep order."""
    q = sft.q
    h, v = sft.h_table, sft.v_table
    side = 2 * radius + 1
    arr = np.empty((side, side), dtype=np.int64)
    draws = rng.random(side * side)
    k = 0
    for r in range(side - 1, -1, -1):
        for c in range(side):
            left = int(arr[r, c - 1]) if c > 0 else None
            down = int(arr[r + 1, c]) if r < side - 1 else None
            opts = [
                a
                for a in range(q)
                if not (left is not None and h[left, a]) and not (down is not None and v[down, a])
            ]
            arr[r, c] = opts[int(draws[k] * len(opts))]
            k += 1
    return Window(Rect.centered(radius), arr, _copy=False)


def reference_render_window(w: Window) -> str:
    """The window text built row by row with str()."""
    r = w.rect
    lines = [f"window {r.x0} {r.y0} {r.width} {r.height}"]
    for row in w.array:
        lines.append(" ".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"


def reference_parse_window(text: str) -> Window:
    """The window text parsed row by row with int(), which also takes
    signs, underscores and non-ASCII digits; a symbol of 2**63 or more
    raises OverflowError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty window text")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "window":
        raise ValueError("window text must start with 'window x0 y0 width height'")
    x0, y0, width, height = (int(t) for t in head[1:])
    rect = Rect(x0, y0, width, height)
    rows = lines[1:]
    if len(rows) != height:
        raise ValueError(f"expected {height} rows, found {len(rows)}")
    arr = np.empty((height, width), dtype=np.int64)
    for i, ln in enumerate(rows):
        vals = ln.split()
        if len(vals) != width:
            raise ValueError(f"row {i + 1}: expected {width} symbols, found {len(vals)}")
        arr[i] = list(map(int, vals))
    if arr.min() < 0:
        raise ValueError("symbols must be nonnegative")
    return Window(rect, arr, _copy=False)


def reference_decompose(w: Window, sft: NnSft, i: int) -> ShellDecomposition:
    """Shell i's bad sites, looked up site by site, grouped into maximal
    runs per side."""
    mask = bad_site_mask(w, sft)

    def bad(x: int, y: int) -> bool:
        return bool(mask[w.rect.y1 - y, x - w.rect.x0])

    def runs(side: str, coords: list[int]) -> tuple[Run, ...]:
        out: list[Run] = []
        k = 0
        while k < len(coords):
            j = k
            while j + 1 < len(coords) and coords[j + 1] == coords[j] + 1:
                j += 1
            out.append(Run(side, i, coords[k], coords[j]))
            k = j + 1
        return tuple(out)

    if i == 0:
        return ShellDecomposition(0, {"top": (Run("top", 0, 0, 0),)} if bad(0, 0) else {})
    sides = {
        "top": runs("top", [x for x in range(-i, i + 1) if bad(x, i)]),
        "bottom": runs("bottom", [x for x in range(-i, i + 1) if bad(x, -i)]),
        "right": runs("right", [y for y in range(-i + 1, i) if bad(i, y)]),
        "left": runs("left", [y for y in range(-i + 1, i) if bad(-i, y)]),
    }
    return ShellDecomposition(i, {side: r for side, r in sides.items() if r})


def reference_repair(
    w: Window, sft: NnSft, n: int, rule: str, rng: np.random.Generator | None
) -> tuple[Window, list[ShellDecomposition]]:
    """Shells decomposed from the input, then each run swept site by site,
    listing the symbols that fit the four current neighbors and taking
    the first ("smallest") or choices[rng.integers(len(choices))]."""
    shells = [reference_decompose(w, sft, i) for i in range(n + 1)]
    h, v = sft.h_table, sft.v_table
    arr = w.array.copy()
    for dec in shells:
        for run in dec.iter_runs():
            for x, y in run.sites():
                r, c = w.rect.y1 - y, x - w.rect.x0
                left, right = arr[r, c - 1], arr[r, c + 1]
                down, up = arr[r + 1, c], arr[r - 1, c]
                choices = [
                    a
                    for a in range(sft.q)
                    if not (h[left, a] or h[a, right] or v[down, a] or v[a, up])
                ]
                if rule == "smallest":
                    arr[r, c] = choices[0]
                else:
                    arr[r, c] = choices[int(rng.integers(len(choices)))]
    return Window(w.rect, arr, _copy=False), shells


# ---------------------------------------------------------------------------
# Masked-tensor strip entropy: the power iteration over the full q**m
# tensor, vertically admissible columns masked in, after a check that
# some column can be followed forever. The enumerated-state iteration in
# nnsft.entropy must give exactly its value, state count and iteration
# count, and raise where it raises, at the alphabets compared with it:
# its dots have other widths, which BLAS may sum in another order.


def reference_strip_entropy(
    sft: NnSft, m: int, tol: float = 1e-10, max_iter: int = 100_000
) -> StripEntropyResult:
    if not TOL_FLOOR <= tol < math.inf:
        raise ValueError("tol below the rounding floor or not finite")
    q = sft.q
    v_ok = ~sft.v_table
    mask = np.ones((q,) * m, dtype=bool)
    for j in range(m - 1):
        # columns are indexed bottom symbol first; axis j sits below axis j+1
        shape = (1,) * j + (q, q) + (1,) * (m - j - 2)
        mask &= v_ok.reshape(shape)
    count = int(mask.sum())
    if count == 0:
        raise EmptySubshiftError("empty subshift: no vertically admissible column")
    h_ok = (~sft.h_table).astype(float)

    def matvec(v):
        for ax in range(m):
            v = np.moveaxis(np.tensordot(h_ok, v, axes=([1], [ax])), 0, ax)
        return np.where(mask, v, 0.0)

    # columns that can be followed forever: drop those with no successor
    # among the rest until none is dropped
    alive = mask
    while True:
        kept = alive & (matvec(alive.astype(float)) > 0)
        if not kept.any():
            raise EmptySubshiftError("empty subshift: no column can be followed forever")
        if (kept == alive).all():
            break
        alive = kept
    v = mask.astype(float)
    v /= v.sum()
    for iterations in range(1, max_iter + 1):
        w = matvec(v) + v
        s = float(w.sum())
        residual = float(np.abs(w - s * v).sum())
        v = w / s
        if residual <= tol * s:
            lam = s - 1.0
            if lam <= 0.0:
                raise EmptySubshiftError("empty subshift: no column can follow any other")
            # T has a cycle (see the pruning above), so lambda_max >= 1
            return StripEntropyResult(math.log(max(lam, 1.0)) / m, m, count, iterations)
    raise ConvergenceError(f"power iteration did not certify convergence in {max_iter} steps")


def reference_strip_matvec(transfer: StripTransfer, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """StripTransfer.matvec with fresh arrays at every position: fancy
    indexing gathers the stage's columns and np.tensordot contracts
    them. Its dot has the operands and shape of the reused-buffer
    kernel's, so the two agree to the bit at any alphabet. Like the
    kernel, it writes the result to out when one is given."""
    stage = np.append(v, 0.0)[None, :]
    for cols, rows in transfer.steps:
        block = np.tensordot(transfer.h_ok, stage[:, cols], axes=([1], [1]))
        stage = block.reshape(-1, block.shape[2])[rows]
    if out is None:
        return stage[:, 0]
    out[...] = stage[:, 0]
    return out
