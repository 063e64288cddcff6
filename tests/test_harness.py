import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnsft.repair as repair_module
import nnsft.sft as sft_module
from nnsft import harness
from nnsft.cli import main
from nnsft.harness import (
    CSV_HEADER,
    WINDOW_SITE_GUARD,
    TrialConfig,
    TrialReport,
    _total_report,
    check_average_bounds,
    check_shell_gaps,
    corrupt,
    run_experiment,
    run_trial,
    sample_admissible,
    sample_admissible_stack,
    tail_slack,
    trial_seed,
)
from nnsft.lattice import Rect, Window, render_window
from nnsft.potentials import PerturbedPotential, RangeOnePerturbation, birkhoff_sum, sample_perturbation
from nnsft.repair import RepairResult, repair
from nnsft.sft import NnSft, SymbolRangeError, bad_site_mask, bad_sites, checkerboard, full_shift, hard_square

from _util import (
    forbidden_pairs,
    pair_scan_bad_sites,
    random_sft,
    random_ssf_sfts,
    random_window,
    rect_sites,
    reference_decompose,
    reference_run_trial,
    reference_shell_rows,
    shell_windows,
)

HS = hard_square()


def _zero_g(sft=HS):
    return PerturbedPotential.build(sft, RangeOnePerturbation({}, 1.0))


def experiment(monkeypatch, cfg):
    """run_experiment's verdict, the pieces it wrote, and its trials'
    reports, caught by a spy on run_trial."""
    pieces, reports = [], []

    def spy(*args):
        reports.append(run_trial(*args))
        return reports[-1]

    with monkeypatch.context() as m:
        m.setattr(harness, "run_trial", spy)
        all_pass = run_experiment(cfg, pieces.append)
    return all_pass, pieces, reports


def test_trial_config_validation():
    TrialConfig(sft=HS)
    with pytest.raises(ValueError, match="hypothesis"):
        TrialConfig(sft=HS, cap=1 / 64)
    # epsilon is read only by the hypothesis check: out-of-hypothesis caps
    # run with it at 5*cap
    for cap in (1 / 64, 0.5):
        TrialConfig(sft=HS, epsilon=5 * cap, cap=cap)
    with pytest.raises(ValueError, match="corrupt"):
        TrialConfig(sft=HS, corrupt_rate=1.5)
    with pytest.raises(ValueError, match="support"):
        TrialConfig(sft=HS, support_size=-1)
    # what the first trial's sampler would refuse, with the sampler's messages
    with pytest.raises(ValueError, match="^sampling requires a single-site fillable SFT$"):
        TrialConfig(sft=checkerboard(4), n=3)
    with pytest.raises(ValueError, match="^alphabet too large for exhaustive SSF check"):
        TrialConfig(sft=full_shift(65), n=3)
    radius = (math.isqrt(WINDOW_SITE_GUARD) - 1) // 2  # the largest window the guard takes
    TrialConfig(sft=HS, n=radius - 2)
    for sft in (HS, checkerboard(4)):
        with pytest.raises(ValueError, match=f"^a window of radius {radius + 1} has .* guard"):
            TrialConfig(sft=sft, n=radius - 1)


def test_trial_config_refuses_non_finite_epsilon_and_cap():
    # a NaN epsilon or cap makes 5*cap > epsilon False, which would switch
    # the hypothesis guard off; an infinite epsilon would admit any cap
    for epsilon, cap in (
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (1 / 64, math.nan), (1 / 64, math.inf), (1 / 64, -math.inf), (math.inf, math.inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            TrialConfig(sft=HS, epsilon=epsilon, cap=cap)


def test_unknown_rule_refused_before_sampling(monkeypatch):
    # refused when the config is built, not by repair inside the first
    # trial, after the trial's window was sampled
    def refuse(*_):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(harness, "sample_admissible_stack", refuse)
    monkeypatch.setattr(harness, "sample_admissible", refuse)
    with pytest.raises(ValueError, match="^unknown fill rule 'bogus'; expected 'smallest' or 'random'$"):
        run_experiment(TrialConfig(sft=HS, n=3, rule="bogus"), lambda _: None)


def test_sample_admissible():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        w = sample_admissible(HS, 10, rng)
        assert forbidden_pairs(w, HS) == set()
        assert w.rect == Rect.centered(10)
    rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
    assert sample_admissible(HS, 6, rng1) == sample_admissible(HS, 6, rng2)
    with pytest.raises(ValueError, match="fillable"):
        sample_admissible(checkerboard(3), 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="radius"):
        sample_admissible(HS, -1, np.random.default_rng(0))
    # the largest radius within the guard, and the first one past it
    radius = (math.isqrt(WINDOW_SITE_GUARD) - 1) // 2
    with pytest.raises(ValueError, match="guard"):
        sample_admissible(HS, radius + 1, np.random.default_rng(0))
    assert (2 * radius + 1) ** 2 <= WINDOW_SITE_GUARD


def test_sample_admissible_stack_guard_counts_every_window():
    # two windows that each fit the guard but not together are refused
    # before either generator draws
    radius = (math.isqrt(WINDOW_SITE_GUARD // 2) - 1) // 2 + 1
    assert (2 * radius + 1) ** 2 <= WINDOW_SITE_GUARD < 2 * (2 * radius + 1) ** 2
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    states = [rng.bit_generator.state for rng in rngs]
    with pytest.raises(ValueError, match="stack of 2 windows.*guard"):
        sample_admissible_stack(HS, radius, rngs)
    assert [rng.bit_generator.state for rng in rngs] == states
    assert sample_admissible_stack(HS, 3, []) == []


@pytest.mark.parametrize("size", [1, 3])
def test_stacked_window_with_a_forbidden_pair_raises(monkeypatch, size):
    # a pick table that always places a 1 puts two 1s side by side
    sft = hard_square()
    table, count = sft.pick_table
    sft.__dict__["pick_table"] = (np.ones_like(table), count)
    rngs = [np.random.default_rng(i) for i in range(size)]
    with pytest.raises(RuntimeError, match="inadmissible"):
        sample_admissible_stack(sft, 3, rngs)
    # one forbidden pair in one window of the stack, of an SFT that
    # forbids pairs in that direction only
    sweep = harness._sweep
    only_h = NnSft(2, frozenset({(1, 1)}), frozenset())
    only_v = NnSft(2, frozenset(), frozenset({(1, 1)}))
    for k in range(size):
        for sft, dr, dc in ((only_h, 0, 1), (only_v, 1, 0)):
            def one_pair(sft, draws, side, k=k, dr=dr, dc=dc):
                grids = sweep(sft, draws, side).reshape(-1, side + 1, side + 1)
                mid = side // 2
                grids[k, mid, mid] = grids[k, mid + dr, mid + dc] = 1
                return grids

            monkeypatch.setattr(harness, "_sweep", one_pair)
            with pytest.raises(RuntimeError, match="inadmissible"):
                sample_admissible_stack(sft, 3, [np.random.default_rng(i) for i in range(size)])
            monkeypatch.undo()
            assert len(sample_admissible_stack(sft, 3, [np.random.default_rng(0)] * size)) == size


def test_sample_admissible_full_shift():
    w = sample_admissible(full_shift(4), 5, np.random.default_rng(1))
    assert forbidden_pairs(w, full_shift(4)) == set()
    assert set(np.unique(w.array)) <= {0, 1, 2, 3}


def test_corrupt():
    rng = np.random.default_rng(2)
    w = sample_admissible(HS, 8, rng)
    assert corrupt(w, 2, 0.0, rng) == w
    c1 = corrupt(w, 2, 0.7, np.random.default_rng(9))
    c2 = corrupt(w, 2, 0.7, np.random.default_rng(9))
    assert c1 == c2
    full = corrupt(w, 2, 1.0, rng)
    # fully resampled windows match the independent bad-site oracle
    assert bad_sites(full, HS).sites == pair_scan_bad_sites(full, HS)
    with pytest.raises(ValueError):
        corrupt(w, 2, -0.1, rng)


def test_corrupt_widens_a_byte_window_for_a_wide_alphabet():
    w = sample_admissible(HS, 8, np.random.default_rng(3))
    assert w.array.dtype == np.uint8
    out = corrupt(w, 300, 0.5, np.random.default_rng(4))
    # the same random stream as np.where(hit, draws, w.array) over int64 draws
    rng = np.random.default_rng(4)
    hit = rng.random(w.array.shape) < 0.5
    draws = rng.integers(0, 300, size=w.array.shape)
    assert out.array.dtype == np.uint16
    assert np.array_equal(out.array, np.where(hit, draws, w.array))


def test_symbols_past_the_alphabet_are_refused_where_g_is_evaluated():
    # symbol 2 sits only above the box of radius 1, as the up neighbor of
    # (0, 1): NnSft.bad's flat table would read another entry for it
    g = PerturbedPotential.build(HS, RangeOnePerturbation({}, 1.0))
    a = np.zeros((5, 5), dtype=np.int64)
    a[0, 2] = 2
    w = Window(Rect.centered(2), a)
    for evaluate in (
        lambda: birkhoff_sum(g, w, Rect.centered(1)),
        lambda: g.value(w, 0, 1),
        lambda: check_shell_gaps(g, w, w, 1),
    ):
        with pytest.raises(SymbolRangeError, match=r"symbol 2 at \(0, 2\)"):
            evaluate()


def test_corrupt_keeps_one_int64_array_of_draws():
    w = sample_admissible(checkerboard(5), 384, np.random.default_rng(5))
    tracemalloc.start()
    try:
        out = corrupt(w, 5, 0.3, np.random.default_rng(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int64 draws, the hit mask and the byte copy: 10 bytes a site; an
    # int64 result next to the draws made it 18
    assert peak < 12 * w.array.size
    assert out.array.dtype == np.uint8


def test_average_bounds_zero_branch():
    g = _zero_g()
    w = Window.filled(Rect.centered(6), 0)
    rep = check_average_bounds(g, w, Rect.centered(4))
    assert rep.status == "zero_ok" and rep.average == 0.0 and rep.bad_fraction == 0.0


def test_average_bounds_half_branch():
    g = _zero_g()
    ones = Window.filled(Rect.centered(6), 1)
    rep = check_average_bounds(g, ones, Rect.centered(4))
    assert rep.status == "half_ok"
    assert rep.bad_fraction == 1.0 and rep.average == -1.0
    # with the certified gap in place the margin is -1/2 + gap - (-1) = 1/2 + gap
    assert rep.margin == pytest.approx(0.5)


def test_average_bounds_not_applicable():
    g = _zero_g()
    w = Window.filled(Rect.centered(6), 0).with_patch({(0, 0): 1, (1, 0): 1})
    rep = check_average_bounds(g, w, Rect.centered(4))
    assert rep.status == "na" and math.isnan(rep.margin)


def test_shell_gaps_zero_perturbation_integer_identity():
    # with h = 0 the per-shell improvement is exactly the drop in the
    # region's bad-site count
    rng = np.random.default_rng(13)
    g = _zero_g()
    region = Rect.centered(10)
    w = corrupt(sample_admissible(HS, 12, rng), 2, 0.4, rng)
    res = repair(w, HS, 10)
    rep = check_shell_gaps(g, w, res.window, 10)
    assert rep.ok
    windows = shell_windows(w, HS, 10)
    for row, prev, cur in zip(rep.rows, windows, windows[1:]):
        before = sum(1 for s in bad_sites(prev, HS).sites if region.contains(s))
        after = sum(1 for s in bad_sites(cur, HS).sites if region.contains(s))
        assert row.observed == pytest.approx(before - after, abs=1e-12)
        assert row.pending <= row.size


def test_shell_gaps_empty_shells():
    g = PerturbedPotential.build(HS, sample_perturbation(1 / 384, 8, 2, seed=1))
    w = Window.filled(Rect.centered(6), 0)
    res = repair(w, HS, 4)
    rep = check_shell_gaps(g, w, res.window, 4)
    assert rep.ok
    assert [row.size for row in rep.rows] == [0] * 5
    for row in rep.rows:
        assert row.observed == 0.0
        assert row.required == pytest.approx(-112.0 * g.gap)
        assert row.margin == pytest.approx(112.0 * g.gap)


def test_shell_gaps_mismatched_domains():
    g = _zero_g()
    w = Window.filled(Rect.centered(6), 0)
    res = repair(w, HS, 4)
    with pytest.raises(ValueError, match="domains"):
        moved = Window(Rect(-5, -6, 13, 13), res.window.array)
        check_shell_gaps(g, w, moved, 4)
    # the window must hold the box of radius n + 1: 5 fits in 6, 6 does not
    assert len(check_shell_gaps(g, w, w, 5).rows) == 6
    with pytest.raises(ValueError, match="insufficient margin"):
        check_shell_gaps(g, w, res.window, 6)
    with pytest.raises(ValueError, match="radius"):
        check_shell_gaps(g, w, res.window, -1)


def test_shell_gaps_at_n_zero():
    # one shell, the origin: bad in the input, still bad before its
    # repair, and its repair gains exactly one bad site's worth (h = 0)
    g = _zero_g()
    w = Window.filled(Rect.centered(2), 0).with_patch({(0, 0): 1, (1, 0): 1})
    res = repair(w, HS, 0)
    rep = check_shell_gaps(g, w, res.window, 0)
    assert res.shell_sizes == [1]
    [row] = rep.rows
    assert (row.i, row.size, row.pending, row.observed) == (0, 1, 1, 1.0)
    assert rep.ok and rep.min_margin == row.margin
    assert rep.output_bad_count == 0 and rep.stray_changes == 0
    assert (rep.input_sum, rep.output_sum) == (-1.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    rate=st.floats(0.0, 1.0),
    support=st.integers(0, 60),
    rule=st.sampled_from(["smallest", "random"]),
)
def test_shell_gaps_replay_matches_reference(seed, n, rate, support, rule):
    # the replay from repair's input and output against the window after
    # each shell, taken from repair on shells 0..i from the same rng state
    rng = np.random.default_rng(seed)
    sft = random_ssf_sfts(1, seed)[0]
    w = corrupt(sample_admissible(sft, n + 2, rng), sft.q, rate, rng)
    g = PerturbedPotential.build(sft, sample_perturbation(0.01, support, sft.q, rng))
    windows = shell_windows(w, sft, n, rule, rng)
    res = repair(w, sft, n, rule=rule, rng=rng)
    rep = check_shell_gaps(g, w, res.window, n)
    expected = reference_shell_rows(g, res.shells, windows, Rect.centered(n))
    assert [(row.size, row.pending, row.observed) for row in rep.rows] == expected


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 8),
    edit_rate=st.floats(0.0, 1.0),
    support=st.integers(0, 60),
)
def test_shell_gaps_match_reference_on_arbitrary_pairs(seed, n, edit_rate, support):
    # any output against any input, on any SFT: the window after shell i
    # is where(norm <= i, output, input), and nothing is assumed of
    # repair (edits land anywhere, off the box of radius n too, and need
    # not remove a bad site)
    rng = np.random.default_rng(seed)
    sft = random_sft(rng)
    q = sft.q
    rect = Rect.centered(n + 2)
    w = random_window(rect, q, rng)
    edit = rng.random(w.array.shape) < edit_rate
    out = Window(rect, np.where(edit, rng.integers(0, q, w.array.shape), w.array))
    region = Rect.centered(n)
    g = PerturbedPotential.build(sft, sample_perturbation(0.01, min(support, q**9), q, rng))
    shells = [reference_decompose(w, sft, i) for i in range(n + 1)]
    rep = check_shell_gaps(g, w, out, n)
    ys = rect.y1 - np.arange(rect.height)
    xs = rect.x0 + np.arange(rect.width)
    norm = np.maximum.outer(np.abs(ys), np.abs(xs))
    windows = [w] + [Window(rect, np.where(norm <= i, out.array, w.array)) for i in range(n + 1)]
    expected = reference_shell_rows(g, shells, windows, region)
    assert [(row.size, row.pending, row.observed) for row in rep.rows] == expected
    # the output's bad sites in the region, and the windowed sums of
    # input and output, are bad_site_mask's and birkhoff_sum's
    cut = (slice(2, 2 * n + 3),) * 2  # the region in the window's array
    assert rep.output_bad_count == int(bad_site_mask(out, sft)[cut].sum())
    for window, total in ((w, rep.input_sum), (out, rep.output_sum)):
        assert repr(total) == repr(birkhoff_sum(g, window, region))
    allowed = np.zeros(w.array.shape, dtype=bool)
    allowed[cut] = bad_site_mask(w, sft)[cut]
    assert rep.stray_changes == int(((w.array != out.array) & ~allowed).sum())


BAND_SPECS = [HS, checkerboard(5), checkerboard(6), *random_ssf_sfts(2, seed=4242)]
BAND_CASES = [
    (k, rule, rate) for k in range(len(BAND_SPECS)) for rule in ("smallest", "random")
    for rate in (0.0, 0.15, 1.0)
]


@pytest.mark.parametrize("k, rule, rate", BAND_CASES)
def test_row_bands_give_identical_reports(monkeypatch, k, rule, rate):
    # one row per band, three rows, and one band over the whole region:
    # every report and the CSV to the bit
    sft = BAND_SPECS[k]
    n = (2, 3, 9, 17, 40)[BAND_CASES.index((k, rule, rate)) % 5]
    cfg = TrialConfig(sft=sft, n=n, rule=rule, corrupt_rate=rate, trials=2, seed=31 + k,
                      support_size=min(sft.q**9, 512))
    budgets, seen = (1, 3 * (2 * n + 1), 2**62), set()
    bands = Rect.bands

    def spy(rect, sites):
        seen.add(sites)
        return bands(rect, sites)

    monkeypatch.setattr(Rect, "bands", spy)
    results = []
    for band_sites in budgets:
        monkeypatch.setattr(harness, "BAND_SITES", band_sites)
        results.append(experiment(monkeypatch, cfg))
    assert seen == set(budgets)  # the checks cut their bands by the patched budget
    _, first_text, first_reports = results[0]
    assert len(first_reports) == 2
    for _, text, reports in results[1:]:
        assert text == first_text
        for a, b in zip(first_reports, reports, strict=True):
            for name in ("admissible_check", "corrupted_check", "shell_check"):
                assert repr(getattr(a, name)) == repr(getattr(b, name)), name


def test_shell_gaps_working_set_is_bounded_by_bands():
    # tracemalloc counts numpy's buffers: above its inputs, the pass may
    # hold a band's temporaries and, over the region, C's and R's h (16
    # bytes per site) and the kept terms; unbanded passes held
    # about 75 bytes per site here
    rng = np.random.default_rng(0)
    sft = checkerboard(5)
    n = 200
    w = corrupt(sample_admissible(sft, n + 2, rng), sft.q, 0.15, rng)
    g = PerturbedPotential.build(sft, sample_perturbation(1 / 384, 8, sft.q, rng))
    res = repair(w, sft, n)
    region = Rect.centered(n)
    tracemalloc.start()
    try:
        check_shell_gaps(g, w, res.window, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * region.area


def test_total_gap_admissible():
    g = _zero_g()
    w = Window.filled(Rect.centered(6), 0)
    res = repair(w, HS, 4)
    region = Rect.centered(4)
    before, after = birkhoff_sum(g, w, region), birkhoff_sum(g, res.window, region)
    rep = _total_report(g.gap, res.total_bad, before, after, 4)
    assert rep.total_gap == 0.0
    assert rep.raw_ok and rep.normalized_ok and rep.vacuous  # required < 0 at tiny N


def test_total_bound_vacuity_regimes():
    # the normalized bound asserts nothing at small N and bites at large N
    g = _zero_g()
    bf = 0.2
    for n, expect_vacuous in ((16, True), (128, False)):
        area = (2 * n + 1) ** 2
        required = (1.0 - 32.0 * g.gap) * bf - (112.0 * g.gap * (n + 1) + tail_slack(n)) / area
        assert (required <= 0) == expect_vacuous


def test_run_trial_fields_and_pass():
    cfg = TrialConfig(sft=HS, n=12, seed=3, trials=1)
    r = run_trial(cfg, 0)
    assert r.all_pass
    assert r.seed == trial_seed(3, 0)
    assert r.bad_total == sum(row.size for row in r.shell_check.rows)
    assert 0 <= r.bad_fraction < 0.5
    assert r.certified_gap < 1 / 64
    assert r.repaired_clean and r.locality_ok
    assert r.case1_status == "zero_ok;na"


def test_run_trial_zero_support_exact_identity():
    cfg = TrialConfig(sft=HS, n=10, seed=5, support_size=0)
    r = run_trial(cfg, 0)
    assert r.certified_gap == 0.0
    assert r.all_pass
    # improvement equals the bad count exactly
    assert r.total_check.total_gap == pytest.approx(-float(r.bad_total), abs=1e-12)


TRIAL_SFTS = random_ssf_sfts(10, seed=1111) + [HS, checkerboard(5)]


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(0, len(TRIAL_SFTS) - 1),
    n=st.integers(1, 12),
    support=st.integers(0, 40),
    rule=st.sampled_from(["smallest", "random"]),
    rate=st.sampled_from([0.0, 0.15, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_run_trial_matches_reference_assembly(k, n, support, rule, rate, seed):
    # one evaluation per window state gives the report that the public
    # checks and bad-site masks gave, every float to the bit
    cfg = TrialConfig(
        sft=TRIAL_SFTS[k], n=n, support_size=support, rule=rule, corrupt_rate=rate, seed=seed
    )
    got, want = run_trial(cfg, 1), reference_run_trial(cfg, 1)
    for f in dataclasses.fields(TrialReport):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
    assert got.csv_lines() == want.csv_lines()


def test_run_trial_evaluates_each_window_state_once(monkeypatch):
    # base, input, two mixed states and output: five passes of the
    # evaluator, each one band at these N; the one bad-site mask is repair's
    calls = []
    evaluate = PerturbedPotential.patch_parts

    def counted_parts(self, patch):
        calls.append("patch_parts")
        return evaluate(self, patch)

    monkeypatch.setattr(PerturbedPotential, "patch_parts", counted_parts)
    for module in (sft_module, harness, repair_module):
        def counted_mask(w, sft, _name=module.__name__):
            calls.append(f"bad_site_mask from {_name}")
            return bad_site_mask(w, sft)

        monkeypatch.setattr(module, "bad_site_mask", counted_mask)
    for sft, n in ((HS, 6), (checkerboard(5), 20)):
        calls.clear()
        run_trial(TrialConfig(sft=sft, n=n, seed=2), 0)
        assert sorted(calls) == ["bad_site_mask from nnsft.repair"] + ["patch_parts"] * 5


def test_run_trial_locality_failures(monkeypatch):
    # repair may change only the corrupted window's bad sites inside the
    # box of radius N; one stray change must fail the trial
    cfg = TrialConfig(sft=HS, n=6, seed=4, corrupt_rate=0.3)
    assert run_trial(cfg, 0).locality_ok

    def not_bad(w):
        bad = bad_sites(w, HS).sites
        return next(s for s in rect_sites(cfg.region) if s not in bad)

    def bad_outside_box(w):
        return min(s for s in bad_sites(w, HS).sites if max(map(abs, s)) == cfg.n + 1)

    for pick in (not_bad, bad_outside_box):
        def tampered(w, sft, n, **kwargs):
            res = repair(w, sft, n, **kwargs)
            x, y = pick(w)
            arr = res.window.array.copy()
            arr[w.rect.y1 - y, x - w.rect.x0] ^= 1  # repair left this site as it was
            out = Window(w.rect, arr)
            return RepairResult(out, res.shell_sizes, res.sweep)

        monkeypatch.setattr(harness, "repair", tampered)
        r = run_trial(cfg, 0)
        assert not r.locality_ok, pick.__name__
        assert not r.all_pass, pick.__name__


def test_run_trial_refuses_shell_sizes_moved_between_shells(monkeypatch):
    # repair's shell sizes must match the counted ones shell by shell:
    # one count moved to the next shell keeps the total
    cfg = TrialConfig(sft=HS, n=6, seed=4, corrupt_rate=0.3)

    def moved(w, sft, n, **kwargs):
        res = repair(w, sft, n, **kwargs)
        sizes = list(res.shell_sizes)
        i = next(k for k, size in enumerate(sizes) if size)
        sizes[i] -= 1
        sizes[(i + 1) % len(sizes)] += 1
        return RepairResult(res.window, sizes, res.sweep)

    monkeypatch.setattr(harness, "repair", moved)
    with pytest.raises(RuntimeError, match="lost bad sites"):
        run_trial(cfg, 0)


def test_trial_and_cli_repair_build_no_decomposition(monkeypatch, tmp_path, capsys):
    # shells are built only on request: a trial and `nnsft repair`
    # take the shell sizes from the sweep
    def refuse(*args):
        raise AssertionError("built a shell decomposition")

    monkeypatch.setattr(repair_module, "_decompose", refuse)
    assert run_trial(TrialConfig(sft=HS, n=12, seed=3), 0).all_pass
    rng = np.random.default_rng(6)
    w = corrupt(sample_admissible(HS, 9, rng), 2, 0.4, rng)
    path = tmp_path / "w.txt"
    path.write_text(render_window(w))
    out = tmp_path / "o.txt"
    assert main(["repair", "--spec", "hardsquare", "--window", str(path), "--out", str(out)]) == 0
    bad_total = repair(w, HS, 8).total_bad
    assert bad_total > 0
    assert capsys.readouterr().out.startswith(f"repaired N=8 bad_total={bad_total} ")
    with pytest.raises(AssertionError, match="decomposition"):
        repair(w, HS, 8).shells


def test_run_experiment_determinism_and_jobs():
    cfg = TrialConfig(sft=HS, n=10, seed=21, trials=6)
    a, b = [], []
    assert run_experiment(cfg, a.append)
    assert run_experiment(cfg, b.append)
    assert a == b


@pytest.mark.parametrize("per_chunk", [2, 3])
@pytest.mark.parametrize("rule", ["smallest", "random"])
def test_chunked_experiment_matches_trials_run_alone(monkeypatch, per_chunk, rule):
    # chunks of 2 or 3 windows: trial counts on, just past and just short
    # of a chunk boundary give the reports run_trial gives one at a time
    n = 4
    side = 2 * (n + 2) + 1
    monkeypatch.setattr(harness, "CHUNK_SITES", per_chunk * side * side + side)
    for k, sft in enumerate((HS, checkerboard(5), *TRIAL_SFTS[:2])):
        for trials in (1, per_chunk, per_chunk + 1, 2 * per_chunk - 1, 2 * per_chunk + 1):
            cfg = TrialConfig(sft=sft, n=n, rule=rule, seed=17 + k, trials=trials, corrupt_rate=0.3)
            _, _, got = experiment(monkeypatch, cfg)
            want = [run_trial(cfg, i) for i in range(trials)]
            assert len(got) == trials
            for a, b in zip(got, want):
                for f in dataclasses.fields(TrialReport):
                    assert repr(getattr(a, f.name)) == repr(getattr(b, f.name)), f.name
                assert a.csv_lines() == b.csv_lines()


def test_run_experiment_samples_chunks_in_one_sweep(monkeypatch):
    # 11 windows a chunk at N = 24, two at N = 61 and one from N = 62 on;
    # each sweep runs inside the run_trial of its chunk's first trial,
    # so that a profile counts it as trial work
    stacks, running = [], []
    stack = harness.sample_admissible_stack
    report = run_trial(TrialConfig(sft=HS, n=2), 0)

    def recorded(sft, radius, rngs):
        stacks.append((running[-1], len(rngs)))
        return stack(sft, radius, rngs)

    def trial(cfg, i, chunk=None):
        running.append(i)
        rng, w = chunk.take(i)
        assert w.rect == Rect.centered(cfg.window_radius)
        with pytest.raises(KeyError):
            chunk.take(i)
        running.pop()
        return report

    monkeypatch.setattr(harness, "sample_admissible_stack", recorded)
    monkeypatch.setattr(harness, "run_trial", trial)
    for n, trials, want in (
        (24, 23, [(0, 11), (11, 11), (22, 1)]),
        (61, 3, [(0, 2), (2, 1)]),
        (62, 2, [(0, 1), (1, 1)]),
    ):
        stacks.clear()
        run_experiment(TrialConfig(sft=HS, n=n, trials=trials), lambda text: None)
        assert stacks == want, n


def test_csv_flags_recomputable_from_rows(monkeypatch):
    # pass flags must be pure functions of the recorded numbers
    cfg = TrialConfig(sft=checkerboard(5), n=12, seed=9, trials=5)
    _, pieces, reports = experiment(monkeypatch, cfg)
    lines = [ln for ln in "".join(pieces).splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    for ln, rep in zip(lines[1:], reports, strict=True):
        row = dict(zip(header, ln.split(",")))
        n = int(row["N"])
        area = (2 * n + 1) ** 2
        gap = float(row["certified_gap"])
        bad_total = int(row["bad_total"])
        assert float(row["bad_fraction"]) == bad_total / area
        recomputed_bound = (
            112.0 * gap * (n + 1) + tail_slack(n) + (-1.0 + 32.0 * gap) * bad_total
        )
        assert float(row["total_bound"]) == pytest.approx(recomputed_bound, rel=1e-12)
        raw_ok = float(row["total_gap"]) <= float(row["total_bound"])
        shell_ok = float(row["min_shell_margin"]) >= 0
        case1_ok = not any(part.endswith("fail") for part in row["case1_status"].split(";"))
        required = (1.0 - 32.0 * gap) * (bad_total / area) - (
            112.0 * gap * (n + 1) + tail_slack(n)
        ) / area
        improvement = -float(row["total_gap"]) / area
        norm_ok = required <= 0 or improvement >= required
        expected_all = raw_ok and shell_ok and case1_ok and norm_ok
        # repaired_clean/locality are structural; cross-check via the report
        assert rep.repaired_clean and rep.locality_ok
        assert (row["all_pass"] == "true") == expected_all


def test_run_experiment_summary_line(monkeypatch):
    cfg = TrialConfig(sft=HS, n=8, seed=2, trials=2)
    _, pieces, reports = experiment(monkeypatch, cfg)
    assert len(pieces) == 3  # header and trial 0, trial 1, summary
    last = pieces[-1]
    assert last.startswith("# summary: trials=2 passed=2 failed=0")
    assert last.endswith("\n") and last.count("\n") == 1
    assert f"min_literal_shell_margin={min(r.shell_check.min_literal_margin for r in reports)!r} " in last


def test_mixed_rates_all_pass_smoke():
    for rate in (0.0, 0.5, 1.0):
        cfg = TrialConfig(sft=HS, n=8, seed=31, trials=3, corrupt_rate=rate)
        pieces = []
        assert run_experiment(cfg, pieces.append), f"rate {rate}: {''.join(pieces)}"


@pytest.mark.parametrize("k", [0, 1, 4])
def test_run_experiment_writes_each_trial_as_it_ends(monkeypatch, k):
    # a run stopped at trial k has handed write the header and exactly
    # the k finished trials' lines, as the full run wrote them
    cfg = TrialConfig(sft=HS, n=4, seed=3, trials=6, corrupt_rate=0.5)
    full = []
    run_experiment(cfg, full.append)

    def trial(cfg, i, chunk=None):
        if i == k:
            raise RuntimeError("stopped")
        return run_trial(cfg, i, chunk)

    monkeypatch.setattr(harness, "run_trial", trial)
    pieces = []
    with pytest.raises(RuntimeError, match="stopped"):
        run_experiment(cfg, pieces.append)
    assert pieces == full[:k]
    rows = [ln for ln in "".join(pieces).splitlines() if not ln.startswith("#")]
    assert rows[:1] == ([CSV_HEADER] if k else [])
    assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(k))


def test_run_experiment_memory_is_flat_in_trials(monkeypatch):
    # with run_trial stubbed to one fixed report, nothing of a trial
    # outlives it: 20,000 trials peak within 64 KB of 200
    report = run_trial(TrialConfig(sft=HS, n=4, seed=1, corrupt_rate=0.5), 0)
    monkeypatch.setattr(harness, "run_trial", lambda cfg, i, chunk=None: report)

    def peak(trials):
        cfg = TrialConfig(sft=HS, n=4, trials=trials)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_experiment(cfg, lambda text: None)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    small, large = peak(200), peak(20_000)
    assert large - small <= 64 * 1024, (small, large)
