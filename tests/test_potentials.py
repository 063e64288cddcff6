import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnsft.lattice import Rect, Window
from nnsft.potentials import (
    PATCH_CENTER,
    PATCH_OFFSETS,
    PerturbedPotential,
    RangeOnePerturbation,
    SEMINORM_ENUM_GUARD,
    SUPPORT_GUARD,
    birkhoff_sum,
    certify_norm_gap,
    check_levelset_lipschitz,
    lipschitz_seminorm_exact,
    sample_perturbation,
)
from nnsft.sft import bad_sites, checkerboard, full_shift, hard_square

from _util import (
    encode_pattern,
    potential_oracle,
    random_sft,
    random_ssf_sfts,
    random_window,
    reference_code_lookup,
    reference_sample_perturbation,
    reference_seminorm,
)

HS = hard_square()
ZERO = RangeOnePerturbation({}, 1.0)


def _g(sft=HS, h=None):
    return PerturbedPotential.build(sft, h if h is not None else ZERO)


def test_patch_offsets_order():
    assert PATCH_OFFSETS[4] == (0, 0)
    assert PATCH_OFFSETS[0] == (-1, 1)
    assert PATCH_OFFSETS[8] == (1, -1)


def _level(g, w):
    """Penalty value at the origin: minus the bad-site indicator."""
    return -int(g.parts(w, 0, 0)[0])


def test_eval_potential_zero_perturbation():
    g = _g()
    w = Window.filled(Rect.centered(2), 0).with_patch({(0, 0): 1, (1, 0): 1})
    assert g.value(w, 0, 0) == -1.0
    assert g.value(w, -1, 0) == 0.0
    # a lone 1 has no forbidden pair
    lone = Window.filled(Rect.centered(2), 0).with_patch({(0, 0): 1})
    assert g.value(lone, 0, 0) == 0.0
    assert g.value(w, [-1, 0, 1], [0, 0, 0]).tolist() == [0.0, -1.0, 0.0]
    assert g.value(w, np.zeros(0, dtype=int), np.zeros(0, dtype=int)).shape == (0,)
    with pytest.raises(ValueError, match="insufficient margin"):
        g.value(w, 2, 0)
    with pytest.raises(ValueError, match="insufficient margin"):
        g.value(w, [0, 0], [0, -2])


def test_eval_potential_with_coefficient():
    pat = (0,) * 9
    h = RangeOnePerturbation({pat: 0.001}, cap=0.002)
    g = _g(h=h)
    w = Window.filled(Rect.centered(3), 0)
    for x, y in Rect.centered(2).sites():
        assert g.value(w, x, y) == pytest.approx(0.001)


def test_value_matches_pattern_oracle():
    # the vectorized evaluator against per-site 3x3 pattern lookups
    rng = np.random.default_rng(61)
    for sft in random_ssf_sfts(12, seed=62):
        h = sample_perturbation(0.01, int(rng.integers(0, 40)), sft.q, rng)
        g = PerturbedPotential.build(sft, h)
        w = random_window(Rect(-3, -2, 9, 7), sft.q, rng)
        sites = list(Rect(-2, -1, 7, 5).sites())
        xs, ys = np.array(sites).T
        expected = [potential_oracle(g, w, x, y) for x, y in sites]
        assert g.value(w, xs, ys).tolist() == expected


def test_penalty_level_constancy():
    # g at the origin depends only on the 3x3 patch there
    rng = np.random.default_rng(50)
    g = _g(h=sample_perturbation(0.01, 200, 2, rng))
    for _ in range(50):
        w1 = random_window(Rect.centered(3), 2, rng)
        patch = {u: w1.get(u) for u in Rect.centered(1).sites()}
        w2 = random_window(Rect.centered(3), 2, rng).with_patch(patch)
        assert _level(g, w1) == _level(g, w2)
        assert g.value(w1, 0, 0) == g.value(w2, 0, 0)


def test_seminorm_trivial_cases():
    assert lipschitz_seminorm_exact(ZERO, 2) == 0.0
    h = RangeOnePerturbation({(0,) * 9: 0.003}, cap=0.003)
    # an absent pattern differing only off-center exists, so factor 2
    assert lipschitz_seminorm_exact(h, 2) == pytest.approx(0.006)
    # center 0 stores all 256 of its patterns, each 0.002, and center 1
    # none, so the seminorm is 0.002 - 0 across centers
    pats = [p for p in itertools.product(range(2), repeat=9) if p[PATCH_CENTER] == 0]
    h = RangeOnePerturbation(dict.fromkeys(pats, 0.002), cap=0.003)
    assert lipschitz_seminorm_exact(h, 2) == reference_seminorm(h, 2) == 0.002


def test_seminorm_of_penalty_table():
    # encode the hard-square penalty as a range-1 coefficient table
    coeffs = {}
    for pat in itertools.product(range(2), repeat=9):
        if (pat[4], pat[5]) in HS.hforbid or (pat[4], pat[1]) in HS.vforbid:
            coeffs[pat] = -1.0
    h = RangeOnePerturbation(coeffs, cap=1.0)
    assert lipschitz_seminorm_exact(h, 2) == pytest.approx(2.0)


def _seminorm_oracle(h: RangeOnePerturbation, q: int, rng) -> float:
    """Pairwise enumeration in shuffled order, including the zero class."""
    stored = list(h.coeffs.items())
    all_pats = list(itertools.product(range(q), repeat=9))
    entries = [(p, h.coeffs.get(p, 0.0)) for p in all_pats]
    rng.shuffle(entries)
    best = 0.0
    for (p1, c1), (p2, c2) in itertools.combinations(entries, 2):
        if p1 == p2:
            continue
        factor = 1.0 if p1[4] != p2[4] else 2.0
        best = max(best, abs(c1 - c2) * factor)
    return best


def test_seminorm_matches_oracle_full_table():
    rng = np.random.default_rng(51)
    pats = list(itertools.product(range(2), repeat=9))
    coeffs = {p: float(c) for p, c in zip(pats, rng.uniform(-0.01, 0.01, len(pats)))}
    h = RangeOnePerturbation(coeffs, cap=0.01)
    exact = lipschitz_seminorm_exact(h, 2)
    oracle = _seminorm_oracle(h, 2, np.random.default_rng(52))
    assert abs(exact - oracle) <= 1e-12


def test_seminorm_matches_oracle_sparse():
    rng = np.random.default_rng(53)
    for _ in range(10):
        h = sample_perturbation(0.01, int(rng.integers(0, 12)), 2, rng)
        exact = lipschitz_seminorm_exact(h, 2)
        oracle = _seminorm_oracle(h, 2, np.random.default_rng(54))
        assert abs(exact - oracle) <= 1e-12


@settings(max_examples=300, deadline=None)
@example(q=2, support=0, seed=0, levels=0, filled=0)  # the empty table
@example(q=2, support=40, seed=1, levels=2, filled=1)  # one center full, one partial
@example(q=2, support=0, seed=2, levels=0, filled=2)  # the full q = 2 table
@example(q=1, support=1, seed=3, levels=0, filled=0)  # the full q = 1 table
@given(
    q=st.integers(1, 5),
    support=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    levels=st.sampled_from([0, 1, 2, 3]),
    filled=st.integers(0, 2),
)
def test_seminorm_matches_pairwise_reference(q, support, seed, levels, filled):
    # the per-center extremes give the pairwise maximum to the bit; levels
    # > 0 rounds coefficients to multiples of cap/levels, forcing ties and
    # exact zeros of either sign, and for q <= 2 `filled` centers store
    # all q**8 of their patterns
    rng = np.random.default_rng(seed)
    cap = 1 / 384
    codes = set(rng.choice(q**9, size=min(support, q**9), replace=False).tolist())
    if q <= 2:
        for center in rng.permutation(q)[:filled].tolist():
            codes.update(k for k in range(q**9) if k // q**PATCH_CENTER % q == center)
    vals = rng.uniform(-cap, cap, len(codes))
    if levels:
        vals = np.round(vals / cap * levels) / levels * cap
    pats = [tuple(k // q**j % q for j in range(9)) for k in sorted(codes)]
    h = RangeOnePerturbation(dict(zip(pats, vals.tolist())), cap)
    assert lipschitz_seminorm_exact(h, q).hex() == reference_seminorm(h, q).hex()


@settings(max_examples=200, deadline=None)
@example(q=128, support=1, seed=0, top=True)  # the largest code, 2**63 - 1
@example(q=1, support=1, seed=1, top=False)  # the one q = 1 pattern
@example(q=3, support=0, seed=2, top=False)  # the empty table
@given(
    q=st.integers(1, 128),
    support=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    top=st.booleans(),
)
def test_code_lookup_matches_per_pattern_encoder(q, support, seed, top):
    # one int64 Horner pass and one argsort give the table that encoding
    # each pattern in Python and sorting the pairs gave; `top` adds the
    # all-(q-1) pattern, whose code is the alphabet's largest
    rng = np.random.default_rng(seed)
    pats = [tuple(p) for p in rng.integers(0, q, size=(support, 9)).tolist()]
    if top:
        pats.append((q - 1,) * 9)
    cap = 1 / 384
    coeffs = dict(zip(pats, rng.uniform(-cap, cap, len(pats)).tolist()))
    h = RangeOnePerturbation(coeffs, cap)
    codes, vals = PerturbedPotential.build(full_shift(q), h)._code_lookup
    ref_codes, ref_vals = reference_code_lookup(h, q)
    assert codes.dtype == ref_codes.dtype and codes.tolist() == ref_codes.tolist()
    assert vals.dtype == ref_vals.dtype and vals.tobytes() == ref_vals.tobytes()


@pytest.mark.parametrize(
    "q,support,filter_size",
    [
        (3, 0, None),
        (3, 1, 64),
        (3, 8, 512),
        (3, 5_000, 2**15),  # the first power of two >= q**9: exact
        (5, 300, 2**15),
        (5, 20_000, 2**20),  # the filter's cap: many codes share a slot
        (2, 1, 64),
        (2, 8, 2**9),  # q**9 codes: the filter is exact
        (2, 512, 2**9),  # every pattern stored
    ],
)
def test_patch_parts_h_matches_dict_lookup(q, support, filter_size):
    # h at random patterns and at every stored one, each looked up by code
    # in a dict, equals patch_parts' filtered search to the bit
    rng = np.random.default_rng(q * 100_003 + support)
    h = sample_perturbation(1 / 384, support, q, rng)
    g = PerturbedPotential.build(full_shift(q), h)
    pats = rng.integers(0, q, size=(4 * (1_000 + support), 9))
    pats[rng.permutation(len(pats))[:support]] = list(h.coeffs) or np.empty((0, 9))
    by_code = {encode_pattern(p, q): c for p, c in h.coeffs.items()}
    want = np.array([by_code.get(encode_pattern(p, q), 0.0) for p in pats.tolist()])
    _, got = g.patch_parts(list(pats.T.reshape(9, -1, 4)))
    assert got.shape == (len(pats) // 4, 4)
    assert got.ravel().tobytes() == want.tobytes()
    if filter_size is not None:
        assert len(g._code_filter) == filter_size


@pytest.mark.parametrize(
    "q,support",
    [(2, s) for s in (0, 1, 8, 300, 500, 512)]  # 512: every q = 2 pattern
    + [(q, s) for q in (5, 64) for s in (0, 1, 8, 300, 500, 512, 10_000)]
    + [(q, s) for q in (119, 128) for s in (1, 300)],  # q = 128: codes reach 2**63 - 1
)
def test_perturbation_rounds_draw_as_one_code_at_a_time(q, support):
    # rounds of rng.integers draw the codes, the coefficients after them
    # and the generator's next draw exactly as the one-code-a-time loop
    seed = q * 100_003 + support
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_perturbation(1 / 384, support, q, got_rng)
    want = reference_sample_perturbation(1 / 384, support, q, want_rng)
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert got_rng.random() == want_rng.random()


def test_patch_parts_finds_the_largest_code():
    # at q = 128 the all-127 pattern has code 2**63 - 1, the largest int64
    q = 128
    top, low = (q - 1,) * 9, (0,) * 8 + (1,)
    h = RangeOnePerturbation({top: 0.002, low: -0.001}, 1 / 384)
    g = PerturbedPotential.build(full_shift(q), h)
    assert g._code_lookup[0].tolist() == [q**8, 2**63 - 1]
    pats = [top, low, (q - 1,) * 8 + (q - 2,), (0,) * 9]
    _, got = g.patch_parts([np.array(col, dtype=np.int64) for col in zip(*pats)])
    assert got.tolist() == [0.002, -0.001, 0.0, 0.0]


def test_code_lookup_refuses_symbols_outside_alphabet():
    # at construction while the seminorm is computed exactly, in the lookup
    # beyond the guard; a symbol too large for int64 too
    sft = full_shift(5)
    many = sample_perturbation(1 / 384, SEMINORM_ENUM_GUARD + 1, 5, 0).coeffs
    for symbol in (5, 2**63, 2**70):
        pat = (0,) * 4 + (symbol,) + (0,) * 4
        with pytest.raises(ValueError, match="outside alphabet"):
            PerturbedPotential.build(sft, RangeOnePerturbation({pat: 0.001}, 1 / 384))
        g = PerturbedPotential.build(sft, RangeOnePerturbation({**many, pat: 0.001}, 1 / 384))
        with pytest.raises(ValueError, match="outside alphabet"):
            g._code_lookup
    # past q = 128 the int64 pattern codes would wrap: the lookup and the
    # sampler refuse, the sampler before any draw
    g = PerturbedPotential.build(full_shift(129), RangeOnePerturbation({(0,) * 9: 0.001}, 1 / 384))
    with pytest.raises(ValueError, match="alphabet too large"):
        g._code_lookup
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="alphabet too large"):
        sample_perturbation(1 / 384, 1, 129, rng)
    assert rng.bit_generator.state == state


def test_sample_perturbation_refuses_support_over_guard_before_any_draw():
    # q = 6 has more than SUPPORT_GUARD patterns, so the guard, not the
    # pattern count, refuses; the largest support a pinned command asks
    # for is 10,001
    assert 6**9 > SUPPORT_GUARD > 10_001
    rng = np.random.default_rng(0)
    expected = np.random.default_rng(0).random()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="guard"):
        sample_perturbation(1 / 384, SUPPORT_GUARD + 1, 6, rng)
    assert time.perf_counter() - start < 1.0
    assert rng.random() == expected


def test_non_finite_values_refused():
    pat = (0,) * 9
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="exceeds cap"):
            RangeOnePerturbation({pat: c}, cap=0.01)
    for cap in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            RangeOnePerturbation({pat: 5.0}, cap=cap)
        with pytest.raises(ValueError, match="finite"):
            RangeOnePerturbation({}, cap=cap)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            sample_perturbation(cap, 1, 2, rng)
        assert rng.bit_generator.state == state  # refused before drawing


def test_analytic_bound_soundness():
    rng = np.random.default_rng(55)
    for k in range(200):
        q = int(rng.integers(2, 5))
        h = sample_perturbation(1 / 384, int(rng.integers(0, 30)), q, rng)
        semi = lipschitz_seminorm_exact(h, q)
        assert semi <= 4.0 * h.cap + 1e-15
        assert max((abs(c) for c in h.coeffs.values()), default=0.0) <= h.cap


def test_certify_norm_gap():
    g = _g()
    assert g.gap == 0.0
    for seed in range(50):
        h = sample_perturbation(1 / 384, 8, 2, seed)
        g = PerturbedPotential.build(HS, h)
        sup = max(abs(c) for c in h.coeffs.values())
        assert g.gap == certify_norm_gap(h, 2) == sup + lipschitz_seminorm_exact(h, 2)
        assert g.gap < 1 / 64
        assert g.gap <= 5.0 * h.cap + 1e-15
    # exact at the guard, the analytic bound cap + 4*cap over it
    h = sample_perturbation(0.002, SEMINORM_ENUM_GUARD, 3, 0)
    sup = max(abs(c) for c in h.coeffs.values())
    assert certify_norm_gap(h, 3) == sup + lipschitz_seminorm_exact(h, 3) < 5.0 * 0.002
    h = sample_perturbation(0.002, SEMINORM_ENUM_GUARD + 1, 3, 0)
    assert certify_norm_gap(h, 3) == 5.0 * 0.002


def test_birkhoff_examples():
    g = _g()
    w = Window.filled(Rect.centered(4), 0)
    assert birkhoff_sum(g, w, Rect.centered(3)) == 0.0
    ones = Window.filled(Rect.centered(3), 1)
    assert birkhoff_sum(g, ones, Rect.centered(2)) == -25.0
    w3 = Window.filled(Rect.centered(4), 0).with_patch(
        {(0, 0): 1, (1, 0): 1, (2, 2): 1, (2, 3): 1, (-3, 0): 1, (-2, 0): 1}
    )
    expected_bad = {u for u in bad_sites(w3, HS).sites if Rect.centered(3).contains(u)}
    assert birkhoff_sum(g, w3, Rect.centered(3)) == -float(len(expected_bad))
    with pytest.raises(ValueError, match="insufficient margin"):
        birkhoff_sum(g, w, Rect.centered(4))


def test_birkhoff_matches_sitewise_eval():
    rng = np.random.default_rng(56)
    for sft in (HS, checkerboard(4)):
        for _ in range(10):
            h = sample_perturbation(0.01, 10, sft.q, rng)
            g = PerturbedPotential.build(sft, h)
            w = random_window(Rect.centered(5), sft.q, rng)
            region = Rect.centered(3)
            direct = sum(float(g.value(w, x, y)) for x, y in region.sites())
            assert birkhoff_sum(g, w, region) == pytest.approx(direct, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), support=st.integers(0, 300))
def test_birkhoff_sum_matches_gathered_parts(seed, support):
    # birkhoff_sum reads the region through nine slices of the window; its
    # value must be, to the bit, minus the bad count plus numpy's sum of h
    # over the region's sites gathered row-major, top row first
    rng = np.random.default_rng(seed)
    sft = random_sft(rng)
    q = sft.q
    width, height = rng.integers(3, 40, size=2).tolist()
    rect = Rect(int(rng.integers(-20, 20)), int(rng.integers(-20, 20)), width, height)
    w = random_window(rect, q, rng)
    x0, x1 = sorted(rng.integers(rect.x0 + 1, rect.x1, size=2).tolist())
    y0, y1 = sorted(rng.integers(rect.y0 + 1, rect.y1, size=2).tolist())
    region = Rect(x0, y0, x1 - x0 + 1, y1 - y0 + 1)
    g = _g(sft, sample_perturbation(1 / 384, min(support, q**9), q, rng))
    ys, xs = np.mgrid[region.y1 : region.y0 - 1 : -1, region.x0 : region.x1 + 1]
    bad, h = g.parts(w, xs.ravel(), ys.ravel())
    expected = -float(bad.sum())
    if g.h.support_size:
        expected += float(h.sum())
    assert repr(birkhoff_sum(g, w, region)) == repr(expected)


def test_birkhoff_additivity():
    rng = np.random.default_rng(57)
    h = sample_perturbation(0.01, 12, 2, rng)
    g = PerturbedPotential.build(HS, h)
    w = random_window(Rect.centered(6), 2, rng)
    whole = Rect(-3, -3, 7, 6)
    parts = [Rect(-3, -3, 7, 2), Rect(-3, -1, 3, 4), Rect(0, -1, 4, 4)]
    assert sum(r.area for r in parts) == whole.area
    total = sum(birkhoff_sum(g, w, r) for r in parts)
    assert total == pytest.approx(birkhoff_sum(g, w, whole), abs=1e-12)


def test_birkhoff_shift_covariance():
    rng = np.random.default_rng(58)
    h = sample_perturbation(0.01, 12, 2, rng)
    g = PerturbedPotential.build(HS, h)
    w = random_window(Rect.centered(6), 2, rng)
    region = Rect.centered(2)
    r = w.rect
    for dx, dy in ((1, 0), (0, -2), (-2, 1)):
        moved = Window(Rect(r.x0 + dx, r.y0 + dy, r.width, r.height), w.array)
        lhs = birkhoff_sum(g, moved, region)
        rhs = birkhoff_sum(g, w, Rect(region.x0 - dx, region.y0 - dy, region.width, region.height))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sample_perturbation_contract():
    h = sample_perturbation(1 / 384, 0, 2, seed=3)
    assert h.support_size == 0
    h1 = sample_perturbation(1 / 384, 20, 2, seed=4)
    h2 = sample_perturbation(1 / 384, 20, 2, seed=4)
    assert h1 == h2
    assert h1.support_size == 20
    assert all(abs(c) <= 1 / 384 for c in h1.coeffs.values())
    with pytest.raises(ValueError, match="exceeds"):
        sample_perturbation(0.1, 513, 2, seed=5)
    with pytest.raises(ValueError, match="cap"):
        sample_perturbation(0.0, 1, 2, seed=6)


def test_levelset_lipschitz_basics():
    g = _g(h=sample_perturbation(1 / 384, 8, 2, seed=7))
    w = Window.filled(Rect.centered(2), 0)
    res = check_levelset_lipschitz(g, [(w, w)], 0)
    assert res.ok and res.skipped == 1 and res.checked == 0

    gz = _g()
    rng = np.random.default_rng(59)
    pairs = []
    while len(pairs) < 50:
        a = random_window(Rect.centered(2), 2, rng)
        b = random_window(Rect.centered(2), 2, rng)
        if _level(gz, a) == 0 and _level(gz, b) == 0:
            pairs.append((a, b))
    res = check_levelset_lipschitz(gz, pairs, 0)
    assert res.ok  # zero perturbation: both sides vanish

    with pytest.raises(ValueError, match="level set"):
        check_levelset_lipschitz(gz, [(w.with_patch({(0, 0): 1, (1, 0): 1}), w)], 0)


def test_levelset_lipschitz_random_pairs():
    rng = np.random.default_rng(60)
    for seed in range(5):
        g = _g(h=sample_perturbation(1 / 384, 10, 2, seed))
        for level in (0, -1):
            pairs = []
            while len(pairs) < 200:
                a = random_window(Rect.centered(3), 2, rng)
                b = random_window(Rect.centered(3), 2, rng)
                if _level(g, a) == level and _level(g, b) == level:
                    pairs.append((a, b))
            res = check_levelset_lipschitz(g, pairs, level)
            assert res.ok
            assert res.worst_slack >= 0.0

