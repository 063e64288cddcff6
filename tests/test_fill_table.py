"""The fill table and the three code paths built on it (SSF check,
sampler, run fill), plus the sliced shell decomposition, checked for
exact equality against the per-site references in _util."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnsft.harness import corrupt, sample_admissible, sample_admissible_stack
from nnsft.repair import repair
from nnsft.sft import EAST, NORTH, SOUTH, WEST, NnSft, SsfResult, check_ssf, checkerboard, hard_square

from _util import (
    random_ssf_sfts,
    reference_check_ssf,
    reference_repair,
    reference_sample_admissible,
)

SFTS = random_ssf_sfts(12, seed=2024) + [hard_square(), checkerboard(5)]


def test_fill_table_hard_square():
    t = hard_square().fill_table
    assert len(t) == 4
    # a 1 neighbor in any direction forces a 0 center; 0 or no neighbor allows both
    for d in (NORTH, SOUTH, EAST, WEST):
        assert t[d] == (0b11, 0b01, 0b11)


def test_fill_table_directions():
    # 0 left of 1 and 2 below 0 are forbidden
    t = NnSft(3, frozenset({(0, 1)}), frozenset({(2, 0)})).fill_table
    assert t[WEST] == (0b101, 0b111, 0b111, 0b111)  # west 0 bans center 1
    assert t[EAST] == (0b111, 0b110, 0b111, 0b111)  # east 1 bans center 0
    assert t[SOUTH] == (0b111, 0b111, 0b110, 0b111)  # south 2 bans center 0
    assert t[NORTH] == (0b011, 0b111, 0b111, 0b111)  # north 0 bans center 2


def test_fill_table_full_width():
    t = checkerboard(64).fill_table
    assert t[NORTH][64] == 2**64 - 1
    assert t[WEST][63] == 2**63 - 1
    assert check_ssf(checkerboard(64)).ok


@settings(max_examples=100, deadline=None)
@given(q=st.integers(1, 12), data=st.data())
def test_check_ssf_witness_matches_reference(q, data):
    pairs = st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), max_size=3 * q)
    sft = NnSft(q, frozenset(data.draw(pairs)), frozenset(data.draw(pairs)))
    assert check_ssf(sft) == reference_check_ssf(sft)


def test_check_ssf_witness_at_full_width():
    # q = 64, too slow for the reference's q**4 table; these witnesses
    # were pinned from the earlier numpy check
    eq = {(a, a) for a in range(64)}
    for hf, vf, witness in (
        (eq, eq | {(a, 62) for a in range(64)}, (62, 0, 0, 0)),
        (eq | {(a, 50) for a in range(20, 64)}, eq | {(a, 62) for a in range(40)}, (62, 0, 50, 0)),
    ):
        assert check_ssf(NnSft(64, frozenset(hf), frozenset(vf))) == SsfResult(False, witness)


def test_pick_table_hard_square():
    table, count = hard_square().pick_table
    # rows (left, down) in 0, 1, none; a 1 on either side leaves only 0
    assert count.tolist() == [2, 1, 2, 1, 1, 1, 2, 1, 2]
    assert table[:, 0].tolist() == [0] * 9
    assert table[8].tolist() == [0, 1]


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(0, len(SFTS)),
    radius=st.sampled_from([0, 1, 8, 26]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=len(SFTS), radius=0, seed=0)
@example(k=len(SFTS), radius=26, seed=1)
def test_sampler_matches_raster_reference(k, radius, seed):
    if k == len(SFTS):
        sft = checkerboard(64)  # q = 64, the widest fill table
    else:
        sft = SFTS[k]
        assert check_ssf(sft) == reference_check_ssf(sft)
    got = sample_admissible(sft, radius, np.random.default_rng(seed))
    assert got == reference_sample_admissible(sft, radius, np.random.default_rng(seed))


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(0, len(SFTS)),
    radius=st.sampled_from([0, 1, 8, 26]),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
)
@example(k=len(SFTS), radius=26, seeds=[1, 2, 3])
def test_stacked_sweep_matches_raster_reference(k, radius, seeds):
    # every window of a stack is the one its own generator gives alone,
    # and each generator is left where the lone sampler leaves it
    sft = checkerboard(64) if k == len(SFTS) else SFTS[k]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    got = sample_admissible_stack(sft, radius, rngs)
    assert len(got) == len(seeds)
    for w, rng, seed in zip(got, rngs, seeds):
        alone = np.random.default_rng(seed)
        assert w == reference_sample_admissible(sft, radius, alone)
        assert w.array.flags.c_contiguous and w.array.dtype == np.uint8
        assert rng.random() == alone.random()


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(0, len(SFTS) - 1),
    n=st.integers(0, 12),
    rate=st.floats(0.0, 1.0),
    rule=st.sampled_from(["smallest", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_repair_matches_per_site_reference(k, n, rate, rule, seed):
    sft = SFTS[k]
    rng = np.random.default_rng(seed)
    w = corrupt(sample_admissible(sft, n + 1, rng), sft.q, rate, rng)
    res = repair(w, sft, n, rule=rule, rng=np.random.default_rng(seed))
    window, shells = reference_repair(w, sft, n, rule, np.random.default_rng(seed))
    assert res.shells == shells
    assert res.shell_sizes == [len(d.sites()) for d in shells]
    assert res.window == window
