import itertools
import math
import time

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nnsft.entropy import (
    MAX_STRIP_WIDTH,
    TOL_FLOOR,
    ConvergenceError,
    EmptySubshiftError,
    StripTransfer,
    strip_entropy,
)
from nnsft.cli import main
from nnsft.sft import NnSft, checkerboard, full_shift, hard_square, parse_sft

from _util import random_ssf_sfts, reference_strip_entropy

HARD_SQUARE_ENTROPY = 0.4074951  # rounded down; Baxter's value is 0.4074951009...


def test_full_shift_exact():
    for q, m in ((2, 1), (2, 4), (2, 8), (3, 5)):
        res = strip_entropy(full_shift(q), m)
        assert abs(res.value - math.log(q)) < 1e-9
        assert res.states == q**m


def test_hard_square_strip_values():
    # frozen from the converged power iteration at tol 1e-10
    expected = {6: 0.4186709607, 8: 0.4158770051, 10: 0.4142006244}
    values = {}
    for m, ref in expected.items():
        res = strip_entropy(hard_square(), m)
        values[m] = res.value
        assert res.value == pytest.approx(ref, abs=1e-8)
        assert abs(res.value - 0.4075) < 0.02
    # widths tighten monotonically toward the known constant
    assert abs(values[6] - 0.4075) > abs(values[8] - 0.4075) > abs(values[10] - 0.4075)


def test_hard_square_state_counts():
    # vertically admissible binary columns with no adjacent 1s
    for m, fib in ((1, 2), (2, 3), (3, 5), (4, 8), (8, 55), (10, 144)):
        assert StripTransfer.build(hard_square(), m).state_count == fib


def test_checkerboard_two_entropy_zero():
    for m in (4, 12):
        res = strip_entropy(checkerboard(2), m)
        assert res.states == 2
        assert abs(res.value) < 1e-12


def test_bracketing_differences_shrink():
    vals = {m: strip_entropy(hard_square(), m).value for m in (4, 6, 8, 10)}
    d1 = vals[4] - vals[6]
    d2 = vals[6] - vals[8]
    d3 = vals[8] - vals[10]
    assert d1 > d2 > d3 > 0


def _dense_transfer(sft: NnSft, m: int) -> np.ndarray:
    """Independent dense construction from scratch."""
    cols = [
        c
        for c in itertools.product(range(sft.q), repeat=m)
        if all((c[j], c[j + 1]) not in sft.vforbid for j in range(m - 1))
    ]
    t = np.zeros((len(cols), len(cols)))
    for a, ca in enumerate(cols):
        for b, cb in enumerate(cols):
            if all((x, y) not in sft.hforbid for x, y in zip(ca, cb)):
                t[a, b] = 1.0
    return t


def _char_poly_max_root(t: np.ndarray) -> float:
    """Faddeev-LeVerrier characteristic polynomial, then its largest
    real root; independent of power iteration."""
    n = t.shape[0]
    mk = np.eye(n)
    c = -np.trace(t @ mk)
    coeffs = [1.0, c]
    for k in range(2, n + 1):
        mk = t @ mk + c * np.eye(n)
        c = -np.trace(t @ mk) / k
        coeffs.append(c)
    roots = np.roots(coeffs)
    real = [r.real for r in roots if abs(r.imag) < 1e-9]
    return max(real)


def test_power_iteration_matches_char_poly_roots():
    rng = np.random.default_rng(70)
    cases = [hard_square(), full_shift(2)]
    for _ in range(10):
        hf = frozenset(
            (int(rng.integers(2)), int(rng.integers(2)))
            for _ in range(int(rng.integers(0, 3)))
        )
        vf = frozenset(
            (int(rng.integers(2)), int(rng.integers(2)))
            for _ in range(int(rng.integers(0, 2)))
        )
        cases.append(NnSft(2, hf, vf))
    certified = 0
    for sft in cases:
        for m in (1, 2, 3):
            t = _dense_transfer(sft, m)
            if t.shape[0] == 0 or t.sum() == 0:
                with pytest.raises(EmptySubshiftError):
                    strip_entropy(sft, m)
                continue
            lam_direct = _char_poly_max_root(t)
            try:
                res = strip_entropy(sft, m, tol=1e-12, max_iter=3000)
            except EmptySubshiftError:
                assert lam_direct <= 1e-9
                continue
            except RuntimeError:
                # a defective dominant eigenvalue (reducible chain between
                # equal-rate classes) cannot certify; honest refusal
                continue
            lam_power = math.exp(res.value * m)
            assert abs(lam_power - lam_direct) < 1e-10 * max(1.0, lam_direct)
            certified += 1
    assert certified >= 15  # the comparison was exercised broadly


def test_transitions_match_dense_oracle():
    cases = (
        (hard_square(), 3),
        (checkerboard(3), 3),
        (NnSft(3, frozenset({(0, 1), (2, 2)}), frozenset({(1, 0)})), 4),
    )
    for sft, m in cases:
        transfer = StripTransfer.build(sft, m)
        cols = transfer.states()
        dense = _dense_transfer(sft, m)
        # lexicographic order, the order the dense construction lists them in
        assert cols == sorted(set(cols)) and len(cols) == dense.shape[0] == transfer.state_count
        assert all(all((a, b) not in sft.vforbid for a, b in zip(c, c[1:])) for c in cols)
        # T @ e_b is column b of the dense matrix: every transition, exactly
        for b in range(len(cols)):
            e = np.zeros(len(cols))
            e[b] = 1.0
            assert transfer.matvec(e).tolist() == dense[:, b].tolist()
        rng = np.random.default_rng(71)
        vec = rng.random(len(cols))
        assert transfer.matvec(vec) == pytest.approx(dense @ vec, abs=1e-12)


def test_empty_subshift_errors():
    with pytest.raises(EmptySubshiftError, match="column"):
        strip_entropy(NnSft(1, vforbid=frozenset({(0, 0)})), 2)
    with pytest.raises(EmptySubshiftError, match="follow"):
        strip_entropy(NnSft(1, hforbid=frozenset({(0, 0)})), 2)


def test_nilpotent_transfer_refused_at_once(tmp_path, capsys):
    # T = [[0, 1], [0, 0]]: column 1 follows column 0 and nothing follows
    # 1, so no strip is bi-infinite and the power iteration could not
    # certify; it is refused before iterating
    spec = tmp_path / "nilpotent.txt"
    spec.write_text("alphabet 2\nhforbid 0 0\nhforbid 1 0\nhforbid 1 1\nvforbid 0 0\n")
    start = time.perf_counter()
    rc = main(["entropy", "--spec", str(spec), "--strip-width", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and "empty subshift" in capsys.readouterr().err
    for m in (1, 2, 5):
        with pytest.raises(EmptySubshiftError, match="followed forever"):
            strip_entropy(parse_sft(spec.read_text()), m)


def test_dead_columns_around_a_live_core():
    # symbol 2 has no right neighbour, so every column holding a 2 is
    # dead; the check that finds them leaves the iteration's value alone,
    # to the bit of the values the plain power iteration prints
    sft = NnSft(3, frozenset({(2, 0), (2, 1), (2, 2)}), frozenset({(1, 1)}))
    printed = {1: 0.6931471805599453, 2: 0.5493061443340549, 3: 0.5364793041447001}
    for m, value in printed.items():
        res = strip_entropy(sft, m)
        assert res.value == value
        assert res == reference_strip_entropy(sft, m)


def test_state_guard():
    with pytest.raises(ValueError, match="guard"):
        strip_entropy(full_shift(4), 12)
    # the width is refused before q**m is formed: for q = 1 nothing else would stop it
    for sft, m in ((full_shift(1), 65), (hard_square(), 100_000), (hard_square(), 10**30)):
        with pytest.raises(ValueError, match="strip width"):
            StripTransfer.build(sft, m)
    assert strip_entropy(full_shift(1), MAX_STRIP_WIDTH).value == 0.0


def test_tolerance_floor_and_convergence_error():
    # a tolerance below the residual's rounding floor is refused before iterating
    for tol in (TOL_FLOOR / 2, 1e-300, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rounding floor"):
            strip_entropy(hard_square(), 4, tol=tol)
    # the floor itself is accepted; a run too short to certify raises
    with pytest.raises(ConvergenceError, match="3 steps"):
        strip_entropy(hard_square(), 4, tol=TOL_FLOOR, max_iter=3)
    # and on wider strips a run at the floor certifies
    for sft, m in ((hard_square(), 12), (checkerboard(3), 7)):
        at_floor = strip_entropy(sft, m, tol=TOL_FLOOR, max_iter=1000)
        assert at_floor.value == pytest.approx(strip_entropy(sft, m).value, abs=1e-9)


def test_determinism():
    a = strip_entropy(hard_square(), 8)
    b = strip_entropy(hard_square(), 8)
    assert a.value == b.value and a.iterations == b.iterations


def test_strip_values_bound_the_entropy():
    # log Z is subadditive in the width for free boundaries, so every strip
    # value is an upper bound on the entropy, converging from above
    values = [strip_entropy(hard_square(), m).value for m in range(1, 21)]
    assert all(value >= HARD_SQUARE_ENTROPY for value in values)
    assert values[-1] - HARD_SQUARE_ENTROPY < 3.5e-3
    for m in (1, 7, 20):
        assert strip_entropy(full_shift(2), m).value == pytest.approx(math.log(2), abs=1e-12)


# ---------------------------------------------------------------------------
# The enumerated-state iteration against the masked-tensor reference:
# equal value, states and iterations, or the same exception type.

SFTS = random_ssf_sfts(12, seed=4004) + [hard_square(), checkerboard(5)]


def _outcome(f, sft, m):
    try:
        return f(sft, m, max_iter=2000)
    except (EmptySubshiftError, ConvergenceError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, len(SFTS) - 1), m=st.integers(1, 8))
def test_matches_masked_tensor_on_ssf_sfts(k, m):
    sft = SFTS[k]
    assume(sft.q**m <= 5**6)
    assert _outcome(strip_entropy, sft, m) == _outcome(reference_strip_entropy, sft, m)


@settings(max_examples=120, deadline=None)
@given(
    q=st.integers(1, 5),
    m=st.integers(1, 8),
    pairs=st.lists(st.tuples(st.booleans(), st.integers(0, 4), st.integers(0, 4)), max_size=16),
)
# at m = 1 the tensor is a vector and numpy sums its product in the
# matrix-vector order; this SFT's last bit differs under the matrix order
@example(q=4, m=1, pairs=[(True, a, b) for a, b in ((1, 2), (2, 1), (3, 1), (1, 1), (3, 0), (2, 3), (3, 2), (1, 3))])
# and this one's last bit moves when the matvec sums in einsum's order
@example(q=5, m=1, pairs=[(True, 1, 2), (True, 1, 3), (False, 1, 4), (True, 0, 4), (True, 2, 1), (True, 4, 3), (False, 1, 4), (False, 2, 3)])
# a nilpotent T: both raise EmptySubshiftError instead of iterating
@example(q=2, m=2, pairs=[(True, 0, 0), (True, 1, 0), (True, 1, 1), (False, 0, 0)])
def test_matches_masked_tensor_on_any_sft(q, m, pairs):
    assume(q**m <= 5**5)
    hf = frozenset((a % q, b % q) for horizontal, a, b in pairs if horizontal)
    vf = frozenset((a % q, b % q) for horizontal, a, b in pairs if not horizontal)
    sft = NnSft(q, hf, vf)
    assert _outcome(strip_entropy, sft, m) == _outcome(reference_strip_entropy, sft, m)
