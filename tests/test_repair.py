import numpy as np
import pytest

from nnsft.lattice import Rect, Window
from nnsft.repair import Run, _decompose, _sweep, changed_sites, fill_segment, repair
from nnsft.sft import SymbolRangeError, bad_sites, checkerboard, hard_square
from nnsft.harness import corrupt, sample_admissible

from _util import (
    forbidden_pairs,
    patch_admissible_around,
    random_ssf_sfts,
    random_window,
    shell_windows,
)


def test_run_validation():
    Run("top", 0, 0, 1)  # arbitrary horizontal segments are allowed
    Run("right", 3, -2, 2)
    with pytest.raises(ValueError, match="alpha"):
        Run("top", 2, 1, 0)
    with pytest.raises(ValueError, match="corner"):
        Run("right", 3, -3, 2)
    with pytest.raises(ValueError, match="side"):
        Run("north", 1, 0, 0)
    # slotted: a repair can hold 10^5 runs
    assert not hasattr(Run("top", 0, 0, 1), "__dict__")


def test_run_sites_order():
    assert Run("top", 2, -1, 1).sites() == [(-1, 2), (0, 2), (1, 2)]
    assert Run("bottom", 2, 0, 1).sites() == [(0, -2), (1, -2)]
    assert Run("right", 3, -1, 1).sites() == [(3, -1), (3, 0), (3, 1)]
    assert Run("left", 3, 0, 1).sites() == [(-3, 0), (-3, 1)]


def test_decompose_single_bad_site():
    hs = hard_square()
    w = Window.filled(Rect.centered(3), 0).with_patch({(2, 2): 1, (2, 3): 1})
    dec = repair(w, hs, 2).shells[2]
    assert dec.runs["top"] == (Run("top", 2, 2, 2),)
    assert "bottom" not in dec.runs and "right" not in dec.runs and "left" not in dec.runs
    assert len(dec.sites()) == 1


def test_decompose_top_runs_ordered():
    hs = hard_square()
    patch = {}
    for x in (-1, 0, 2):
        patch[(x, 3)] = 1
        patch[(x, 4)] = 1
    w = Window.filled(Rect.centered(4), 0).with_patch(patch)
    dec = repair(w, hs, 3).shells[3]
    assert dec.runs["top"] == (Run("top", 3, -1, 0), Run("top", 3, 2, 2))
    assert len(dec.sites()) == 3


def test_decompose_admissible_window():
    dec = repair(Window.filled(Rect.centered(4), 0), hard_square(), 3).shells[3]
    assert dec.is_empty and not dec.sites()


@pytest.mark.parametrize("n", [0, 1, 5])
def test_shells_of_empty_sweep_match_decompose(n):
    # a clean input returns the empty shells at once, equal to what the
    # run cutter gives on an empty sweep
    res = repair(Window.filled(Rect.centered(n + 1), 0), hard_square(), n)
    assert res.sweep[0].size == 0
    assert res.shells == _decompose(n, *res.sweep)
    assert len(res.shells) == n + 1 and all(dec.is_empty for dec in res.shells)


def test_decompose_corner_belongs_to_top():
    hs = hard_square()
    w = Window.filled(Rect.centered(4), 0).with_patch(
        {(3, 3): 1, (3, 4): 1, (2, 3): 1, (2, 4): 1}
    )
    dec = repair(w, hs, 3).shells[3]
    assert dec.runs["top"] == (Run("top", 3, 2, 3),)  # one joint run
    assert "right" not in dec.runs


def test_decompose_origin_shell():
    hs = hard_square()
    w = Window.filled(Rect.centered(2), 0).with_patch({(0, 0): 1, (1, 0): 1})
    dec = repair(w, hs, 0).shells[0]
    assert dec.runs["top"] == (Run("top", 0, 0, 0),)


def test_decompose_margin_error():
    with pytest.raises(ValueError, match="insufficient margin"):
        repair(Window.filled(Rect.centered(3), 0), hard_square(), 3).shells[3]


def test_fill_segment_hard_square_pair():
    hs = hard_square()
    w = Window.filled(Rect.centered(2), 0).with_patch({(0, 0): 1, (1, 0): 1})
    patch = fill_segment(w, hs, Run("top", 0, 0, 1))
    assert patch == {(0, 0): 0, (1, 0): 0}
    assert patch_admissible_around(w, hs, patch)


def test_fill_segment_checkerboard_forced_symbol():
    cb = checkerboard(5)
    w = Window.filled(Rect.centered(2), 0).with_patch(
        {(0, 1): 0, (0, -1): 1, (1, 0): 2, (-1, 0): 3}
    )
    patch = fill_segment(w, cb, Run("top", 0, 0, 0))
    assert patch == {(0, 0): 4}


def test_fill_segment_may_rewrite_compatible_site():
    # the contract is admissibility of the result, not minimal change
    cb = checkerboard(5)
    w = Window.filled(Rect.centered(2), 0).with_patch(
        {(0, 0): 4, (0, 1): 1, (0, -1): 1, (1, 0): 2, (-1, 0): 3}
    )
    patch = fill_segment(w, cb, Run("top", 0, 0, 0))
    assert patch == {(0, 0): 0}  # smallest compatible symbol wins
    assert patch_admissible_around(w, cb, patch)


def test_fill_segment_errors():
    hs = hard_square()
    w = Window.filled(Rect.centered(2), 0)
    with pytest.raises(ValueError, match="single-site fillable"):
        fill_segment(w, checkerboard(3), Run("top", 0, 0, 0))
    with pytest.raises(ValueError, match="boundary"):
        fill_segment(w, hs, Run("top", 2, -2, 2))
    with pytest.raises(ValueError, match="random generator"):
        fill_segment(w, hs, Run("top", 0, 0, 0), rule="random")
    with pytest.raises(ValueError, match="unknown fill rule"):
        fill_segment(w, hs, Run("top", 0, 0, 0), rule="greedy")
    # 2 would read the fill table's "no neighbor" column; 7 is past its end
    for symbol in (2, 7):
        with pytest.raises(SymbolRangeError, match=f"symbol {symbol} at \\(-1, 0\\)"):
            fill_segment(w.with_patch({(-1, 0): symbol}), hs, Run("top", 0, 0, 0))


def test_sweep_reports_ssf_contract_violation():
    # site (1, 1) between four distinct neighbors, under a fill table
    # whose masks AND to zero
    w = Window.filled(Rect.centered(2), 0).with_patch(
        {(0, 1): 1, (2, 1): 2, (1, 0): 3, (1, 2): 4}
    )
    rect = w.rect
    buf = bytearray(w.array.astype(np.uint8))
    dead = [[0] * 5] * 4
    at = (rect.y1 - 1) * rect.width + 1 - rect.x0
    with pytest.raises(
        RuntimeError,
        match=r"SSF contract violated: no symbol fits at \(1, 1\) "
        r"against neighbors \(left=1, right=2, down=3, up=4\)",
    ):
        _sweep(buf, rect, dead, [at], "smallest", None)
    assert bytes(buf) == bytes(w.array.astype(np.uint8))  # nothing written


def test_fill_segment_random_instances_pass_oracle():
    # scaled-down version of the acceptance sweep
    sfts = [hard_square(), checkerboard(5), checkerboard(6)] + random_ssf_sfts(8, seed=77)
    rng = np.random.default_rng(78)
    checked = 0
    for k in range(500):
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
        rule = "smallest" if k % 2 == 0 else "random"
        patch = fill_segment(w, sft, run, rule=rule, rng=rng)
        assert set(patch) == set(run.sites())
        assert patch_admissible_around(w, sft, patch)
        checked += 1
    assert checked >= 450


def test_repair_admissible_is_identity():
    hs = hard_square()
    rng = np.random.default_rng(10)
    w = sample_admissible(hs, 6, rng)
    res = repair(w, hs, 5)
    assert res.window == w
    assert all(dec.is_empty for dec in res.shells)


def test_repair_all_ones_window():
    hs = hard_square()
    w = Window.filled(Rect.centered(5), 1)
    res = repair(w, hs, 4)
    box4 = set(Rect.centered(4).sites())
    assert changed_sites(w, res.window) == box4  # every site of the box was bad
    assert not (bad_sites(res.window, hs).sites & box4)
    # smallest-symbol rule rewrites everything to the safe symbol
    assert all(res.window.get(u) == 0 for u in box4)


def test_repair_single_bad_pair_at_origin():
    hs = hard_square()
    w = Window.filled(Rect.centered(3), 0).with_patch({(0, 0): 1, (0, 1): 1})
    res = repair(w, hs, 2)
    nonempty = [dec.i for dec in res.shells if not dec.is_empty]
    assert nonempty == [0]  # (0,1) itself is not bad: its up/right pairs are fine
    assert not bad_sites(res.window, hs).sites


def test_repair_margin_error():
    with pytest.raises(ValueError, match="insufficient margin"):
        repair(Window.filled(Rect.centered(3), 0), hard_square(), 3)


def test_repair_requires_ssf():
    with pytest.raises(ValueError, match="single-site fillable"):
        repair(Window.filled(Rect.centered(3), 0), checkerboard(2), 2)


def _box_violations(w, sft, n):
    box = Rect.centered(n)
    out = []
    for (x, y), direction in forbidden_pairs(w, sft):
        other = (x + 1, y) if direction == "horizontal" else (x, y + 1)
        if box.contains((x, y)) and box.contains(other):
            out.append(((x, y), direction))
    return out


def test_repair_invariants_seeded():
    sfts = {
        "hardsquare": hard_square(),
        "cb5": checkerboard(5),
        "cb6": checkerboard(6),
    }
    for name, sft in sfts.items():
        for trial in range(25):
            rng = np.random.default_rng(1000 + trial)
            n = (3, 5, 8, 12)[trial % 4]
            rate = (0.1, 0.3, 1.0)[trial % 3]
            w = corrupt(sample_admissible(sft, n + 1, rng), sft.q, rate, rng)
            res = repair(w, sft, n)
            # admissibility inside the box
            assert not _box_violations(res.window, sft, n), name
            # locality: changes confined to the shells' bad sites
            allowed = set()
            for dec in res.shells:
                allowed |= dec.sites()
            assert changed_sites(w, res.window) <= allowed
            # monotone cleanliness: after shell i nothing is bad inside box i
            # and, as check_shell_gaps replays it, the window is the output
            # on shells 0..i and the input elsewhere
            ys = w.rect.y1 - np.arange(w.rect.height)
            xs = w.rect.x0 + np.arange(w.rect.width)
            norm = np.maximum.outer(np.abs(ys), np.abs(xs))
            for i, inter in enumerate(shell_windows(w, sft, n)[1:]):
                assert not _box_violations(inter, sft, i)
                assert np.array_equal(inter.array, np.where(norm <= i, res.window.array, w.array))
            # idempotence
            again = repair(res.window, sft, n)
            assert again.window == res.window
            assert all(dec.is_empty for dec in again.shells)


def test_repair_determinism():
    hs = hard_square()
    rng = np.random.default_rng(2)
    w = corrupt(sample_admissible(hs, 8, rng), 2, 0.4, rng)
    a = repair(w, hs, 7)
    b = repair(w, hs, 7)
    assert a.window == b.window
    r1 = repair(w, hs, 7, rule="random", rng=np.random.default_rng(5))
    r2 = repair(w, hs, 7, rule="random", rng=np.random.default_rng(5))
    assert r1.window == r2.window
    assert not _box_violations(r1.window, hs, 7)
