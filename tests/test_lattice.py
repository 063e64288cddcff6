from fractions import Fraction

import numpy as np
import pytest

from nnsft.lattice import Rect, Window, metric_exact, parse_window, render_window

from _util import random_window, window_from_rows


def test_rect_basics():
    r = Rect.centered(2)
    assert (r.x0, r.y0, r.width, r.height) == (-2, -2, 5, 5)
    assert r.area == 25
    assert r.contains((2, -2)) and not r.contains((3, 0))
    assert Rect.centered(3).contains_rect(r)
    assert not r.contains_rect(Rect.centered(3))
    assert r.inflate(1) == Rect.centered(3)
    assert list(Rect(0, 0, 2, 2).sites()) == [(0, 1), (1, 1), (0, 0), (1, 0)]
    with pytest.raises(ValueError):
        Rect(0, 0, 0, 3)


def test_window_accessors():
    w = window_from_rows(-1, -1, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert w.get((-1, 1)) == 1
    assert w.get((1, -1)) == 9
    assert w.get((0, 0)) == 5
    with pytest.raises(KeyError):
        w.get((2, 0))


def test_window_immutable_and_patch():
    w = window_from_rows(0, 0, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        w.array[0, 0] = 1
    w2 = w.with_patch({(0, 1): 5})
    assert w.get((0, 1)) == 0 and w2.get((0, 1)) == 5
    assert w2.get((1, 0)) == 0


def test_window_translate():
    w = window_from_rows(0, 0, [[1, 2], [3, 4]])
    t = w.translate((10, -5))
    assert t.get((10, -4)) == 1
    assert t.get((11, -5)) == 4


def test_metric_agreement_sentinel():
    rect = Rect.centered(5)
    w = Window.filled(rect, 0)
    v = Window.filled(rect, 0)
    m = metric_exact(w, v)
    assert m.is_agreement
    assert m.radius == 6
    assert m.upper_bound == Fraction(1, 64)
    with pytest.raises(ValueError):
        m.value


def test_metric_exact_values():
    rect = Rect.centered(5)
    w = Window.filled(rect, 0)
    v = w.with_patch({(3, -1): 1})
    assert metric_exact(w, v).value == Fraction(1, 8)
    v0 = w.with_patch({(0, 0): 1})
    assert metric_exact(w, v0).value == Fraction(1, 1)
    with pytest.raises(ValueError, match="mismatched"):
        metric_exact(w, Window.filled(Rect.centered(4), 0))


def test_metric_symmetry_and_ultrametric():
    rng = np.random.default_rng(5)
    rect = Rect.centered(4)
    for _ in range(300):
        x = random_window(rect, 3, rng)
        y = random_window(rect, 3, rng)
        z = random_window(rect, 3, rng)
        dxy = metric_exact(x, y)
        assert dxy.exact == metric_exact(y, x).exact
        dxz, dyz = metric_exact(x, z), metric_exact(y, z)
        if not (dxy.is_agreement or dxz.is_agreement or dyz.is_agreement):
            assert dxz.value <= max(dxy.value, dyz.value)


def test_metric_shift_compatibility():
    # 9x9 windows: translating both windows by v moves every disagreement
    # site by v, so the new radius is the brute-force minimum over them
    rng = np.random.default_rng(11)
    rect = Rect(-4, -4, 9, 9)
    for _ in range(200):
        x = random_window(rect, 2, rng)
        y = random_window(rect, 2, rng)
        m = metric_exact(x, y)
        if m.is_agreement:
            continue
        v = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        diffs = [
            (rect.x0 + int(c), rect.y1 - int(r))
            for r, c in np.argwhere(x.array != y.array)
        ]
        expected = min(max(abs(s[0] + v[0]), abs(s[1] + v[1])) for s in diffs)
        assert metric_exact(x.translate(v), y.translate(v)).radius == expected


def test_window_text_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rect = Rect(
            int(rng.integers(-5, 5)), int(rng.integers(-5, 5)),
            int(rng.integers(1, 7)), int(rng.integers(1, 7)),
        )
        w = random_window(rect, 6, rng)
        assert parse_window(render_window(w)) == w


def test_window_text_format():
    w = window_from_rows(-1, 0, [[2, 0], [1, 3]])
    assert render_window(w) == "window -1 0 2 2\n2 0\n1 3\n"


def test_parse_window_errors():
    with pytest.raises(ValueError):
        parse_window("")
    with pytest.raises(ValueError, match="rows"):
        parse_window("window 0 0 2 2\n0 0\n")
    with pytest.raises(ValueError, match="symbols"):
        parse_window("window 0 0 2 1\n0 0 0\n")
    with pytest.raises(ValueError):
        parse_window("window 0 0 1 1\nx\n")
