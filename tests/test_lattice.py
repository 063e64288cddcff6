from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnsft import lattice
from nnsft.harness import corrupt, sample_admissible, sample_admissible_stack
from nnsft.lattice import Rect, Window, metric_exact, parse_window, render_window
from nnsft.repair import repair
from nnsft.sft import checkerboard

from _util import random_window, rect_sites, reference_parse_window, reference_render_window, window_from_rows


def test_rect_basics():
    r = Rect.centered(2)
    assert (r.x0, r.y0, r.width, r.height) == (-2, -2, 5, 5)
    assert r.area == 25
    assert r.contains((2, -2)) and not r.contains((3, 0))
    assert Rect.centered(3).contains_rect(r)
    assert not r.contains_rect(Rect.centered(3))
    assert r.inflate(1) == Rect.centered(3)
    assert (r.x1, r.y1) == (2, 2) and Rect(0, 0, 2, 3).y1 == 2
    with pytest.raises(ValueError):
        Rect(0, 0, 0, 3)


# off-centre, one row, one column, one site, and a box about the origin
LAYOUT_RECTS = [Rect(3, -7, 5, 4), Rect(-9, 2, 6, 1), Rect(4, 5, 1, 7), Rect(-2, 8, 1, 1),
                Rect.centered(3)]


@pytest.mark.parametrize("rect", LAYOUT_RECTS)
def test_rect_cells_and_sites_are_the_array_layout(rect):
    # row 0 is the top row (largest y), column 0 the left column (smallest x)
    for r in range(rect.height):
        for c in range(rect.width):
            site = (rect.x0 + c, rect.y0 + rect.height - 1 - r)
            assert rect.sites(r, c) == site
            assert rect.cells(*site) == (r, c)
    rows, cols = np.divmod(np.arange(rect.area), rect.width)
    xs, ys = rect.sites(rows, cols)
    assert list(zip(xs.tolist(), ys.tolist())) == rect_sites(rect)
    back = rect.cells(xs, ys)
    assert np.array_equal(back[0], rows) and np.array_equal(back[1], cols)


@pytest.mark.parametrize("rect", LAYOUT_RECTS)
def test_rect_cut_holds_the_sub_rectangle(rect):
    # every sub-rectangle: the cut of the site array is that sub's site array
    xs, ys = rect.sites(*np.indices((rect.height, rect.width)))
    for x0 in range(rect.x0, rect.x1 + 1):
        for y0 in range(rect.y0, rect.y1 + 1):
            for width in range(1, rect.x1 - x0 + 2):
                for height in range(1, rect.y1 - y0 + 2):
                    sub = Rect(x0, y0, width, height)
                    sub_xs, sub_ys = sub.sites(*np.indices((height, width)))
                    cut = rect.cut(sub)
                    assert np.array_equal(xs[cut], sub_xs) and np.array_equal(ys[cut], sub_ys)
    assert rect.cut(rect) == (slice(0, rect.height), slice(0, rect.width))


@pytest.mark.parametrize("rect", LAYOUT_RECTS)
def test_rect_bands_tile_the_rect_top_first(rect):
    # budgets below one row, of exactly one row, between rows, and over the area
    for sites in (1, rect.width - 1, rect.width, rect.width + 1, 2 * rect.width, rect.area + 5):
        bands = list(rect.bands(sites))
        rows = max(1, sites // rect.width)
        assert all(b.x0 == rect.x0 and b.width == rect.width for b in bands)
        assert all(b.area <= sites or b.height == 1 for b in bands)
        assert all(b.height == rows for b in bands[:-1]) and 1 <= bands[-1].height <= rows
        # top band first, each band directly below the one before, down to the bottom row
        assert bands[0].y1 == rect.y1 and bands[-1].y0 == rect.y0
        assert all(a.y0 == b.y1 + 1 for a, b in zip(bands, bands[1:]))
        assert [u for b in bands for u in rect_sites(b)] == rect_sites(rect)


@pytest.mark.parametrize("rect", LAYOUT_RECTS)
def test_rect_norms_are_chebyshev_norms(rect):
    norms = rect.norms()
    assert norms.shape == (rect.height, rect.width)
    assert norms.ravel().tolist() == [max(abs(x), abs(y)) for x, y in rect_sites(rect)]


def test_window_accessors():
    w = window_from_rows(-1, -1, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert w.get((-1, 1)) == 1
    assert w.get((1, -1)) == 9
    assert w.get((0, 0)) == 5
    with pytest.raises(KeyError):
        w.get((2, 0))


def test_window_refuses_symbols_that_are_not_integers():
    # a float array used to be truncated, NaN to -2**63
    rect = Rect(0, 0, 2, 1)
    for arr in (np.array([[1.7, np.nan]]), np.array([[1.0, 2.0]]), np.array([["1", "2"]]),
                np.array([[1, 2]], dtype=object)):
        with pytest.raises(ValueError, match="window symbols must be integers"):
            Window(rect, arr)
    for arr in ([[1, 2]], np.array([[1, 2]], dtype=np.uint8), np.array([[True, False]])):
        w = Window(rect, arr)
        assert w.array.dtype == np.uint8 and w.array.tolist() == [[int(a) for a in np.ravel(arr)]]


def _sampled(seed: int = 0) -> Window:
    # the widest SSF alphabet: symbols 0..63
    return sample_admissible(checkerboard(64), 4, np.random.default_rng(seed))


def _corrupted() -> Window:
    return corrupt(_sampled(), 64, 0.5, np.random.default_rng(1))


# each window producer, and the symbol type its window is stored in
PRODUCERS = {
    "sample_admissible": (_sampled, np.uint8),
    "sample_admissible_stack": (
        lambda: sample_admissible_stack(checkerboard(64), 4, [np.random.default_rng(s) for s in (0, 1)])[1],
        np.uint8,
    ),
    "corrupt": (_corrupted, np.uint8),
    "repair": (lambda: repair(_corrupted(), checkerboard(64), 3).window, np.uint8),
    "parse_window": (lambda: parse_window(render_window(_sampled())), np.uint8),
    "filled": (lambda: Window.filled(Rect.centered(2), 63), np.uint8),
    "with_patch": (lambda: _sampled().with_patch({(0, 0): 63, (1, 0): 0}), np.uint8),
    "parse_window 300": (lambda: parse_window("window 0 0 2 1\n300 7\n"), np.uint16),
    "filled 300": (lambda: Window.filled(Rect.centered(2), 300), np.uint16),
    "with_patch 300": (lambda: _sampled().with_patch({(0, 0): 300}), np.uint16),
    "negative": (lambda: Window(Rect(0, 0, 2, 1), np.array([[-1, 63]])), np.int8),
    "filled -1": (lambda: Window.filled(Rect.centered(2), -1), np.int8),
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_window_stores_the_narrowest_symbol_type(name):
    # a byte per symbol on every SSF alphabet, and a type that holds the
    # symbols otherwise; always C ordered and frozen
    make, kind = PRODUCERS[name]
    w = make()
    assert w.array.dtype == kind
    assert w.array.flags.c_contiguous and not w.array.flags.writeable


def test_patching_a_wide_symbol_into_a_byte_window():
    w = _sampled()
    wide = w.with_patch({(0, 0): 300, (1, 0): -2})
    expected = w.array.astype(int)
    expected[4, 4:6] = 300, -2  # sites (0, 0) and (1, 0) of the box of radius 4
    assert wide.array.dtype == np.int16 and wide.array.tolist() == expected.tolist()
    assert w.array.dtype == np.uint8


def test_window_immutable_and_patch():
    w = window_from_rows(0, 0, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        w.array[0, 0] = 1
    w2 = w.with_patch({(0, 1): 5})
    assert w.get((0, 1)) == 0 and w2.get((0, 1)) == 5
    assert w2.get((1, 0)) == 0


def test_metric_agreement_sentinel():
    rect = Rect.centered(5)
    w = Window.filled(rect, 0)
    v = Window.filled(rect, 0)
    m = metric_exact(w, v)
    assert m.is_agreement
    assert m.radius == 6
    with pytest.raises(ValueError):
        m.value


def test_centered_radius_of_a_rect_that_misses_the_origin():
    rect = Rect(5, 5, 3, 3)
    assert rect.centered_radius() == -1
    w = Window.filled(rect, 0)
    assert metric_exact(w, Window.filled(rect, 0)).radius == 0


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
        moved = Rect(rect.x0 + v[0], rect.y0 + v[1], rect.width, rect.height)
        assert metric_exact(Window(moved, x.array), Window(moved, y.array)).radius == expected


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
    # a symbol of 2**63 or more: one ValueError naming the row, not an OverflowError
    big = "window 0 0 5 5\n" + "0 0 0 0 0\n" * 2 + "0 0 99999999999999999999 0 0\n" + "0 0 0 0 0\n" * 2
    with pytest.raises(OverflowError):
        reference_parse_window(big)
    with pytest.raises(ValueError, match="row 3: a symbol has more than 18 digits"):
        parse_window(big)
    # the limit is 18 digits, even for a 19-digit symbol below 2**63
    assert parse_window(f"window 0 0 2 1\n{10**18 - 1} 0\n").get((0, 0)) == 10**18 - 1
    with pytest.raises(ValueError, match="row 1: a symbol has more than 18 digits"):
        parse_window(f"window 0 0 2 1\n{10**18} 0\n")
    # a huge header is refused by its rows, before anything is allocated
    with pytest.raises(ValueError, match="row 1: expected 1000000000000 symbols, found 1"):
        parse_window("window 0 0 1000000000000 1\n0\n")
    # deliberately narrower than int(): signs, underscores and non-ASCII digits
    for row in ("+1 0", "1_0 0", "٣ 0", "-1 0", "1\x1f0"):
        with pytest.raises(ValueError, match="row 1: symbols must be ASCII digits separated by blanks"):
            parse_window(f"window 0 0 2 1\n{row}\n")


def test_render_refuses_negative_symbols():
    with pytest.raises(ValueError, match="nonnegative"):
        render_window(window_from_rows(0, 0, [[0, 1], [2, -3]]))


def windows(max_symbol: int) -> st.SearchStrategy[Window]:
    """Windows on random rects, single rows and columns among them, with
    symbols in 0..max_symbol."""
    return st.tuples(
        st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 12), st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    ).map(lambda t: Window(
        Rect(*t[:4]),
        np.random.default_rng(t[4]).integers(0, max_symbol, size=(t[3], t[2]), endpoint=True),
    ))


@settings(max_examples=200, deadline=None)
@given(w=st.sampled_from([1, 5, 9, 10, 63, 999, 10**9, 10**18 - 1]).flatmap(windows))
@example(w=window_from_rows(0, 0, [[0, 10**18 - 1, 10**17, 10]]))
@example(w=window_from_rows(0, 0, [[7], [70], [0]]))
def test_window_text_matches_reference(w):
    text = render_window(w)
    assert text == reference_render_window(w)
    assert parse_window(text) == w


@pytest.mark.parametrize("rect", [Rect(-3, 2, 9, 7), Rect(0, 0, 1, 6), Rect(5, -4, 7, 1)])
def test_render_window_is_the_same_for_any_band_size(monkeypatch, rect):
    # one row per band, five sites, one row exactly, and the whole window
    # in one band; symbols of 1 to 4 digits, varying along rows and
    # columns, so that bands differ in their widest symbol
    high = 10 ** (1 + np.indices((rect.height, rect.width)).sum(axis=0) % 4)
    w = Window(rect, np.random.default_rng(rect.area).integers(0, high))
    texts = []
    for band_sites in (1, 5, rect.width, 2**14):
        monkeypatch.setattr(lattice, "BAND_SITES", band_sites)
        texts.append(render_window(w))
    assert texts == [reference_render_window(w)] * 4


@settings(max_examples=200, deadline=None)
@given(
    w=windows(99),
    seps=st.lists(st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"]), min_size=1),
    pads=st.lists(st.sampled_from(["", " ", "\t", "\n", "\n\n", "\n \t\n", "\r\n"]), min_size=1),
)
def test_parse_blanks_as_reference(w, seps, pads):
    # any run of spaces and tabs separates symbols; blank lines are ignored
    lines = [f"window {w.rect.x0} {w.rect.y0} {w.rect.width} {w.rect.height}"]
    for i, row in enumerate(w.array.tolist()):
        body = "".join(str(a) + seps[(i + j) % len(seps)] for j, a in enumerate(row))
        lines.append(pads[i % len(pads)] + body)
    text = "\n".join(lines) + pads[-1] + "\n"
    assert parse_window(text) == reference_parse_window(text) == w


@settings(max_examples=300, deadline=None)
@given(
    w=windows(12),
    edits=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.sampled_from(["", "-", "+", "x", "_", "0", "7", " ", "\n", "\t", "٣", "9" * 19]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_parse_raises_where_reference_raises(w, edits):
    text = render_window(w)
    for pos, piece in edits:
        pos %= len(text)
        # an empty piece deletes the character at pos
        text = text[:pos] + piece + text[pos + (not piece) :]
    try:
        expected = reference_parse_window(text)
    except (ValueError, OverflowError):
        with pytest.raises(ValueError):
            parse_window(text)
        return
    try:
        got = parse_window(text)
    except ValueError:
        # refused only where the format is narrower than int(): a symbol
        # that int() reads but that is not 1 to 18 ASCII digits
        rows = [ln for ln in text.splitlines() if ln.strip()][1:]
        tokens = [t for ln in rows for t in ln.split()]
        assert any(not (t.isascii() and t.isdigit()) or len(t) > 18 for t in tokens)
        return
    assert got == expected
