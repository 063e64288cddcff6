import itertools

import numpy as np
import pytest

from nnsft.lattice import Rect, Window
from nnsft.potentials import PerturbedPotential, RangeOnePerturbation
import nnsft.sft as sft_module
from nnsft.sft import (
    BadSites,
    NnSft,
    SftParseError,
    SsfResult,
    SymbolRangeError,
    bad_site_mask,
    bad_sites,
    check_ssf,
    checkerboard,
    find_safe_symbols,
    full_shift,
    hard_square,
    load_sft,
    parse_sft,
)

from _util import forbidden_pairs, pair_scan_bad_sites, random_window, rect_sites, spec_text, window_from_rows


def test_violations_symbol_range():
    w = window_from_rows(0, 0, [[0, 3], [0, 0]])
    with pytest.raises(SymbolRangeError) as err:
        bad_site_mask(w, hard_square())
    assert err.value.site == (1, 1)


def test_bad_sites_examples():
    hs = hard_square()
    assert bad_sites(Window.filled(Rect.centered(2), 0), hs).sites == frozenset()

    w = Window.filled(Rect.centered(2), 0).with_patch({(0, 0): 1, (0, 1): 1})
    bs = bad_sites(w, hs)
    assert bs.sites == {(0, 0)}

    ones = Window.filled(Rect.centered(2), 1)
    bs = bad_sites(ones, hs)
    assert len(bs.sites) == 16
    assert bs.sites == {(x, y) for x in range(-2, 2) for y in range(-2, 2)}


def test_bad_sites_thin_window():
    # a one-row or one-column window stores no site's right and up neighbors both
    for rows in ([[1, 1, 1]], [[1], [1], [1]], [[1]]):
        w = window_from_rows(0, 0, rows)
        mask = bad_site_mask(w, hard_square())
        assert mask.shape == w.array.shape and not mask.any()
        assert not bad_sites(w, hard_square()).sites


def test_bad_sites_matches_pair_scan_oracle():
    rng = np.random.default_rng(40)
    for sft in (hard_square(), checkerboard(3), full_shift(2)):
        for _ in range(30):
            w = random_window(Rect.centered(4), sft.q, rng)
            assert bad_sites(w, sft).sites == pair_scan_bad_sites(w, sft)


def test_bad_site_mask_on_byte_windows_at_the_widest_table():
    # (center*q + right)*q + up runs to q**3 - 1 = 262,143 at q = 128, far
    # past a byte: the flat lookup must form it in intp
    rng = np.random.default_rng(42)
    pairs = [frozenset(map(tuple, np.argwhere(rng.random((128, 128)) < 0.3).tolist())) for _ in range(2)]
    sft = NnSft(128, *pairs)
    w = random_window(Rect.centered(20), 128, rng)
    assert w.array.dtype == np.uint8
    assert bad_sites(w, sft).sites == pair_scan_bad_sites(w, sft)
    c, r, u = w.array[1:, :-1], w.array[1:, 1:], w.array[:-1, :-1]
    assert np.array_equal(sft.bad(c, r, u), sft.h_table[c, r] | sft.v_table[c, u])
    # a table of q**3 entries is refused past q = 128, before it is built
    with pytest.raises(ValueError, match="too large for a bad-site table"):
        bad_site_mask(Window.filled(Rect.centered(1), 0), full_shift(129))


def test_penalty_at():
    # the penalty is the zero-perturbation potential: -1 at a bad site, 0 elsewhere
    g = PerturbedPotential.build(hard_square(), RangeOnePerturbation({}, 1.0))
    w = Window.filled(Rect.centered(2), 0).with_patch({(0, 0): 1, (1, 0): 1})
    assert g.value(w, 0, 0) == -1.0
    assert g.value(Window.filled(Rect.centered(2), 0), 0, 0) == 0.0
    lone = Window.filled(Rect.centered(2), 0).with_patch({(0, 0): 1})
    assert g.value(lone, 0, 0) == 0.0
    with pytest.raises(ValueError, match="insufficient margin"):
        g.value(w, 2, 0)


def test_penalty_matches_bad_sites():
    rng = np.random.default_rng(41)
    hs = hard_square()
    g = PerturbedPotential.build(hs, RangeOnePerturbation({}, 1.0))
    inner = rect_sites(Rect.centered(2))
    xs, ys = np.array(inner).T
    for _ in range(20):
        w = random_window(Rect.centered(3), 2, rng)
        bs = bad_sites(w, hs)
        assert g.value(w, xs, ys).tolist() == [-1.0 if u in bs.sites else 0.0 for u in inner]


def test_check_ssf_builtins():
    assert check_ssf(hard_square()).ok
    assert check_ssf(full_shift(1)).ok
    assert check_ssf(checkerboard(5)).ok
    assert check_ssf(checkerboard(6)).ok
    for k in (2, 3, 4):
        res = check_ssf(checkerboard(k))
        assert not res.ok
        assert res.witness is not None
    assert check_ssf(checkerboard(4)).witness == (0, 1, 2, 3)


def _ssf_oracle(sft: NnSft, rng: np.random.Generator) -> bool:
    """Boundary enumeration in randomized order, pure python."""
    syms = list(range(sft.q))
    boundaries = list(itertools.product(syms, repeat=4))
    rng.shuffle(boundaries)
    for north, south, east, west in boundaries:
        if not any(
            (west, a) not in sft.hforbid
            and (a, east) not in sft.hforbid
            and (south, a) not in sft.vforbid
            and (a, north) not in sft.vforbid
            for a in syms
        ):
            return False
    return True


def test_check_ssf_against_shuffled_oracle():
    rng = np.random.default_rng(42)
    cases = [hard_square(), checkerboard(2), checkerboard(5), full_shift(3)]
    for _ in range(40):
        q = int(rng.integers(2, 5))
        hf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q)))
            for _ in range(int(rng.integers(0, q * q)))
        )
        vf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q)))
            for _ in range(int(rng.integers(0, q * q)))
        )
        cases.append(NnSft(q, hf, vf))
    for sft in cases:
        assert check_ssf(sft).ok == _ssf_oracle(sft, rng)


def test_find_safe_symbols():
    assert find_safe_symbols(hard_square()) == [0]
    for k in range(2, 9):
        assert find_safe_symbols(checkerboard(k)) == []
    assert find_safe_symbols(full_shift(3)) == [0, 1, 2]


def test_safe_symbol_implies_ssf():
    rng = np.random.default_rng(43)
    seen_with_safe = 0
    for _ in range(200):
        q = int(rng.integers(2, 5))
        hf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q)))
            for _ in range(int(rng.integers(0, q * q // 2 + 1)))
        )
        vf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q)))
            for _ in range(int(rng.integers(0, q * q // 2 + 1)))
        )
        sft = NnSft(q, hf, vf)
        if find_safe_symbols(sft):
            seen_with_safe += 1
            assert check_ssf(sft).ok
    assert seen_with_safe > 20  # the property was actually exercised


def test_violations_bad_sites_consistency():
    rng = np.random.default_rng(44)
    hs = hard_square()
    for _ in range(30):
        w = random_window(Rect.centered(3), 2, rng)
        bs = bad_sites(w, hs)
        # the sites whose right and up neighbors are both stored
        evaluable = Rect(w.rect.x0, w.rect.y0, w.rect.width - 1, w.rect.height - 1)
        from_pairs = {site for site, _ in forbidden_pairs(w, hs) if evaluable.contains(site)}
        assert from_pairs == set(bs.sites)


def test_parse_sft_round_trip():
    rng = np.random.default_rng(45)
    cases = [hard_square(), checkerboard(5), full_shift(4), NnSft(1)]
    for _ in range(100):
        q = int(rng.integers(1, 7))
        hf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q)))
            for _ in range(int(rng.integers(0, q * q + 1)))
        )
        vf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q)))
            for _ in range(int(rng.integers(0, q * q + 1)))
        )
        cases.append(NnSft(q, hf, vf))
    for sft in cases:
        assert parse_sft(spec_text(sft, rng)) == sft


def test_parse_sft_specifics():
    sft = parse_sft("alphabet 2\nhforbid 1 1\nvforbid 1 1\n")
    assert sft == hard_square()
    sft = parse_sft("# comment\nalphabet 1\n")
    assert sft == NnSft(1)
    with pytest.raises(SftParseError) as err:
        parse_sft("alphabet 2\nwibble 1 1\n")
    assert err.value.line == 2
    with pytest.raises(SftParseError, match="alphabet line must come first"):
        parse_sft("hforbid 0 0\n")
    with pytest.raises(SftParseError, match="outside alphabet"):
        parse_sft("alphabet 2\nhforbid 0 2\n")


def test_load_sft_builtins(tmp_path):
    assert load_sft("hardsquare") == hard_square()
    assert load_sft("checkerboard:5") == checkerboard(5)
    assert load_sft("full:3") == full_shift(3)
    path = tmp_path / "spec.txt"
    path.write_text("alphabet 3\nhforbid 0 0\nhforbid 1 1\nhforbid 2 2\nvforbid 0 0\nvforbid 1 1\nvforbid 2 2\n")
    assert load_sft(str(path)) == checkerboard(3)
    with pytest.raises(ValueError, match="no such"):
        load_sft("nonsense:spec")


def test_nnsft_is_a_frozen_value():
    # NnSft is written out by hand, not as a dataclass, and keeps a frozen
    # dataclass's constructor, equality, hash, repr and immutability
    hs = hard_square()
    assert NnSft(2, frozenset({(1, 1)}), frozenset({(1, 1)})) == hs
    assert NnSft(q=2, vforbid=frozenset({(1, 1)}), hforbid=frozenset({(1, 1)})) == hs
    assert NnSft(2, {(1, 1)}, [(1, 1)]) == hs  # any iterable of pairs, kept as a frozenset
    one = NnSft(1, vforbid=frozenset({(0, 0)}))
    assert (one.q, one.hforbid, one.vforbid) == (1, frozenset(), frozenset({(0, 0)}))
    assert all(type(sft.hforbid) is type(sft.vforbid) is frozenset for sft in (hs, one, NnSft(2, {(1, 1)}, [])))
    assert repr(hs) == "NnSft(q=2, hforbid=frozenset({(1, 1)}), vforbid=frozenset({(1, 1)}))"
    assert repr(NnSft(1)) == "NnSft(q=1, hforbid=frozenset(), vforbid=frozenset())"

    text = "alphabet 3\n" + "".join(f"{d}forbid {a} {a}\n" for a in (2, 0, 1) for d in "vh")
    assert parse_sft(text) == checkerboard(3) and hash(parse_sft(text)) == hash(checkerboard(3))
    assert len({hs, hard_square(), load_sft("hardsquare")}) == 1
    for other in (NnSft(3, hs.hforbid, hs.vforbid), NnSft(2, hs.hforbid, frozenset()),
                  NnSft(2, frozenset({(0, 1)}), hs.vforbid), (2, hs.hforbid, hs.vforbid), "hardsquare", None):
        assert hs != other and not hs == other

    for name in ("q", "hforbid", "vforbid", "other"):
        with pytest.raises(AttributeError):
            setattr(hs, name, 3)
        with pytest.raises(AttributeError):
            delattr(hs, name)
    assert hs == hard_square()


def test_nnsft_tables_are_computed_once_per_instance(monkeypatch):
    calls = []

    def counted_check_ssf(sft):
        calls.append(sft)
        return check_ssf(sft)

    monkeypatch.setattr(sft_module, "check_ssf", counted_check_ssf)
    sft, twin = checkerboard(5), checkerboard(5)
    assert sft.ssf is sft.ssf and sft.ssf == SsfResult(True, None)
    assert twin.ssf is twin.ssf
    assert calls == [sft, twin]
    assert sft.fill_table is sft.fill_table and sft.bad_table is sft.bad_table
    assert sft.fill_table == twin.fill_table and sft.bad_table is not twin.bad_table
    assert sft == twin  # cached tables are not fields


def test_ssf_result_and_bad_sites_are_frozen_values():
    res = SsfResult(False, (0, 1, 1, 0))
    assert (res.ok, res.witness) == (False, (0, 1, 1, 0))
    assert res == SsfResult(False, (0, 1, 1, 0)) and hash(res) == hash(SsfResult(False, (0, 1, 1, 0)))
    assert res != SsfResult(False, (0, 1, 1, 1)) and res != (False, (0, 1, 1, 0))
    assert repr(res) == "SsfResult(ok=False, witness=(0, 1, 1, 0))"
    assert check_ssf(hard_square()) == SsfResult(True, None)
    sites = BadSites(frozenset({(0, 0)}))
    assert sites.sites == {(0, 0)} and sites == BadSites(frozenset({(0, 0)}))
    assert sites != BadSites(frozenset()) and sites != frozenset({(0, 0)})
    assert repr(sites) == "BadSites(sites=frozenset({(0, 0)}))"
    for value, name in ((res, "ok"), (sites, "sites")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_nnsft_validation():
    with pytest.raises(ValueError):
        NnSft(0)
    with pytest.raises(ValueError, match="outside alphabet"):
        NnSft(2, frozenset({(0, 2)}), frozenset())
