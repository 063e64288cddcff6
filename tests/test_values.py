"""The package's one value base, sft._Frozen, and every class built on it."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

import nnsft
from nnsft.entropy import StripEntropyResult, StripTransfer
from nnsft.harness import (
    AverageBoundReport,
    ShellGapReport,
    ShellGapRow,
    TotalBoundReport,
    TrialConfig,
    TrialReport,
    run_trial,
)
from nnsft.lattice import MetricResult, Rect, Window
from nnsft.potentials import (
    LevelSetCheckResult,
    PerturbedPotential,
    RangeOnePerturbation,
    certify_norm_gap,
    sample_perturbation,
)
from nnsft.repair import RepairResult, Run, ShellDecomposition, repair
from nnsft.sft import BadSites, NnSft, SsfResult, _Frozen, hard_square

HS = hard_square()


def _fields_of(value) -> tuple:
    return tuple(getattr(value, f) for f in type(value)._fields)


def _cases():
    """Each value class: positional arguments of one value, and its fields
    in declaration order."""
    row = ShellGapRow(0, 1, 1, 0.5, 0.25, 0.25)
    window = Window(Rect(0, 0, 2, 1), np.array([[0, 1]]))
    h = RangeOnePerturbation({(0,) * 9: 0.001}, 0.002)
    sweep = (np.array([0]), np.array([0]), np.array([0]))
    return {
        NnSft: ((2, frozenset({(1, 1)}), frozenset({(1, 1)})), ("q", "hforbid", "vforbid")),
        SsfResult: ((False, (0, 1, 1, 0)), ("ok", "witness")),
        BadSites: ((frozenset({(0, 0)}),), ("sites",)),
        Rect: ((0, 0, 2, 1), ("x0", "y0", "width", "height")),
        Window: ((Rect(0, 0, 2, 1), np.array([[0, 1]])), ("rect", "array")),
        MetricResult: ((Fraction(1, 2), 1), ("exact", "radius")),
        RangeOnePerturbation: (({(0,) * 9: 0.001}, 0.002), ("patterns", "values", "cap")),
        PerturbedPotential: ((HS, h), ("sft", "h")),
        LevelSetCheckResult: ((True, 2, 0, 0.5), ("ok", "checked", "skipped", "worst_slack")),
        Run: (("top", 0, 0, 1), ("side", "i", "alpha", "beta")),
        ShellDecomposition: ((0, {"top": (Run("top", 0, 0, 0),)}), ("i", "runs")),
        RepairResult: ((window, [1], sweep), ("window", "shell_sizes")),
        StripTransfer: (_fields_of(StripTransfer.build(HS, 2)), ("sft", "m", "codes", "steps", "h_ok")),
        StripEntropyResult: ((0.5, 2, 3, 10), ("value", "strip_width", "states", "iterations")),
        TrialConfig: ((HS, 4), ("sft", "n", "epsilon", "cap", "corrupt_rate", "support_size", "seed",
                                "trials", "rule")),
        AverageBoundReport: ((0.0, 0.0, "zero_ok", 0.01), ("bad_fraction", "average", "status", "margin")),
        ShellGapRow: ((0, 1, 1, 0.5, 0.25, 0.25), ("i", "size", "pending", "observed", "required",
                                                  "required_literal")),
        ShellGapReport: (((row,), 0.1, 0.1, -1.0, 0, 0.0, 0), ("rows", "min_margin", "min_literal_margin",
                                                               "input_sum", "output_bad_count", "output_sum",
                                                               "stray_changes")),
        TotalBoundReport: ((1.0, 2.0, True, 0.1, 0.05, False, True), ("total_gap", "total_bound", "raw_ok",
                                                                      "improvement", "required", "vacuous",
                                                                      "normalized_ok")),
        TrialReport: (_fields_of(run_trial(TrialConfig(HS, n=2), 0)), (
            "index", "seed", "n", "q", "bad_total", "bad_fraction", "certified_gap", "admissible_check",
            "corrupted_check", "shell_check", "total_check", "repaired_clean", "locality_ok")),
    }


CASES = _cases()
# compared and hashed by identity: their arrays give no one truth value
IDENTITY = (RangeOnePerturbation, StripTransfer)


def _keywords(cls, args) -> dict:
    """The keyword form of a positional construction."""
    if cls.__init__ is _Frozen.__init__:
        return dict(zip(cls._fields, args))
    return dict(zip(inspect.signature(cls).parameters, args))


def _package_classes():
    for info in pkgutil.iter_modules(nnsft.__path__):
        module = importlib.import_module(f"nnsft.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def test_every_value_class_derives_from_the_base_and_is_tested_here():
    # what is not a value: errors, the CLI's parser, and two objects that
    # change as they work (a trial chunk hands out its windows once each;
    # PaddedSum writes into its buffer)
    helpers = {"TrialChunk", "PaddedSum", "_Parser"}
    values = {c for c in _package_classes() if not issubclass(c, Exception) and c.__name__ not in helpers}
    assert values == set(CASES) | {_Frozen}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_class_contract(cls):
    args, fields = CASES[cls]
    kwargs = _keywords(cls, args)
    assert cls._fields == fields
    a, b = cls(*args), cls(**kwargs)
    assert repr(a) == repr(b)
    if cls not in IDENTITY:
        assert a == b and not a != b
    for name in fields:  # every field takes part
        other = copy.copy(a)
        object.__setattr__(other, name, object())
        assert other != a
    try:
        hash(a)
    except TypeError:
        with pytest.raises(TypeError):
            hash(b)
    else:
        assert hash(a) == hash(b) or cls in IDENTITY

    # class defaults apply, and none is shared and mutable
    required = {k: v for k, v in kwargs.items() if k not in cls._defaults}
    with_defaults = cls(**required)
    for name, default in cls._defaults.items():
        assert getattr(with_defaults, name) is default
        hash(default)

    first = next(iter(kwargs))
    for bad in (
        lambda: cls(**{k: v for k, v in kwargs.items() if k != first}),  # missing
        lambda: cls(*args, unknown=1),
        lambda: cls(*args, **{first: args[0]}),  # repeated
        lambda: cls(*args, *[None] * 30),  # too many
    ):
        with pytest.raises(TypeError):
            bad()

    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == repr(b)

    # copies and pickles restore the fields without assigning them
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and repr(twin) == repr(a)
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], None)

    if cls is not Window:  # Window shows its rectangle only
        shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
        assert repr(a) == f"{cls.__qualname__}({shown})"


def test_slotted_and_identity_values():
    # a repair can hold 10^5 runs, and a window is one per state of a trial
    for value in (Run("top", 0, 0, 1), Window.filled(Rect(0, 0, 2, 2), 0)):
        assert not hasattr(value, "__dict__")
    assert repr(Window.filled(Rect(0, 0, 2, 2), 0)) == "Window(0, 0, 2x2)"
    window = Window.filled(Rect(0, 0, 2, 2), 3)
    for twin in (copy.deepcopy(window), pickle.loads(pickle.dumps(window))):
        assert twin == window and not twin.array.flags.writeable
    h, twin = (RangeOnePerturbation({(0,) * 9: 0.001}, 0.002) for _ in range(2))
    assert h == h and h != twin and len({h, twin, h}) == 2
    # two transfers built apart: unequal, without an ambiguous array truth value
    t, twin = (StripTransfer.build(HS, 4) for _ in range(2))
    assert t == t and not t != t and t != twin and not t == twin
    assert len({t, twin, t}) == 2 and hash(t) == hash(t)
    assert "runs" not in ShellDecomposition._defaults
    with pytest.raises(TypeError):
        ShellDecomposition(0)


def test_a_certified_gap_or_a_validated_config_cannot_go_stale():
    # assigning a new h would leave the gap certified for the old one, and
    # a cap past epsilon would skip the hypothesis check TrialConfig makes
    small = sample_perturbation(1 / 384, 8, 2, 0)
    large = sample_perturbation(1.0, 8, 2, 0)
    assert certify_norm_gap(large, 2) > 100 * certify_norm_gap(small, 2)
    g = PerturbedPotential(HS, small)
    with pytest.raises(AttributeError):
        g.h = large
    with pytest.raises(AttributeError):
        g.gap = 0.0
    assert g.h is small and g.gap == certify_norm_gap(small, 2)

    cfg = TrialConfig(HS, n=2)
    with pytest.raises(AttributeError):
        cfg.cap = 1.0
    assert cfg.cap == 1 / 384
    with pytest.raises(ValueError, match="exceeds epsilon"):
        TrialConfig(HS, n=2, cap=1.0)

    report = run_trial(cfg, 0)
    with pytest.raises(AttributeError):
        report.certified_gap = 0.0
    rng = np.random.default_rng(1)
    result = repair(Window.filled(Rect.centered(3), 1), HS, 2, rng=rng)
    for name in ("window", "shell_sizes", "sweep"):
        with pytest.raises(AttributeError):
            setattr(result, name, None)
    assert repr(result).startswith("RepairResult(window=Window(-3, -3, 7x7), shell_sizes=[")
    assert "sweep" not in repr(result)


class _Point(_Frozen):
    x: int
    _note: str = "not a field"
    y: int = 0


class _Labelled(_Point):
    label: str = ""
    x: int  # annotated again: keeps its place


def test_fields_are_annotated_names_base_first():
    assert _Point._fields == ("x", "y") and _Labelled._fields == ("x", "y", "label")
    assert _Labelled(1, label="a") == _Labelled(1, 0, "a") == _Labelled(label="a", x=1)
    assert repr(_Labelled(1)) == "_Labelled(x=1, y=0, label='')"
    assert _Labelled(1) != _Point(1) and _Labelled(1)._note == "not a field"
