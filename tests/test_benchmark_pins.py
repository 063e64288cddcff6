"""Seed 0 of every benchmark workload, run in process, against the exit
codes and output digests pinned in perfbench/expected.json, so that a
change to the printed output shows in the tier-1 suite; and the
benchmark's tracer over small commands of every kind, so that a package
name it wraps or reads cannot vanish unseen. The benchmark's files are
only read."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import nnsft
from nnsft.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load("perfbench_workloads", "workloads.py")
WORKLOADS = workloads.WORKLOADS
PINS = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_matches_pinned_digests(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    commands = workload.commands(0)
    # a workload whose commands ignore the seed keeps one pin for every seed
    pins = next(
        digests
        for seed, digests in PINS[name].items()
        if workload.commands(int(seed)) == commands
    )
    monkeypatch.chdir(tmp_path)
    got = []
    for cmd in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(list(cmd.args))
        out = Path(cmd.out_file).read_bytes() if cmd.out_file else None
        got.append({"rc": rc, "stdout": _sha(buf.getvalue().encode()), "file": _sha(out)})
    assert got == pins


def test_tracer_runs_every_command_kind(tmp_path, monkeypatch):
    # the tracer imports its sibling `workloads` by that name
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    tracer = _load("perfbench_tracer", "tracer.py")
    Command = workloads.Command
    commands = [
        Command(("verify", "--spec", "hardsquare", "--size", "4", "--trials", "3", "--seed", "1")),
        Command(("sample", "--spec", "checkerboard:5", "--size", "6", "--corrupt", "0.3",
                 "--seed", "2", "--out", "w.txt"), "w.txt"),
        Command(("repair", "--spec", "checkerboard:5", "--window", "w.txt", "--out", "fixed.txt"), "fixed.txt"),
        Command(("entropy", "--spec", "hardsquare", "--strip-width", "4")),
    ]
    small = workloads.Workload("small", "one command of each kind", ("hardsquare",), 3,
                               lambda seed: commands, lambda outs: None)
    t = tracer.Tracer(tracer.import_layers(Path(nnsft.__file__).resolve().parent.parent))
    t.install()
    try:
        assert t.patched_count() > 0
        outputs, pass_s = t.run_pass(small, 0, tmp_path)
    finally:
        left = t.restore()
    assert [out.rc for out in outputs] == [0, 0, 0, 0]
    assert left == []
    m = tracer.pass_metrics(t, pass_s)
    assert set(m) <= set(tracer.PER_LAYER)
    # every span the commands must pass through, and the facts read from results
    for name in (
        "cli.main_s", "harness.run_experiment_s", "harness.run_trial_s", "harness.corrupt_s",
        "harness.check_shell_gaps_s", "harness.check_average_bounds_s",
        "potentials.sample_perturbation_s", "potentials.certify_norm_gap_s", "sft.bad_site_mask_s",
        "sft.check_ssf_s", "repair.repair_s", "lattice.parse_window_s", "lattice.render_window_s",
        "entropy.build_s", "entropy.strip_entropy_s", "repair.bad_sites", "repair.runs",
        "entropy.iterations", "entropy.states", "trace.spans",
    ):
        assert m[name] > 0, name
