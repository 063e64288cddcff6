"""Tests of the benchmark itself (about a minute on two cores).

    python3 -m pytest perfbench -q

They check that BENCHMARK.json names the workloads and metrics the
runner emits, that the pinned digests reproduce, that the output checks
reject tampered outputs, that traced counts repeat exactly and agree
with the harness's own accounting, that the tracer removes every wrapper
it installed, and that the runner refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Output  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, key):
    proc = run_bench(run.ROOT, "entropy-strip", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCH[key]}


@pytest.fixture(scope="module")
def first_passes(tmp_path_factory) -> dict[str, list[Output]]:
    cwd = tmp_path_factory.mktemp("passes")
    return {name: run.run_pass(w, 0, cwd, run.child_env())[0] for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pinned_digests_reproduce(first_passes, name):
    outs = first_passes[name]
    assert WORKLOADS[name].check(outs) is None
    assert [run.digest(o) for o in outs] == run.pinned_digests(WORKLOADS[name], 0)


def _tamper(name: str, outs: list[Output]) -> list[Output]:
    last = outs[-1]
    if name == "sample-repair":
        head, _, body = last.file.partition(b"\n")
        flipped = b"1" if body[:1] == b"0" else b"0"
        return [outs[0], Output(last.rc, last.stdout, head + b"\n" + flipped + body[1:])]
    if name.startswith("verify"):
        return [Output(last.rc, last.stdout.replace(b",true\n", b",false\n", 1), last.file)]
    return [*outs[:-1], Output(last.rc, last.stdout.replace(b"states 81920", b"states 81921"), last.file)]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_reject_tampered_outputs(first_passes, name):
    outs = first_passes[name]
    assert WORKLOADS[name].check(_tamper(name, outs)) is not None
    failed = [Output(1, o.stdout, o.file) for o in outs]
    assert WORKLOADS[name].check(failed) is not None


def _traced_run(name: str, cwd: Path) -> tuple[dict, tuple[int, int], list[str]]:
    t = tracer.Tracer(tracer.import_layers(run.SRC))
    t.install()
    try:
        outs, seconds = t.run_pass(WORKLOADS[name], 0, cwd)
        metrics = tracer.pass_metrics(t, seconds)
    finally:
        left = t.restore()
    assert WORKLOADS[name].check(outs) is None
    return metrics, tracer.harness_pending(t), left


@pytest.mark.parametrize("name,counts", [
    ("verify-n24-jobs2", ("potentials.value_calls", "repair.bad_sites", "repair.runs", "sft.bad_site_mask_calls")),
    ("entropy-strip", ("entropy.iterations", "entropy.states", "entropy.tensor_cells")),
])
def test_traced_counts_repeat_exactly(tmp_path, name, counts):
    first, pending, left = _traced_run(name, tmp_path)
    second, _, _ = _traced_run(name, tmp_path)
    assert left == []
    for metric in counts:
        assert first[metric] > 0
        assert first[metric] == second[metric], metric
    if name.startswith("verify"):
        # the tracer replays pending_i from each repair's input and output;
        # check_shell_gaps counts it from the intermediate windows
        sizes, still_bad = pending
        assert sizes == first["repair.bad_sites"]
        assert first["repair.pending_ratio"] == still_bad / sizes
        # run_experiment waits while pool threads run the trials: that wait
        # is its children's time, not self time of the harness
        self_total = sum(first[f"{layer}.self_s"] for layer in tracer.LAYERS)
        outside_trials = first["cli.main_s"] - first["harness.run_experiment_s"]
        slack = 0.1 * first["harness.run_experiment_s"]
        assert self_total <= first["harness.run_trial_s"] + outside_trials + slack


def test_covered_merges_overlapping_intervals():
    assert tracer._covered([]) == 0.0
    assert tracer._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0


def test_tracer_patches_importing_namespaces_and_restores_them():
    modules = tracer.import_layers(run.SRC)
    harness, sft, potentials = modules["harness"], modules["sft"], modules["potentials"]

    def current():
        return harness.bad_site_mask, sft.bad_site_mask, potentials.PerturbedPotential.value

    originals = current()
    t = tracer.Tracer(modules)
    t.install()
    try:
        assert all(now is not before for now, before in zip(current(), originals))
    finally:
        left = t.restore()
    assert left == []
    assert current() == originals


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "verify-n128", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
