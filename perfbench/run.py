"""Run one benchmark workload against the nnsft CLI and print its metrics.

    python3 perfbench/run.py --workload verify-n128 --seed 3 --seconds 30 --trace 0

With --trace 0 the workload's commands run as subprocesses of the nnsft
console script, one after another (a closed loop), for as many passes
as fit in --seconds. The time metrics are means over those passes,
that is the run's total over its passes: this machine's speed drifts
over seconds, and a mean follows the share of the run spent fast or
slow, where the median of a few passes jumps between the two. Set-up
time is the median of rounds of `nnsft check` on the workload's specs,
one round before each timed pass and at least SETUP_ROUNDS, so that the
rounds are spread over the run. With --trace 1 the run times one
untraced subprocess pass, then repeats the workload in-process, in
pairs of an untraced pass and a pass with every layer wrapped
(tracer.py), and reports per-layer metrics.

Every command's exit code and the digests of its stdout and out-file are
compared with the ones pinned in expected.json for the workload and
seed; for a seed without a pin, with the first pass of the run. A
command fails when its exit code is not 0 or its digests differ. The
first pass is also checked by the workload's own output check.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Each run also writes
.bench_out/results/<workload>-seed<seed>-trace<t>.json with every
sample, the machine's facts, and its load average and speed probe
before and after.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS, Command, Output, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RESULTS = OUT / "results"
EXPECTED = HERE / "expected.json"

# what the installed `nnsft` console script runs
LAUNCH = "import sys; from nnsft.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 60
SETUP_ROUNDS = 7
THREAD_LIMIT = "2"  # the machine the workloads were sized on has two cores

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREAD_LIMIT
    return env


@dataclass(frozen=True)
class Sample:
    """Wall time, CPU time (user + system) and peak RSS of one command."""

    wall_s: float
    cpu_s: float
    rss_mb: float


def run_command(cmd: Command, cwd: Path, env: dict[str, str]) -> tuple[Output, Sample]:
    """Run one nnsft command to completion and collect its resource usage."""
    if cmd.out_file:
        (cwd / cmd.out_file).unlink(missing_ok=True)
    with open(cwd / "stdout.bin", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, *cmd.args], cwd=cwd, env=env, stdout=out, stderr=err
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    file_path = cwd / cmd.out_file if cmd.out_file else None
    output = Output(
        proc.returncode,
        (cwd / "stdout.bin").read_bytes(),
        file_path.read_bytes() if file_path and file_path.exists() else None,
    )
    return output, Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_pass(workload: Workload, seed: int, cwd: Path, env: dict[str, str]) -> tuple[list[Output], list[Sample]]:
    outputs, samples = [], []
    for cmd in workload.commands(seed):
        out, sample = run_command(cmd, cwd, env)
        outputs.append(out)
        samples.append(sample)
    return outputs, samples


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()[:16]


def digest(out: Output) -> dict:
    return {"rc": out.rc, "stdout": _sha(out.stdout), "file": _sha(out.file)}


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as f:
        return json.load(f)


def pinned_digests(workload: Workload, seed: int) -> list[dict] | None:
    """The pin of a seed whose commands are this seed's (any seed, for
    a workload whose commands ignore the seed)."""
    commands = workload.commands(seed)
    for pinned_seed, digests in load_expected().get(workload.name, {}).items():
        if workload.commands(int(pinned_seed)) == commands:
            return digests
    return None


class Ledger:
    """Counts attempted and failed commands and collects error messages."""

    def __init__(self, workload: Workload, pinned: list[dict] | None):
        self.workload = workload
        self.pinned = pinned is not None
        self.reference = pinned
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record_pass(self, outs: list[Output]) -> None:
        digests = [digest(o) for o in outs]
        if self.reference is None:
            self.reference = digests
        # later passes repeat the same inputs, so their digests carry the check
        problem = self.workload.check(outs) if self.passes == 0 else None
        self.passes += 1
        if problem:
            self.errors.append(problem)
        for d, want in zip(digests, self.reference):
            self.attempted += 1
            if problem or d["rc"] != 0 or d != want:
                self.failed += 1
                if not problem:
                    self.errors.append(f"digest {d} differs from {want}")

    def record_setup(self, out: Output) -> None:
        self.attempted += 1
        if out.rc != 0 or not out.stdout.startswith(b"ssf: true\n"):
            self.failed += 1
            self.errors.append(f"check exited {out.rc} printing {out.stdout[:40]!r}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def machine_facts() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_limit": THREAD_LIMIT,
    }


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes, median of 5 tries.

    The load average cannot see other tenants of the host; this can.
    It rises when the machine runs the same instructions more slowly.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fits_before(deadline: float, rounds: list[float]) -> bool:
    """Whether one more round, as long as the median round so far, ends
    by the deadline. A run stops before a round that would overrun it,
    so it lasts at most --seconds."""
    return time.perf_counter() + statistics.median(rounds) <= deadline


def measure_end_to_end(workload: Workload, seed: int, seconds: float, cwd: Path, ledger: Ledger) -> tuple[dict, dict]:
    env = child_env()

    def setup_round() -> float:
        total = 0.0
        for spec in workload.specs:
            out, sample = run_command(Command(("check", "--spec", spec)), cwd, env)
            ledger.record_setup(out)
            total += sample.wall_s
        return total

    setup, passes, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        setup.append(setup_round())
        outs, samples = run_pass(workload, seed, cwd, env)
        ledger.record_pass(outs)
        passes.append(samples)
        rounds.append(time.perf_counter() - start)
        if not fits_before(deadline, rounds) or any(o.rc < 0 for o in outs):
            break
    while len(setup) < SETUP_ROUNDS:
        setup.append(setup_round())
    walls = [sum(s.wall_s for s in p) for p in passes]
    per_pass_trials = workload.trials or 1
    metrics = {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(sum(s.cpu_s for s in p) for p in passes),
        "trials_per_s": per_pass_trials * len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in p) for p in passes),
        "setup_s": statistics.median(setup),
    }
    samples = {
        "setup_s": setup,
        "passes": [[s.__dict__ for s in p] for p in passes],
    }
    return metrics, samples


def measure_traced(workload: Workload, seed: int, seconds: float, cwd: Path, ledger: Ledger) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    outs, samples = run_pass(workload, seed, cwd, child_env())
    ledger.record_pass(outs)
    untraced_wall = sum(s.wall_s for s in samples)
    spans_path = RESULTS / f"{workload.name}-seed{seed}-spans.jsonl"
    metrics, detail = tracer.measure(workload, seed, cwd, deadline, untraced_wall, ledger, SRC, spans_path)
    return metrics, {"untraced_pass": [s.__dict__ for s in samples], **detail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nnsft" / "cli.py").is_file():
        print(f"error: no nnsft sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    ledger = Ledger(workload, pinned_digests(workload, args.seed))
    cwd = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    cwd.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    load_before, probe_before = os.getloadavg(), speed_probe()
    started = time.perf_counter()
    try:
        measure = measure_traced if args.trace else measure_end_to_end
        metrics, samples = measure(workload, args.seed, args.seconds, cwd, ledger)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    elapsed = time.perf_counter() - started
    load_after, probe_after = os.getloadavg(), speed_probe()

    unit = tracer.PER_LAYER if args.trace else END_TO_END
    facts = machine_facts()
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in unit.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": elapsed,
        "digests": "pinned" if ledger.pinned else "first pass",
        "machine": facts,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "speed_probe_before_s": probe_before,
        "speed_probe_after_s": probe_after,
        "errors": ledger.errors,
        "samples": samples,
        **result,
    }
    with open(RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {elapsed:.1f} s, "
          f"digests {record['digests']}")
    print(f"machine: nproc {facts['nproc']}, {facts['cpu_model']}, python {facts['python']}, "
          f"numpy {facts['numpy']}, load {load_before[0]:.2f} -> {load_after[0]:.2f}, "
          f"speed probe {probe_before * 1e3:.1f} -> {probe_after * 1e3:.1f} ms")
    for err in ledger.errors[:10]:
        print(f"ERROR: {err}")
    for name, u in unit.items():
        print(f"{name:32s} {metrics[name]!r} {u}")
    print(f"{'error_rate':32s} {ledger.failed / max(ledger.attempted, 1)!r} "
          f"({ledger.failed} of {ledger.attempted} commands failed)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
