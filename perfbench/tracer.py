"""In-process tracing of nnsft's layers, for the per-layer metrics.

The layers are the package's modules. The tracer wraps every public
function of each module in every module namespace that holds it:
harness and repair import bad_site_mask, birkhoff_sum and repair by
name, so patching only the defining module would miss their calls. It
also wraps the two `build` classmethods. A wrapped call records a span
(name, start, end, parent span, request id); the request id is the
trial index inside run_trial and the command's index in the pass
elsewhere. PerturbedPotential.value runs about 10^5 times per N = 128
trial, so it is counted and timed but records no span.

Spans stay in memory and the last pass's spans are written out as JSON
lines when the run ends. A layer's self time is its spans' durations
minus the time in which a child span ran, on any thread (the union of
the children's intervals, so two pool threads running trials at once
under run_experiment count once), and minus the counted calls made
directly in them. Metrics that need the
program's results (bad sites, runs, states, iterations) are read from
the wrapped calls' return values.

strip_entropy inlines its matvec, so the cost of one power iteration is
derived as strip_entropy_s / iterations, and matvec_bytes is computed
from the tensor size (cells * 8 bytes * m axis contractions per
iteration), not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import itertools
import json
import os
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import Output, Workload

LAYERS = ("cli", "lattice", "sft", "repair", "potentials", "harness", "entropy")
SPANNED_METHODS = (("potentials", "PerturbedPotential", "build"), ("entropy", "StripTransfer", "build"))
COUNTED_METHODS = (("potentials", "PerturbedPotential", "value"),)

PER_LAYER = {
    "cli.main_s": "s",
    "harness.run_experiment_s": "s",
    "harness.run_trial_s": "s",
    "harness.jobs_speedup": "ratio",
    "harness.sample_admissible_s": "s",
    "harness.corrupt_s": "s",
    "harness.check_shell_gaps_s": "s",
    "harness.check_average_bounds_s": "s",
    "harness.check_total_gap_s": "s",
    "potentials.value_calls": "count",
    "potentials.value_s": "s",
    "potentials.sample_perturbation_s": "s",
    "potentials.certify_norm_gap_s": "s",
    "potentials.birkhoff_sum_s": "s",
    "sft.violations_s": "s",
    "sft.bad_site_mask_s": "s",
    "sft.bad_site_mask_calls": "count",
    "sft.check_ssf_s": "s",
    "repair.repair_s": "s",
    "repair.bad_sites": "count",
    "repair.runs": "count",
    "repair.pending_ratio": "ratio",
    "repair.intermediate_mb": "MB_computed",
    "lattice.parse_window_s": "s",
    "lattice.render_window_s": "s",
    "entropy.build_s": "s",
    "entropy.strip_entropy_s": "s",
    "entropy.iterations": "count",
    "entropy.iteration_s": "s",
    "entropy.states": "count",
    "entropy.tensor_cells": "count",
    "entropy.matvec_bytes": "B_computed",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

# time spent in these calls, by span name
SPAN_TIMES = {
    "cli.main_s": "cli.main",
    "harness.run_experiment_s": "harness.run_experiment",
    "harness.run_trial_s": "harness.run_trial",
    "harness.sample_admissible_s": "harness.sample_admissible",
    "harness.corrupt_s": "harness.corrupt",
    "harness.check_shell_gaps_s": "harness.check_shell_gaps",
    "harness.check_average_bounds_s": "harness.check_average_bounds",
    "harness.check_total_gap_s": "harness.check_total_gap",
    "potentials.value_s": "potentials.PerturbedPotential.value",
    "potentials.sample_perturbation_s": "potentials.sample_perturbation",
    "potentials.certify_norm_gap_s": "potentials.certify_norm_gap",
    "potentials.birkhoff_sum_s": "potentials.birkhoff_sum",
    "sft.violations_s": "sft.violations",
    "sft.bad_site_mask_s": "sft.bad_site_mask",
    "sft.check_ssf_s": "sft.check_ssf",
    "repair.repair_s": "repair.repair",
    "lattice.parse_window_s": "lattice.parse_window",
    "lattice.render_window_s": "lattice.render_window",
    "entropy.build_s": "entropy.StripTransfer.build",
    "entropy.strip_entropy_s": "entropy.strip_entropy",
}


def _repair_facts(args, result):
    w, sft, n = args[:3]
    return (w.array, result.window.array, w.rect.x0, w.rect.y1, n, sft.h_table, sft.v_table,
            result.total_bad, sum(len(tuple(dec.iter_runs())) for dec in result.shells),
            sum(x.array.nbytes for x in result.intermediates))


def _entropy_facts(args, result):
    sft, width = args[:2]
    return sft.q, width, result.iterations, result.states


def _shell_gap_facts(args, report):
    return sum(row.size for row in report.rows), sum(row.pending for row in report.rows)


# what the metrics need from a call's arguments and return value; kept
# small so that large results (repair intermediates) are not held alive
FACTS = {
    "repair.repair": _repair_facts,
    "entropy.strip_entropy": _entropy_facts,
    "harness.check_shell_gaps": _shell_gap_facts,
}


def import_layers(src: Path) -> dict:
    """The nnsft modules, imported from the checkout's sources."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {layer: importlib.import_module(f"nnsft.{layer}") for layer in LAYERS}
    package = sys.modules["nnsft"]
    if Path(package.__file__).resolve().parent != (src / "nnsft").resolve():
        raise RuntimeError(f"imported nnsft from {package.__file__}, not from {src}")
    return modules


class _ThreadRecord:
    __slots__ = ("index", "stack", "spans", "counts")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[list] = []  # open spans: [span id, request id, counted calls' seconds]
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request, counted calls' seconds)
        self.counts: dict[str, list] = {}  # name -> [calls, seconds]


class Tracer:
    """Wraps the layers' functions; install() patches, restore() undoes it."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.request = 0
        self.facts: list[tuple[str, tuple]] = []  # (span name, FACTS of one call)
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[_ThreadRecord] = []
        self._main: _ThreadRecord | None = None

    # ----- recording -----

    def _record(self) -> _ThreadRecord:
        try:
            return self._local.record
        except AttributeError:
            with self._lock:
                rec = _ThreadRecord(len(self._threads))
                self._threads.append(rec)
            self._local.record = rec
            return rec

    def begin_pass(self) -> None:
        with self._lock:
            self._threads = []
        self._local = threading.local()
        self.facts = []
        self._main = self._record()

    def _span(self, name: str, fn):
        tracer = self
        facts = FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._record()
            stack = rec.stack
            main = tracer._main
            # a pool thread's first span hangs under the main thread's open span
            parent = stack[-1] if stack else (main.stack[-1] if main is not None and main.stack else None)
            if name == "harness.run_trial":
                request = args[1] if len(args) > 1 else kwargs["index"]
            else:
                request = parent[1] if parent else tracer.request
            frame = [next(tracer._ids), request, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                rec.spans.append((frame[0], name, start, end, parent[0] if parent else None, request, frame[2]))
            if facts:
                tracer.facts.append((name, facts(args, result)))
            return result

        wrapper._perfbench_wrapper = True
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                rec = tracer._record()
                count = rec.counts.setdefault(name, [0, 0.0])
                count[0] += 1
                count[1] += spent
                if rec.stack:
                    rec.stack[-1][2] += spent

        wrapper._perfbench_wrapper = True
        return wrapper

    # ----- patching -----

    def _targets(self) -> list:
        return [sys.modules["nnsft"], *self.modules.values()]

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._span(f"{layer}.{name}", fn)
                for target in self._targets():
                    if target.__dict__.get(name) is fn:
                        self._patch(target, name, wrapped)
        for layer, cls_name, meth in SPANNED_METHODS:
            cls = getattr(self.modules[layer], cls_name)
            fn = cls.__dict__[meth].__func__
            self._patch(cls, meth, classmethod(self._span(f"{layer}.{cls_name}.{meth}", fn)))
        for layer, cls_name, meth in COUNTED_METHODS:
            cls = getattr(self.modules[layer], cls_name)
            self._patch(cls, meth, self._counted(f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))

    def patched_count(self) -> int:
        return len(self._patches)

    def restore(self) -> list[str]:
        """Undo every patch; return the names of any wrapper still in place."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        owners = list(self._targets())
        owners += [getattr(self.modules[layer], cls) for layer, cls, _ in SPANNED_METHODS + COUNTED_METHODS]
        left = []
        for owner in owners:
            for attr, value in vars(owner).items():
                inner = value.__func__ if isinstance(value, classmethod) else value
                if getattr(inner, "_perfbench_wrapper", False):
                    left.append(f"{owner.__name__}.{attr}")
        return left

    # ----- one pass -----

    def run_pass(self, workload: Workload, seed: int, cwd: Path) -> tuple[list[Output], float]:
        """Run the workload's commands in-process through the CLI, wrapped
        when the tracer is installed."""
        self.begin_pass()
        main = self.modules["cli"].main
        outputs = []
        here = os.getcwd()
        os.chdir(cwd)
        start = time.perf_counter()
        try:
            for k, cmd in enumerate(workload.commands(seed)):
                self.request = k
                if cmd.out_file:
                    Path(cmd.out_file).unlink(missing_ok=True)
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        rc = main(list(cmd.args))
                except Exception:  # an uncaught error fails the command, as it would exit 1
                    traceback.print_exc()
                    rc = 1
                file = Path(cmd.out_file).read_bytes() if cmd.out_file and Path(cmd.out_file).exists() else None
                outputs.append(Output(rc, buf.getvalue().encode(), file))
        finally:
            elapsed = time.perf_counter() - start
            os.chdir(here)
        return outputs, elapsed

    def spans(self) -> list[tuple]:
        return [(rec.index, *span) for rec in self._threads for span in rec.spans]

    def counts(self) -> dict[str, list]:
        total: dict[str, list] = {}
        for rec in self._threads:
            for name, (calls, spent) in rec.counts.items():
                acc = total.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += spent
        return total


def pending_bad(before: np.ndarray, after: np.ndarray, x0: int, y1: int, n: int,
                h: np.ndarray, v: np.ndarray) -> tuple[int, int]:
    """(sum of |S_i|, sum of pending_i) over shells 0..n of one repair.

    pending_i counts the sites of shell i still bad when its turn comes.
    Repair writes each bad site once, shell by shell outward, so at
    shell i's turn every site of a smaller shell holds its final value
    and every other site its input value.
    """
    rows, cols = before.shape
    ys = np.abs(y1 - np.arange(rows))
    xs = np.abs(x0 + np.arange(cols))
    cheb = np.maximum.outer(ys, xs)
    site, d = before[1:, :-1], cheb[1:, :-1]
    right = np.where(cheb[1:, 1:] < d, after[1:, 1:], before[1:, 1:])
    up = np.where(cheb[:-1, :-1] < d, after[:-1, :-1], before[:-1, :-1])
    bad_in = (h[site, before[1:, 1:]] | v[site, before[:-1, :-1]]) & (d <= n)
    still_bad = bad_in & (h[site, right] | v[site, up])
    return int(bad_in.sum()), int(still_bad.sum())


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of some intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def pass_metrics(tracer: Tracer, pass_s: float) -> dict:
    """Per-layer metrics of the traced pass just run."""
    spent: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    spans = tracer.spans()
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    for _, sid, name, start, end, _, _, counted in spans:
        spent[name] = spent.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_s[name.split(".", 1)[0]] += (end - start) - _covered(children.get(sid, [])) - counted
    for name, (n, seconds) in tracer.counts().items():
        spent[name] = spent.get(name, 0.0) + seconds
        calls[name] = calls.get(name, 0) + n
        self_s[name.split(".", 1)[0]] += seconds

    m = {metric: spent.get(span, 0.0) for metric, span in SPAN_TIMES.items()}
    experiment = m["harness.run_experiment_s"]
    m["harness.jobs_speedup"] = m["harness.run_trial_s"] / experiment if experiment else 0.0
    m["potentials.value_calls"] = calls.get("potentials.PerturbedPotential.value", 0)
    m["sft.bad_site_mask_calls"] = calls.get("sft.bad_site_mask", 0)

    bad = runs = sizes = pending = intermediate = iterations = states = cells = moved = 0
    for name, facts in tracer.facts:
        if name == "repair.repair":
            *arrays, total_bad, run_count, nbytes = facts
            s, p = pending_bad(*arrays)
            bad += total_bad
            runs += run_count
            intermediate = max(intermediate, nbytes)
            sizes += s
            pending += p
        elif name == "entropy.strip_entropy":
            q, width, its, count = facts
            iterations += its
            states += count
            cells += q**width
            moved += q**width * 8 * width * its
    m["repair.bad_sites"] = bad
    m["repair.runs"] = runs
    m["repair.pending_ratio"] = pending / sizes if sizes else 0.0
    m["repair.intermediate_mb"] = intermediate / 2**20
    m["entropy.iterations"] = iterations
    m["entropy.iteration_s"] = m["entropy.strip_entropy_s"] / iterations if iterations else 0.0
    m["entropy.states"] = states
    m["entropy.tensor_cells"] = cells
    m["entropy.matvec_bytes"] = moved
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = len(spans)
    m["trace.traced_s"] = pass_s
    return m


def harness_pending(tracer: Tracer) -> tuple[int, int]:
    """(sum of |S_i|, sum of pending_i) as check_shell_gaps reported them."""
    sizes = pending = 0
    for name, facts in tracer.facts:
        if name == "harness.check_shell_gaps":
            sizes += facts[0]
            pending += facts[1]
    return sizes, pending


def write_spans(tracer: Tracer, path: Path) -> None:
    spans = tracer.spans()
    origin = min((s[3] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as f:
        for thread, sid, name, start, end, parent, request, _ in spans:
            f.write(json.dumps({
                "id": sid, "name": name, "start": start - origin, "end": end - origin,
                "parent": parent, "request": request, "thread": thread,
            }) + "\n")


def measure(workload: Workload, seed: int, cwd: Path, deadline: float, untraced_wall: float,
            ledger, src: Path, spans_path: Path) -> tuple[dict, dict]:
    """Pairs of in-process passes, untraced then traced, while another
    pair fits before the deadline (at least one pair); medians of their
    metrics.

    The tracer's overhead is the traced pass's time over the untraced
    pass's just before it. untraced_wall, one subprocess pass of the same
    inputs, is reported beside it as the cross-check against wall_s.
    """
    tracer = Tracer(import_layers(src))
    per_pass, rounds = [], []
    patched = 0
    while True:
        start = time.perf_counter()
        outs, untraced_s = tracer.run_pass(workload, seed, cwd)
        ledger.record_pass(outs)
        tracer.install()
        patched = tracer.patched_count()
        try:
            outs, pass_s = tracer.run_pass(workload, seed, cwd)
        finally:
            left = tracer.restore()
        if left:
            ledger.errors.append(f"wrappers left in place: {', '.join(left)}")
        ledger.record_pass(outs)
        m = pass_metrics(tracer, pass_s)
        m["trace.untraced_s"] = untraced_s
        m["trace.untraced_wall_s"] = untraced_wall
        m["trace.overhead_ratio"] = pass_s / untraced_s
        per_pass.append(m)
        rounds.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(rounds) > deadline or left:
            break
    for name, unit in PER_LAYER.items():
        if unit == "count" and len({p[name] for p in per_pass}) > 1:
            ledger.errors.append(f"{name} differs between passes of the same inputs")
    write_spans(tracer, spans_path)
    metrics = {
        name: (statistics.median_low if unit == "count" else statistics.median)(p[name] for p in per_pass)
        for name, unit in PER_LAYER.items()
    }
    return metrics, {"patched": patched, "passes": per_pass}
