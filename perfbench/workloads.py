"""The benchmark's workloads: the nnsft commands of one pass, and the
checks that their outputs are right.

A pass is one closed-loop sequence of CLI commands, each started only
after the previous one has exited. The commands of a pass depend only
on the workload and the benchmark seed, so repeating a pass must give
byte-identical outputs.

Besides the pinned digests (expected.json), every workload has a check
that does not trust the program's own code: verify's summary must
report every trial passed, a repaired window must be clean inside the
box and changed only at bad sites of its input (tested here with
numpy against the checkerboard rule), and strip entropies must match
reference values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Command:
    """One CLI invocation: nnsft arguments and the file it writes, if any."""

    args: tuple[str, ...]
    out_file: str | None = None


@dataclass(frozen=True)
class Output:
    """What one command left behind."""

    rc: int
    stdout: bytes
    file: bytes | None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[str, ...]  # spec of each `nnsft check` that times set-up
    trials: int             # verify trials per pass; 0 when a pass is not a verify run
    commands: Callable[[int], list[Command]]
    check: Callable[[list[Output]], str | None]  # error message, or None when right


VERIFY_HEADER = (
    "trial,seed,N,q,bad_total,bad_fraction,certified_gap,"
    "min_shell_margin,total_gap,total_bound,case1_status,all_pass"
)

N128_TRIALS = 3
N24_TRIALS = 100
SAMPLE_RADIUS = 384
CHECKERBOARD_Q = 5

# Strip values the current code prints, to 1e-8; states are exact
# (hard-square columns of height 20 are Fibonacci(22) = 17711; proper
# 5-colourings of a path of 8 are 5 * 4**7 = 81920).
ENTROPY_REFERENCE = {
    ("hardsquare", 20): (0.41084786284395214, 17711),
    ("checkerboard:5", 8): (1.2047016301071125, 81920),
}
ENTROPY_TOL = 1e-8


def _verify_commands(spec: str, size: int, trials: int, jobs: int) -> Callable[[int], list[Command]]:
    def commands(seed: int) -> list[Command]:
        return [Command((
            "verify", "--spec", spec, "--size", str(size), "--corrupt", "0.15",
            "--jobs", str(jobs), "--trials", str(trials), "--seed", str(seed),
        ))]
    return commands


def _check_verify(trials: int) -> Callable[[list[Output]], str | None]:
    def check(outs: list[Output]) -> str | None:
        (out,) = outs
        if out.rc != 0:
            return f"verify exited {out.rc}"
        lines = out.stdout.decode().splitlines()
        if not lines or lines[0] != VERIFY_HEADER:
            return "verify printed no CSV header"
        rows = [ln for ln in lines[1:] if not ln.startswith("#")]
        if len(rows) != trials or not all(r.endswith(",true") for r in rows):
            return f"verify printed {len(rows)} rows, not {trials} passing ones"
        summary = f"# summary: trials={trials} passed={trials} failed=0 "
        if not lines[-1].startswith(summary):
            return f"verify summary is {lines[-1]!r}"
        return None
    return check


def _sample_repair_commands(seed: int) -> list[Command]:
    spec = f"checkerboard:{CHECKERBOARD_Q}"
    return [
        Command(("sample", "--spec", spec, "--size", str(SAMPLE_RADIUS), "--corrupt", "0.3",
                 "--seed", str(seed), "--out", "w.txt"), "w.txt"),
        Command(("repair", "--spec", spec, "--window", "w.txt", "--out", "fixed.txt"), "fixed.txt"),
    ]


def _parse_window(text: bytes) -> tuple[tuple[int, ...], np.ndarray]:
    head, _, body = text.partition(b"\n")
    fields = head.split()
    if len(fields) != 5 or fields[0] != b"window":
        raise ValueError("no window header")
    arr = np.array(body.split(), dtype=np.int64)
    width, height = int(fields[3]), int(fields[4])
    return tuple(int(f) for f in fields[1:]), arr.reshape(height, width)


def _check_sample_repair(outs: list[Output]) -> str | None:
    sample, fixed = outs
    if sample.rc != 0 or fixed.rc != 0:
        return f"sample exited {sample.rc}, repair exited {fixed.rc}"
    r, n = SAMPLE_RADIUS, SAMPLE_RADIUS - 1
    if sample.stdout != f"wrote window radius={r} to w.txt\n".encode():
        return f"sample printed {sample.stdout[:80]!r}"
    try:
        head_in, before = _parse_window(sample.file or b"")
        head_out, after = _parse_window(fixed.file or b"")
    except ValueError as exc:
        return f"unreadable window: {exc}"
    side = 2 * r + 1
    if head_in != (-r, -r, side, side) or head_out != head_in:
        return f"window headers {head_in} and {head_out}"
    if before.min() < 0 or before.max() >= CHECKERBOARD_Q or after.min() < 0 or after.max() >= CHECKERBOARD_Q:
        return "symbol outside the alphabet"
    # checkerboard: a site is bad when it equals its right or its upper neighbour
    coord = np.abs(np.arange(side) - r)
    cheb = np.maximum.outer(coord, coord)  # Chebyshev norm of each array cell's site
    bad_in = np.zeros((side, side), dtype=bool)
    bad_in[1:, :-1] = (before[1:, :-1] == before[1:, 1:]) | (before[1:, :-1] == before[:-1, :-1])
    bad_in &= cheb <= n
    bad_total = int(bad_in.sum())
    want = f"repaired N={n} bad_total={bad_total} -> fixed.txt\n".encode()
    if fixed.stdout != want:
        return f"repair printed {fixed.stdout!r}, expected {want!r}"
    if np.any((before != after) & ~bad_in):
        return "repair changed a site that was not bad"
    inside = cheb <= n
    h_bad = (after[:, :-1] == after[:, 1:]) & inside[:, :-1] & inside[:, 1:]
    v_bad = (after[1:, :] == after[:-1, :]) & inside[1:, :] & inside[:-1, :]
    if h_bad.any() or v_bad.any():
        return "repaired window has a forbidden pair inside the box"
    return None


ENTROPY_RE = re.compile(rb"entropy_per_site (\S+) strip_width (\d+) states (\d+)\nlogarithm natural\n")


def _entropy_commands(seed: int) -> list[Command]:
    # strip entropy draws nothing at random: these inputs are the same for every seed
    return [Command(("entropy", "--spec", spec, "--strip-width", str(m))) for spec, m in ENTROPY_REFERENCE]


def _check_entropy(outs: list[Output]) -> str | None:
    for out, ((spec, m), (value, states)) in zip(outs, ENTROPY_REFERENCE.items()):
        match = ENTROPY_RE.fullmatch(out.stdout)
        if out.rc != 0 or not match:
            return f"entropy {spec} exited {out.rc} printing {out.stdout[:80]!r}"
        got_value, got_m, got_states = float(match[1]), int(match[2]), int(match[3])
        if got_m != m or got_states != states or abs(got_value - value) > ENTROPY_TOL:
            return f"entropy {spec}: {got_value} with {got_states} states, expected {value} with {states}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-n128",
            "the paper's non-vacuous regime; per-shell accounting, repair with intermediates "
            "and the big-window sampler",
            ("checkerboard:5",),
            N128_TRIALS,
            _verify_commands("checkerboard:5", 128, N128_TRIALS, 1),
            _check_verify(N128_TRIALS),
        ),
        Workload(
            "verify-n24-jobs2",
            "many small trials weight per-trial fixed costs; the only workload on the --jobs "
            "thread pool",
            ("hardsquare",),
            N24_TRIALS,
            _verify_commands("hardsquare", 24, N24_TRIALS, 2),
            _check_verify(N24_TRIALS),
        ),
        Workload(
            "sample-repair",
            "sampler, window text I/O, bad-site mask, decomposition and run fill under heavy "
            "corruption; no potentials",
            ("checkerboard:5",),
            0,
            _sample_repair_commands,
            _check_sample_repair,
        ),
        Workload(
            "entropy-strip",
            "the only entropy workload: a sparse state set (hard square, m=20) and a dense one "
            "(checkerboard:5, m=8)",
            ("hardsquare", "checkerboard:5"),
            0,
            _entropy_commands,
            _check_entropy,
        ),
    )
}
