"""Seed 0 of every benchmark workload, run in process, against the exit
codes and output digests pinned in perfbench/expected.json, so that a
change to the printed output shows in the tier-1 suite. The benchmark's
files are only read."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from nnsft.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
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
