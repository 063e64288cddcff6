"""Pin the exit codes and output digests of every workload for some seeds.

    python3 perfbench/pin.py --seeds 0-31

Runs one pass of each workload per seed, checks its outputs with the
workload's own check, and writes the digests into expected.json, keeping
pins for other seeds. A workload whose commands do not depend on the
seed keeps a single pin, which serves every seed. Pin a held-out seed
on the parent commit before measuring a change on it, so that the
change's outputs are compared with the parent's byte for byte.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import EXPECTED, OUT, WORKLOADS, child_env, digest, load_expected, run_pass


def parse_seeds(text: str) -> list[int]:
    """'0-9' or '1,5,7' or a mix: '0-3,10'."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    args = parser.parse_args()

    expected = load_expected()
    cwd = OUT / "pin"
    cwd.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        for name, workload in WORKLOADS.items():
            pins = expected.setdefault(name, {})
            fresh: set[str] = set()  # pins written by this run
            for seed in args.seeds:
                commands = workload.commands(seed)
                # the pin of an earlier seed with the same commands is this seed's pin
                key = next((s for s in pins if workload.commands(int(s)) == commands), str(seed))
                if key in fresh:
                    continue
                outs, _ = run_pass(workload, seed, cwd, env)
                problem = workload.check(outs)
                if problem:
                    print(f"error: {name} seed {seed}: {problem}", file=sys.stderr)
                    return 1
                pins[key] = [digest(o) for o in outs]
                fresh.add(key)
                print(f"pinned {name} seed {seed}" + ("" if key == str(seed) else f" as seed {key}"), flush=True)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
