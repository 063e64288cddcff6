"""Run a set: each workload once per seed, then report every metric's
median, quartiles and spread across the seeds.

    python3 perfbench/sets.py --seeds 0-9
    python3 perfbench/sets.py --seeds 100-104 --workloads verify-n128 --trace 1

Each run is `run.py` in its own process, with BENCHMARK.json's
run_seconds. The spread is the distance
between the first and third quartile as a share of the median; an
end-to-end metric is steady when its spread is within a third of its
bound. The set, with the machine's facts and the load average and
speed probe before and after it, is written to .bench_out/sets/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pin import parse_seeds
from run import OUT, RESULTS, ROOT, WORKLOADS, machine_facts, speed_probe

HERE = Path(__file__).resolve().parent


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    load_before, probe_before = os.getloadavg(), speed_probe()
    started = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    runs: dict[str, list[dict]] = {}
    for name in args.workloads.split(","):
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            with open(RESULTS / f"{name}-seed{seed}-trace{args.trace}.json", encoding="utf-8") as f:
                result["speed_probe_s"] = json.load(f)["speed_probe_before_s"]
            result["seed"] = seed
            runs.setdefault(name, []).append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"speed probe {result['speed_probe_s'] * 1e3:.1f} ms", flush=True)
    load_after, probe_after = os.getloadavg(), speed_probe()

    summary: dict[str, dict] = {}
    for name, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        probe = statistics.median(r["speed_probe_s"] for r in results)
        print(f"\n{name}: {len(results)} runs, error_rate {failed / attempted!r} "
              f"({failed} of {attempted} commands failed), median speed probe {probe * 1e3:.1f} ms")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        summary[name] = {}
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "steady" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": first["unit"]}
            print(f"  {metric:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")

    sets = OUT / "sets"
    sets.mkdir(parents=True, exist_ok=True)
    path = sets / f"set-{started}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({
            "machine": machine_facts(), "seconds": seconds, "trace": args.trace,
            "seeds": args.seeds, "loadavg_before": load_before, "loadavg_after": load_after,
            "speed_probe_before_s": probe_before, "speed_probe_after_s": probe_after,
            "summary": summary, "runs": runs,
        }, f, indent=1)
    print(f"\nload {load_before[0]:.2f} -> {load_after[0]:.2f}, speed probe {probe_before * 1e3:.1f} -> "
          f"{probe_after * 1e3:.1f} ms; set written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
