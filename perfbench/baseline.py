"""Run the benchmark over several seeds and summarize it.

    python3 perfbench/baseline.py [--traced] [--out FILE]
    python3 perfbench/baseline.py --record-reference

Runs perfbench/run.py on every workload for seeds 0-9, with the run length
from BENCHMARK.json, and prints every end-to-end metric by name and unit for
all workloads: median, quartiles, the quartile spread as a share of the
median next to the metric's bound, and failed_frac.  --traced adds one
traced run per workload (on seed 0) and its per-layer metrics.  --out writes
the whole summary, with the machine it ran on, as JSON.

--record-reference rewrites perfbench/reference.json from the seed-0 outputs
of the program as it is now; do that only when a change is meant to move
those outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        print(json.dumps(run.record_reference(), indent=2, sort_keys=True))
        return 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"machine": run.machine(), "run_seconds": spec["run_seconds"],
               "seeds": list(SEEDS), "workloads": {}}
    for workload in run.WORKLOADS:
        results = []
        for seed in SEEDS:
            results.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(f"# {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()),
                file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"failed_frac": failed / attempted, "attempted": attempted,
                 "end_to_end": {}}
        print(f"{workload}: failed_frac = {failed / attempted:.3g} ({failed} of {attempted})")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med, q1, q3, share = spread(values)
            entry["end_to_end"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                         "spread": share, "bound": bound,
                                         "values": values}
            print(f"{workload}: {name} = {med:.5g} {unit}  [q1 {q1:.5g}, q3 {q3:.5g}]  "
                  f"spread {share:.3f} of bound {bound}")
        if args.traced:
            traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_failed"] = traced["failed"]
            for name, metric in traced["metrics"].items():
                print(f"{workload}: {name} = {metric['value']:.5g} {metric['unit']}")
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
