"""Benchmark of the subspace-est command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  One process drives `subspace_est.cli.main` in a closed
loop, one command at a time, with the program's own defaults (worker count,
BLAS threading) left as a user gets them.  A pass is the workload's list of
commands; every pass uses fresh CLI seeds derived from --seed.

--trace 0 times whole passes with tracing off and reports the end-to-end
metrics.  --trace 1 alternates an untraced and a traced pass on the same
seeds, reports the per-layer metrics from the traced passes together with
the tracing overhead, and writes the spans to perfbench/.work/.

Every command's outputs are checked; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

_ENTROPY = ["entropy", "--p", "64", "--r", "2", "--budget", "1000"]

# workload -> the commands of one pass, without --seed and --out; README.md
# says why each workload exists
WORKLOADS = {
    "risk-lowsnr": [["risk", "--family", "denoising", "--p1", "200", "--p2", "400",
                     "--r", "1", "--t", "2", "--sigma", "1", "--constraint", "nonneg",
                     "--trials", "10"]],
    "risk-sparse-small": [["risk", "--family", "wigner", "--p", "40", "--r", "2",
                           "--t", "8", "--sigma", "1", "--constraint", "sparse:k=6",
                           "--trials", "50"]],
    "entropy-p64": [_ENTROPY + ["--constraint", "sparse:k=8"],
                    _ENTROPY + ["--constraint", "nonneg"]],
}

SETUP_PROBES = 7
# the seed-0 reference check allows this many reference standard errors on
# mean_d, and this relative error on the Dudley integral
REF_STDERRS = 4.0
REF_DUDLEY_REL = 0.05

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "SUBSPACE_EST_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def cli_seed(seed: int, index: int) -> int:
    """CLI seed of pass index under workload seed; seed 0 pass 0 is the CLI
    default seed 0, which the reference values are recorded for."""
    return (seed * 1_000_003 + index) % 2 ** 63


def _opts(argv) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def work_units(argv) -> int:
    """Trials of a risk command, budget draws of an entropy command."""
    opts = _opts(argv)
    return int(opts["--trials"] if argv[0] == "risk" else opts["--budget"])


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version",
                                                "openblas configuration")},
        "env": {key: os.environ.get(key) for key in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# output checks


def check_command(argv, rc, files, reference=None) -> list:
    """Problems with one command's exit code and outputs (empty if none).

    Invariants hold on every seed; reference values are compared only on the
    seed they were recorded for.  Timings never enter these outputs.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    opts = _opts(argv)
    problems = []
    if argv[0] == "risk":
        if "risk.json" not in files:
            return ["risk.json missing"]
        risk = json.loads(files["risk.json"])
        bound = math.sqrt(2 * int(opts["--r"])) + 1e-9
        if risk["seed"] != int(opts["--seed"]) or risk["trials"] != int(opts["--trials"]):
            problems.append(f"seed/trials {risk['seed']}/{risk['trials']} do not echo the command")
        if not 0.0 <= risk["mean_d"] <= bound:
            problems.append(f"mean_d {risk['mean_d']} outside [0, sqrt(2r)]")
        if not 0.0 <= risk["stderr"] < math.inf:
            problems.append(f"stderr {risk['stderr']} is not finite and non-negative")
        if reference is not None:
            for key in ("seed", "trials", "spec_digest"):
                if risk[key] != reference[key]:
                    problems.append(f"{key} {risk[key]!r} != reference {reference[key]!r}")
            if abs(risk["mean_d"] - reference["mean_d"]) > REF_STDERRS * reference["stderr"]:
                problems.append(f"mean_d {risk['mean_d']} is more than {REF_STDERRS} "
                                f"stderr from reference {reference['mean_d']}")
        return problems
    if "entropy.json" not in files:
        return ["entropy.json missing"]
    ent = json.loads(files["entropy.json"])
    logs, eps = ent["log_cover"], ent["epsilons"]
    cap = math.log(int(opts["--budget"])) + 1e-9
    if len(logs) != len(eps) or any(b <= a for a, b in zip(eps, eps[1:])):
        problems.append("epsilon grid is not strictly increasing or misaligned")
    if any(b > a + 1e-9 for a, b in zip(logs, logs[1:])):
        problems.append("log_cover increases with epsilon")
    if any(not 0.0 <= v <= cap for v in logs):
        problems.append("log_cover outside [0, log(budget)]")
    if not 0.0 <= ent["dudley"] < math.inf or not 0.0 <= ent["dudley_prime"] < math.inf:
        problems.append("Dudley integrals are not finite and non-negative")
    if reference is not None:
        rel = abs(ent["dudley"] - reference["dudley"]) / reference["dudley"]
        if rel > REF_DUDLEY_REL:
            problems.append(f"dudley {ent['dudley']} off reference {reference['dudley']} "
                            f"by {rel:.1%}")
    return problems


def check_losses(spans, rank: int) -> list:
    """Per-trial losses seen in traced passes must lie in [0, sqrt(2r)]."""
    bound = math.sqrt(2 * rank) + 1e-9
    bad = [s[6] for s in spans if s[1] == "harness.run_trial"
           and s[6] is not None and not 0.0 <= s[6] <= bound]
    return [f"{len(bad)} trial losses outside [0, sqrt(2r)]"] if bad else []


# --------------------------------------------------------------------------
# running passes


class Bench:
    """State of one benchmark run: the package, counters and problems."""

    def __init__(self, workload: str, seed: int):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import subspace_est
        import subspace_est.cli

        self.package = subspace_est
        self.workload = workload
        self.seed = seed
        self.commands = WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.workers = set()

    def _record(self, label: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def argv(self, index: int, j: int) -> list:
        out = WORK / self.workload / f"cmd{j}"
        return self.commands[j] + ["--seed", str(cli_seed(self.seed, index)),
                                   "--out", str(out)]

    def run_pass(self, index: int, tracer, reference=None, label="pass"):
        """Run every command of pass index under tracer; return the pass wall
        time, its stage time, and each command's output bytes."""
        wall = stage = 0.0
        outputs = []
        for j in range(len(self.commands)):
            argv = self.argv(index, j)
            out = Path(argv[-1])
            shutil.rmtree(out, ignore_errors=True)
            first = len(tracer.spans)
            start = time.perf_counter()
            try:
                rc = self.package.cli.main(argv)
            except Exception:  # a crash is a failed command, not a dead benchmark
                traceback.print_exc()
                rc = None
            wall += time.perf_counter() - start
            new = tracer.spans[first:]
            for s in new:
                if s[1] in tracing.STAGES:
                    stage += s[3] - s[2]
                    if s[1] == "harness.monte_carlo_risk" and s[6] is not None:
                        self.workers.add(s[6][0])
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))
                     if p.is_file()} if out.is_dir() else {}
            ref = reference[j] if reference is not None else None
            try:
                problems = check_command(argv, rc, files, ref)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"malformed output: {exc!r}"]
            problems += check_losses(new, int(_opts(argv)["--r"]))
            self._record(f"{label} {index} command {j}", problems)
            outputs.append(files)
        return wall, stage, outputs

    def compare(self, label: str, first, second) -> None:
        same = first == second
        self._record(label, [] if same else ["outputs differ between identical commands"])

    def probe_setup(self):
        """Seconds from spawning a fresh interpreter on the first command to
        the call that starts its trials or draws, or None on failure."""
        argv = self.argv(0, 0)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *argv],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            self._record("setup probe", ["timed out"])
            return None
        try:
            stop = float(proc.stdout.split()[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            stop = None
        if stop is None:
            self._record("setup probe", [f"exit code {proc.returncode}: {proc.stderr[-300:]}"])
            return None
        self._record("setup probe", [])
        return stop - start


def _reference(workload: str, seed: int):
    if seed != 0:
        return None
    return json.loads(REFERENCE.read_text())[workload]


def measure(bench: Bench, seconds: float, trace: bool):
    """A warm-up pass, then timed passes with tracing off; with trace, each
    timed pass is followed by a traced pass on the same seeds.

    Time metrics are totals over every timed pass divided by the work done:
    the machine's speed drifts over tens of seconds, so a total over the
    whole window is steadier than any one pass or the median pass.
    """
    setups = [] if trace else [
        s for s in (bench.probe_setup() for _ in range(SETUP_PROBES)) if s is not None]
    stage_tracer = tracing.Tracer()
    tracer = tracing.Tracer()

    def run_pass(index, traced, **kwargs):
        active = tracer if traced else stage_tracer
        active.install(bench.package, names=None if traced else tracing.STAGES)
        try:
            return bench.run_pass(index, active, **kwargs)
        finally:
            active.uninstall()

    _, _, warm = run_pass(0, False, reference=_reference(bench.workload, bench.seed),
                          label="warm-up")
    walls, stages, traced_walls = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        index = len(walls)
        wall, stage, outputs = run_pass(index, False)
        if index == 0:
            bench.compare("rerun of pass 0", warm, outputs)
        walls.append(wall)
        stages.append(stage)
        if trace:
            traced_wall, _, traced_out = run_pass(index, True, label="traced pass")
            bench.compare(f"traced pass {index} against untraced", outputs, traced_out)
            traced_walls.append(traced_wall)
    passes = len(walls)
    units = passes * sum(work_units(c) for c in bench.commands)
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, units, passes * len(bench.commands))
        metrics["trace.overhead_s"] = (sum(traced_walls) - sum(walls)) / passes
        metrics["trace.overhead_frac"] = sum(traced_walls) / sum(walls) - 1.0
        metrics["trace.spans"] = len(tracer.spans) / passes
        write_spans(tracer.spans, WORK / bench.workload / "spans.tsv")
        return metrics, walls
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": sum(walls) / passes,
        "throughput_per_s": units / sum(stages) if sum(stages) > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, walls


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("id\tname\tstart\tend\tparent\ttrial\n")
        for sid, name, start, end, parent, trial, _ in sorted(spans):
            fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent}\t{trial}\n")


def record_reference(path: Path = REFERENCE) -> dict:
    """Write the seed-0, pass-0 outputs of every workload as the reference."""
    reference = {}
    for workload in WORKLOADS:
        bench = Bench(workload, 0)
        tracer = tracing.Tracer()
        _, _, outputs = bench.run_pass(0, tracer)
        if bench.failed:
            raise RuntimeError("; ".join(bench.problems))
        reference[workload] = []
        for argv, files in zip(bench.commands, outputs):
            if argv[0] == "risk":
                risk = json.loads(files["risk.json"])
                reference[workload].append(
                    {k: risk[k] for k in ("mean_d", "stderr", "seed", "trials", "spec_digest")})
            else:
                reference[workload].append({"dudley": json.loads(files["entropy.json"])["dudley"]})
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subspace_est" / "cli.py").is_file():
        print(f"error: no subspace_est sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    bench = Bench(args.workload, args.seed)
    values, walls = measure(bench, args.seconds, bool(args.trace))
    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    settings = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "passes": len(walls), "commands": bench.commands,
                "workers": sorted(bench.workers), "pass_walls": walls,
                "machine": machine(),
                "failed_frac": bench.failed / bench.attempted, "problems": bench.problems}
    print(json.dumps({"settings": settings}, sort_keys=True))
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_frac = {settings['failed_frac']:.6g} "
          f"({bench.failed} of {bench.attempted})")
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
