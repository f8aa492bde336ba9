"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Stdlib and numpy only.  Synthetic spans pin the arithmetic; one tiny CLI
config checks that the tracer sees the layers and leaves no wrapper behind.
"""

import json
import math
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def span(sid, name, start, end, parent=-1, trial=-1, note=None):
    return (sid, name, start, end, parent, trial, note)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 3.0, 0),
                 span(2, "c", 1.5, 2.0, 1)]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[0], 8.0)
        self.assertAlmostEqual(selfs[1], 1.5)
        self.assertAlmostEqual(selfs[2], 0.5)

    def test_parallel_children_count_once(self):
        # two worker threads overlap on [2, 3]; a child running past the
        # parent's end only counts up to it
        spans = [span(0, "a", 0.0, 10.0), span(1, "b", 1.0, 3.0, 0),
                 span(2, "b", 2.0, 5.0, 0), span(3, "b", 7.0, 8.0, 0),
                 span(4, "b", 9.5, 11.0, 0)]
        self.assertAlmostEqual(tracing.self_times(spans)[0], 10.0 - 4.0 - 1.0 - 0.5)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_count(self):
        values = list(range(10, 0, -1))
        self.assertEqual(tracing.percentile(values, 50), (5.0, 10))
        self.assertEqual(tracing.percentile(values, 90), (9.0, 10))
        self.assertEqual(tracing.percentile(values, 100), (10.0, 10))
        self.assertEqual(tracing.percentile([7.0], 90), (7.0, 1))

    def test_empty(self):
        self.assertEqual(tracing.percentile([], 50), (0.0, 0))


class CountTest(unittest.TestCase):
    def test_restarts_are_nested_draws_past_a_random_init(self):
        it = "estimators.iterative_projection_estimate"
        rm = "constraints.random_member"
        spans = [
            span(0, it, 0, 10, note=(200, False, False)),
            span(1, rm, 1, 2, 0), span(2, rm, 3, 4, 0),
            span(3, it, 20, 30, note=(5, True, True)),
            span(4, rm, 21, 22, 3),
            span(5, "constraints.project", 22, 23, 3),
            span(6, rm, 23, 24, 5),  # inside project, not a restart
            span(7, rm, 40, 41),  # a truth draw outside any estimator
        ]
        self.assertEqual(tracing.count_restarts(spans), 2)

    def test_capped_levels_and_centers(self):
        budget = 1000
        logs = [math.log(1000)] * 3 + [math.log(999), math.log(10), 0.0]
        self.assertEqual(tracing.capped_levels(logs, budget), 3)
        self.assertEqual(tracing.net_centers(logs), 1000)
        self.assertEqual(tracing.capped_levels([0.0, 0.0], budget), 0)


class LayerMetricsTest(unittest.TestCase):
    def test_per_unit_normalisation(self):
        spans = [
            span(0, "cli.main", 0.0, 1.0),
            span(7, "cli.build_parser", 0.0, 0.02, 0),
            span(8, "constraints.parse_constraint", 0.02, 0.05, 0),
            span(1, "harness.monte_carlo_risk", 0.1, 0.9, 0, note=(2, 2)),
            span(2, "harness.run_trial", 0.1, 0.5, 1, 0, note=0.5),
            span(3, "harness.run_trial", 0.1, 0.9, 1, 1, note=0.7),
            span(4, "estimators.iterative_projection_estimate", 0.2, 0.5, 2, 0,
                 note=(3, True, False)),
            span(5, "geometry.subspace_distance", 0.3, 0.4, 4, 0, note=10),
            span(6, "estimators.iterative_projection_estimate", 0.2, 0.9, 3, 1,
                 note=(9, False, False)),
        ]
        m = tracing.layer_metrics(spans, units=2, commands=1)
        # main's own 150 ms plus build_parser's 20 ms; parsing is its own layer
        self.assertAlmostEqual(m["cli.self_ms"], 170.0)
        self.assertAlmostEqual(m["constraints.parse_ms"], 30.0)
        self.assertAlmostEqual(m["geometry.distance_ms"], 50.0)
        self.assertAlmostEqual(m["geometry.distance_calls"], 0.5)
        self.assertAlmostEqual(m["geometry.distance_mb_computed"], 3 * 100 * 8 / 1e6 / 2)
        self.assertAlmostEqual(m["estimators.loop_self_ms"], (200.0 + 700.0) / 2)
        self.assertEqual(m["estimators.iterations_p50"], 3.0)
        self.assertEqual(m["estimators.iterations_p90"], 9.0)
        self.assertEqual(m["estimators.iterations_samples"], 2)
        self.assertAlmostEqual(m["estimators.converged_frac"], 0.5)
        self.assertEqual(m["harness.trial_samples"], 2)
        self.assertAlmostEqual(m["harness.trial_ms_p90"], 800.0)
        self.assertEqual(m["harness.workers"], 2)
        self.assertAlmostEqual(m["harness.busy_share"], 1.2 / (0.8 * 2))
        self.assertEqual(set(m), set(tracing.PER_LAYER_UNITS) - {
            "trace.overhead_s", "trace.overhead_frac", "trace.spans"})


    def test_entropy_per_kind(self):
        de, rm = "entropy.dudley_estimate", "constraints.random_member"
        logs = (math.log(4), math.log(2), 0.0)
        spans = [
            span(0, de, 0.0, 1.0, note=(logs, 4, "sparse")),
            span(1, rm, 0.0, 0.1, 0), span(2, rm, 0.1, 0.2, 0),
            span(3, de, 2.0, 5.0, note=(logs, 4, "nonneg")),
            span(4, rm, 2.0, 4.0, 3),
            span(5, rm, 9.0, 9.5),  # a draw outside any estimate
        ]
        m = tracing.layer_metrics(spans, units=8, commands=2)
        self.assertAlmostEqual(m["entropy.net_self_s.sparse"], 0.8)
        self.assertAlmostEqual(m["entropy.draw_s.sparse"], 0.2)
        self.assertAlmostEqual(m["entropy.net_self_s.nonneg"], 1.0)
        self.assertAlmostEqual(m["entropy.draw_s.nonneg"], 2.0)
        self.assertAlmostEqual(m["entropy.net_self_s"], 0.9)
        self.assertAlmostEqual(m["entropy.draw_s"], 1.1)
        self.assertEqual(m["entropy.capped_levels"], 1)
        self.assertEqual(m["entropy.net_centers"], 4)


class CheckTest(unittest.TestCase):
    argv = ["risk", "--r", "1", "--trials", "4", "--seed", "3"]

    def risk(self, **over):
        base = {"mean_d": 0.5, "stderr": 0.01, "seed": 3, "trials": 4,
                "spec_digest": "abc"}
        base.update(over)
        return {"risk.json": json.dumps(base).encode()}

    def test_risk_invariants(self):
        self.assertEqual(run.check_command(self.argv, 0, self.risk()), [])
        self.assertTrue(run.check_command(self.argv, 0, self.risk(mean_d=1.5)))
        self.assertTrue(run.check_command(self.argv, 0, self.risk(trials=5)))
        self.assertTrue(run.check_command(self.argv, 4, self.risk()))
        self.assertTrue(run.check_command(self.argv, 0, {}))

    def test_risk_reference(self):
        ref = json.loads(self.risk()["risk.json"])
        self.assertEqual(run.check_command(self.argv, 0, self.risk(mean_d=0.53), ref), [])
        self.assertTrue(run.check_command(self.argv, 0, self.risk(mean_d=0.55), ref))
        self.assertTrue(run.check_command(self.argv, 0, self.risk(spec_digest="x"), ref))

    def test_entropy_invariants(self):
        argv = ["entropy", "--budget", "100"]
        good = {"epsilons": [0.1, 0.2, 0.3], "log_cover": [math.log(100), 1.0, 0.0],
                "dudley": 0.2, "dudley_prime": 0.1}
        files = {"entropy.json": json.dumps(good).encode()}
        self.assertEqual(run.check_command(argv, 0, files), [])
        bad = dict(good, log_cover=[1.0, 2.0, 0.0])
        self.assertTrue(run.check_command(argv, 0, {"entropy.json": json.dumps(bad).encode()}))
        self.assertTrue(run.check_command(argv, 0, files, {"dudley": 0.3}))

    def test_seed_zero_maps_to_the_cli_default(self):
        self.assertEqual(run.cli_seed(0, 0), 0)
        self.assertNotEqual(run.cli_seed(1, 0), run.cli_seed(0, 1))


class TinyConfigTest(unittest.TestCase):
    def test_traced_risk_run(self):
        bench = run.Bench("risk-lowsnr", 0)
        package = bench.package
        original_project = package.constraints.project
        original_check = package.geometry.OrthonormalFrame.__dict__["__post_init__"]
        out = run.WORK / "test-tiny"
        shutil.rmtree(out, ignore_errors=True)
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            self.assertIsNot(package.constraints.project, original_project)
            self.assertIs(package.estimators.orthonormalize, package.geometry.orthonormalize)
            rc = package.cli.main(["risk", "--family", "wigner", "--p", "8", "--r", "1",
                                   "--t", "6", "--sigma", "1", "--constraint", "nonneg",
                                   "--trials", "3", "--threads", "2", "--out", str(out)])
        finally:
            tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        self.assertEqual(rc, 0)
        self.assertIs(package.constraints.project, original_project)
        self.assertIs(package.geometry.OrthonormalFrame.__dict__["__post_init__"],
                      original_check)

        spans = tracer.spans
        by_id = {s[0]: s for s in spans}
        names = {s[1] for s in spans}
        for name in ("cli.main", "harness.monte_carlo_risk", "harness.run_trial",
                     "models.sample_instance", "estimators.spectral_estimate",
                     "geometry.orthonormalize", "geometry.subspace_distance",
                     "constraints.project", tracing.FRAME_CHECK):
            self.assertIn(name, names)
        trials = [s for s in spans if s[1] == "harness.run_trial"]
        self.assertEqual(sorted(s[5] for s in trials), [0, 1, 2])
        for s in spans:
            # every span, including those on pool threads, reaches cli.main
            root = s
            while root[4] != -1:
                root = by_id[root[4]]
            self.assertEqual(root[1], "cli.main")
            if s[1] == "geometry.subspace_distance":
                self.assertIn(s[5], (0, 1, 2))
        m = tracing.layer_metrics(spans, units=3, commands=1)
        self.assertEqual(m["harness.trial_samples"], 3)
        self.assertEqual(m["harness.workers"], 2)
        self.assertEqual(m["estimators.iterations_samples"], 3)
        self.assertGreater(m["geometry.frame_checks"], 0)
        self.assertEqual(m["estimators.restarts"], 0)
        self.assertEqual(run.check_losses(spans, 1), [])


if __name__ == "__main__":
    unittest.main()
