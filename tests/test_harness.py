import csv
import dataclasses
import math

import numpy as np
import pytest

from subspace_est import cli, constraints, harness, models
from subspace_est.errors import BoundViolated, DegenerateInput
from subspace_est.estimators import EstimatorConfig
from subspace_est.geometry import (SpectrumSpec, orthonormalize,
                                   subspace_distance)
from subspace_est.harness import (PhaseTransitionFit, RiskEstimate, SweepRow,
                                  detect_phase_transition, fit_rate,
                                  monte_carlo_risk, run_trials,
                                  sweep, theory_rate)


def _wigner_model(p=8, t=6.0, sigma=1.0, seed=0, r=1):
    return models.ModelSpec("wigner", SpectrumSpec.flat(t, r), sigma,
                            seed=seed, p=p)


def _spectral():
    return EstimatorConfig(method="spectral")


def _losses(model, cset, config, trials):
    return [subspace_distance(result.frame, truth)
            for truth, (result,) in run_trials(model, cset, (config,), trials)]


def test_risk_estimate_validation():
    RiskEstimate(0.3, 0.01)
    for mean, stderr in ((-0.1, 0.01), (0.3, -0.01)):
        with pytest.raises(ValueError, match="must be non-negative"):
            RiskEstimate(mean, stderr)


def test_monte_carlo_risk_refuses_fewer_than_two_trials_before_sampling(monkeypatch):
    calls = []
    monkeypatch.setattr(models, "sample_instance", lambda *args, **kw: calls.append(args))
    for trials in (1, 0):
        with pytest.raises(ValueError, match="at least 2 trials"):
            monte_carlo_risk(_wigner_model(), constraints.unconstrained(8, 1), _spectral(),
                             trials=trials)
    assert calls == []


def test_run_trial_noiseless_bound_determinism():
    model = _wigner_model(sigma=1e-12)
    cset = constraints.unconstrained(8, 1)
    assert _losses(model, cset, _spectral(), 1)[0] <= 1e-6
    noisy = _wigner_model(t=0.5, sigma=2.0)
    vals = _losses(noisy, cset, _spectral(), 20)
    assert len(vals) == 20
    assert all(v <= math.sqrt(2.0) for v in vals)
    again = _losses(noisy, cset, _spectral(), 20)
    assert vals == again


def test_monte_carlo_risk_aggregation_matches_trials():
    model = _wigner_model(t=3.0)
    cset = constraints.unconstrained(8, 1)
    est = monte_carlo_risk(model, cset, _spectral(), trials=16)
    vals = np.array(_losses(model, cset, _spectral(), 16))
    assert est.mean_distance == np.mean(vals)
    assert est.stderr == np.std(vals, ddof=1) / math.sqrt(16)
    # first half of a doubled run is the same stream
    half = monte_carlo_risk(model, cset, _spectral(), trials=8)
    assert half.mean_distance == np.mean(vals[:8])


def test_monte_carlo_risk_same_at_every_block_size(monkeypatch):
    # weak signal and a 40-step cap: some loops converge, some hit the cap
    model = _wigner_model(p=12, t=2.5, seed=4, r=2)
    cset = constraints.sparse(12, 2, 4)
    config = EstimatorConfig(max_iter=40)
    trials = 7
    want = monte_carlo_risk(model, cset, config, trials)
    want_runs = list(run_trials(model, cset, (config,), trials))
    for size in (1, 3, trials):
        monkeypatch.setattr(harness, "BLOCK_BYTES", 8 * 12 * 12 * size)
        assert monte_carlo_risk(model, cset, config, trials) == want, size
        runs = list(run_trials(model, cset, (config,), trials))
        assert len(runs) == trials, size
        for (truth, (got,)), (ref_truth, (ref,)) in zip(runs, want_runs):
            assert np.array_equal(got.frame.values, ref.frame.values), size
            assert got.objective == ref.objective, size
            assert np.array_equal(truth.values, ref_truth.values), size
    assert want.mean_distance == np.mean(_losses(model, cset, config, trials))


def test_monte_carlo_risk_golden_bits():
    # seed-0 risks of the benchmark's risk-lowsnr and risk-sparse-small
    # commands, recorded when every trial ran its own power loop
    lowsnr = models.ModelSpec("denoising", SpectrumSpec.flat(2.0, 1), 1.0,
                              seed=0, p1=200, p2=400)
    est = monte_carlo_risk(lowsnr, constraints.nonneg(200, 1), EstimatorConfig(), 10)
    assert est.mean_distance.hex() == "0x1.3f51c17c865cap+0"
    assert est.stderr.hex() == "0x1.50a7b32e2dcd0p-7"
    sparse = models.ModelSpec("wigner", SpectrumSpec.flat(8.0, 2), 1.0,
                              seed=0, p=40)
    est = monte_carlo_risk(sparse, constraints.sparse(40, 2, 6), EstimatorConfig(), 50)
    assert est.mean_distance.hex() == "0x1.de776964c489dp-1"
    assert est.stderr.hex() == "0x1.97c28d46f88e1p-5"


def test_run_trial_loss_above_diameter_raises(monkeypatch):
    model = _wigner_model()
    cset = constraints.unconstrained(8, 1)
    monkeypatch.setattr(harness, "subspace_distance", lambda a, b: 2.0)
    with pytest.raises(BoundViolated):
        monte_carlo_risk(model, cset, _spectral(), 2)


def test_monte_carlo_risk_stderr_bound():
    model = _wigner_model(p=6, t=1.0, sigma=1.5)
    cset = constraints.unconstrained(6, 1)
    est = monte_carlo_risk(model, cset, _spectral(), trials=10000)
    # a variable bounded by sqrt(2r) keeps stderr under 0.05 sqrt(2r) here
    assert est.stderr <= 0.05 * math.sqrt(2.0)


def test_spec_digest_tracks_inputs():
    model = _wigner_model()
    cset = constraints.unconstrained(8, 1)
    a = harness.spec_digest(model, cset, _spectral())
    b = harness.spec_digest(model, cset, EstimatorConfig(method="spectral", tol=1e-6))
    c = harness.spec_digest(model, constraints.nonneg(8, 1), _spectral())
    d = harness.spec_digest(_wigner_model(seed=1), cset, _spectral())
    assert len({a, b, c, d}) == 4 and len(a) == 16
    assert harness.spec_digest(model, cset, _spectral()) == a


def test_theory_rate_values():
    # frozen from the closed-form rate expressions, evaluated independently
    den = models.ModelSpec("denoising", SpectrumSpec.flat(60.0, 2), 1.0,
                           seed=0, p1=200, p2=100)
    assert theory_rate(den, constraints.sparse(200, 2, 10)) == \
        pytest.approx(0.16023784407961264, rel=1e-12)
    wis = models.ModelSpec("wishart", SpectrumSpec.flat(5.0, 1), 1.0,
                           seed=0, n=200, p=50)
    assert theory_rate(wis, constraints.nonneg(50, 1)) == \
        pytest.approx(0.24494897427831777, rel=1e-12)
    basis = orthonormalize(np.random.default_rng(0).standard_normal((40, 6)))
    wig = models.ModelSpec("wigner", SpectrumSpec.flat(8.0, 2), 0.5,
                           seed=0, p=40)
    assert theory_rate(wig, constraints.subspace(basis, 2)) == \
        pytest.approx(0.15309310892394862, rel=1e-12)
    clu = models.ModelSpec("clustering", SpectrumSpec.flat(30.0, 1), 1.0,
                           seed=0, n=64, p=256)
    assert theory_rate(clu, constraints.signs(64)) == \
        pytest.approx(0.3022222222222222, rel=1e-12)


def test_theory_rate_caps():
    weak = models.ModelSpec("wigner", SpectrumSpec.flat(1e-6, 2), 1.0,
                            seed=0, p=12)
    assert theory_rate(weak, constraints.nonneg(12, 2)) == 1.0
    assert theory_rate(weak, constraints.unconstrained(12, 2)) == math.sqrt(2.0)


def test_sweep_singleton_matches_direct_risk():
    model = _wigner_model(t=4.0, seed=9)
    cset = constraints.unconstrained(8, 1)
    rows = sweep([{}], model, cset, _spectral(), trials=10)
    assert len(rows) == 1
    direct = monte_carlo_risk(model, cset, _spectral(), trials=10)
    assert rows[0].mean_d == direct.mean_distance
    assert rows[0].stderr == direct.stderr
    assert rows[0].theory_rate == theory_rate(model, cset)
    assert rows[0].seed == model.seed


def test_sweep_rows_and_knobs():
    model = _wigner_model(t=4.0, seed=100)
    cset = constraints.unconstrained(8, 1)
    grid = [{"t": 2.0}, {"t": 4.0, "sigma": 0.5}, {"p": 10}, {"r": 2}]
    rows = sweep(grid, model, cset, _spectral(), trials=4)
    assert [row.t for row in rows] == [2.0, 4.0, 4.0, 4.0]
    assert rows[1].sigma == 0.5
    assert rows[2].p == 10
    assert rows[3].r == 2
    assert [row.seed for row in rows] == [100, 101, 102, 103]
    with pytest.raises(ValueError):
        sweep([], model, cset, _spectral(), trials=4)
    with pytest.raises(ValueError):
        sweep([{"bogus": 1}], model, cset, _spectral(), trials=4)
    for no_k in (cset, constraints.nonneg(8, 1)):  # k only sizes sparse sets
        with pytest.raises(ValueError):
            sweep([{"k": 3}, {"k": 5}], model, no_k, _spectral(), trials=4)


def test_sweep_checks_every_grid_point_before_the_first_trial(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return monte_carlo_risk(*args)

    monkeypatch.setattr(harness, "monte_carlo_risk", counted)
    model = _wigner_model(t=4.0)
    cset = constraints.unconstrained(8, 1)
    for bad in ({"t": math.nan}, {"sigma": math.inf}, {"bogus": 1}):
        with pytest.raises(ValueError):
            sweep([{"t": 2.0}, {"t": 4.0}, bad], model, cset, _spectral(), trials=4)
    assert calls == []
    sweep([{"t": 2.0}, {"t": 4.0}], model, cset, _spectral(), trials=4)
    assert len(calls) == 2


def test_sweep_refuses_to_redimension_subspace():
    basis = orthonormalize(np.random.default_rng(1).standard_normal((8, 4)))
    cset = constraints.subspace(basis, 1)
    model = _wigner_model()
    with pytest.raises(ValueError, match="subspace basis"):
        sweep([{"p": 10}], model, cset, _spectral(), trials=2)


def test_sweep_risk_decreases_in_t():
    model = _wigner_model(p=12, seed=7)
    cset = constraints.unconstrained(12, 1)
    grid = [{"t": v} for v in (3.0, 6.0, 12.0, 24.0)]
    rows = sweep(grid, model, cset, _spectral(), trials=60)
    for lo, hi in zip(rows, rows[1:]):
        assert hi.mean_d <= lo.mean_d + 2.0 * (lo.stderr + hi.stderr)


def test_sweep_csv_round_trip(tmp_path):
    model = models.ModelSpec("denoising", SpectrumSpec.flat(9.0, 1), 1.0,
                             seed=3, p1=12, p2=18)
    cset = constraints.sparse(12, 1, 4)
    rows = sweep([{"t": 5.0}, {"k": 6}], model, cset,
                 EstimatorConfig(max_iter=50), trials=5)
    cli._write_outputs("sweep", {"out": str(tmp_path)}, {"sweep.csv": rows})
    path = tmp_path / "sweep.csv"
    header = path.read_text().splitlines()[0]
    assert header == "family,p1,p2,n,p,r,k,t,sigma,trials,seed,mean_d,stderr,theory_rate"
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    # unread dimensions are empty cells and floats keep 17 significant digits
    assert back[1:] == [["" if value is None else f"{value:.17g}" if isinstance(value, float)
                         else str(value) for value in dataclasses.astuple(row)]
                        for row in rows]
    assert back[1][back[0].index("n")] == ""
    column = back[0].index("mean_d")
    assert [float(record[column]) for record in back[1:]] == [row.mean_d for row in rows]


def test_fit_rate_exact_power_laws():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_rate(xs, 7.0 * xs ** 2)
    assert abs(fit.slope - 2.0) <= 1e-9
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-9)
    fit = fit_rate(xs, 3.0 / xs)
    assert abs(fit.slope + 1.0) <= 1e-9


def test_fit_rate_noisy_power_law():
    rng = np.random.default_rng(42)
    xs = np.geomspace(1.0, 100.0, 30)
    noise = rng.normal(0.0, 0.05, size=30)
    ys = np.exp(2.5 * np.log(xs) + 0.3 + noise)
    fit = fit_rate(xs, ys)
    lx = np.log(xs)
    resid = np.log(ys) - (fit.intercept + fit.slope * lx)
    se = math.sqrt(np.sum(resid ** 2) / (30 - 2) / np.sum((lx - lx.mean()) ** 2))
    assert abs(fit.slope - 2.5) <= 3.0 * se


def test_fit_rate_guards():
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        fit_rate([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def _rows_from_curve(ts, fn):
    return [SweepRow(family="wigner", r=1, t=float(t), sigma=1.0, trials=2,
                     seed=0, mean_d=float(fn(t)), stderr=0.0,
                     theory_rate=0.0, p=16) for t in ts]


def test_detect_phase_transition_synthetic_crossover():
    ts = np.geomspace(2.0, 2000.0, 12)
    # quadratic decay giving way to linear decay at t = 20, the shape of the
    # physical risk curve
    rows = _rows_from_curve(ts, lambda t: max(1.0 / t, 20.0 / t ** 2))
    fit = detect_phase_transition(rows)
    assert isinstance(fit, PhaseTransitionFit)
    assert abs(fit.slope_low + 2.0) <= 0.1
    assert abs(fit.slope_high + 1.0) <= 0.1
    step = ts[1] / ts[0]
    assert 20.0 / step <= fit.t_break <= 20.0 * step
    # the mirrored pairing crosses at the same point with the slopes swapped
    rows = _rows_from_curve(ts, lambda t: min(1.0 / t, 20.0 / t ** 2))
    fit = detect_phase_transition(rows)
    assert abs(fit.slope_low + 1.0) <= 0.1
    assert abs(fit.slope_high + 2.0) <= 0.1
    assert 20.0 / step <= fit.t_break <= 20.0 * step


def test_detect_phase_transition_pure_power_law():
    ts = np.geomspace(2.0, 2000.0, 12)
    rows = _rows_from_curve(ts, lambda t: 5.0 / t)
    fit = detect_phase_transition(rows)
    assert abs(fit.slope_low - fit.slope_high) <= 0.05
    # with no transition the tie-break pins the split at the low boundary
    assert fit.t_break <= ts[3]


def test_detect_phase_transition_guards():
    ts = np.geomspace(2.0, 2000.0, 7)
    rows = _rows_from_curve(ts, lambda t: 1.0 / t)
    with pytest.raises(DegenerateInput):
        detect_phase_transition(rows)
    ts = np.geomspace(2.0, 2000.0, 8)
    for bad in (dict(t=-1.0), dict(mean_d=0.0)):
        rows = _rows_from_curve(ts, lambda t: 1.0 / t)
        rows[4] = dataclasses.replace(rows[4], **bad)
        with pytest.raises(DegenerateInput, match="needs positive t and risk"):
            detect_phase_transition(rows)
    narrow = np.geomspace(2.0, 40.0, 12)
    rows = _rows_from_curve(narrow, lambda t: 1.0 / t)
    with pytest.raises(DegenerateInput):
        detect_phase_transition(rows)
    # a t value that repeats means a second knob varies: two curves, no one fit
    rows = _rows_from_curve(np.repeat(np.geomspace(2.0, 2000.0, 4), 2), lambda t: 1.0 / t)
    with pytest.raises(DegenerateInput, match="t values repeat"):
        detect_phase_transition(rows)
