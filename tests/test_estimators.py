import numpy as np
import pytest

from subspace_est import constraints, estimators, models
from subspace_est.errors import DimensionMismatch, TooLarge
from subspace_est.estimators import (EstimatorConfig, build_objective_matrix,
                                     estimate, exhaustive_argmax,
                                     iterative_projection_estimate, objective,
                                     objective_matrix, spectral_estimate)
from subspace_est.geometry import (OrthonormalFrame, SpectrumSpec,
                                   orthonormalize, subspace_distance)


def _haar(p, r, seed):
    rng = np.random.default_rng(seed)
    return orthonormalize(rng.standard_normal((p, r)))


def test_spectral_estimate_known_matrix():
    got = spectral_estimate(np.diag([5.0, 3.0, 1.0]), 2)
    assert np.array_equal(np.abs(got.values), np.eye(3)[:, :2])
    assert got.values[0, 0] == 1.0 and got.values[1, 1] == 1.0


def test_spectral_estimate_sign_convention():
    v = np.array([-0.6, 0.8])
    got = spectral_estimate(np.outer(v, v), 1)
    # largest-magnitude entry of each column is made positive
    assert np.allclose(got.values[:, 0], v, atol=1e-12)


def test_spectral_estimate_tied_eigenvalues_stable():
    got = spectral_estimate(np.eye(3), 2)
    assert np.array_equal(got.values, np.eye(3)[:, :2])


def test_spectral_estimate_errors():
    with pytest.raises(DimensionMismatch):
        spectral_estimate(np.zeros((3, 4)), 1)
    with pytest.raises(DimensionMismatch):
        spectral_estimate(np.eye(3), 4)


def test_objective_matrix_families():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((5, 8))
    assert np.array_equal(objective_matrix("denoising", y), y @ y.T)
    assert np.array_equal(objective_matrix("clustering", y), y @ y.T)
    assert np.allclose(objective_matrix("wishart", y),
                       models.sample_covariance(y), atol=1e-12)
    s = rng.standard_normal((5, 5))
    assert np.array_equal(objective_matrix("wigner", s), (s + s.T) / 2.0)
    with pytest.raises(DimensionMismatch):
        objective_matrix("bogus", y)


def test_build_objective_matrix_cross_check():
    spec = models.ModelSpec("wigner", 1, SpectrumSpec.flat(3.0, 1), 0.5,
                            seed=1, p=6)
    inst = models.sample_instance(spec, constraints.unconstrained(6, 1))
    m = build_objective_matrix(inst)
    assert np.array_equal(m, (inst.observation + inst.observation.T) / 2.0)
    with pytest.raises(DimensionMismatch):
        build_objective_matrix(inst, family="wishart")


def test_iterative_on_scaled_identity_converges_immediately():
    cset = constraints.unconstrained(5, 2)
    res = iterative_projection_estimate(3.0 * np.eye(5), cset)
    assert res.converged
    assert res.iterations == 1


def test_iterative_best_visited_invariant():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((20, 20))
    m = (a + a.T) / 2.0
    cset = constraints.sparse(20, 2, 6)
    res = iterative_projection_estimate(m, cset, EstimatorConfig(max_iter=40))
    assert res.objective == max(res.trace_path)
    assert abs(objective(res.frame, m) - res.objective) <= 1e-12
    assert len(res.trace_path) == res.iterations + 1


def test_iterative_noiseless_recovery_unconstrained():
    truth = _haar(15, 2, 5)
    m = (truth.values * [9.0, 4.0]) @ truth.values.T
    res = iterative_projection_estimate(m, constraints.unconstrained(15, 2))
    assert subspace_distance(res.frame, truth) <= 1e-6


def test_iterative_noiseless_recovery_sparse():
    cset = constraints.sparse(24, 2, 6)
    truth = constraints.random_member(cset, 8)
    m = (truth.values * [7.0, 3.0]) @ truth.values.T
    res = iterative_projection_estimate(m, cset)
    assert subspace_distance(res.frame, truth) <= 1e-6


def test_exhaustive_argmax_planted_pattern():
    s = np.array([1.0, -1.0, -1.0, 1.0, -1.0])
    m = np.outer(s, s)
    got = exhaustive_argmax(constraints.signs(5), m)
    # representative of the antipodal pair has leading entry +1
    assert np.allclose(got.values[:, 0] * np.sqrt(5), s, atol=1e-12)


def test_exhaustive_argmax_tie_breaks_lexicographically():
    got = exhaustive_argmax(constraints.signs(4), np.eye(4))
    assert np.allclose(got.values[:, 0], 0.5, atol=1e-15)


def test_exhaustive_argmax_guards():
    with pytest.raises(TooLarge):
        exhaustive_argmax(constraints.signs(21), np.eye(21))
    with pytest.raises(DimensionMismatch):
        exhaustive_argmax(constraints.nonneg(4, 1), np.eye(4))


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(method="downhill")
    with pytest.raises(ValueError):
        EstimatorConfig(init="warm")
    with pytest.raises(ValueError):
        EstimatorConfig(init="provided")
    with pytest.raises(ValueError):
        EstimatorConfig(max_iter=0)
    with pytest.raises(ValueError):
        EstimatorConfig(tol=0.0)
    cfg = EstimatorConfig(init="provided", init_frame=_haar(4, 1, 0))
    assert cfg.init_frame is not None


def test_estimate_dispatch_and_determinism():
    spec = models.ModelSpec("denoising", 1, SpectrumSpec.flat(30.0, 1), 1.0,
                            seed=3, p1=12, p2=18)
    cset = constraints.signs(12)
    inst = models.sample_instance(spec, cset)
    m = build_objective_matrix(inst)
    for method in ("iterative", "exhaustive", "spectral"):
        cfg = EstimatorConfig(method=method)
        first = estimate(m, cset, cfg).frame
        second = estimate(m, cset, cfg).frame
        assert np.array_equal(first.values, second.values)
        assert constraints.contains(cset, first)
    for method in ("exhaustive", "spectral"):
        result = estimate(m, cset, EstimatorConfig(method=method))
        assert result.iterations == 0 and result.converged
        assert result.objective == objective(result.frame, m)
    strong = estimate(m, cset, EstimatorConfig(method="exhaustive")).frame
    assert subspace_distance(strong, inst.truth_left) <= 0.5
