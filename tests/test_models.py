import math

import numpy as np
import pytest

from subspace_est import constraints, models
from subspace_est.errors import (BoundViolated, ConstraintViolation,
                                 DimensionMismatch, NotPositiveDefinite,
                                 TooFewRows)
from subspace_est.estimators import spectral_estimate
from subspace_est.geometry import (SpectrumSpec, orthonormalize,
                                   procrustes_align, subspace_distance)


def test_model_spec_validation():
    with pytest.raises(DimensionMismatch):
        models.ModelSpec(family="denoising",
                         spectrum=SpectrumSpec.flat(3.0, 2), noise_sd=1.0,
                         seed=0, p1=10)  # p2 missing
    with pytest.raises(ValueError):
        models.ModelSpec(family="clustering",
                         spectrum=SpectrumSpec.flat(3.0, 2), noise_sd=1.0,
                         seed=0, n=8, p=12)  # clustering is rank one
    with pytest.raises(ValueError):
        models.ModelSpec(family="nosuch",
                         spectrum=SpectrumSpec.flat(3.0, 1), noise_sd=1.0, seed=0)
    spec = models.ModelSpec(family="wishart",
                            spectrum=SpectrumSpec.flat(3.0, 2), noise_sd=1.0,
                            seed=0, n=30, p=6)
    assert spec.frame_dim == 6
    # a sample covariance needs two rows
    for n in (1, -4):
        with pytest.raises(ValueError):
            models.ModelSpec(family="wishart",
                             spectrum=SpectrumSpec.flat(3.0, 1), noise_sd=1.0,
                             seed=0, n=n, p=6)
    assert models.ModelSpec(family="wishart",
                            spectrum=SpectrumSpec.flat(3.0, 1), noise_sd=1.0,
                            seed=0, n=2, p=6).n == 2
    for sd in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            models.ModelSpec(family="wigner",
                             spectrum=SpectrumSpec.flat(3.0, 1), noise_sd=sd,
                             seed=0, p=6)


# the dimensions each family reads, the estimated frame's first
_READ = {"denoising": {"p1": 10, "p2": 12}, "clustering": {"n": 10, "p": 12},
         "wishart": {"p": 6, "n": 30}, "wigner": {"p": 6}}


@pytest.mark.parametrize("family", sorted(_READ))
def test_model_spec_refuses_dimensions_the_family_does_not_read(family):
    def spec(**dims):
        return models.ModelSpec(family, SpectrumSpec.flat(3.0, 1), 1.0, seed=0, **dims)

    read = _READ[family]
    assert spec(**read).frame_dim == next(iter(read.values()))
    unread = [name for name in models.DIMENSIONS if name not in read]
    assert unread
    for name in unread:
        with pytest.raises(ValueError, match=f"{family} does not read {name}=5"):
            spec(**read, **{name: 5})
    for name in read:
        with pytest.raises(DimensionMismatch, match=f"{family} needs"):
            spec(**dict(read, **{name: None}))


def test_denoising_noiseless_recovers_truth():
    spec = models.ModelSpec(family="denoising",
                            spectrum=SpectrumSpec.flat(5.0, 2),
                            noise_sd=1e-12, seed=4, p1=20, p2=15)
    cset = constraints.unconstrained(20, 2)
    inst = models.sample_instance(spec, cset)
    top = spectral_estimate(inst.observation @ inst.observation.T, 2)
    assert subspace_distance(top, inst.truth_left) <= 1e-6


def test_denoising_observation_decomposition():
    # with the noise stream zeroed, Y must be exactly U diag(lam) V'
    spec = models.ModelSpec(family="denoising",
                            spectrum=SpectrumSpec(values=(6.0, 4.0), scale=5.0),
                            noise_sd=1e-300, seed=9, p1=12, p2=8)
    cset = constraints.unconstrained(12, 2)
    inst = models.sample_instance(spec, cset)
    rebuilt = (inst.truth_left.values * spec.spectrum.array) @ inst.truth_right.values.T
    assert np.max(np.abs(inst.observation - rebuilt)) <= 1e-12


def test_wishart_empirical_covariance():
    t, sigma, p = 3.0, 1.0, 5
    spec = models.ModelSpec(family="wishart",
                            spectrum=SpectrumSpec.flat(t, 1), noise_sd=sigma,
                            seed=12, n=50000, p=p)
    cset = constraints.unconstrained(p, 1)
    inst = models.sample_instance(spec, cset)
    u = inst.truth_left.values
    target = t * (u @ u.T) + sigma ** 2 * np.eye(p)
    empirical = models.sample_covariance(inst.observation)
    rel = np.linalg.norm(empirical - target) / np.linalg.norm(target)
    assert rel <= 0.05


def test_wigner_observation_symmetric():
    spec = models.ModelSpec(family="wigner",
                            spectrum=SpectrumSpec.flat(4.0, 2), noise_sd=1.0,
                            seed=8, p=15)
    inst = models.sample_instance(spec, constraints.unconstrained(15, 2))
    assert np.allclose(inst.observation, inst.observation.T, atol=1e-12)
    assert inst.truth_right is inst.truth_left


def test_wigner_noise_scale():
    # diagonal entries have variance sigma^2 and so do off-diagonal entries
    spec = models.ModelSpec(family="wigner",
                            spectrum=SpectrumSpec.flat(1e-300, 1),
                            noise_sd=2.0, seed=77, p=400)
    inst = models.sample_instance(spec, constraints.unconstrained(400, 1))
    y = inst.observation
    off = y[np.triu_indices(400, 1)]
    diag = np.diag(y)
    assert abs(np.std(off) - 2.0) <= 0.05
    assert abs(np.std(diag) - 2.0) <= 0.3


def test_clustering_shapes_and_labels():
    spec = models.ModelSpec(family="clustering",
                            spectrum=SpectrumSpec.flat(6.0, 1), noise_sd=1.0,
                            seed=5, n=12, p=30)
    cset = constraints.signs(12)
    inst = models.sample_instance(spec, cset)
    assert inst.observation.shape == (12, 30)
    assert np.all(np.abs(np.abs(inst.truth_left.values) - 1 / math.sqrt(12)) <= 1e-12)


def test_clustering_is_rank_one_denoising_of_the_n_by_p_matrix():
    spectrum = SpectrumSpec.flat(6.0, 1)
    clustering = models.ModelSpec(family="clustering", spectrum=spectrum,
                                  noise_sd=1.3, seed=21, n=14, p=9)
    denoising = models.ModelSpec(family="denoising", spectrum=spectrum,
                                 noise_sd=1.3, seed=21, p1=14, p2=9)
    cset = constraints.signs(14)
    for trial in (0, 5):
        a = models.sample_instance(clustering, cset, trial_index=trial)
        b = models.sample_instance(denoising, cset, trial_index=trial)
        assert np.array_equal(a.observation, b.observation)
        assert np.array_equal(a.truth_left.values, b.truth_left.values)
        assert np.array_equal(a.truth_right.values, b.truth_right.values)


@pytest.mark.parametrize("cset", [constraints.unconstrained(12, 1),
                                  constraints.nonneg(12, 1)])
def test_clustering_refuses_a_truth_other_than_a_sign_vector(cset):
    # the labels are the signs of the truth, so no other set plants one
    spec = models.ModelSpec(family="clustering",
                            spectrum=SpectrumSpec.flat(6.0, 1), noise_sd=1.0,
                            seed=5, n=12, p=30)
    with pytest.raises(ValueError, match=f"so needs signs, got {cset.kind}"):
        models.sample_instance(spec, cset)


def test_provided_truth_is_checked_against_constraint():
    spec = models.ModelSpec(family="denoising",
                            spectrum=SpectrumSpec.flat(4.0, 1), noise_sd=1.0,
                            seed=2, p1=10, p2=6)
    cset = constraints.nonneg(10, 1)
    bad = orthonormalize(-np.abs(np.random.default_rng(0).standard_normal((10, 1))))
    with pytest.raises(ConstraintViolation):
        models.sample_instance(spec, cset, truth_frame=bad)
    good = constraints.random_member(cset, 3)
    inst = models.sample_instance(spec, cset, truth_frame=good)
    assert subspace_distance(inst.truth_left, good) == 0.0


def test_instance_determinism_and_stream_separation():
    spec = models.ModelSpec(family="denoising",
                            spectrum=SpectrumSpec.flat(3.0, 2), noise_sd=1.0,
                            seed=42, p1=14, p2=9)
    cset = constraints.sparse(14, 2, 5)
    a = models.sample_instance(spec, cset, trial_index=3)
    b = models.sample_instance(spec, cset, trial_index=3)
    assert np.array_equal(a.observation, b.observation)
    assert np.array_equal(a.truth_left.values, b.truth_left.values)
    c = models.sample_instance(spec, cset, trial_index=4)
    assert not np.array_equal(a.observation, c.observation)


def test_instance_rng_matches_philox_spawn():
    direct = constraints.as_generator(99, 7).standard_normal(5)
    ss = np.random.SeedSequence(99, spawn_key=(7,))
    expected = np.random.Generator(np.random.Philox(ss)).standard_normal(5)
    assert np.array_equal(direct, expected)
    # an empty key is the plain seed's stream
    plain = np.random.Generator(np.random.Philox(np.random.SeedSequence(99)))
    assert np.array_equal(constraints.as_generator(99).standard_normal(5),
                          plain.standard_normal(5))


def test_sample_covariance_matches_manual():
    rng = np.random.default_rng(6)
    rows = rng.standard_normal((40, 3))
    got = models.sample_covariance(rows)
    centered = rows - rows.mean(axis=0)
    want = centered.T @ centered / 40
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(got, got.T)
    with pytest.raises(TooFewRows):
        models.sample_covariance(rows[:1])


def test_kl_spiked_wishart_matches_generic_gaussian():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = int(rng.integers(3, 21))
        r = int(rng.integers(1, 4))
        t = float(rng.uniform(0.5, 8.0))
        sigma = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(2, 60))
        ui = orthonormalize(rng.standard_normal((p, r)))
        uj = orthonormalize(rng.standard_normal((p, r)))
        closed = models.kl_spiked_wishart(ui, uj, t, sigma, n)
        cov0 = t * ui.values @ ui.values.T + sigma ** 2 * np.eye(p)
        cov1 = t * uj.values @ uj.values.T + sigma ** 2 * np.eye(p)
        generic = n * models.kl_gaussian_generic(np.zeros(p), cov0,
                                                 np.zeros(p), cov1)
        assert abs(closed - generic) <= 1e-8 * max(abs(generic), 1e-12)


def test_kl_gaussian_generic_against_one_dim_formula():
    # diagonal Gaussians decompose into sums of one-dimensional divergences
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = int(rng.integers(1, 6))
        m0, m1 = rng.standard_normal(p), rng.standard_normal(p)
        v0, v1 = rng.uniform(0.5, 3.0, p), rng.uniform(0.5, 3.0, p)
        got = models.kl_gaussian_generic(m0, np.diag(v0), m1, np.diag(v1))
        want = sum(0.5 * (math.log(v1[i] / v0[i])
                          + (v0[i] + (m0[i] - m1[i]) ** 2) / v1[i] - 1.0)
                   for i in range(p))
        assert abs(got - want) <= 1e-10
    assert models.kl_gaussian_generic(np.zeros(2), np.eye(2),
                                      np.zeros(2), np.eye(2)) == pytest.approx(0.0)


def test_kl_gaussian_generic_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        models.kl_gaussian_generic(np.zeros(2), np.diag([1.0, -1.0]),
                                   np.zeros(2), np.eye(2))


def test_kl_denoising_fixed_matches_vectorized_gaussian():
    rng = np.random.default_rng(19)
    for _ in range(50):
        p1 = int(rng.integers(3, 8))
        p2 = int(rng.integers(3, 8))
        r = int(rng.integers(1, min(p1, p2, 3) + 1))
        sigma = float(rng.uniform(0.5, 2.0))
        lam = np.sort(rng.uniform(2.0, 7.9, r))[::-1]
        spec = SpectrumSpec(values=tuple(lam), scale=4.0)
        ui = orthonormalize(rng.standard_normal((p1, r)))
        uj = orthonormalize(rng.standard_normal((p1, r)))
        v0 = orthonormalize(rng.standard_normal((p2, r)))
        got = models.kl_denoising_fixed(ui, uj, v0, spec, sigma)
        rot, resid = procrustes_align(ui, uj)
        mean_i = ((ui.values * lam) @ v0.values.T).ravel()
        mean_j = (((uj.values @ rot) * lam) @ v0.values.T).ravel()
        dim = p1 * p2
        want = models.kl_gaussian_generic(mean_i, sigma ** 2 * np.eye(dim),
                                          mean_j, sigma ** 2 * np.eye(dim))
        assert abs(got - want) <= 1e-8 * max(want, 0.0) + 1e-12
        assert got <= (lam[0] * resid) ** 2 / (2 * sigma ** 2) + 1e-9


def test_kl_denoising_fixed_above_residual_bound_raises(monkeypatch):
    rng = np.random.default_rng(23)
    ui = orthonormalize(rng.standard_normal((5, 1)))
    uj = orthonormalize(rng.standard_normal((5, 1)))
    v0 = orthonormalize(rng.standard_normal((4, 1)))
    rotation, _ = procrustes_align(ui, uj)
    monkeypatch.setattr(models, "procrustes_align", lambda a, b: (rotation, 0.0))
    with pytest.raises(BoundViolated):
        models.kl_denoising_fixed(ui, uj, v0, SpectrumSpec.flat(3.0, 1), 1.0)


def _wigner(seed=0, p=6, r=1):
    return models.ModelSpec("wigner", SpectrumSpec.flat(3.0, r), 1.0, seed=seed, p=p)


def _frame(p, r, seed=0):
    return orthonormalize(np.random.default_rng(seed).standard_normal((p, r)))


_SHAPE_REFUSALS = {
    "negative seed": (lambda: _wigner(seed=-1), ValueError, "seed must fit in 64 bits"),
    "seed past 64 bits": (lambda: _wigner(seed=2 ** 64), ValueError,
                          "seed must fit in 64 bits"),
    "rank above the frame": (lambda: _wigner(p=3, r=4), DimensionMismatch,
                             "rank exceeds p"),
    "constraint of another ambient": (
        lambda: models.sample_instance(_wigner(), constraints.unconstrained(7, 1)),
        DimensionMismatch, "constraint ambient 7 x 1 does not match model"),
    "constraint of another rank": (
        lambda: models.sample_instance(_wigner(p=6, r=2), constraints.unconstrained(6, 1)),
        DimensionMismatch, "constraint ambient 6 x 1 does not match model"),
    "wishart KL frames": (
        lambda: models.kl_spiked_wishart(_frame(6, 1), _frame(6, 2), 3.0, 1.0, 10),
        DimensionMismatch, "frame shapes differ"),
    "denoising KL frames": (
        lambda: models.kl_denoising_fixed(_frame(6, 1), _frame(5, 1), _frame(4, 1),
                                          SpectrumSpec.flat(3.0, 1), 1.0),
        DimensionMismatch, "frame shapes differ"),
    "denoising KL right frame": (
        lambda: models.kl_denoising_fixed(_frame(6, 2), _frame(6, 2, 1), _frame(4, 1),
                                          SpectrumSpec.flat(3.0, 2), 1.0),
        DimensionMismatch, "right frame width must match rank"),
    "generic KL shapes": (
        lambda: models.kl_gaussian_generic(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3)),
        DimensionMismatch, "mean/covariance shapes are inconsistent"),
    "covariance of a vector": (lambda: models.sample_covariance(np.ones(5)),
                               DimensionMismatch, "expected an n x p matrix"),
}


@pytest.mark.parametrize("case", sorted(_SHAPE_REFUSALS))
def test_spec_and_shape_refusals(case):
    build, error, message = _SHAPE_REFUSALS[case]
    with pytest.raises(error, match=message):
        build()
