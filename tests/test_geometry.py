import math

import numpy as np
import pytest

from subspace_est.errors import DimensionMismatch, RankDeficient
from subspace_est.geometry import (OrthonormalFrame, SpectrumSpec,
                                   check_orthonormal, orthonormalize,
                                   procrustes_align, quadratic_form_gap,
                                   subspace_distance)


def random_frame(rng, p, r):
    return orthonormalize(rng.standard_normal((p, r)))


def test_orthonormal_frame_validates():
    with pytest.raises(ValueError):
        OrthonormalFrame(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        OrthonormalFrame(np.eye(2, 3))  # p < r
    frame = OrthonormalFrame(np.array([1.0, 0.0, 0.0]))
    assert frame.p == 3 and frame.r == 1


def test_non_finite_frames_are_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            OrthonormalFrame(np.full((4, 1), bad))
        one_entry = np.eye(4, 2)
        one_entry[3, 1] = bad
        with pytest.raises(ValueError):
            OrthonormalFrame(one_entry)
    stack = np.stack([np.eye(5, 2)] * 3)
    check_orthonormal(stack)
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        check_orthonormal(stack)


def test_orthonormalize_scaled_identity_block():
    m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    out = orthonormalize(m)
    assert np.allclose(out.values, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))


def test_orthonormalize_keeps_direction():
    out = orthonormalize(np.array([[-2.0], [0.0]]))
    assert np.allclose(out.values, [[-1.0], [0.0]])


def test_orthonormalize_rank_deficient():
    with pytest.raises(RankDeficient):
        orthonormalize(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))


def test_orthonormalize_rank_threshold_is_singular_value_ratio():
    rng = np.random.default_rng(17)
    for r in (2, 3):
        w = random_frame(rng, 9, r).values
        v = random_frame(rng, r, r).values
        for ratio, deficient in ((1e-13, True), (1e-11, False)):
            s = np.geomspace(1.0, ratio, r) * 5.0
            m = (w * s) @ v.T
            if deficient:
                with pytest.raises(RankDeficient):
                    orthonormalize(m)
            else:
                assert orthonormalize(m).r == r


def test_spectrum_spec_validation():
    spec = SpectrumSpec(values=(4.0, 2.5), scale=3.0)
    assert spec.rank == 2
    assert np.allclose(spec.array, [4.0, 2.5])
    with pytest.raises(ValueError):
        SpectrumSpec(values=(2.5, 4.0), scale=3.0)  # increasing
    with pytest.raises(ValueError):
        SpectrumSpec(values=(40.0, 2.5), scale=3.0)  # outside [t/L, Lt]
    flat = SpectrumSpec.flat(5.0, 3)
    assert flat.values == (5.0, 5.0, 5.0)


def test_gram_identity_and_bounds_1000_pairs():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        p = int(rng.integers(2, 51))
        r = int(rng.integers(1, min(p, 5) + 1))
        u1, u2 = random_frame(rng, p, r), random_frame(rng, p, r)
        d = subspace_distance(u1, u2)
        gram = float(np.sum((u1.values.T @ u2.values) ** 2))
        assert abs(d * d - 2.0 * (r - gram)) <= 1e-9
        assert -1e-12 <= d <= math.sqrt(2 * r) + 1e-12
        assert subspace_distance(u2, u1) == d


def test_distance_is_zero_on_itself_and_basis_free():
    rng = np.random.default_rng(7)
    u = random_frame(rng, 12, 3)
    assert subspace_distance(u, u) == 0.0
    # an in-plane rotation changes the basis, not the subspace
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                    [math.sin(theta), math.cos(theta), 0.0],
                    [0.0, 0.0, 1.0]])
    assert subspace_distance(u, OrthonormalFrame(u.values @ rot)) <= 1e-13


def test_triangle_inequality():
    rng = np.random.default_rng(55)
    for _ in range(300):
        p = int(rng.integers(2, 30))
        r = int(rng.integers(1, min(p, 4) + 1))
        u1, u2, u3 = (random_frame(rng, p, r) for _ in range(3))
        assert subspace_distance(u1, u3) <= (
            subspace_distance(u1, u2) + subspace_distance(u2, u3) + 1e-12)


def test_procrustes_rank_one_matches_sign_search():
    rng = np.random.default_rng(21)
    for _ in range(200):
        p = int(rng.integers(2, 25))
        u1, u2 = random_frame(rng, p, 1), random_frame(rng, p, 1)
        rot, resid = procrustes_align(u1, u2)
        best = min(np.linalg.norm(u1.values - s * u2.values) for s in (1.0, -1.0))
        assert abs(resid - best) <= 1e-12
        assert abs(abs(rot[0, 0]) - 1.0) <= 1e-12


def test_procrustes_rank_two_matches_grid_search():
    rng = np.random.default_rng(22)
    thetas = np.linspace(0.0, 2.0 * math.pi, 20000, endpoint=False)
    for _ in range(10):
        p = int(rng.integers(3, 15))
        u1, u2 = random_frame(rng, p, 2), random_frame(rng, p, 2)
        _, resid = procrustes_align(u1, u2)
        best = math.inf
        for theta in thetas:
            c, s = math.cos(theta), math.sin(theta)
            for o in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
                best = min(best, float(np.linalg.norm(u1.values - u2.values @ o)))
        assert resid <= best + 1e-12
        assert resid >= best - 1e-6  # grid resolution slack


def test_procrustes_rotation_is_orthogonal_and_sandwich_holds():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        p = int(rng.integers(2, 40))
        r = int(rng.integers(1, min(p, 5) + 1))
        u1, u2 = random_frame(rng, p, r), random_frame(rng, p, r)
        rot, resid = procrustes_align(u1, u2)
        assert np.allclose(rot.T @ rot, np.eye(r), atol=1e-10)
        d = subspace_distance(u1, u2)
        assert d / math.sqrt(2.0) <= resid + 1e-9
        assert resid <= d + 1e-9


def test_quadratic_form_gap_matches_trace_oracle():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = int(rng.integers(2, 20))
        r = int(rng.integers(1, min(p, 4) + 1))
        u, w = random_frame(rng, p, r), random_frame(rng, p, r)
        lam = np.sort(rng.uniform(1.0, 3.9, size=r))[::-1]
        spec = SpectrumSpec(values=tuple(lam), scale=2.0)
        gap_matrix = u.values @ u.values.T - w.values @ w.values.T
        for mode, weights in (("squared", lam ** 2), ("linear", lam)):
            oracle = float(np.trace(
                (u.values * weights) @ u.values.T @ gap_matrix))
            value = quadratic_form_gap(u, spec, w, mode=mode)
            assert abs(value - oracle) <= 1e-9


def test_quadratic_form_sandwich_1000_triples():
    rng = np.random.default_rng(32)
    for _ in range(1000):
        p = int(rng.integers(2, 25))
        r = int(rng.integers(1, min(p, 4) + 1))
        u, w = random_frame(rng, p, r), random_frame(rng, p, r)
        lam = np.sort(rng.uniform(1.0, 3.9, size=r))[::-1]
        spec = SpectrumSpec(values=tuple(lam), scale=2.0)
        d2 = subspace_distance(u, w) ** 2
        squared = quadratic_form_gap(u, spec, w, mode="squared")
        assert (lam[-1] ** 2 / 2.0) * d2 - 1e-9 <= squared <= (lam[0] ** 2 / 2.0) * d2 + 1e-9
        linear = quadratic_form_gap(u, spec, w, mode="linear")
        assert (lam[-1] / 2.0) * d2 - 1e-9 <= linear <= (lam[0] / 2.0) * d2 + 1e-9


def test_distance_shape_mismatch():
    rng = np.random.default_rng(1)
    with pytest.raises(DimensionMismatch):
        subspace_distance(random_frame(rng, 5, 2), random_frame(rng, 6, 2))
