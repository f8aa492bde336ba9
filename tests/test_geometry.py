import math
import warnings

import numpy as np
import pytest

from subspace_est import constraints, entropy, estimators, models
from subspace_est.errors import DimensionMismatch, RankDeficient
from subspace_est.geometry import (OrthonormalFrame, SpectrumSpec,
                                   check_orthonormal, orthonormalize,
                                   orthonormalize_batch, procrustes_align,
                                   quadratic_form_gap, subspace_distance)


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
    # refused before U'U is formed, so numpy warns about nothing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def _svd_rank_rule(stack):
    """The thin QR with diag(R) >= 0 as q * sign(diag R), sign(0) := 1, and
    the rank test from the singular values of every r x r factor R."""
    q, rfac = np.linalg.qr(stack)
    signs = np.sign(np.diagonal(rfac, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    sv = np.linalg.svd(rfac, compute_uv=False)
    return q * signs[:, None, :], ~((sv[:, 0] == 0.0) | (sv[:, -1] <= 1e-12 * sv[:, 0]))


def _adversarial_stack(rng, r):
    """Gaussian slices at three scales, exactly deficient slices, and slices
    of condition number near the 1e12 floor, of shape (r + 3) x r, with
    whether each is full rank (None on the floor, where rounding decides)."""
    p = r + 3
    gauss = rng.standard_normal((3, p, r))
    slices = [(gauss[0] * 1e-300, True), (gauss[1], True), (gauss[2] * 1e300, True),
              (np.zeros((p, r)), False)]
    if r > 1:
        zero_col, dup_col = rng.standard_normal((2, p, r))
        zero_col[:, -1] = 0.0
        dup_col[:, -1] = dup_col[:, 0]
        slices += [(zero_col, False), (dup_col, False)]
        for kappa, full in ((1e11, True), (5e11, True), (1e12, None), (2e12, False),
                            (1e13, False)):
            u = random_frame(rng, p, r).values
            v = random_frame(rng, r, r).values
            slices.append(((u * np.geomspace(1.0, 1.0 / kappa, r)) @ v.T, full))
        # deficient slices whose squares leave the normal range
        kappa13 = slices[-1][0]
        for scale in (1e-300, 1e-162, 1e300):
            slices += [(dup_col * scale, False), (kappa13 * scale, False)]
    stack, full_rank = zip(*slices)
    return np.stack(stack), full_rank


def test_rank_bound_agrees_with_singular_value_rule():
    # the determinant bound settles only slices the singular values would
    # call full rank, and the frames keep the q * sign bits
    rng = np.random.default_rng(23)
    for r in (1, 2, 3, 4):
        stack, expected = _adversarial_stack(rng, r)
        frames, full_rank = orthonormalize_batch(stack)
        want_frames, want_rank = _svd_rank_rule(stack)
        assert np.array_equal(full_rank, want_rank), r
        assert frames.tobytes() == want_frames.tobytes(), r
        assert all(want is None or got == want for got, want in zip(full_rank, expected)), r
        # a slice alone gives the same answer as in the stack
        for i, one in enumerate(stack):
            alone_frame, alone_rank = orthonormalize_batch(one[None])
            assert alone_rank[0] == full_rank[i] and np.array_equal(alone_frame[0], frames[i])
        # a non-finite slice is not full rank, with no SVD failure, and the
        # other slices keep their answers
        for bad in (np.nan, np.inf, -np.inf):
            poisoned = stack.copy()
            poisoned[1, 0, -1] = bad
            _, poisoned_rank = orthonormalize_batch(poisoned)
            assert not poisoned_rank[1], (r, bad)
            assert np.array_equal(np.delete(poisoned_rank, 1), np.delete(full_rank, 1)), (r, bad)


def test_spectrum_spec_validation():
    spec = SpectrumSpec(values=(4.0, 2.5), scale=3.0)
    assert spec.rank == 2
    assert np.allclose(spec.array, [4.0, 2.5])
    with pytest.raises(ValueError):
        SpectrumSpec(values=(2.5, 4.0), scale=3.0)  # increasing
    with pytest.raises(ValueError):
        SpectrumSpec(values=(40.0, 2.5), scale=3.0)  # outside [t/L, Lt]
    # a non-finite value or scale passes every order test, so it is named
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SpectrumSpec(values=(4.0, bad), scale=3.0)
        with pytest.raises(ValueError):
            SpectrumSpec(values=(bad, bad), scale=bad)
        with pytest.raises(ValueError):
            SpectrumSpec.flat(bad, 2)
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


_E52, _E62 = np.eye(5, 2), np.eye(6, 2)
_FLAT2 = SpectrumSpec.flat(2.0, 2)

_FRAME_REFUSALS = {
    "3-D frame": (lambda: OrthonormalFrame(np.zeros((2, 3, 1))),
                  DimensionMismatch, "expected a matrix"),
    "orthonormalize p < r": (lambda: orthonormalize(np.ones((2, 3))),
                             DimensionMismatch, "need p >= r"),
    "procrustes shapes": (lambda: procrustes_align(_E52, _E62),
                          DimensionMismatch, "frame shapes differ"),
    "quadratic form shapes": (lambda: quadratic_form_gap(_E52, _FLAT2, _E62),
                              DimensionMismatch, "frame shapes differ"),
    "quadratic form rank": (lambda: quadratic_form_gap(_E52, SpectrumSpec.flat(2.0, 1), _E52),
                            DimensionMismatch, "spectrum rank does not match"),
    "quadratic form mode": (lambda: quadratic_form_gap(_E52, _FLAT2, _E52, mode="cubic"),
                            ValueError, "unknown mode 'cubic'"),
}


@pytest.mark.parametrize("case", sorted(_FRAME_REFUSALS))
def test_frame_refusals(case):
    build, error, message = _FRAME_REFUSALS[case]
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("values, conditioning, error, message", [
    ((), 2.0, DimensionMismatch, "at least one value"),
    ((2.0, 0.0), 2.0, ValueError, "values must be positive"),
    ((2.0, -1.0), 2.0, ValueError, "values must be positive"),
    ((2.0,), 1.0, ValueError, "conditioning bound must exceed 1"),
    ((2.0,), 0.5, ValueError, "conditioning bound must exceed 1"),
])
def test_spectrum_spec_refusals(values, conditioning, error, message):
    with pytest.raises(error, match=message):
        SpectrumSpec(values=values, scale=2.0, conditioning=conditioning)


def _with_nan(m):
    m = np.array(m, dtype=float)
    m[0, 0] = np.nan
    return m


_FRAME, _MATRIX = np.eye(5, 2), np.eye(5)
_NONE52 = constraints.unconstrained(5, 2)

# every public entry that takes a frame or matrix argument, as (call with
# that argument, a valid argument, one of another shape or of another
# partner shape, the message that shape is refused with)
_ENTRIES = {
    "OrthonormalFrame": (OrthonormalFrame, _FRAME, np.ones((2, 3)), "need p >= r"),
    "orthonormalize": (orthonormalize, _FRAME, np.ones((2, 3)), "need p >= r"),
    "subspace_distance": (lambda u: subspace_distance(_FRAME, u), _FRAME, np.eye(6, 2),
                          "frame shapes differ"),
    "procrustes_align": (lambda u: procrustes_align(_FRAME, u), _FRAME, np.eye(6, 2),
                         "frame shapes differ"),
    "quadratic_form_gap": (lambda u: quadratic_form_gap(_FRAME, SpectrumSpec.flat(2.0, 2), u),
                           _FRAME, np.eye(5, 3), "frame shapes differ"),
    "project": (lambda u: constraints.project(_NONE52, u), _FRAME, np.eye(6, 2),
                "frame shapes differ"),
    "contains": (lambda u: constraints.contains(_NONE52, u), _FRAME, np.eye(6, 2),
                 "frame shapes differ"),
    "spectral_estimate": (lambda m: estimators.spectral_estimate(m, 1), _MATRIX,
                          np.eye(5, 4), "frame shapes differ"),
    "estimate": (lambda m: estimators.estimate(m, constraints.unconstrained(5, 1)), _MATRIX,
                 np.eye(5, 4), "frame shapes differ"),
    "exhaustive_argmax": (lambda m: estimators.exhaustive_argmax(constraints.signs(5), m),
                          _MATRIX, np.eye(6), r"objective stack is \(1, 6, 6\)"),
    "objective frame": (lambda u: estimators.objective(u, _MATRIX), _FRAME, np.ones((2, 3)),
                        "need p >= r"),
    "objective matrix": (lambda m: estimators.objective(_FRAME, m), _MATRIX, np.eye(6),
                         "frame shapes differ"),
    "sample_instance truth": (
        lambda u: models.sample_instance(
            models.ModelSpec("wigner", SpectrumSpec.flat(3.0, 2), 1.0, seed=0, p=5),
            _NONE52, truth_frame=u),
        _FRAME, np.eye(6, 2), "frame shapes differ"),
    "kl_spiked_wishart": (lambda u: models.kl_spiked_wishart(_FRAME, u, 3.0, 1.0, 10),
                          _FRAME, np.eye(6, 2), "frame shapes differ"),
    "kl_denoising_fixed": (
        lambda u: models.kl_denoising_fixed(_FRAME, u, np.eye(4, 2), SpectrumSpec.flat(3.0, 2),
                                            1.0),
        _FRAME, np.eye(6, 2), "frame shapes differ"),
    "kl_gaussian_generic": (
        lambda m: models.kl_gaussian_generic(np.zeros(5), m, np.zeros(5), _MATRIX),
        _MATRIX, np.eye(4), "frame shapes differ"),
    "dudley_estimate center": (lambda u: entropy.dudley_estimate(_NONE52, u, budget=20),
                               _FRAME, np.eye(6, 2), "frame shapes differ"),
    "greedy_local_packing center": (
        lambda u: entropy.greedy_local_packing(_NONE52, u, 0.5, 0.5, budget=20),
        _FRAME, np.eye(6, 2), "frame shapes differ"),
}

_BAD_INPUTS = {
    "NaN entry": (lambda good, shaped: _with_nan(good), ValueError, "non-finite entries"),
    "3-D array": (lambda good, shaped: np.stack([good, good]), DimensionMismatch,
                  "expected a matrix"),
    "wrong shape": (lambda good, shaped: shaped, DimensionMismatch, None),
}


@pytest.mark.parametrize("bad", sorted(_BAD_INPUTS))
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_every_entry_refuses_a_bad_frame_or_matrix_the_same_way(entry, bad):
    # one rule (geometry._as_matrix) decides, so no entry returns nan or
    # fails inside numpy with LinAlgError, AttributeError or a matmul or
    # reshape error
    call, good, shaped, shape_message = _ENTRIES[entry]
    make, error, message = _BAD_INPUTS[bad]
    call(good)
    with pytest.raises(error, match=message or shape_message) as raised:
        call(make(good, shaped))
    assert type(raised.value) in (ValueError, DimensionMismatch)
