import itertools

import numpy as np
import pytest

from subspace_est.constraints import (ConstraintSet, contains, nonneg,
                                      null_space_basis, parse_constraint,
                                      project, random_member, signs, sparse,
                                      subspace, unconstrained)
from subspace_est.errors import DegenerateInput, DimensionMismatch, RankDeficient
from subspace_est.geometry import OrthonormalFrame, orthonormalize, subspace_distance
from subspace_est.matio import write_matrix


def _haar(p, r, seed):
    rng = np.random.default_rng(seed)
    return orthonormalize(rng.standard_normal((p, r)))


def test_constraint_set_validation():
    with pytest.raises(ValueError):
        ConstraintSet("bogus", 4, 1)
    with pytest.raises(DimensionMismatch):
        ConstraintSet("none", 2, 3)
    with pytest.raises(ValueError):
        sparse(10, 2, 1)  # k < r
    with pytest.raises(ValueError):
        sparse(10, 2, 11)  # k > p
    with pytest.raises(ValueError):
        ConstraintSet("signs", 8, 2)
    for kind in ("nonneg", "signs", "none"):
        with pytest.raises(ValueError):
            ConstraintSet(kind, 8, 1, k=3)  # k only sizes sparse sets
    basis = _haar(10, 4, 0)
    with pytest.raises(ValueError):
        subspace(basis, 4)  # needs r < k
    with pytest.raises(ValueError):
        ConstraintSet("subspace", 9, 2, basis=basis)  # ambient mismatch
    cset = subspace(basis, 2)
    assert cset.k == 4


def test_nonneg_projection_rank_one_examples():
    cset = nonneg(2, 1)
    got = project(cset, np.array([0.6, -0.8]))
    assert np.array_equal(got.values, np.array([[1.0], [0.0]]))
    # all-negative input: falls back to the coordinate of the largest entry
    got = project(cset, np.array([-0.8, -0.6]))
    assert np.array_equal(got.values, np.array([[0.0], [1.0]]))


def test_sign_projection_matches_exhaustive():
    # entrywise sign is the exact minimizer of the projector distance
    rng = np.random.default_rng(7)
    for p in (4, 7, 10):
        cset = signs(p)
        for _ in range(30):
            v = orthonormalize(rng.standard_normal((p, 1)))
            got = project(cset, v)
            best = np.inf
            for bits in itertools.product((-1.0, 1.0), repeat=p):
                s = OrthonormalFrame(np.array(bits)[:, None] / np.sqrt(p))
                best = min(best, subspace_distance(s, v))
            assert subspace_distance(got, v) <= best + 1e-12


def test_sign_projection_zero_convention():
    got = project(signs(3), np.array([0.0, -0.5, 0.5]))
    assert np.array_equal(got.values[:, 0] * np.sqrt(3), [1.0, -1.0, 1.0])


def test_sparse_projection_fixed_point_and_sparsity():
    cset = sparse(30, 3, 7)
    for seed in range(20):
        member = random_member(cset, seed)
        again = project(cset, member)
        assert subspace_distance(member, again) <= 1e-9
    # dense input: every column of the output supported on at most k rows
    dense = _haar(30, 3, 99)
    out = project(cset, dense)
    assert np.all(np.sum(np.abs(out.values) > 0.0, axis=0) <= cset.k)
    assert contains(cset, out)


def test_sparse_projection_keeps_largest_rows():
    cset = sparse(6, 1, 2)
    v = np.array([0.1, 0.9, 0.05, -0.4, 0.0, 0.02])
    out = project(cset, v).values[:, 0]
    assert set(np.flatnonzero(out)) == {1, 3}
    # surviving block is the renormalized original
    want = np.array([0.9, -0.4]) / np.linalg.norm([0.9, -0.4])
    assert np.allclose(out[[1, 3]], want, atol=1e-12)


def test_nonneg_higher_rank_projection_feasible():
    rng = np.random.default_rng(3)
    cset = nonneg(8, 3)
    for _ in range(20):
        out = project(cset, rng.standard_normal((8, 3)))
        assert contains(cset, out)
        assert np.max(np.abs(out.values.T @ out.values - np.eye(3))) <= 1e-8


def test_subspace_projection_membership_idempotent():
    basis = _haar(10, 5, 11)
    cset = subspace(basis, 2)
    rng = np.random.default_rng(4)
    for _ in range(10):
        out = project(cset, rng.standard_normal((10, 2)))
        assert contains(cset, out)
        assert subspace_distance(out, project(cset, out)) <= 1e-9


def test_projection_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        project(nonneg(4, 1), np.zeros((5, 1)))


def test_null_space_basis():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 4))
    q = null_space_basis(a)
    assert (q.p, q.r) == (10, 6)
    assert np.max(np.abs(a.T @ q.values)) <= 1e-9
    assert np.max(np.abs(q.values.T @ q.values - np.eye(6))) <= 1e-9
    with pytest.raises(RankDeficient):
        null_space_basis(np.column_stack([a[:, 0], a[:, 0]]))
    with pytest.raises(DimensionMismatch):
        null_space_basis(a.T)


def test_random_member_membership_and_determinism():
    basis = _haar(12, 5, 21)
    csets = [
        sparse(12, 2, 5),
        nonneg(9, 1),
        nonneg(9, 3),
        subspace(basis, 2),
        signs(16),
        unconstrained(7, 3),
    ]
    for cset in csets:
        draws = [random_member(cset, seed) for seed in range(50)]
        for frame in draws:
            assert contains(cset, frame)
        again = random_member(cset, 0)
        assert np.array_equal(draws[0].values, again.values)
        assert not np.array_equal(draws[0].values, draws[1].values)


def test_parse_constraint(tmp_path):
    cset = parse_constraint("sparse:k=4", 10, 2)
    assert (cset.kind, cset.k) == ("sparse", 4)
    assert parse_constraint("nonneg", 10, 2).kind == "nonneg"
    assert parse_constraint("none", 10, 2).kind == "none"
    got = parse_constraint("signs", 10, 1)
    assert (got.kind, got.p, got.r) == ("signs", 10, 1)
    qpath = tmp_path / "q.csv"
    write_matrix(qpath, _haar(10, 4, 6).values)
    got = parse_constraint(f"subspace:qfile={qpath}", 10, 2)
    assert (got.kind, got.k) == ("subspace", 4)
    for bad in ("sparse:j=4", "subspace:file=x", "bogus", "nonneg:k=3",
                "signs:x", "none:k=1"):
        with pytest.raises(ValueError):
            parse_constraint(bad, 10, 2)


def test_contains_rejections():
    dense = _haar(12, 2, 8)
    assert not contains(sparse(12, 2, 3), dense)
    frame = _haar(6, 2, 9)
    if np.min(frame.values) < -1e-8:
        assert not contains(nonneg(6, 2), frame)
    basis = _haar(12, 4, 10)
    assert not contains(subspace(basis, 2), dense)
    assert not contains(signs(5), OrthonormalFrame(np.eye(5)[:, :1]))
    with pytest.raises(DimensionMismatch):
        contains(signs(5), OrthonormalFrame(np.eye(4)[:, :1]))


def test_sparse_contains_counts_support_rows():
    # two columns on disjoint 2-row supports use 4 rows, more than k = 2
    values = np.zeros((6, 2))
    values[[0, 1], 0] = values[[2, 3], 1] = 1.0 / np.sqrt(2.0)
    split = OrthonormalFrame(values)
    assert not contains(sparse(6, 2, 2), split)
    assert contains(sparse(6, 2, 4), split)
    with pytest.raises(DegenerateInput):
        project(sparse(6, 2, 2), split)
