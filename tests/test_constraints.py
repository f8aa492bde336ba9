import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_est import constraints
from subspace_est.constraints import (ConstraintSet, as_generator, contains,
                                      nonneg, parse_constraint, project, project_batch,
                                      random_member, random_members, signs,
                                      sparse, subspace, unconstrained)
from subspace_est.errors import DegenerateInput, DimensionMismatch
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


@st.composite
def _sets_and_stacks(draw):
    """A constraint set of any kind and a (B, p, r) stack for it whose slices
    are Gaussian, zero, column-duplicated (rank deficient for r > 1) or
    entrywise non-positive."""
    kind = draw(st.sampled_from(["sparse", "nonneg", "subspace", "signs", "none"]))
    p = draw(st.integers(3, 10))
    r = 1 if kind == "signs" else draw(
        st.integers(1, p - 2 if kind == "subspace" else min(3, p)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        cset = sparse(p, r, draw(st.integers(r, p)))
    elif kind == "subspace":
        k = draw(st.integers(r + 1, p - 1))
        cset = subspace(orthonormalize(rng.standard_normal((p, k))), r)
    else:
        cset = ConstraintSet(kind, p, r)
    flavors = draw(st.lists(st.sampled_from(["gauss", "zero", "dup", "nonpos"]),
                            min_size=1, max_size=5))
    stack = rng.standard_normal((len(flavors), p, r))
    for i, flavor in enumerate(flavors):
        if flavor == "zero":
            stack[i] = 0.0
        elif flavor == "dup":
            stack[i, :, -1] = stack[i, :, 0]
        elif flavor == "nonpos":
            stack[i] = -np.abs(stack[i])
    return cset, stack


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_sets_and_stacks())
def test_project_batch_properties(case):
    # per slice: equal to project bit for bit, idempotent, and in the set
    cset, stack = case
    members, ok = project_batch(cset, stack)
    assert members.shape == stack.shape and ok.shape == (len(stack),)
    for i in range(len(stack)):
        if not ok[i]:
            with pytest.raises(DegenerateInput):
                project(cset, stack[i])
            continue
        frame = project(cset, stack[i])
        assert np.array_equal(frame.values, members[i])
        assert contains(cset, frame)
        again, again_ok = project_batch(cset, members[i:i + 1])
        assert again_ok[0]
        assert np.max(np.abs(again[0] - members[i])) <= 1e-10


def test_random_members_match_consecutive_draws():
    # slice i is the i-th consecutive random_member draw on one generator,
    # and a draw split into blocks on one generator equals one call
    basis = _haar(12, 5, 21)
    csets = [sparse(12, 2, 5), nonneg(9, 1), nonneg(9, 3), nonneg(10, 2),
             subspace(basis, 2), signs(16), unconstrained(7, 3)]
    for cset in csets:
        for seed in (0, 5):
            stack = random_members(cset, seed, 40)
            assert stack.shape == (40, cset.p, cset.r)
            rng = as_generator(seed)
            for i in range(40):
                assert np.array_equal(stack[i], random_member(cset, rng).values)
            rng = as_generator(seed)
            blocks = [random_members(cset, rng, n) for n in (1, 3, 0, 7, 29)]
            assert np.array_equal(np.concatenate(blocks), stack)


def _project_nonneg_reference(m):
    """Alternating projection of one p x r slice, r > 1, one svd pair per
    round: the per-slice rule that project_batch runs as a stack."""
    r = m.shape[1]
    u = m.copy()
    for _ in range(50):
        clipped = np.clip(u, 0.0, None)
        if np.all(np.linalg.svd(clipped, compute_uv=False) < 1e-12):
            break
        w, _, vt = np.linalg.svd(clipped, full_matrices=False)
        nxt = w @ vt
        if np.linalg.norm(nxt - u) < 1e-10:
            u = nxt
            break
        u = nxt
    w = np.clip(u, 0.0, None)
    norms = np.linalg.norm(w, axis=0)
    if np.all(norms > 1e-12):
        cand = w / norms
        if np.max(np.abs(cand.T @ cand - np.eye(r))) <= 1e-12:
            return cand
    return constraints._disjoint_support_cleanup(w, m)


_DEGENERATE_MARK = 1234.5


def test_project_batch_nonneg_blocks_match_per_slice_reference(monkeypatch):
    # no finite input reaches the cleanup's DegenerateInput branch (p >= r
    # rows always leave a donor column with two rows), so a marked slice
    # raises it here to exercise the failure path of the stacked projection
    cleanup = constraints._disjoint_support_cleanup

    def marked_cleanup(w, original):
        if original[0, 0] == _DEGENERATE_MARK:
            raise DegenerateInput("marked slice")
        return cleanup(w, original)

    monkeypatch.setattr(constraints, "_disjoint_support_cleanup", marked_cleanup)
    rng = np.random.default_rng(12)
    for p, r in ((6, 2), (10, 3)):
        cset = nonneg(p, r)
        stack = rng.standard_normal((17, p, r))
        stack[2] = 0.0
        feasible = np.zeros((p, r))
        for j in range(r):
            feasible[2 * j:2 * j + 2, j] = 1.0 / np.sqrt(2.0)
        stack[5] = feasible
        stack[9, 0, 0] = _DEGENERATE_MARK
        stack[11] = -np.abs(stack[11])
        want, want_ok = [], []
        for s in stack:
            try:
                want.append(_project_nonneg_reference(s))
                want_ok.append(True)
            except DegenerateInput:
                want.append(None)
                want_ok.append(False)
        assert want_ok.count(False) == 1 and not want_ok[9]
        # the feasible slice is a fixed point: it leaves on the move test in
        # the first round and passes the feasibility check unchanged
        assert np.max(np.abs(want[5] - feasible)) <= 1e-12
        for size in (1, 3, 7):
            for start in range(0, len(stack), size):
                members, ok = project_batch(cset, stack[start:start + size])
                for i, (member, good) in enumerate(zip(members, ok)):
                    assert good == want_ok[start + i]
                    if good:
                        assert np.array_equal(member, want[start + i])
