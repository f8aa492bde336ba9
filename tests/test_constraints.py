import itertools
import math

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
from subspace_est.geometry import (OrthonormalFrame, orthonormalize,
                                   orthonormalize_batch, subspace_distance)
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
    assert ConstraintSet("subspace", 10, 2, k=4, basis=basis) == cset
    with pytest.raises(ValueError, match="differs from the basis width 4"):
        ConstraintSet("subspace", 10, 2, k=6, basis=basis)
    for kind, k in (("nonneg", None), ("none", None), ("sparse", 4)):
        with pytest.raises(ValueError, match="takes no basis"):
            ConstraintSet(kind, 10, 2, k=k, basis=basis)
    with pytest.raises(ValueError, match="subspace constraint needs a basis"):
        ConstraintSet("subspace", 10, 2, k=4)


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


def test_sparse_row_selection_matches_stable_norm_order():
    # the kept rows are argsort(-np.linalg.norm(s, axis=2), kind="stable")[:k],
    # tied and zero rows included, and the row norms are np.linalg.norm's bits
    rng = np.random.default_rng(8)
    for r in range(1, 11):
        p, k = 3 * r + 5, r + 2
        stack = rng.standard_normal((5, p, r)) * rng.choice([1e-3, 1.0, 1e3], size=(5, p, 1))
        stack[1, 3] = stack[1, 6]
        stack[2, :p // 2] = 0.0
        stack[3, ::2] = stack[3, 0]
        stack[4, k - 1:k + 2] = -stack[4, k - 1]
        norms = np.linalg.norm(stack, axis=2)
        assert constraints._row_norms(stack).tobytes() == norms.tobytes(), r
        keep = np.sort(np.argsort(-norms, axis=1, kind="stable")[:, :k], axis=1)[:, :, None]
        block, want_ok = orthonormalize_batch(np.take_along_axis(stack, keep, axis=1))
        want = np.zeros_like(stack)
        np.put_along_axis(want, keep, block, axis=1)
        members, ok = project_batch(sparse(p, r, k), stack)
        assert members.tobytes() == want.tobytes() and np.array_equal(ok, want_ok), r


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
    for stack in (np.zeros((2, 5, 1)), np.zeros((5, 1))):
        with pytest.raises(DimensionMismatch, match="constraint ambient is 4 x 1"):
            project_batch(nonneg(4, 1), stack)


def test_projection_rejects_non_finite_input():
    basis = _haar(6, 3, 5)
    csets = [sparse(6, 2, 3), nonneg(6, 1), nonneg(6, 2), subspace(basis, 2),
             signs(6), unconstrained(6, 2)]
    for cset in csets:
        for bad in (np.nan, np.inf, -np.inf):
            u = np.random.default_rng(1).standard_normal((6, cset.r))
            u[2, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                project(cset, u)


def test_stacked_projection_of_a_non_finite_slice_has_no_member():
    # kinds whose rule ends in a thin QR read a NaN slice as rank deficient,
    # with no SVD failure, and the other slices keep their members
    basis = _haar(6, 3, 5)
    for cset in (sparse(6, 2, 6), subspace(basis, 2), unconstrained(6, 2)):
        stack = np.random.default_rng(2).standard_normal((3, 6, 2))
        want, _ = project_batch(cset, stack)
        stack[1, 4, 1] = np.nan
        members, ok = project_batch(cset, stack)
        assert list(ok) == [True, False, True], cset.kind
        assert np.array_equal(members[[0, 2]], want[[0, 2]]), cset.kind


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
    qpath = tmp_path / "q.csv"
    basis = _haar(10, 4, 6)
    write_matrix(qpath, basis.values)
    for text, want in (("sparse:k=4", sparse(10, 2, 4)), ("nonneg", nonneg(10, 2)),
                       ("none", unconstrained(10, 2)),
                       (f"subspace:qfile={qpath}", subspace(basis, 2))):
        got = parse_constraint(text, 10, 2)
        assert (got.kind, got.p, got.r, got.k) == (want.kind, want.p, want.r, want.k)
    assert np.array_equal(got.basis.values, basis.values)
    assert parse_constraint("signs", 10, 1) == signs(10)
    for bad in ("sparse:j=4", "subspace:file=x", "bogus", "nonneg:k=3",
                "signs:x", "none:k=1", "nonneg:k=2", "sparse", "sparse:q=3",
                "subspace:k=3", "nonneg:"):
        with pytest.raises(ValueError, match="constraint"):
            parse_constraint(bad, 10, 2)
    # the basis must span the frames' dimension
    with pytest.raises(ValueError, match="subspace basis must be p x k"):
        parse_constraint(f"subspace:qfile={qpath}", 12, 2)


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
             subspace(basis, 2), signs(1), signs(7), signs(16), unconstrained(7, 3)]
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


def _column_value(m, rows, j):
    """Worth of column j on its owned rows: the norm of their positive part,
    or the best owned entry where none is positive; None for no rows."""
    if not rows:
        return None
    mass = sum(max(m[i, j], 0.0) * max(m[i, j], 0.0) for i in rows)
    return math.sqrt(mass) if mass > 0.0 else max(m[i, j] for i in rows)


def _project_nonneg_reference(m):
    """The assignment projection of one p x r slice, r > 1, move by move:
    the per-slice rule that project_batch runs as a stack."""
    p, r = m.shape
    owner = [int(np.argmax(row)) for row in m]
    while True:
        cols = [[i for i in range(p) if owner[i] == j] for j in range(r)]
        values = [_column_value(m, rows, j) for j, rows in enumerate(cols)]
        filling = None in values
        best = None
        for j in range(r):
            if filling and values[j] is not None:
                continue
            for i in range(p):
                a = owner[i]
                if a == j or len(cols[a]) == 1:
                    continue
                gain = (_column_value(m, [k for k in cols[a] if k != i], a) - values[a]
                        + _column_value(m, cols[j] + [i], j) - (values[j] or 0.0))
                if best is None or gain > best[0]:
                    best = (gain, i, j)
        scale = sum(abs(v) for v in values if v is not None)
        if not filling and not best[0] > 1e-12 * scale:
            break
        owner[best[1]] = best[2]
    out = np.zeros((p, r))
    for j in range(r):
        rows = [i for i in range(p) if owner[i] == j]
        mass = sum(max(m[i, j], 0.0) * max(m[i, j], 0.0) for i in rows)
        if mass > 0.0:
            out[rows, j] = np.clip(m[rows, j], 0.0, None) / math.sqrt(mass)
        else:
            out[rows[int(np.argmax(m[rows, j]))], j] = 1.0
    return out


def test_project_batch_nonneg_blocks_match_per_slice_reference():
    rng = np.random.default_rng(12)
    for p, r in ((6, 2), (10, 3)):
        cset = nonneg(p, r)
        stack = rng.standard_normal((17, p, r))
        stack[2] = 0.0
        feasible = np.zeros((p, r))
        for j in range(r):
            feasible[2 * j:2 * j + 2, j] = 1.0 / np.sqrt(2.0)
        stack[5] = feasible
        stack[11] = -np.abs(stack[11])
        want = [_project_nonneg_reference(s) for s in stack]
        # a member is a fixed point: its row-argmax is its own support, and
        # no move gains
        assert np.max(np.abs(want[5] - feasible)) <= 1e-12
        for size in (1, 3, 7):
            for start in range(0, len(stack), size):
                members, ok = project_batch(cset, stack[start:start + size])
                assert ok.all()
                for i, member in enumerate(members):
                    assert np.array_equal(member, want[start + i])


def test_project_batch_nonneg_tiny_clips_match_reference():
    # tiny positive entries, a single one or a whole column, on either side
    # of 1e-12: a column keeps any positive mass, however small
    rng = np.random.default_rng(21)
    for p, r in ((8, 2), (9, 3)):
        cset = nonneg(p, r)
        slices = [rng.standard_normal((p, r))]
        for value in (1e-13, 1.5e-12, 2e-12, 5e-12):
            single = -np.abs(rng.standard_normal((p, r)))
            single[3, 1] = value
            column = -np.abs(rng.standard_normal((p, r)))
            column[:, 0] = value
            slices += [single, column, rng.standard_normal((p, r))]
        slices.append(-np.abs(rng.standard_normal((p, r))))
        stack = np.stack(slices)
        want = [_project_nonneg_reference(s) for s in stack]
        for size in (1, 3, 7):
            for start in range(0, len(stack), size):
                members, ok = project_batch(cset, stack[start:start + size])
                assert ok.all()
                for i, member in enumerate(members):
                    assert np.array_equal(member, want[start + i])


def _enumerated_max(m):
    """max <W, S> over the non-negative members by full enumeration of the
    row-to-column assignments: a column is worth the norm of its positive
    part, or its best entry where none is positive, and giving a row to some
    column never lowers that column's worth."""
    p, r = m.shape
    owner = np.array(list(itertools.product(range(r), repeat=p)))
    onehot = owner[:, :, None] == np.arange(r)
    pos = np.clip(m, 0.0, None)
    mass = np.sum(np.where(onehot, pos * pos, 0.0), axis=1)
    best = np.max(np.where(onehot, m, -np.inf), axis=1)
    return float(np.max(np.sum(np.where(mass > 0.0, np.sqrt(mass), best), axis=1)))


@pytest.mark.parametrize("p, r", [(8, 2), (10, 2), (7, 3)])
def test_nonneg_projection_matches_enumeration_oracle(p, r):
    # the assignment projection reaches the exact maximum of <W, S> on at
    # least 95 % of Gaussian inputs, with a mean gap of at most 0.01
    rng = np.random.default_rng(2024 + 100 * p + r)
    stack = rng.standard_normal((200, p, r))
    members, ok = project_batch(nonneg(p, r), stack)
    assert ok.all()
    got = np.sum(members * stack, axis=(1, 2))
    best = np.array([_enumerated_max(m) for m in stack])
    gaps = best - got
    assert np.min(gaps) >= -1e-9
    assert np.mean(gaps <= 1e-9) >= 0.95
    assert np.mean(gaps) <= 0.01


def test_nonneg_projection_scale_invariant():
    # a positive factor leaves the member as it is: exactly for a power of
    # two, to rounding otherwise, even where the squares would leave the
    # float range
    rng = np.random.default_rng(8)
    cset = nonneg(7, 3)
    stack = rng.standard_normal((6, 7, 3))
    stack[1] = -np.abs(stack[1])
    want, _ = project_batch(cset, stack)
    for factor in (2.0 ** -600, 2.0 ** 600):
        assert np.array_equal(project_batch(cset, factor * stack)[0], want)
    for factor in (1e-200, 1e-3, 7.0, 1e200):
        got, ok = project_batch(cset, factor * stack)
        assert ok.all() and np.max(np.abs(got - want)) <= 1e-12


@st.composite
def _nonneg_stacks(draw):
    """A non-negative set with r > 1 and p >= 2 r, and a Gaussian, zero,
    non-positive or member (B, p, r) stack for it."""
    r = draw(st.integers(2, 4))
    p = draw(st.integers(2 * r, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    flavors = draw(st.lists(st.sampled_from(["gauss", "zero", "nonpos", "member"]),
                            min_size=1, max_size=4))
    cset = nonneg(p, r)
    stack = rng.standard_normal((len(flavors), p, r))
    for i, flavor in enumerate(flavors):
        if flavor == "zero":
            stack[i] = 0.0
        elif flavor == "nonpos":
            stack[i] = -np.abs(stack[i])
        elif flavor == "member":
            stack[i] = random_member(cset, rng).values
    return cset, stack, rng


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_nonneg_stacks())
def test_nonneg_projection_properties(case):
    # project returns a member (entries >= 0, orthonormal columns, disjoint
    # supports), is idempotent on members, and beats random members on
    # <W, S>; below p = 2 r the last can fail, since single-row moves are a
    # local search of what is there close to a linear assignment problem
    cset, stack, rng = case
    draws = random_members(cset, rng, 20)
    for s in stack:
        w = project(cset, s).values
        assert np.min(w) >= 0.0
        assert np.max(np.abs(w.T @ w - np.eye(cset.r))) <= 1e-12
        assert np.all(np.sum(w > 0.0, axis=1) <= 1)
        assert np.max(np.abs(project(cset, w).values - w)) <= 1e-12
        assert np.sum(w * s) >= np.max(np.sum(draws * s, axis=(1, 2))) - 1e-12


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_subspace_distance_symmetric_and_bounded(p, r, seed):
    r = min(r, p)
    rng = np.random.default_rng(seed)
    a, b = (orthonormalize(rng.standard_normal((p, r))) for _ in range(2))
    d = subspace_distance(a, b)
    assert d == subspace_distance(b, a)
    assert 0.0 <= d <= math.sqrt(2 * r)
    assert subspace_distance(a, a) <= 1e-7
