import math
import tracemalloc

import numpy as np
import pytest

from subspace_est import constraints, entropy
from subspace_est.entropy import (EntropyEstimate, PackingSet,
                                  covering_number_estimate, dudley_estimate,
                                  greedy_local_packing,
                                  sign_packing_construction,
                                  sparse_packing_construction, vg_codebook)
from subspace_est.errors import (BudgetExhausted, DimensionMismatch,
                                 InfeasibleParameters)
from subspace_est.geometry import OrthonormalFrame, subspace_distance


def _hamming(a, b):
    return int(np.sum(a != b))


def test_vg_codebook_small():
    code = vg_codebook(16, 4)
    assert code.shape[0] >= 4  # ceil(exp(0.233 * 4 * ln 4))
    assert np.all(np.sum(code, axis=1) == 4)
    for i in range(code.shape[0]):
        for j in range(i + 1, code.shape[0]):
            assert _hamming(code[i], code[j]) >= 2


def test_vg_codebook_medium():
    code = vg_codebook(32, 8)
    assert code.shape[0] >= 14  # ceil(exp(0.233 * 8 * ln 4))
    assert np.all(np.sum(code, axis=1) == 8)
    for i in range(code.shape[0]):
        for j in range(i + 1, code.shape[0]):
            assert _hamming(code[i], code[j]) >= 4


def test_vg_codebook_guards():
    with pytest.raises(InfeasibleParameters):
        vg_codebook(16, 5)
    with pytest.raises(InfeasibleParameters):
        vg_codebook(16, 0)
    with pytest.raises(BudgetExhausted):
        vg_codebook(32, 8, budget=3)


def test_vg_codebook_deterministic():
    assert np.array_equal(vg_codebook(24, 6, seed=3), vg_codebook(24, 6, seed=3))


def _tiny_frame(x, y):
    v = np.array([x, y], dtype=float)
    return OrthonormalFrame((v / np.linalg.norm(v))[:, None])


def test_packing_set_validate_catches_violations():
    e1, e2 = _tiny_frame(1, 0), _tiny_frame(0, 1)
    near = _tiny_frame(1, 0.05)
    good = PackingSet(center=e1, radius=1.5, separation=0.75, members=[e1, e2])
    good.validate()
    assert good.alpha == 0.5
    for separation in (2.25, 1.5, 0.0):
        with pytest.raises(ValueError, match="need 0 < separation < radius"):
            PackingSet(e1, 1.5, separation, [e1, e2]).validate()
    # e2 sits at distance sqrt(2) from e1, beyond a 0.5 radius
    with pytest.raises(ValueError):
        PackingSet(e1, 0.5, 0.25, [e1, e2]).validate()
    # near-duplicate pair breaks the separation floor
    with pytest.raises(ValueError):
        PackingSet(e1, 1.5, 0.75, [e1, near]).validate()


def test_sparse_packing_construction():
    pack = sparse_packing_construction(64, 1, 8, 0.5)
    pack.validate()
    # ceil(exp(0.233 * (8/e) * ln(62 e / 8))) = 9
    assert len(pack.members) >= 9
    assert pack.radius == pytest.approx(math.sqrt(2.0) * 0.5)
    assert pack.separation == pytest.approx(0.25)
    cset = constraints.sparse(64, 1, 8)
    for m in pack.members:
        assert constraints.contains(cset, m)
        assert subspace_distance(m, pack.center) <= pack.radius + 1e-9


def test_sparse_packing_higher_rank():
    pack = sparse_packing_construction(64, 3, 12, 0.4)
    pack.validate()
    cset = constraints.sparse(64, 3, 12)
    for m in pack.members:
        assert constraints.contains(cset, m)


def test_sparse_packing_guards():
    with pytest.raises(InfeasibleParameters):
        sparse_packing_construction(64, 1, 8, 1.5)
    with pytest.raises(InfeasibleParameters):
        sparse_packing_construction(12, 1, 8, 0.5)  # k/e > (p1-2)/4
    with pytest.raises(InfeasibleParameters):
        sparse_packing_construction(64, 1, 0, 0.5)
    with pytest.raises(InfeasibleParameters):
        # head row, weight-1 codeword and 2 identity rows: 4 rows > k = 3
        sparse_packing_construction(40, 3, 3, 0.5)


def test_sign_packing_construction():
    pack = sign_packing_construction(32, 8)
    pack.validate()
    assert len(pack.members) >= 14
    assert pack.radius == pytest.approx(2.0 * math.sqrt(2.0 * 8 / 32))
    assert pack.separation == pytest.approx(math.sqrt(8 / 32))
    root = math.sqrt(32)
    for m in pack.members:
        assert np.max(np.abs(np.abs(m.values) - 1.0 / root)) <= 1e-12
    with pytest.raises(InfeasibleParameters):
        sign_packing_construction(32, 9)


def test_greedy_local_packing_basic():
    cset = constraints.sparse(16, 1, 4)
    center = constraints.random_member(cset, 11)
    pack = greedy_local_packing(cset, center, 0.8, 0.5, budget=400, seed=2)
    pack.validate()
    again = greedy_local_packing(cset, center, 0.8, 0.5, budget=400, seed=2)
    assert len(pack.members) == len(again.members)
    for a, b in zip(pack.members, again.members):
        assert np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        greedy_local_packing(cset, center, 0.8, 1.2)


def test_greedy_local_packing_vacuous_separation_admits_all():
    # radius beyond the diameter and alpha -> 0: every draw is admitted
    cset = constraints.unconstrained(4, 1)
    center = constraints.random_member(cset, 0)
    pack = greedy_local_packing(cset, center, 1.5, 1e-6, budget=300, seed=1)
    assert len(pack.members) >= 300


def _greedy_local_packing_reference(cset, center, epsilon, alpha, budget, seed):
    """The packing as a sequential loop: one draw at a time, kept when inside
    the ball and farther than alpha * epsilon from every member so far."""
    rng = constraints.as_generator(seed)
    members = [center]
    threshold = alpha * epsilon
    for _ in range(budget):
        cand = constraints.random_member(cset, rng)
        if subspace_distance(cand, center) > epsilon:
            continue
        if all(subspace_distance(cand, m) > threshold for m in members):
            members.append(cand)
    return members


@pytest.mark.parametrize("text, p, r, epsilon, alpha, budget, size", [
    ("sparse:k=4", 16, 1, 1.0, 0.5, 400, 6),
    ("sparse:k=5", 20, 2, 1.7, 0.6, 400, 45),
    ("none", 4, 1, 0.8, 0.5, 400, 13),
    ("none", 6, 1, 0.8, 0.5, 400, 9),
    ("none", 8, 1, 0.8, 0.5, 400, 3),
    ("none", 5, 2, 1.0, 0.5, 400, 9),
    ("nonneg", 10, 2, 1.3, 0.5, 400, 20),
    ("nonneg", 64, 2, 1.6, 0.5, 400, 17),
    ("signs", 6, 1, 1.4, 0.5, 400, 22),
    ("signs", 12, 1, 1.2, 0.5, 400, 17),
    # every draw admitted, and a ball that holds only the center
    ("none", 4, 1, 1.5, 1e-6, 300, 301),
    ("sparse:k=4", 16, 1, 1e-12, 0.5, 400, 1),
])
def test_greedy_local_packing_matches_sequential_reference(text, p, r, epsilon,
                                                           alpha, budget, size):
    # block draws, Gram-form rows and the shared net engine admit the same
    # draws, in the same order, as the one-at-a-time projector-form loop
    cset = constraints.parse_constraint(text, p, r)
    center = constraints.random_member(cset, 11)
    want = _greedy_local_packing_reference(cset, center, epsilon, alpha, budget, 2)
    pack = greedy_local_packing(cset, center, epsilon, alpha, budget=budget, seed=2)
    assert len(pack.members) == len(want) == size
    assert pack.members[0] is center
    for got, ref in zip(pack.members, want):
        assert np.array_equal(got.values, ref.values)


def _net_outputs(r):
    """Every output of the three greedy-net estimates on nonneg p = 10, keyed
    by the number of points their nets run over: the budget for the
    covering and tangent nets, and one more for the packing, whose radius is
    the diameter sqrt(2 r), so that its ball holds the center and every
    draw."""
    cset = constraints.nonneg(10, r)
    center = constraints.random_member(cset, 0)
    budget = 150
    dudley = dudley_estimate(cset, center, budget=budget, seed=1)
    covering = [covering_number_estimate(cset, eps, budget=budget, seed=2)
                for eps in (0.6, 1.2)]
    pack = greedy_local_packing(cset, center, math.sqrt(2.0 * r), 0.5,
                                budget=budget, seed=3)
    return {budget: (dudley.log_covering, dudley.unresolved, covering),
            budget + 1: np.stack([m.values for m in pack.members])}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("rows_per_block", [1, 3, "all"])
def test_net_outputs_same_at_every_block_size(monkeypatch, r, rows_per_block):
    # blocks of candidate centers admit exactly the centers of one
    # candidate at a time, whatever the block size
    want = _net_outputs(r)
    blocks = []
    engine = entropy._greedy_net_counts

    def spy(grid, members, rows):
        def recorded(idx, cols):
            blocks.append((len(members), len(idx)))
            return rows(idx, cols)
        return engine(grid, members, recorded)

    monkeypatch.setattr(entropy, "_greedy_net_counts", spy)
    for size, outputs in want.items():
        rows = size if rows_per_block == "all" else rows_per_block
        monkeypatch.setattr(entropy, "_ROW_BYTES", 8 * size * r * r * rows)
        got = _net_outputs(r)[size]
        if isinstance(outputs, tuple):
            assert got == outputs
        else:
            assert np.array_equal(got, outputs)
        assert max(k for n, k in blocks if n == size) == rows
        blocks.clear()


def _nested_net_counts(grid, dist):
    """Nested greedy net sizes from an explicit distance matrix, one point
    at a time: from the largest scale down, a point joins the net when it
    is at least eps from every center so far.  Also returns the centers of
    the finest net in the order they joined."""
    centers = []
    counts = []
    for eps in grid[::-1]:
        for i in range(len(dist)):
            if i not in centers and all(dist[i, c] >= eps for c in centers):
                centers.append(i)
        counts.append(len(centers))
    return counts[::-1], centers


def _scales_between(dist):
    """The midpoints between consecutive distinct entries of a distance
    matrix, entries within 1e-9 of each other counted as one, so that no
    rounding of a distance crosses a scale."""
    values = np.unique(np.round(dist, 9))
    return (values[:-1] + values[1:]) / 2.0


def _assert_net_matches_matrix(monkeypatch, members, make_rows, dist,
                               rows_per_block):
    """The nested nets of make_rows(members) equal those of the explicit
    distance matrix at every scale between its entries, with blocks of
    rows_per_block candidates (None: the configured block)."""
    size, r, _ = members.shape
    if rows_per_block is not None:
        monkeypatch.setattr(entropy, "_ROW_BYTES", 8 * size * r * r * rows_per_block)
    rows = make_rows(members)
    every = np.arange(size)
    block = entropy._row_block(members)
    lowest = min(rows(every[start:start + block], every).min()
                 for start in range(0, size, block))
    # repeated draws: their distance is exactly zero, its square clipped
    assert lowest == 0.0
    grid = _scales_between(dist)
    counts, is_center = entropy._greedy_net_counts(grid, members, rows)
    want, centers = _nested_net_counts(grid, dist)
    assert counts.tolist() == want
    assert np.flatnonzero(is_center).tolist() == sorted(centers)
    # a draw that a coarser net covers joins a finer net after a later
    # center of the coarser, so the open draws are not a tail of the stream
    coarser = [_nested_net_counts(grid[level:], dist)[1] for level in range(1, len(grid))]
    assert any(i < max(coarse) for coarse in coarser for i in set(centers) - set(coarse))


# sets whose draws repeat: the 32 sign lines at p = 6, the 6 coordinate
# planes of sparse k = r = 2 at p = 4, and the 10 coordinate 3-planes of
# sparse k = r = 3 at p = 5
_REPEATING = [("signs", 6, 1), ("sparse:k=2", 4, 2), ("sparse:k=3", 5, 3)]


@pytest.mark.parametrize("rows_per_block", [1, 3, None])
@pytest.mark.parametrize("text, p, r", _REPEATING)
def test_gram_net_matches_explicit_distance_matrix(monkeypatch, text, p, r,
                                                   rows_per_block):
    # the open-point rows in the workspace against projector distances
    # compared one pair at a time
    cset = constraints.parse_constraint(text, p, r)
    members = np.concatenate(list(entropy._draw_blocks(
        cset, constraints.as_generator(0), 150)))
    frames = [OrthonormalFrame(w.T) for w in members]
    dist = np.array([[subspace_distance(a, b) for b in frames] for a in frames])
    _assert_net_matches_matrix(monkeypatch, members, entropy._gram_rows, dist,
                               rows_per_block)


@pytest.mark.parametrize("rows_per_block", [1, 3, None])
@pytest.mark.parametrize("text, p, r", _REPEATING)
def test_tangent_net_matches_explicit_distance_matrix(monkeypatch, text, p, r,
                                                      rows_per_block):
    # the same against normalized p x p projector differences
    cset = constraints.parse_constraint(text, p, r)
    center = constraints.random_member(cset, 0)
    members, overlaps, norms = entropy._draw_tangent_stack(
        cset, center, 150, constraints.as_generator(1))
    proj = center.values @ center.values.T
    tangents = np.array([wt.T @ wt - proj for wt in members])
    tangents /= np.linalg.norm(tangents, axis=(1, 2))[:, None, None]
    dist = np.array([np.linalg.norm(tangents - t, axis=(1, 2)) for t in tangents])
    _assert_net_matches_matrix(
        monkeypatch, members,
        lambda stack: entropy._tangent_distance_rows(stack, overlaps, norms),
        dist, rows_per_block)


def test_dudley_counts_match_sequential_tangent_net():
    # the blocked Gram-form tangent net against normalized p x p projector
    # differences compared one pair at a time
    cset = constraints.nonneg(10, 2)
    center = constraints.random_member(cset, 0)
    proj = center.values @ center.values.T
    rng = constraints.as_generator(1)
    tangents = []
    for _ in range(150):
        w = constraints.random_member(cset, rng).values
        diff = w @ w.T - proj
        tangents.append(diff / np.linalg.norm(diff))
    tangents = np.array(tangents)
    dist = np.array([np.linalg.norm(tangents - t, axis=(1, 2)) for t in tangents])
    grid = np.geomspace(0.4, 1.4, 12)
    counts, _ = _nested_net_counts(grid, dist)
    # resolved at every scale, from nearly every draw down to a single center
    assert len(tangents) > counts[0] > 100 and counts[-1] == 1
    est = dudley_estimate(cset, center, epsilon_grid=grid, budget=150, seed=1)
    assert est.log_covering == tuple(np.log(np.array(counts)))


def test_covering_estimate_peak_memory_below_three_member_stacks():
    # draws are projected in bounded blocks, so the peak stays near the
    # (budget, r, p) member stack the net itself needs
    cset = constraints.nonneg(64, 2)
    budget = 4000
    stack_bytes = budget * 64 * 2 * 8
    tracemalloc.start()
    try:
        covering_number_estimate(cset, 1.5, budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * stack_bytes, peak / stack_bytes


def test_dudley_peak_memory_below_three_member_stacks():
    # the tangent stack is drawn in bounded blocks and the net's rows are
    # computed in a workspace bounded by _ROW_BYTES
    cset = constraints.nonneg(64, 2)
    center = constraints.random_member(cset, 0)
    budget = 4000
    stack_bytes = budget * 64 * 2 * 8
    tracemalloc.start()
    try:
        dudley_estimate(cset, center, budget=budget, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * stack_bytes, peak / stack_bytes


@pytest.mark.parametrize("text", ["sparse:k=8", "nonneg"])
def test_benchmark_dudley_computes_each_pair_about_once(monkeypatch, text):
    # the p = 64 benchmark estimate at seed 0: rows over the open points
    # only compute well under the n^2 entries of full rows
    engine = entropy._greedy_net_counts
    entries = []

    def spy(grid, members, rows):
        entries.append(len(members) ** 2)

        def counted(idx, cols):
            entries.append(-len(idx) * len(cols))
            return rows(idx, cols)
        return engine(grid, members, counted)

    monkeypatch.setattr(entropy, "_greedy_net_counts", spy)
    cset = constraints.parse_constraint(text, 64, 2)
    dudley_estimate(cset, constraints.random_member(cset, 0), budget=1000, seed=1)
    full, computed = entries[0], -sum(entries[1:])
    assert full >= 990 ** 2
    assert computed <= 0.6 * full, computed / full


def test_covering_estimate_degenerate_cases():
    wide = constraints.unconstrained(6, 1)
    assert covering_number_estimate(wide, 2.0, budget=200, seed=0) == 1
    # p = 1 sign vectors all span the same line
    singleton = constraints.signs(1)
    for eps in (1e-6, 0.1, 1.0):
        assert covering_number_estimate(singleton, eps, budget=100, seed=0) == 1


_SINGLETON = constraints.signs(1)
_SINGLETON_CENTER = constraints.random_member(_SINGLETON, 0)

# each entropy count, called at one scale epsilon and a budget
_COUNTS = {
    "covering_number_estimate": lambda eps, budget: covering_number_estimate(
        _SINGLETON, eps, budget=budget, seed=0),
    "greedy_local_packing": lambda eps, budget: greedy_local_packing(
        _SINGLETON, _SINGLETON_CENTER, eps, 0.5, budget=budget, seed=0),
    "dudley_estimate": lambda eps, budget: dudley_estimate(
        _SINGLETON, _SINGLETON_CENTER, epsilon_grid=[eps, 1.0], budget=budget, seed=0),
}


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_covering_estimate_rejects_non_positive_epsilon(name):
    count = _COUNTS[name]
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            count(eps, 50)
    for budget in (0, -3):
        with pytest.raises(ValueError):
            count(0.5, budget)
    count(0.5, 1)


def test_covering_estimate_monotone_in_epsilon():
    cset = constraints.signs(16)
    counts = [covering_number_estimate(cset, eps, budget=400, seed=0)
              for eps in (1.3, 1.0, 0.7, 0.4)]
    assert counts == sorted(counts)
    assert counts[0] >= 2
    assert covering_number_estimate(cset, 1.3, budget=400, seed=0) == counts[0]


def test_covering_packing_sandwich_same_stream():
    cset = constraints.signs(16)
    for eps in (0.35, 0.5, 0.65):
        coarse = covering_number_estimate(cset, 2 * eps, budget=400, seed=0)
        fine = covering_number_estimate(cset, eps, budget=400, seed=0)
        assert coarse <= fine


def test_covering_estimate_matches_sequential_greedy_net():
    # the shared net engine admits draws in stream order, exactly like a
    # one-pass greedy net in the projector distance
    cset = constraints.sparse(10, 2, 4)
    rng = constraints.as_generator(3)
    draws = [constraints.random_member(cset, rng) for _ in range(150)]
    for eps in (0.6, 1.0, 1.5):
        centers = []
        for w in draws:
            if all(subspace_distance(w, c) >= eps for c in centers):
                centers.append(w)
        assert covering_number_estimate(cset, eps, budget=150, seed=3) == len(centers)


@pytest.mark.parametrize("cset, counts", [
    (constraints.nonneg(12, 2), [153, 14, 1]),
    (constraints.sparse(20, 2, 4), [314, 96, 12]),
])
def test_covering_estimate_golden_counts(cset, counts):
    # recorded from the implementation that formed each net row by one
    # stacked product over the (B, p, r) draws; the nonneg row from the one
    # whose r > 1 projection is the row-to-column assignment search
    assert [covering_number_estimate(cset, eps, budget=400, seed=0)
            for eps in (1.2, 1.5, 1.8)] == counts


def test_local_packing_below_global_packing():
    # log of the local count at separation eps/2 stays within a factor 2
    # (log scale) of the global greedy-net count at eps
    cset = constraints.unconstrained(8, 1)
    center = constraints.random_member(cset, 999)
    for seed in range(20):
        local = greedy_local_packing(cset, center, 0.8, 0.5, budget=600, seed=seed)
        glob = covering_number_estimate(cset, 0.8, budget=600, seed=seed)
        assert glob >= 2
        assert math.log(len(local.members)) <= 2.0 * math.log(glob)


def test_local_packing_grassmannian_scaling():
    # fit the ball-volume constant on p = 5, then check the p = 6 count
    # against the dimension-scaled prediction within a factor 3
    def log_count(p):
        cset = constraints.unconstrained(p, 1)
        center = constraints.random_member(cset, 7)
        pack = greedy_local_packing(cset, center, 0.5, 0.5, budget=4000, seed=0)
        return math.log(len(pack.members))

    scale = 0.25  # alpha * epsilon
    c0 = scale * math.exp(log_count(5) / 4.0)  # r (p - r) = 4 at p = 5
    predicted = 5.0 * math.log(c0 / scale)
    ratio = log_count(6) / predicted
    assert 1.0 / 3.0 <= ratio <= 3.0


def test_tangent_distance_rows_match_projector_differences():
    cset = constraints.nonneg(10, 2)
    center = constraints.random_member(cset, 3)
    members, overlaps, norms = entropy._draw_tangent_stack(
        cset, center, 12, constraints.as_generator(4))
    proj = center.values @ center.values.T
    tangents = []
    for wt, norm in zip(members, norms):
        diff = wt.T @ wt - proj
        fro = np.linalg.norm(diff)
        assert norm == pytest.approx(fro, abs=1e-12)
        tangents.append(diff / fro)
    rows = entropy._tangent_distance_rows(members, overlaps, norms)
    every = np.arange(len(tangents))
    for idx, cols in ((every, every), (every[1::3], np.array([0, 3, 4, 9, 11]))):
        dist = rows(idx, cols)
        assert dist.shape == (len(idx), len(cols))
        for i, row in zip(idx, dist):
            explicit = [np.linalg.norm(tangents[c] - tangents[i]) for c in cols]
            assert row == pytest.approx(explicit, abs=1e-6)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("kind", ["sparse", "nonneg", "none", "subspace"])
def test_captured_rows_match_stacked_products(kind, r):
    # the captured mass ||W' V||^2 by _center_overlaps, from one GEMM of the
    # members' row matrix with a frame, against one small product per member
    p = 12
    if kind == "subspace":
        basis = np.linalg.qr(np.random.default_rng(5).standard_normal((p, 5)))[0]
        cset = constraints.subspace(OrthonormalFrame(basis), r)
    else:
        cset = constraints.parse_constraint(
            "sparse:k=4" if kind == "sparse" else kind, p, r)
    stack = constraints.random_members(cset, 0, 60)
    rows = entropy._transposed(stack).reshape(-1, p)
    center = constraints.random_member(cset, 1).values
    for w in (stack[0], stack[17], stack[59], center):
        overlaps = entropy._center_overlaps(rows @ w)
        assert overlaps.shape == (len(stack),)
        cross = stack.swapaxes(1, 2) @ w
        explicit = np.sum(cross * cross, axis=(1, 2))
        assert np.max(np.abs(overlaps - explicit)) <= 1e-14


def test_entropy_estimates_reject_budget_below_one(monkeypatch):
    cset = constraints.nonneg(8, 2)
    center = constraints.random_member(cset, 0)

    def no_draws(*args):
        raise AssertionError("members drawn before the budget check")

    monkeypatch.setattr(constraints, "random_members", no_draws)
    for budget in (0, -3):
        with pytest.raises(ValueError):
            covering_number_estimate(cset, 0.5, budget=budget)
        with pytest.raises(ValueError):
            dudley_estimate(cset, center, budget=budget)


def test_dudley_refuses_repeated_or_single_scales_before_drawing(monkeypatch):
    cset = constraints.nonneg(8, 2)
    center = constraints.random_member(cset, 0)
    calls = []
    monkeypatch.setattr(constraints, "random_members", lambda *args: calls.append(args))
    for grid in ([0.5] * 24, [0.2, 0.5, 0.5, 0.9], [0.5]):
        with pytest.raises(ValueError, match="two or more distinct epsilon scales"):
            dudley_estimate(cset, center, epsilon_grid=grid, budget=100)
    assert calls == []


def test_entropy_estimate_validation():
    EntropyEstimate((0.1, 0.2), (2.0, 1.0), 100, (False, False))
    with pytest.raises(ValueError):
        EntropyEstimate((0.2, 0.1), (1.0, 2.0), 100, (False, False))
    with pytest.raises(ValueError):
        EntropyEstimate((0.1, 0.2), (1.0, 2.0), 100, (False, False))


def test_dudley_singleton_tangent_set_is_zero():
    # p = 2 sign vectors form exactly two subspaces, so the tangent set of
    # one of them is a single point and both integrals vanish
    cset = constraints.signs(2)
    center = OrthonormalFrame(np.array([[1.0], [1.0]]) / math.sqrt(2.0))
    est = dudley_estimate(cset, center, budget=200, seed=0)
    assert est.dudley_value == 0.0
    assert est.dudley_prime == 0.0
    assert max(est.log_covering) == 0.0


def test_dudley_estimate_basic():
    cset = constraints.signs(16)
    center = constraints.random_member(cset, 5)
    est = dudley_estimate(cset, center, budget=500, seed=0)
    assert est.budget == 500
    assert est.dudley_value > 0
    assert est.dudley_prime > 0
    assert len(est.epsilons) == 24
    assert est.epsilons[0] == pytest.approx(0.01)
    assert est.epsilons[-1] == pytest.approx(math.sqrt(2.0))
    again = dudley_estimate(cset, center, budget=500, seed=0)
    assert est.log_covering == again.log_covering
    assert est.dudley_value == again.dudley_value
    with pytest.raises(ValueError):
        dudley_estimate(cset, center, epsilon_grid=[0.0, 0.5])


_LOG_1000 = math.log(1000).hex()


@pytest.mark.parametrize("text, value, prime, tail", [
    ("sparse:k=8", "0x1.4e4595dd3f398p+1", "0x1.ad2fa1f3c2866p+2",
     ["0x1.b931aa6c3860ap+2", "0x1.4e1a4f518c72bp+2", "0x0.0p+0", "0x0.0p+0"]),
    ("nonneg", "0x1.560d818b3ffd8p+1", "0x1.c026d824f76dbp+2",
     ["0x1.ba18a998fffa0p+2", "0x1.ac73b46b98feap+2", "0x0.0p+0", "0x0.0p+0"]),
])
def test_dudley_p64_golden(text, value, prime, tail):
    # the two entropy commands of the p = 64 benchmark at seed 0 (center from
    # seed 0, draws from seed 1, budget 1000), recorded bit for bit from the
    # implementation that drew and compared one member at a time; the nonneg
    # row from the one whose r > 1 projection is the row-to-column
    # assignment search
    cset = constraints.parse_constraint(text, 64, 2)
    center = constraints.random_member(cset, 0)
    grid = np.geomspace(0.01, math.sqrt(2.0), 24)
    est = dudley_estimate(cset, center, epsilon_grid=grid, budget=1000, seed=1)
    assert est.dudley_value.hex() == value
    assert est.dudley_prime.hex() == prime
    assert [v.hex() for v in est.log_covering] == [_LOG_1000] * 20 + tail


_SPARSE_P32_COUNTS = [399, 398, 397, 397, 395, 393, 391, 384, 383, 378, 372, 364,
                      361, 344, 324, 304, 277, 248, 195, 141, 64, 31, 4, 1]


def test_dudley_p32_rank_one_golden():
    # every scale resolved, with counts a few apart, so a distance row that
    # moved past an epsilon would show; recorded from the implementation that
    # formed p x p projector differences for the tangent norms
    cset = constraints.sparse(32, 1, 2)
    center = constraints.random_member(cset, 0)
    est = dudley_estimate(cset, center, budget=400, seed=1)
    assert est.dudley_value.hex() == "0x1.44bdd30650fa4p+1"
    assert est.log_covering == tuple(np.log(np.array(_SPARSE_P32_COUNTS)))
    assert not any(est.unresolved)


def test_dudley_flags_unresolved_scales():
    cset = constraints.nonneg(64, 2)
    center = constraints.random_member(cset, 0)
    est = dudley_estimate(cset, center, budget=200, seed=1)
    drawn, _, _ = entropy._draw_tangent_stack(
        cset, center, 200, constraints.as_generator(1))
    full = math.log(len(drawn))
    assert est.unresolved == tuple(v == full for v in est.log_covering)
    assert any(est.unresolved) and not all(est.unresolved)
    grid = np.asarray(est.epsilons)
    flags = np.asarray(est.unresolved)
    logs = np.asarray(est.log_covering)
    want = (np.trapezoid(np.where(flags, np.sqrt(logs), 0.0), grid) / est.dudley_value,
            np.trapezoid(np.where(flags, logs, 0.0), grid) / est.dudley_prime)
    assert est.unresolved_share == pytest.approx(want, rel=1e-12)
    assert all(0.0 < s < 1.0 for s in est.unresolved_share)
    # a singleton tangent set, drawn many times over, is resolved at every
    # scale, and its integrals vanish
    single = dudley_estimate(constraints.signs(2),
                             OrthonormalFrame(np.array([[1.0], [1.0]]) / math.sqrt(2.0)),
                             budget=200, seed=0)
    assert not any(single.unresolved) and single.unresolved_share == (0.0, 0.0)
    with pytest.raises(DimensionMismatch):
        EntropyEstimate((0.1, 0.2), (2.0, 1.0), 100, (True,))


def test_dudley_sparse_scaling_high_dim():
    # Monte Carlo nets cap log-covering at log(budget), far below the true
    # entropies at p = 128, so this scaling check is expected to fall short
    # of its predicted window at any feasible budget; kept as an honest probe
    def val(k):
        cset = constraints.sparse(128, 1, k)
        center = constraints.random_member(cset, 1234)
        return dudley_estimate(cset, center, budget=3000, seed=0).dudley_value ** 2

    predicted = (16 * math.log(128 * math.e / 16)) / (4 * math.log(128 * math.e / 4))
    ratio = val(16) / val(4)
    assert predicted / 2 <= ratio <= predicted * 2


def test_dudley_nonneg_growth_high_dim():
    # same budget cap caveat as the sparse high-dimension check above
    def val(p):
        cset = constraints.nonneg(p, 1)
        center = constraints.random_member(cset, 1234)
        return dudley_estimate(cset, center, budget=3000, seed=0).dudley_value ** 2

    ratio = val(128) / val(32)
    assert 2.0 <= ratio <= 8.0


# n = 4, d = 1 admits the 4 unit vectors and n = 8, d = 2 every one of its 28
# supports, so a larger target forces every later draw through the rejection
@pytest.mark.parametrize("n, d, most", [(4, 1, 4), (8, 2, 28)])
def test_vg_codebook_rejects_draws_past_the_largest_code(n, d, most):
    with pytest.raises(BudgetExhausted, match=f"found {most} of {most + 1} codewords"):
        vg_codebook(n, d, budget=2000, target=most + 1)
