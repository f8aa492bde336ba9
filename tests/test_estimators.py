import numpy as np
import pytest

from subspace_est import constraints, estimators, models
from subspace_est.errors import (DegenerateInput, DimensionMismatch,
                                 RankDeficient, TooLarge)
from subspace_est.estimators import (EstimatorConfig, estimate,
                                     exhaustive_argmax,
                                     iterative_projection_batch, objective,
                                     spectral_estimate)
from subspace_est.geometry import (OrthonormalFrame, SpectrumSpec,
                                   orthonormalize, subspace_distance)
from subspace_est.models import objective_matrix


def _haar(p, r, seed):
    rng = np.random.default_rng(seed)
    return orthonormalize(rng.standard_normal((p, r)))


def test_spectral_estimate_known_matrix():
    # the second input is not symmetric; its symmetric part is the first
    skewed = np.diag([5.0, 3.0, 1.0])
    skewed[2, 0], skewed[0, 2] = 0.75, -0.75
    for m in (np.diag([5.0, 3.0, 1.0]), skewed):
        got = spectral_estimate(m, 2)
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
    with pytest.raises(DimensionMismatch, match="wigner"):
        objective_matrix("wigner", y)


def test_build_objective_matrix_cross_check():
    spec = models.ModelSpec("wigner", SpectrumSpec.flat(3.0, 1), 0.5,
                            seed=1, p=6)
    inst = models.sample_instance(spec, constraints.unconstrained(6, 1))
    m = models.objective_matrix(spec.family, inst.observation)
    assert np.array_equal(m, (inst.observation + inst.observation.T) / 2.0)


def test_iterative_on_scaled_identity_converges_immediately():
    cset = constraints.unconstrained(5, 2)
    res = estimate(3.0 * np.eye(5), cset)
    assert res.converged
    assert res.iterations == 1


def test_iterative_best_visited_invariant():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((20, 20))
    m = (a + a.T) / 2.0
    cset = constraints.sparse(20, 2, 6)
    res = estimate(m, cset, EstimatorConfig(max_iter=40))
    assert abs(objective(res.frame, m) - res.objective) <= 1e-12
    init = constraints.project(cset, spectral_estimate(m, 2))
    assert res.objective >= objective(init, m)


def test_iterative_noiseless_recovery_unconstrained():
    truth = _haar(15, 2, 5)
    m = (truth.values * [9.0, 4.0]) @ truth.values.T
    res = estimate(m, constraints.unconstrained(15, 2))
    assert subspace_distance(res.frame, truth) <= 1e-6


def test_iterative_noiseless_recovery_sparse():
    cset = constraints.sparse(24, 2, 6)
    truth = constraints.random_member(cset, 8)
    m = (truth.values * [7.0, 3.0]) @ truth.values.T
    res = estimate(m, cset)
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
    # the batch path's stack checks: a matrix of the wrong shape, and one
    # whose scores would overflow
    with pytest.raises(DimensionMismatch, match=r"objective stack is \(1, 5, 5\)"):
        exhaustive_argmax(constraints.signs(4), np.eye(5))
    with pytest.raises(DegenerateInput, match="overflow the power step at p = 4"):
        exhaustive_argmax(constraints.signs(4), np.full((4, 4), 1e308))


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


def test_estimate_dispatch_and_determinism():
    spec = models.ModelSpec("denoising", SpectrumSpec.flat(30.0, 1), 1.0,
                            seed=3, p1=12, p2=18)
    cset = constraints.signs(12)
    inst = models.sample_instance(spec, cset)
    m = models.objective_matrix(spec.family, inst.observation)
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


def _reference_orthonormalize(m):
    """orthonormalize as it was before the QR-first rank test: a full SVD of
    m for the rank test, then the thin QR with diag(R) >= 0."""
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        raise RankDeficient("matrix has (numerically) dependent columns")
    q, rfac = np.linalg.qr(m)
    signs = np.sign(np.diag(rfac))
    signs[signs == 0] = 1.0
    return OrthonormalFrame(q * signs)


def _checkpoint(step):
    """Whether the reference loop keeps the iterate after this step."""
    return step & (step - 1) == 0 or step % 16 == 0


def _reference_iterative(m, cset, config, exit_on_repeat=True):
    """The power loop before the lean step: a p x p projector-distance step
    test, a separate objective() matmul, and SVD-then-QR orthonormalization,
    started from the public one-slice init.  With exit_on_repeat it keeps a
    checkpoint, the iterate after each power-of-two step and each 16th step,
    voided by a restart, and stops as "cycled" when an iterate repeats it
    bit for bit; without, it runs to the cap, as the loop did before that
    exit."""
    if config.init == "random":
        current = constraints.random_member(cset, config.init_seed)
    else:
        current = constraints.project(cset, spectral_estimate(m, cset.r))
    best, best_val = current, objective(current, m)
    iterations, status, restarts, mark = 0, "capped", 0, None
    while iterations < config.max_iter:
        try:
            lifted = _reference_orthonormalize(m @ current.values)
            nxt = constraints.project(cset, lifted)
        except (RankDeficient, DegenerateInput):
            restarts += 1
            if restarts > 5:
                raise RankDeficient("iterate lost rank after 5 restarts")
            current = constraints.random_member(
                cset, config.init_seed + 1000003 * restarts)
            value = objective(current, m)
            if value > best_val:
                best, best_val = current, value
            iterations += 1
            mark = None
            if _checkpoint(iterations):
                mark = (current.values.tobytes(), value)
            continue
        value = objective(nxt, m)
        if value > best_val:
            best, best_val = nxt, value
        step = float(np.linalg.norm(nxt.values @ nxt.values.T
                                    - current.values @ current.values.T))
        current = nxt
        iterations += 1
        if step < config.tol:
            status = "converged"
            break
        if exit_on_repeat and mark == (current.values.tobytes(), value):
            status = "cycled"
            break
        if _checkpoint(iterations):
            mark = (current.values.tobytes(), value)
    return estimators.IterationResult(best, best_val, iterations, status, restarts)


def _references(m, cset, config):
    """The checkpoint reference and the cap-only reference on one matrix."""
    return (_reference_iterative(m, cset, config),
            _reference_iterative(m, cset, config, exit_on_repeat=False))


def _assert_matches_references(got, refs, label):
    """got equals the checkpoint reference in every field, and the cap-only
    reference in all but the step count, which only a cycled loop cuts; a
    cycle can also be seen at the cap itself."""
    want, capped = refs
    for ref in (want, capped):
        assert np.array_equal(got.frame.values, ref.frame.values), label
        assert got.objective == ref.objective, label
        assert got.converged == ref.converged, label
        assert got.restarts == ref.restarts, label
    assert (got.iterations, got.status) == (want.iterations, want.status), label
    if got.status == "cycled":
        assert capped.status == "capped", label
        assert got.iterations <= capped.iterations, label
    else:
        assert (got.iterations, got.status) == (capped.iterations, capped.status), label


def _denoising_objective(cset, t, seed, p1, p2):
    spec = models.ModelSpec("denoising", SpectrumSpec.flat(t, cset.r),
                            1.0, seed=seed, p1=p1, p2=p2)
    inst = models.sample_instance(spec, cset)
    return models.objective_matrix(spec.family, inst.observation)


def _equivalence_cases():
    basis = _haar(30, 6, 21)
    yield "nonneg r=1 t=2", _denoising_objective(
        constraints.nonneg(200, 1), 2.0, 0, 200, 400), constraints.nonneg(200, 1), {}
    yield "nonneg r=2", _denoising_objective(
        constraints.nonneg(60, 2), 6.0, 1, 60, 80), constraints.nonneg(60, 2), {}
    yield "sparse r=2", _denoising_objective(
        constraints.sparse(40, 2, 5), 6.0, 2, 40, 50), constraints.sparse(40, 2, 5), {}
    subspace = constraints.subspace(basis, 2)
    yield "subspace", _denoising_objective(subspace, 4.0, 3, 30, 40), subspace, {}
    yield "none", _denoising_objective(
        constraints.unconstrained(30, 3), 3.0, 4, 30, 40), constraints.unconstrained(30, 3), {}
    yield "signs", _denoising_objective(
        constraints.signs(24), 5.0, 5, 24, 30), constraints.signs(24), {}
    yield "iteration cap", _denoising_objective(
        constraints.nonneg(80, 1), 2.0, 6, 80, 120), constraints.nonneg(80, 1), {"max_iter": 7}
    # the spectral init e1 spans the kernel of M, so the first lift is rank
    # deficient and the loop restarts from a random member
    yield "restart", -np.diag([0.0, 1.0, 2.0]), constraints.unconstrained(3, 1), {}


def test_iterative_matches_reference_loop_bit_for_bit():
    seen = set()
    for name, m, cset, knobs in _equivalence_cases():
        cfg = EstimatorConfig(**knobs)
        got = estimate(m, cset, cfg)
        _assert_matches_references(got, _references(m, cset, cfg), name)
        assert (got.restarts >= 1) if name == "restart" else (got.restarts == 0), name
        seen.add(got.status)
        if name == "nonneg r=1 t=2":
            assert (got.status, got.iterations) == ("capped", 200)
        if name == "iteration cap":
            assert (got.status, got.iterations) == ("capped", 7)
    assert seen == {"converged", "capped"}


def _spiked(m, cset, seed):
    """m plus a spike on a member of cset a thousand times its spectral norm,
    so that the power loop converges within a few steps."""
    w = constraints.random_member(cset, seed).values
    return m + 1e3 * max(np.linalg.norm(m, 2), 1.0) * (w @ w.T)


def test_engine_blocks_match_reference_loop_bit_for_bit():
    # each case's matrix between fast-converging companions, run in blocks of
    # 1, 2, 3 and all four, so that slots leave the block around it
    mixed = set()
    for name, m, cset, knobs in _equivalence_cases():
        cfg = EstimatorConfig(**knobs)
        stack = np.stack([_spiked(m, cset, 1), m, _spiked(m, cset, 2),
                          _spiked(m, cset, 3)])
        refs = [_references(one, cset, cfg) for one in stack]
        for size, start, block in _blocks(stack):
            gots = iterative_projection_batch(block, cset, cfg)
            assert len(gots) == len(block)
            if size == len(stack):
                mixed.add((name, frozenset(g.converged for g in gots)))
            for offset, got in enumerate(gots):
                _assert_matches_references(got, refs[start + offset],
                                           (name, size, start + offset))
    # a block that runs one loop to the cap while others leave it early
    assert ("nonneg r=1 t=2", frozenset({True, False})) in mixed
    assert ("iteration cap", frozenset({True, False})) in mixed
    assert ("restart", frozenset({True})) in mixed


def test_estimate_batch_leaves_input_stack_untouched():
    # the fast companions leave the block around the slow loop in slot 1;
    # the restart case also swaps in a random member
    for name, m, cset, knobs in _equivalence_cases():
        stack = np.stack([_spiked(m, cset, 1), m, _spiked(m, cset, 2)])
        before = stack.copy()
        for method in ("iterative", "spectral"):
            estimators.estimate_batch(stack, cset, EstimatorConfig(method=method, **knobs))
            assert stack.tobytes() == before.tobytes(), (name, method)


def test_engine_empty_block_and_shape_guard():
    cset = constraints.unconstrained(4, 1)
    assert iterative_projection_batch(np.empty((0, 4, 4)), cset) == []
    with pytest.raises(DimensionMismatch):
        iterative_projection_batch(np.zeros((2, 5, 5)), cset)
    for method in ("iterative", "spectral", "exhaustive"):
        with pytest.raises(DimensionMismatch):
            estimate(np.zeros((4, 5)), cset, EstimatorConfig(method=method))


def test_stack_whose_power_step_would_overflow_is_refused():
    # every entry is finite, but p^2 max|M| is not: M U, the objective sums
    # or the sign scores of the middle slice could overflow
    stack = np.stack([np.eye(12), np.full((12, 12), -8e307), np.eye(12)])
    for method in ("iterative", "spectral", "exhaustive"):
        with pytest.raises(DegenerateInput, match="entries up to 8e\\+307 overflow"):
            estimators.estimate_batch(stack, constraints.signs(12),
                                      EstimatorConfig(method=method))


def _every_kind():
    basis = _haar(12, 5, 31)
    return [constraints.sparse(12, 2, 4), constraints.nonneg(12, 1),
            constraints.nonneg(12, 2), constraints.subspace(basis, 2),
            constraints.signs(12), constraints.unconstrained(12, 3)]


def _spectral_stack():
    """The identity (all eigenvalues tied) and four random symmetric slices,
    two of whose top eigenvectors come out of eigh with a negative lead."""
    rng = np.random.default_rng(40)
    slices = [np.eye(12)]
    for _ in range(4):
        a = rng.standard_normal((12, 12))
        slices.append((a + a.T) / 2.0)
    return np.stack(slices)


def _blocks(stack):
    for size in (1, 2, 3, len(stack)):
        for start in range(0, len(stack), size):
            yield size, start, stack[start:start + size].copy()


def _reference_spectral(m, rank):
    """spectral_estimate as a one-slice eigh and a per-column sign loop."""
    evals, evecs = np.linalg.eigh((m + m.T) / 2.0)
    cols = evecs[:, np.argsort(-evals, kind="stable")[:rank]].copy()
    for j in range(rank):
        if cols[np.argmax(np.abs(cols[:, j])), j] < 0:
            cols[:, j] = -cols[:, j]
    return cols


def test_stacked_spectral_init_matches_one_slice_path():
    stack = _spectral_stack()
    _, raw = np.linalg.eigh(stack)
    leads = [col[np.argmax(np.abs(col))] for col in raw[:, :, -1]]
    assert min(leads) < 0  # the sign rule flips some top eigenvector
    for m in stack:
        for rank in (1, 2, 3):
            assert np.array_equal(spectral_estimate(m, rank).values,
                                  _reference_spectral(m, rank))
    for cset in _every_kind():
        wants = [constraints.project(cset, spectral_estimate(m, cset.r)).values
                 for m in stack]
        for size, start, block in _blocks(stack):
            got = estimators._spectral_members(block, cset)
            for offset, want in enumerate(wants[start:start + size]):
                assert np.array_equal(got[offset], want), (cset.kind, size, start + offset)


def test_spectral_method_on_block_matches_one_slice_path():
    stack = _spectral_stack()
    config = EstimatorConfig(method="spectral")
    for cset in _every_kind():
        wants = [constraints.project(cset, spectral_estimate(m, cset.r)) for m in stack]
        for size, start, block in _blocks(stack):
            for offset, got in enumerate(estimators.estimate_batch(block, cset, config)):
                want, m = wants[start + offset], stack[start + offset]
                label = (cset.kind, size, start + offset)
                assert np.array_equal(got.frame.values, want.values), label
                assert got.objective == objective(want, m), label
                assert (got.iterations, got.converged, got.restarts) == (0, True, 0), label


def test_exhaustive_method_on_block_matches_one_slice_path():
    stack = _spectral_stack()
    cset = constraints.signs(12)
    config = EstimatorConfig(method="exhaustive")
    for size, start, block in _blocks(stack):
        for offset, got in enumerate(estimators.estimate_batch(block, cset, config)):
            m = stack[start + offset]
            want = exhaustive_argmax(cset, m)
            assert np.array_equal(got.frame.values, want.values), (size, start + offset)
            assert got.objective == objective(want, m), (size, start + offset)
    assert estimators.estimate_batch(np.empty((0, 12, 12)), cset, config) == []


def test_exhaustive_stack_builds_one_sign_table_and_checks_each_frame_once(monkeypatch):
    stack = _spectral_stack()
    tables, frames = [], []
    patterns, frame = estimators._sign_patterns, estimators.OrthonormalFrame

    def counted_patterns(n):
        tables.append(n)
        return patterns(n)

    def counted_frame(values):
        frames.append(values.shape)
        return frame(values)

    monkeypatch.setattr(estimators, "_sign_patterns", counted_patterns)
    monkeypatch.setattr(estimators, "OrthonormalFrame", counted_frame)
    results = estimators.estimate_batch(stack, constraints.signs(12),
                                        EstimatorConfig(method="exhaustive"))
    assert len(results) == len(stack) > 1
    assert tables == [12]
    assert frames == [(12, 1)] * len(stack)


def test_random_init_on_block_matches_one_slice_path():
    stack = _spectral_stack()
    seen = set()
    for cset in _every_kind():
        config = EstimatorConfig(init="random", init_seed=3, max_iter=25)
        refs = [_references(m, cset, config) for m in stack]
        for size, start, block in _blocks(stack):
            for offset, got in enumerate(iterative_projection_batch(block, cset, config)):
                _assert_matches_references(got, refs[start + offset],
                                           (cset.kind, size, start + offset))
                seen.add(got.status)
    # a signs loop goes round a cycle, which its checkpoint cuts short
    assert seen == {"converged", "cycled", "capped"}


def test_restart_voids_the_checkpoint(monkeypatch):
    # sign vectors h1/2 -> h2/2 on Hadamard rows, and M h2 = 0: steps 1 and 2
    # reach h1/2 and h2/2 (the checkpoint), step 3 restarts onto h2/2 again,
    # which must not read as a cycle, step 4 restarts onto h4/2, and step 5
    # converges on that eigenvector
    h1, h2, h3, h4 = np.array([[1.0, 1, 1, 1], [1, -1, 1, -1],
                               [1, 1, -1, -1], [1, -1, -1, 1]])
    m = np.column_stack([2.0 * h2, 0.0 * h2, 3.0 * h1, 10.0 * h4]) @ np.stack(
        [h1, h2, h3, h4]) / 4.0
    assert not (m @ h2).any()
    draws = {0: h3, 1000003: h2, 2000006: h4}
    monkeypatch.setattr(constraints, "random_member",
                        lambda cset, seed: OrthonormalFrame(draws[seed][:, None] / 2.0))
    cset, cfg = constraints.signs(4), EstimatorConfig(init="random")
    got = iterative_projection_batch(m[None], cset, cfg)[0]
    _assert_matches_references(got, _references(m, cset, cfg), "restart after checkpoint")
    assert (got.status, got.iterations, got.restarts) == ("converged", 5, 2)
    assert np.array_equal(got.frame.values[:, 0], h4 / 2.0) and got.objective == 10.0


def test_sparse_benchmark_block_cycles_and_matches_cap_only_loop():
    # the seed-0 block of wigner p=40 sparse:k=6 r=2 t=8: some loops go round
    # a cycle, leave it early, and keep every other field of the capped loop
    model = models.ModelSpec("wigner", SpectrumSpec.flat(8.0, 2), 1.0, seed=0, p=40)
    cset = constraints.parse_constraint("sparse:k=6", 40, 2)
    stack = np.stack([
        objective_matrix("wigner", models.sample_instance(model, cset, trial_index=i).observation)
        for i in range(50)])
    cfg = EstimatorConfig()
    refs = [_references(m, cset, cfg) for m in stack]
    for size in (1, 2, 3, len(stack)):
        gots = []
        for start in range(0, len(stack), size):
            gots += iterative_projection_batch(stack[start:start + size].copy(), cset, cfg)
        for index, got in enumerate(gots):
            _assert_matches_references(got, refs[index], (size, index))
    assert any(g.status == "cycled" and g.iterations < 200 for g in gots)
    # a cycle entered after step 128, which power-of-two checkpoints alone
    # would leave to run to the cap, is cut by the 16th steps
    assert any(g.status == "cycled" and g.iterations > 128 + 16 for g in gots)


def test_spectral_step_without_member_raises_degenerate():
    # the top eigenvectors e11, e12 are orthogonal to the basis plane
    basis = OrthonormalFrame(np.eye(12)[:, :4])
    cset = constraints.subspace(basis, 2)
    m = np.diag(np.arange(12.0))
    with pytest.raises(DegenerateInput):
        constraints.project(cset, spectral_estimate(m, 2))
    for method in ("iterative", "spectral"):
        with pytest.raises(DegenerateInput):
            estimate(m, cset, EstimatorConfig(method=method))


def test_zero_objective_loses_rank_after_every_restart():
    for cset in (constraints.unconstrained(6, 2), constraints.sparse(6, 2, 3)):
        with pytest.raises(RankDeficient, match="lost rank after 5 restarts"):
            estimate(np.zeros((6, 6)), cset)


def test_returned_frames_are_still_checked(monkeypatch):
    # the loop checks no iterate; wrapping each result in an OrthonormalFrame
    # is the one check, and it still refuses a slice that is not a frame
    project_batch = constraints.project_batch

    def doubled(cset, stack):
        members, ok = project_batch(cset, stack)
        return 2.0 * members, np.ones_like(ok)

    monkeypatch.setattr(constraints, "project_batch", doubled)
    cset = constraints.unconstrained(6, 2)
    ms = np.stack([np.diag(np.arange(6.0, 0.0, -1.0))] * 3)
    for method in ("iterative", "spectral"):
        with pytest.raises(ValueError, match="not orthonormal"):
            estimators.estimate_batch(ms, cset, EstimatorConfig(method=method))
