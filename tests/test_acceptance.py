"""Acceptance suite: one check per shipped guarantee.

Every test prints a single PASS/FAIL line straight to the terminal (past
pytest's capture) so the whole contract can be audited from one run, then
asserts the advertised targets.  One check is known to miss its nominal
band on current measurements (test 07, the sparse rate-shape exponent); it
prints FAIL and fails honestly rather than being loosened.  The comment in
that test records the measured values and what is known of the cause.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from subspace_est import constraints, entropy, harness, models
from subspace_est.cli import main
from subspace_est.estimators import EstimatorConfig, estimate
from subspace_est.geometry import (OrthonormalFrame, SpectrumSpec,
                                   orthonormalize, procrustes_align,
                                   quadratic_form_gap, subspace_distance)


def _report(capsys, num, ok, name, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance {num:>2} {status} {name}: {detail} [{elapsed:.1f}s]")


def _random_frame(rng, p, r):
    return orthonormalize(rng.standard_normal((p, r)))


def test_01_frame_distance_identities(capsys):
    # 1000 random pairs, p <= 50, r <= 5: the Gram identity
    # d^2 = 2(r - |U1'U2|_F^2) and the alignment sandwich
    # d/sqrt(2) <= min_O |U1 - U2 O|_F <= d, all within 1e-9.
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_gram = 0.0
    worst_sandwich = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 6))
        p = int(rng.integers(r + 1, 51))
        u1, u2 = _random_frame(rng, p, r), _random_frame(rng, p, r)
        d = subspace_distance(u1, u2)
        gram = 2.0 * (r - float(np.sum((u1.values.T @ u2.values) ** 2)))
        worst_gram = max(worst_gram, abs(d * d - gram))
        resid = procrustes_align(u1, u2)[1]
        worst_sandwich = max(worst_sandwich, d / math.sqrt(2.0) - resid,
                             resid - d)
    elapsed = time.perf_counter() - start
    ok = worst_gram <= 1e-9 and worst_sandwich <= 1e-9 and elapsed < 10.0
    _report(capsys, 1, ok, "frame distance identities",
            f"max gram defect {worst_gram:.2e}, max sandwich defect "
            f"{worst_sandwich:.2e} over 1000 pairs", elapsed)
    assert worst_gram <= 1e-9
    assert worst_sandwich <= 1e-9
    assert elapsed < 10.0


def test_02_quadratic_form_sandwiches(capsys):
    # 1000 random triples (frame, spectrum, frame): the squared form sits in
    # [lam_min^2/2, lam_max^2/2] * d^2 and the linear form in
    # [lam_min/2, lam_max/2] * d^2, zero violations at 1e-9 slack.
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    violations = 0
    worst = 0.0
    for _ in range(1000):
        r = int(rng.integers(1, 5))
        p = int(rng.integers(r + 1, 31))
        vals = np.sort(rng.uniform(0.5, 2.0, size=r))[::-1]
        spec = SpectrumSpec(values=tuple(vals), scale=float(vals[0]),
                            conditioning=float(vals[0] / vals[-1]) + 1.0)
        u, w = _random_frame(rng, p, r), _random_frame(rng, p, r)
        d2 = subspace_distance(u, w) ** 2
        lo, hi = float(vals[-1]), float(vals[0])
        for mode, weight_lo, weight_hi in (
                ("squared", lo * lo, hi * hi), ("linear", lo, hi)):
            gap = quadratic_form_gap(u, spec, w, mode=mode)
            low = 0.5 * weight_lo * d2 - gap
            high = gap - 0.5 * weight_hi * d2
            worst = max(worst, low, high)
            if low > 1e-9 or high > 1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    _report(capsys, 2, ok, "quadratic form sandwiches",
            f"{violations} violations, worst defect {worst:.2e} "
            f"over 1000 triples x 2 modes", elapsed)
    assert violations == 0
    assert elapsed < 10.0


def test_03_kl_oracle_equivalence(capsys):
    # 100 random spiked pairs, p <= 20, r <= 3: the closed-form Wishart KL
    # matches n times the generic Gaussian KL within 1e-8 relative.
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 4))
        p = int(rng.integers(r + 1, 21))
        ui, uj = _random_frame(rng, p, r), _random_frame(rng, p, r)
        t = float(rng.uniform(0.5, 4.0))
        sigma = float(rng.uniform(0.5, 2.0))
        n = int(rng.integers(1, 50))
        closed = models.kl_spiked_wishart(ui, uj, t, sigma, n)
        s2 = sigma * sigma
        cov_i = t * ui.values @ ui.values.T + s2 * np.eye(p)
        cov_j = t * uj.values @ uj.values.T + s2 * np.eye(p)
        zero = np.zeros(p)
        generic = n * models.kl_gaussian_generic(zero, cov_i, zero, cov_j)
        scale = max(abs(closed), abs(generic), 1e-30)
        worst = max(worst, abs(closed - generic) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(capsys, 3, ok, "KL oracle equivalence",
            f"max relative gap {worst:.2e} over 100 spiked pairs", elapsed)
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_04_projection_optimality_oracles(capsys):
    # Sign projection must equal the exhaustive argmin over all 2^n patterns
    # for every one of 100 inputs with n <= 12; the rank-one non-negative
    # projection must beat 1e5 random feasible candidates every trial, p <= 6.
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    patterns = {}
    sign_fails = 0
    for i in range(100):
        n = 3 + (i % 10)  # cycles 3..12
        if n not in patterns:
            patterns[n] = np.array(
                list(itertools.product([-1.0, 1.0], repeat=n))) / math.sqrt(n)
        v = _random_frame(rng, n, 1)
        got = subspace_distance(constraints.project(constraints.signs(n), v), v)
        inner = patterns[n] @ v.values[:, 0]
        best = math.sqrt(2.0 * max(0.0, 1.0 - float(np.max(inner * inner))))
        sign_fails += got > best + 1e-12
    pools = {}
    nn_fails = 0
    for i in range(100):
        p = 2 + (i % 5)  # cycles 2..6
        if p not in pools:
            cand = np.abs(rng.standard_normal((100000, p)))
            pools[p] = cand / np.linalg.norm(cand, axis=1, keepdims=True)
        v = rng.standard_normal(p)
        # the projection acts on a representative; hand it the one whose
        # positive part carries more mass, since v and -v span the same line
        if np.linalg.norm(np.clip(v, 0.0, None)) \
                < np.linalg.norm(np.clip(-v, 0.0, None)):
            v = -v
        v /= np.linalg.norm(v)
        frame = OrthonormalFrame(v[:, None])
        got = subspace_distance(
            constraints.project(constraints.nonneg(p, 1), frame), frame)
        inner = pools[p] @ v
        best = math.sqrt(2.0 * max(0.0, 1.0 - float(np.max(inner * inner))))
        nn_fails += got > best + 1e-12
    elapsed = time.perf_counter() - start
    ok = sign_fails == 0 and nn_fails == 0 and elapsed < 60.0
    _report(capsys, 4, ok, "projection optimality oracles",
            f"sign losses {sign_fails}/100, cone losses {nn_fails}/100",
            elapsed)
    assert sign_fails == 0
    assert nn_fails == 0
    assert elapsed < 60.0


def test_05_clustering_oracle_agreement(capsys):
    # n=10, p=30, sigma=1, t^2 = 20 (sqrt(pn) + n): iterative projection with
    # spectral init must land exactly on the exhaustive maximizer in >= 95%
    # of 200 trials.
    start = time.perf_counter()
    n, p = 10, 30
    t = math.sqrt(20.0 * (math.sqrt(p * n) + n))
    model = models.ModelSpec("clustering", SpectrumSpec.flat(t, 1), 1.0,
                             seed=0, n=n, p=p)
    cset = constraints.signs(n)
    iterative = EstimatorConfig()
    brute = EstimatorConfig(method="exhaustive")
    agree = 0
    for trial in range(200):
        instance = models.sample_instance(model, cset, trial_index=trial)
        m = models.objective_matrix(model.family, instance.observation)
        u_it = estimate(m, cset, iterative).frame
        u_ex = estimate(m, cset, brute).frame
        agree += subspace_distance(u_it, u_ex) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = agree >= 190 and elapsed < 60.0
    _report(capsys, 5, ok, "clustering oracle agreement",
            f"{agree}/200 trials matched exhaustive search "
            f"(need >= 190) at t {t:.3f}", elapsed)
    assert agree >= 190
    assert elapsed < 60.0


@pytest.mark.slow
def test_06_phase_transition_nonneg_rank_one(capsys):
    # Non-negative rank-one denoising, p1=10, p2=100000, sigma=1, 12-point
    # log grid on [40, 4000], 200 trials per point.  Targets: slope_high in
    # [-1.3, -0.7], slope_low in [-2.4, -1.6], breakpoint within factor 3 of
    # sqrt(p2) ~ 316.2.
    #
    # The paper's rate sqrt(p1) sqrt(t^2 + p2) / t^2, capped at the diameter,
    # falls as t^-2 only between the consistency threshold (p1 p2)^(1/4) and
    # the breakpoint sqrt(p2): a window (p2 / p1)^(1/4) wide.  These
    # dimensions make it 10 wide (31.6 to 316.2), and the grid starts above
    # the threshold, so all three regimes are on the grid.  At p1=200,
    # p2=400 the window was 1.19 wide (16.8 to 20): theory_rate sat at its
    # cap on all four grid points below the break, and the two-segment fit
    # of the theory curve itself gave slope_low 0.00, so no estimator could
    # meet the low band there.  Here the theory curve fits slope_low -1.84
    # and slope_high -1.07.
    #
    # Measured on 2 CPUs: t_break 400.0, slope_low -1.791, slope_high -1.077
    # in 72.7 s.  Seeds 7 and 1000 at 100 trials per point give slope_low
    # -1.771 / -1.753, slope_high -1.066 / -1.077 and t_break 400.0, so the
    # pass does not hang on the seed.
    start = time.perf_counter()
    p1, p2 = 10, 100000
    base = models.ModelSpec("denoising", SpectrumSpec.flat(2.0, 1), 1.0,
                            seed=6, p1=p1, p2=p2)
    cset = constraints.nonneg(p1, 1)
    grid = [{"t": float(t)} for t in np.geomspace(40.0, 4000.0, 12)]
    rows = harness.sweep(grid, base, cset, EstimatorConfig(), trials=200)
    fit = harness.detect_phase_transition(rows)
    elapsed = time.perf_counter() - start
    break_lo, break_hi = math.sqrt(p2) / 3.0, 3.0 * math.sqrt(p2)
    break_ok = break_lo <= fit.t_break <= break_hi
    high_ok = -1.3 <= fit.slope_high <= -0.7
    low_ok = -2.4 <= fit.slope_low <= -1.6
    ok = break_ok and high_ok and low_ok and elapsed < 600.0
    _report(capsys, 6, ok, "phase transition, non-negative rank one",
            f"t_break {fit.t_break:.2f} ({'ok' if break_ok else 'out'}), "
            f"slope_high {fit.slope_high:.3f} ({'ok' if high_ok else 'out'}), "
            f"slope_low {fit.slope_low:.3f} ({'ok' if low_ok else 'out'})",
            elapsed)
    assert break_ok, \
        f"t_break {fit.t_break} outside [{break_lo:.1f}, {break_hi:.1f}]"
    assert high_ok, f"slope_high {fit.slope_high} outside [-1.3, -0.7]"
    assert low_ok, f"slope_low {fit.slope_low} outside [-2.4, -1.6]"
    assert elapsed < 600.0


def test_07_sparse_rate_shape(capsys):
    # Sparse rank-one denoising, p1=200, p2=100, sigma=1, t=60,
    # k in {5, 10, 20, 40}, 300 trials per point: regressing log risk on
    # log(sqrt(k ln(e p1 / k)) + sqrt(k)) should give slope 1.0 +/- 0.25.
    #
    # Measured: slope 1.487 (1.474 / 1.445 on two other seed sets).  Monte
    # Carlo risk over uniformly random sparse truths under-weights the
    # worst-case support-uncertainty regime at this fixed signal strength,
    # so small k sits below the rate line and steepens the fit; the
    # estimator itself already matches its projected-spectral ceiling.
    #
    # A known-support oracle on the same 4 x 300 instances gives risks
    # 0.0451 / 0.0691 / 0.1036 / 0.1485, slope 1.406, also out of band; the
    # iterative estimator sits 38-49 % above it and equals spectral init plus
    # one projection (0.0622 / 0.1051 / 0.1573 / 0.2208).  The paper bounds
    # the worst case while this test averages over random truths, so the band
    # may ask for more than the paper promises, but an estimator with a
    # different excess profile could still land in it: unsettled until exact
    # oracles exist.  The band is asserted as stated and this check fails
    # honestly.
    start = time.perf_counter()
    ks = (5, 10, 20, 40)
    risks = []
    for k in ks:
        model = models.ModelSpec("denoising", SpectrumSpec.flat(60.0, 1),
                                 1.0, seed=21, p1=200, p2=100)
        cset = constraints.sparse(200, 1, k)
        risks.append(harness.monte_carlo_risk(
            model, cset, EstimatorConfig(), trials=300).mean_distance)
    xs = np.array([math.sqrt(k * math.log(math.e * 200 / k)) + math.sqrt(k)
                   for k in ks])
    fit = harness.fit_rate(xs, np.asarray(risks))
    elapsed = time.perf_counter() - start
    ok = 0.75 <= fit.slope <= 1.25 and elapsed < 600.0
    _report(capsys, 7, ok, "sparse rate shape",
            f"slope {fit.slope:.3f} (need 1.0 +/- 0.25), "
            f"r^2 {fit.r_squared:.3f}, risks "
            + "/".join(f"{v:.4f}" for v in risks), elapsed)
    assert 0.75 <= fit.slope <= 1.25, \
        f"slope {fit.slope} outside [0.75, 1.25]"
    assert elapsed < 600.0


def test_08_clustering_consistency_limit(capsys):
    # Clustering at n=64, p=256: risk at t^2 = 0.1 (sqrt(pn) + n) must be at
    # least 5x the risk at t^2 = 20 (sqrt(pn) + n), 200 trials each.  The
    # comparison multiplies instead of dividing so a strong-signal risk of
    # exactly zero cannot blow up.
    start = time.perf_counter()
    n, p = 64, 256
    base_t2 = math.sqrt(p * n) + n
    cset = constraints.signs(n)
    out = {}
    for name, factor in (("weak", 0.1), ("strong", 20.0)):
        t = math.sqrt(factor * base_t2)
        model = models.ModelSpec("clustering", SpectrumSpec.flat(t, 1),
                                 1.0, seed=11, n=n, p=p)
        out[name] = harness.monte_carlo_risk(
            model, cset, EstimatorConfig(), trials=200).mean_distance
    elapsed = time.perf_counter() - start
    ok = out["weak"] >= 5.0 * out["strong"] and elapsed < 300.0
    _report(capsys, 8, ok, "clustering consistency limit",
            f"weak risk {out['weak']:.4f} vs strong risk {out['strong']:.4f} "
            f"(need weak >= 5x strong)", elapsed)
    assert out["weak"] >= 5.0 * out["strong"]
    assert elapsed < 300.0


def test_09_entropy_scaling(capsys):
    # Squared entropy-integral ratios across k (sparse), p (non-negative) and
    # subspace dimension must match the predicted ratios within factor 2;
    # constant-weight codebooks must meet the size bound
    # ceil(exp(0.233 d ln(n/d))) at Hamming separation d/2 for
    # (n, d) = (16, 4) and (32, 8).
    start = time.perf_counter()

    def delta_sq(cset):
        center = constraints.random_member(cset, 77)
        return entropy.dudley_estimate(cset, center, budget=6000,
                                       seed=0).dudley_value ** 2

    checks = []
    # sparse, p=16, k=2 vs 3: entropy scale k ln(e p / k)
    ratio = delta_sq(constraints.sparse(16, 1, 3)) \
        / delta_sq(constraints.sparse(16, 1, 2))
    pred = (3.0 * math.log(math.e * 16 / 3)) / (2.0 * math.log(math.e * 16 / 2))
    checks.append(("sparse", ratio, pred))
    # non-negative, p=4 vs 8: entropy scale p
    ratio = delta_sq(constraints.nonneg(8, 1)) / delta_sq(constraints.nonneg(4, 1))
    checks.append(("nonneg", ratio, 2.0))
    # subspace, p=16, k=3 vs 6: entropy scale k; bases drawn on one stream
    rng = np.random.default_rng(0)
    basis_a = orthonormalize(rng.standard_normal((16, 3)))
    basis_b = orthonormalize(rng.standard_normal((16, 6)))
    ratio = delta_sq(constraints.subspace(basis_b, 1)) \
        / delta_sq(constraints.subspace(basis_a, 1))
    checks.append(("subspace", ratio, 2.0))
    ratio_fails = [name for name, ratio, pred in checks
                   if not pred / 2.0 <= ratio <= pred * 2.0]
    code_fails = []
    for n, d in ((16, 4), (32, 8)):
        code = entropy.vg_codebook(n, d)
        bound = math.ceil(math.exp(0.233 * d * math.log(n / d)))
        hamming = min(int(np.sum(a != b))
                      for a, b in itertools.combinations(code, 2))
        if len(code) < bound or hamming < d // 2:
            code_fails.append((n, d, len(code), bound, hamming))
    elapsed = time.perf_counter() - start
    ok = not ratio_fails and not code_fails and elapsed < 300.0
    detail = ", ".join(f"{name} {ratio:.3f} vs {pred:.3f}"
                       for name, ratio, pred in checks)
    _report(capsys, 9, ok, "entropy scaling",
            detail + f"; codebook misses {code_fails or 'none'}", elapsed)
    assert not ratio_fails, f"ratios out of band: {ratio_fails}"
    assert not code_fails, f"codebooks below bound: {code_fails}"
    assert elapsed < 300.0


def test_10_packing_invariants(capsys):
    # The shipped packing constructions must pass their own invariants
    # (radius containment, pairwise separation) with zero violations at the
    # documented default parameters.
    start = time.perf_counter()
    built = {
        "sparse(64,1,8,0.5)": entropy.sparse_packing_construction(64, 1, 8, 0.5),
        "signs(32,8)": entropy.sign_packing_construction(32, 8),
        "signs(16,4)": entropy.sign_packing_construction(16, 4),
    }
    failures = []
    for name, pack in built.items():
        try:
            pack.validate()
        except ValueError as exc:
            failures.append(f"{name}: {exc}")
    elapsed = time.perf_counter() - start
    sizes = ", ".join(f"{name} n={len(pack.members)}"
                      for name, pack in built.items())
    ok = not failures and elapsed < 60.0
    _report(capsys, 10, ok, "packing invariants",
            sizes + (f"; failures {failures}" if failures else "; all valid"),
            elapsed)
    assert not failures, failures
    assert elapsed < 60.0


def _files_snapshot(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


def test_11_cli_determinism(capsys, tmp_path):
    # Every command, run twice with the same resolved configuration into the
    # same directory, must reproduce its outputs byte for byte.
    start = time.perf_counter()
    sim = tmp_path / "sim"
    argvs = [
        ["simulate", "--family", "denoising", "--p1", "24", "--p2", "18",
         "--r", "1", "--t", "8", "--sigma", "1", "--constraint", "nonneg",
         "--seed", "3", "--out", str(sim)],
        ["estimate", "--in", str(sim), "--out", str(tmp_path / "est")],
        ["risk", "--family", "wigner", "--p", "8", "--r", "1", "--t", "4",
         "--sigma", "1", "--constraint", "none", "--trials", "8",
         "--seed", "2", "--out", str(tmp_path / "risk")],
        ["sweep", "--family", "wigner", "--p", "8", "--r", "1", "--sigma", "1",
         "--constraint", "none", "--t-grid", "1,2,4,8,16,32,64,128",
         "--trials", "4", "--seed", "5", "--out", str(tmp_path / "sweep")],
        ["entropy", "--constraint", "signs", "--p", "12", "--r", "1",
         "--budget", "400", "--out", str(tmp_path / "ent")],
        ["oracle", "--n", "10", "--p", "30", "--t", "25", "--trials", "10",
         "--seed", "1", "--out", str(tmp_path / "oracle")],
    ]
    mismatched = []
    for argv in argvs:
        out_dir = argv[argv.index("--out") + 1]
        assert main(argv) == 0, f"first run failed: {argv[0]}"
        first = _files_snapshot(out_dir)
        assert main(argv) == 0, f"second run failed: {argv[0]}"
        second = _files_snapshot(out_dir)
        if first != second:
            mismatched.append(argv[0])
    elapsed = time.perf_counter() - start
    ok = not mismatched
    _report(capsys, 11, ok, "CLI determinism",
            f"{len(argvs)} commands rerun byte-identically"
            if ok else f"mismatched outputs: {mismatched}", elapsed)
    assert not mismatched, mismatched
