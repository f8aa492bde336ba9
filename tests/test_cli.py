import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from subspace_est import constraints, harness
from subspace_est.cli import main
from subspace_est.matio import read_matrix, write_matrix


def _snapshot(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


def _simulate(out, extra=()):
    argv = ["simulate", "--family", "denoising", "--p1", "40", "--p2", "30",
            "--r", "2", "--t", "8", "--sigma", "1", "--constraint", "none",
            "--seed", "7", "--out", str(out)] + list(extra)
    return main(argv)


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "subspace-est" in capsys.readouterr().out


def test_simulate_shapes_and_files(tmp_path):
    out = tmp_path / "sim"
    assert _simulate(out) == 0
    y = read_matrix(out / "Y.csv")
    assert y.shape == (40, 30)
    assert read_matrix(out / "U_truth.csv").shape == (40, 2)
    assert read_matrix(out / "spectrum.csv").shape == (2, 1)
    resolved = (out / "simulate_config.txt").read_text()
    assert "family=denoising" in resolved
    assert "seed=7" in resolved


def test_simulate_repeat_is_byte_identical(tmp_path):
    out = tmp_path / "sim"
    assert _simulate(out) == 0
    first = _snapshot(out)
    assert _simulate(out) == 0
    assert _snapshot(out) == first


def test_simulate_sparse_truth_columns(tmp_path):
    out = tmp_path / "sim"
    argv = ["simulate", "--family", "denoising", "--p1", "30", "--p2", "20",
            "--r", "2", "--t", "9", "--sigma", "1", "--constraint",
            "sparse:k=3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    u = read_matrix(out / "U_truth.csv")
    assert np.all(np.sum(np.abs(u) > 1e-12, axis=0) <= 3)


def test_estimate_noiseless_round_trip(tmp_path):
    sim = tmp_path / "sim"
    argv = ["simulate", "--family", "wigner", "--p", "12", "--r", "1",
            "--t", "5", "--sigma", "1e-12", "--constraint", "none",
            "--seed", "2", "--out", str(sim)]
    assert main(argv) == 0
    est = tmp_path / "est"
    assert main(["estimate", "--in", str(sim), "--out", str(est)]) == 0
    report = json.loads((est / "report.json").read_text())
    assert report["d_to_truth"] <= 1e-6
    assert report["converged"] is True and report["status"] == "converged"
    u = read_matrix(est / "U_hat.csv")
    assert u.shape == (12, 1)


def test_estimate_rank_other_than_truth_null_distance(tmp_path):
    sim = tmp_path / "sim"
    argv = ["simulate", "--family", "wishart", "--p", "12", "--n", "40",
            "--r", "2", "--t", "5", "--sigma", "1", "--constraint", "none",
            "--seed", "1", "--out", str(sim)]
    assert main(argv) == 0
    est = tmp_path / "est"
    argv = ["estimate", "--in", str(sim), "--method", "spectral", "--r", "1",
            "--out", str(est)]
    assert main(argv) == 0
    assert read_matrix(est / "U_hat.csv").shape == (12, 1)
    assert json.loads((est / "report.json").read_text())["d_to_truth"] is None


def test_estimate_sign_model_entries(tmp_path):
    sim = tmp_path / "sim"
    argv = ["simulate", "--family", "clustering", "--n", "10", "--p", "30",
            "--r", "1", "--t", "25", "--sigma", "1", "--constraint", "signs",
            "--seed", "4", "--out", str(sim)]
    assert main(argv) == 0
    est = tmp_path / "est"
    assert main(["estimate", "--in", str(sim), "--out", str(est)]) == 0
    u = read_matrix(est / "U_hat.csv")
    assert np.max(np.abs(np.abs(u) - 1.0 / math.sqrt(10))) <= 1e-12


def test_estimate_exhaustive_too_large_exit_two(tmp_path, capsys):
    sim = tmp_path / "sim"
    argv = ["simulate", "--family", "clustering", "--n", "25", "--p", "15",
            "--r", "1", "--t", "30", "--sigma", "1", "--constraint", "signs",
            "--seed", "4", "--out", str(sim)]
    assert main(argv) == 0
    code = main(["estimate", "--in", str(sim), "--method", "exhaustive"])
    assert code == 2
    assert "TooLarge" in capsys.readouterr().err


def test_unknown_config_key_exit_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=wigner\nbogus_knob=3\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    # the risk command has no threads key: trials run in one loop
    risk_cfg = tmp_path / "risk.cfg"
    risk_cfg.write_text(
        "family=wigner\np=8\nr=1\nt=6\nsigma=1\nconstraint=none\n"
        f"trials=4\nthreads=2\nout={tmp_path / 'risk'}\n")
    assert main(["risk", "--config", str(risk_cfg)]) == 2
    assert not (tmp_path / "risk").exists()


def test_risk_loss_above_diameter_exit_four(tmp_path, monkeypatch, capsys):
    from subspace_est import harness
    monkeypatch.setattr(harness, "subspace_distance", lambda a, b: 2.0)
    argv = ["risk", "--family", "wigner", "--p", "8", "--r", "1", "--t", "6",
            "--sigma", "1", "--constraint", "none", "--trials", "4",
            "--out", str(tmp_path / "risk")]
    assert main(argv) == 4
    assert "BoundViolated" in capsys.readouterr().err


def test_missing_input_exit_three(tmp_path):
    assert main(["estimate", "--in", str(tmp_path / "nope")]) == 3
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "sim"
    cfg.write_text(
        "family=wigner\np=6\nr=1\nt=5\nsigma=1\nconstraint=none\n"
        f"out={out}\n# comment line\n")
    assert main(["simulate", "--config", str(cfg), "--t", "8"]) == 0
    resolved = (out / "simulate_config.txt").read_text()
    assert "t=8" in resolved


def test_risk_command(tmp_path):
    out = tmp_path / "risk"
    argv = ["risk", "--family", "wigner", "--p", "8", "--r", "1", "--t", "6",
            "--sigma", "1", "--constraint", "none", "--method", "spectral",
            "--trials", "8", "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads((out / "risk.json").read_text())
    assert payload["trials"] == 8
    assert 0.0 <= payload["mean_d"] <= math.sqrt(2.0)
    assert payload["stderr"] >= 0.0
    assert len(payload["spec_digest"]) == 16


def test_sweep_eight_point_grid(tmp_path):
    out = tmp_path / "sweep"
    argv = ["sweep", "--family", "wigner", "--p", "8", "--r", "1",
            "--sigma", "1", "--constraint", "none", "--method", "spectral",
            "--trials", "4", "--seed", "0", "--out", str(out),
            "--t-grid", "2,4,8,16,32,64,128,256"]
    assert main(argv) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "family,p1,p2,n,p,r,k,t,sigma,trials,seed,mean_d,stderr,theory_rate"
    assert len(lines) == 9
    fits = json.loads((out / "fits.json").read_text())
    assert set(fits) == {"r_squared_high", "r_squared_low", "slope_high",
                         "slope_low", "t_break"}


def test_constraint_knob_on_kind_without_one_exit_two(tmp_path):
    base = ["--family", "wigner", "--p", "8", "--r", "1", "--t", "6",
            "--sigma", "1", "--trials", "2"]
    argv = ["sweep", *base, "--constraint", "nonneg", "--k-grid", "3,5",
            "--out", str(tmp_path / "sweep")]
    assert main(argv) == 2
    assert not (tmp_path / "sweep").exists()
    argv = ["risk", *base, "--constraint", "nonneg:k=3",
            "--out", str(tmp_path / "risk")]
    assert main(argv) == 2
    assert not (tmp_path / "risk").exists()


def test_signs_constraint_above_rank_one_exit_two(tmp_path):
    argv = ["entropy", "--constraint", "signs", "--p", "12", "--r", "3",
            "--budget", "100", "--out", str(tmp_path / "ent")]
    assert main(argv) == 2
    assert not (tmp_path / "ent").exists()
    sim = tmp_path / "sim"
    argv = ["simulate", "--family", "clustering", "--n", "10", "--p", "30",
            "--r", "1", "--t", "25", "--sigma", "1", "--constraint", "signs",
            "--seed", "4", "--out", str(sim)]
    assert main(argv) == 0
    before = _snapshot(sim)
    argv = ["estimate", "--in", str(sim), "--r", "2", "--out", str(tmp_path / "est")]
    assert main(argv) == 2
    assert not (tmp_path / "est").exists()
    assert _snapshot(sim) == before


def test_entropy_singleton_dudley_zero(tmp_path):
    out = tmp_path / "ent"
    argv = ["entropy", "--constraint", "signs", "--p", "1", "--r", "1",
            "--budget", "100", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads((out / "entropy.json").read_text())
    assert payload["dudley"] == 0.0
    assert payload["dudley_prime"] == 0.0
    assert len(payload["epsilons"]) == 24
    # every draw equals the center, so no scale took a drawn element
    assert payload["unresolved"] == [False] * 24
    assert payload["unresolved_share"] == {"dudley": 0.0, "dudley_prime": 0.0}


def test_entropy_budget_below_one_exit_two(tmp_path):
    for budget in ("0", "-5"):
        out = tmp_path / f"ent{budget}"
        argv = ["entropy", "--constraint", "nonneg", "--p", "8", "--r", "2",
                "--budget", budget, "--out", str(out)]
        assert main(argv) == 2
        assert not (out / "entropy.json").exists()
        assert not out.exists()


_REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")


def test_entropy_p64_within_benchmark_reference(tmp_path):
    # the benchmark checks its seed-0 entropy commands against the Dudley
    # values it holds, to 5 %; a change of rule that would fail that check
    # fails here first
    with open(_REFERENCE) as fh:
        reference = json.load(fh)["entropy-p64"]
    for text, want in zip(("sparse:k=8", "nonneg"), reference):
        out = tmp_path / text.replace(":", "_")
        argv = ["entropy", "--p", "64", "--r", "2", "--budget", "1000",
                "--constraint", text, "--out", str(out)]
        assert main(argv) == 0
        got = json.loads((out / "entropy.json").read_text())["dudley"]
        assert abs(got - want["dudley"]) <= 0.05 * want["dudley"]


def test_oracle_strong_signal_agreement(tmp_path):
    out = tmp_path / "oracle"
    argv = ["oracle", "--n", "10", "--p", "30", "--t", "25", "--sigma", "1",
            "--trials", "40", "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert payload["trials"] == 40
    assert payload["agree_count"] >= 38
    assert payload["mean_d_gap"] >= -1e-12


def _oracle(out, n, p, t, trials, seed):
    argv = ["oracle", "--n", str(n), "--p", str(p), "--t", str(t),
            "--trials", str(trials), "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    return (out / "oracle.json").read_bytes()


def test_oracle_golden_bits(tmp_path):
    # recorded when the oracle sampled and estimated one trial at a time
    for knobs, agree, gap in [((12, 20, 6, 200, 3), 125, "0x1.d5bf8d08cc80ap-5"),
                              ((10, 30, 25, 10, 1), 10, "0x0.0p+0")]:
        payload = json.loads(_oracle(tmp_path / "oracle", *knobs))
        assert payload["trials"] == knobs[3]
        assert payload["agree_count"] == agree, knobs
        assert payload["mean_d_gap"].hex() == gap, knobs


def test_oracle_same_at_every_block_size(tmp_path, monkeypatch):
    # weak signal: the iterative and exhaustive answers disagree on some trials
    want = _oracle(tmp_path / "all", 12, 20, 6, 30, 3)
    assert json.loads(want)["agree_count"] < 30
    for size in (1, 7, 30):
        monkeypatch.setattr(harness, "BLOCK_BYTES", 8 * 12 * 12 * size)
        assert _oracle(tmp_path / f"b{size}", 12, 20, 6, 30, 3) == want, size


def test_simulate_non_finite_subspace_basis_exit_two(tmp_path):
    qfile = tmp_path / "Q.csv"
    write_matrix(qfile, np.full((40, 3), np.nan))
    out = tmp_path / "sim"
    assert _simulate(out, ["--constraint", f"subspace:qfile={qfile}"]) == 2
    assert not out.exists()


def test_estimate_non_finite_observation_exit_three(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert _simulate(sim) == 0
    y = read_matrix(sim / "Y.csv")
    y[3, 4] = np.nan
    write_matrix(sim / "Y.csv", y)
    assert main(["estimate", "--in", str(sim), "--out", str(tmp_path / "est")]) == 3
    assert "malformed matrix file" in capsys.readouterr().err
    assert not (tmp_path / "est").exists()


def test_overflowing_objective_exit_four(tmp_path, capsys):
    # Y Y' overflows: a typed error, not numpy's warning and an eigh failure
    risk = tmp_path / "risk"
    argv = ["risk", "--family", "denoising", "--p1", "8", "--p2", "9", "--r", "1",
            "--t", "1e200", "--sigma", "1", "--constraint", "none", "--trials", "3",
            "--out", str(risk)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "DegenerateInput" in err and "Traceback" not in err
    assert not risk.exists()
    sim = tmp_path / "sim"
    assert _simulate(sim) == 0
    write_matrix(sim / "Y.csv", np.full((40, 30), 1e200))
    est = tmp_path / "est"
    assert main(["estimate", "--in", str(sim), "--out", str(est)]) == 4
    err = capsys.readouterr().err
    assert "DegenerateInput" in err and "Traceback" not in err
    assert not est.exists()
    # M itself is finite here, but its products in the power step are not
    big = tmp_path / "big"
    big.mkdir()
    write_matrix(big / "Y.csv", np.full((12, 12), 8e307))
    argv = ["estimate", "--in", str(big), "--family", "wigner", "--r", "1",
            "--constraint", "none", "--out", str(est)]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith(
        "error: DegenerateInput: objective entries up to 8e+307 overflow the power step")
    assert not est.exists()


def test_estimate_wigner_on_non_square_observation_exit_two(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert _simulate(sim) == 0
    est = tmp_path / "est"
    argv = ["estimate", "--in", str(sim), "--family", "wigner", "--out", str(est)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "DimensionMismatch" in err and "wigner" in err
    assert not est.exists()


def test_wishart_with_fewer_than_two_rows_exit_two(tmp_path, capsys):
    base = ["--family", "wishart", "--n", "1", "--p", "6", "--r", "1", "--t", "3",
            "--sigma", "1", "--constraint", "none"]
    for command, extra in (("risk", ["--trials", "2"]), ("simulate", [])):
        out = tmp_path / command
        assert main([command, *base, *extra, "--out", str(out)]) == 2, command
        assert not out.exists(), command
        assert "n >= 2" in capsys.readouterr().err, command


def test_non_finite_scale_noise_or_epsilon_exit_two(tmp_path, capsys):
    model = ["--family", "wigner", "--p", "6", "--r", "1", "--constraint", "none"]
    cases = [
        ["simulate", *model, "--t", "nan", "--sigma", "1"],
        ["simulate", *model, "--t", "inf", "--sigma", "1"],
        ["risk", *model, "--t", "nan", "--sigma", "1", "--trials", "2"],
        ["risk", *model, "--t", "inf", "--sigma", "1", "--trials", "2"],
        ["risk", *model, "--t", "4", "--sigma", "inf", "--trials", "2"],
        ["sweep", *model, "--t-grid", "2,nan", "--trials", "2"],
        ["entropy", "--constraint", "nonneg", "--p", "8", "--r", "2",
         "--eps-max", "nan"],
    ]
    for index, argv in enumerate(cases):
        out = tmp_path / f"out{index}"
        assert main([*argv, "--out", str(out)]) == 2, argv
        assert not out.exists(), argv
        assert "ValueError" in capsys.readouterr().err, argv


def test_entropy_non_finite_bounds_exit_two_without_warnings(tmp_path, capsys):
    # the bounds are checked before the epsilon grid is built from them
    base = ["entropy", "--constraint", "nonneg", "--p", "8", "--r", "2"]
    for index, bound in enumerate((["--eps-min", "inf"], ["--eps-max", "nan"])):
        out = tmp_path / f"ent{index}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*base, *bound, "--out", str(out)]) == 2, bound
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], bound
        assert not out.exists(), bound
        err = capsys.readouterr().err
        assert "ValueError" in err and "RuntimeWarning" not in err, bound


_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _src_env():
    """The environment with src/ first on PYTHONPATH, for running the
    package as a module from an uninstalled checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (os.path.abspath(_SRC),
                                                       env.get("PYTHONPATH"))))
    return env


def test_module_entry_point_passes_main_exit_code(tmp_path):
    # README's python -m subspace_est.cli form, as its own process
    def run(*args):
        return subprocess.run([sys.executable, "-m", "subspace_est.cli", *args],
                              env=_src_env(), capture_output=True, text=True)

    version = run("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == "subspace-est 0.1.0"
    no_trials = run("risk", "--family", "wigner", "--p", "8", "--r", "1", "--t", "3",
                    "--sigma", "1", "--constraint", "none", "--out", str(tmp_path / "risk"))
    assert no_trials.returncode == 2
    assert "missing required option --trials" in no_trials.stderr
    assert not (tmp_path / "risk").exists()


def test_entropy_p64_same_bytes_at_one_and_two_blas_threads(tmp_path):
    # the greedy net's block products are wide enough for the BLAS to
    # thread; the two entropy commands of the p = 64 benchmark must not
    # depend on it
    env = _src_env()
    outputs = {}
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
        for text in ("sparse:k=8", "nonneg"):
            out = tmp_path / f"{text.replace(':', '_')}-{threads}"
            argv = [sys.executable, "-m", "subspace_est.cli", "entropy",
                    "--p", "64", "--r", "2", "--budget", "1000",
                    "--constraint", text, "--out", str(out)]
            subprocess.run(argv, env=env, check=True)
            outputs[text, threads] = (out / "entropy.json").read_bytes()
    for text in ("sparse:k=8", "nonneg"):
        assert outputs[text, "1"] == outputs[text, "2"], text


def test_oracle_fewer_than_one_trial_exit_two(tmp_path, capsys):
    for trials in ("0", "-3"):
        out = tmp_path / f"oracle{trials}"
        argv = ["oracle", "--n", "6", "--p", "10", "--t", "5",
                "--trials", trials, "--out", str(out)]
        assert main(argv) == 2, trials
        assert not (out / "oracle.json").exists()
        assert not out.exists()
        assert "at least 1 trial" in capsys.readouterr().err


def test_dimension_the_family_does_not_read_exit_two(tmp_path, monkeypatch, capsys):
    calls = []
    risk = harness.monte_carlo_risk

    def counted(*args):
        calls.append(args)
        return risk(*args)

    monkeypatch.setattr(harness, "monte_carlo_risk", counted)
    cases = [
        (["risk", "--family", "wigner", "--p", "20", "--n", "7", "--r", "1", "--t", "4",
          "--sigma", "1", "--constraint", "none", "--trials", "3"], "wigner does not read n=7"),
        # a p grid on denoising would scan p over one unchanged model
        (["sweep", "--family", "denoising", "--p1", "50", "--p2", "60", "--r", "1",
          "--t", "4", "--sigma", "1", "--constraint", "nonneg", "--trials", "5",
          "--p-grid", "10,20,30"], "denoising does not read p=10"),
    ]
    for argv, message in cases:
        out = tmp_path / argv[0]
        assert main([*argv, "--out", str(out)]) == 2, argv[0]
        assert not out.exists(), argv[0]
        assert message in capsys.readouterr().err
    assert calls == []


def test_entropy_repeated_scale_exit_two_before_drawing(tmp_path, monkeypatch, capsys):
    counts = []
    draw = constraints.random_members

    def counted(cset, seed, count):
        counts.append(count)
        return draw(cset, seed, count)

    monkeypatch.setattr(constraints, "random_members", counted)
    out = tmp_path / "ent"
    argv = ["entropy", "--constraint", "nonneg", "--p", "64", "--r", "2",
            "--eps-min", "0.5", "--eps-max", "0.5", "--budget", "4000", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert "two or more distinct epsilon scales" in capsys.readouterr().err
    # the center is the one member drawn before the scales are checked
    assert counts == [1]


# every key each command resolves, with its default where it has one: a lost
# key or a drifted default changes these bytes
_MINIMAL_CONFIGS = [
    (["simulate", "--family", "wigner", "--p", "6", "--r", "1", "--t", "4",
      "--sigma", "1", "--constraint", "none", "--out", "sim"],
     "constraint=none\nfamily=wigner\nout=sim\np=6\nr=1\nseed=0\nsigma=1\nt=4\n"),
    (["estimate", "--in", "sim", "--out", "est"],
     "constraint=none\nfamily=wigner\nin=sim\ninit=spectral\ninit_seed=0\n"
     "max_iter=200\nmethod=iterative\nout=est\nr=1\ntol=1e-08\n"),
    (["risk", "--family", "wigner", "--p", "6", "--r", "1", "--t", "4",
      "--sigma", "1", "--constraint", "none", "--trials", "2", "--out", "risk"],
     "constraint=none\nfamily=wigner\ninit=spectral\ninit_seed=0\nmax_iter=200\n"
     "method=iterative\nout=risk\np=6\nr=1\nseed=0\nsigma=1\nt=4\ntol=1e-08\n"
     "trials=2\n"),
    (["sweep", "--family", "wigner", "--p", "6", "--r", "1", "--constraint",
      "none", "--t-grid", "2,4", "--trials", "2", "--out", "sweep"],
     "constraint=none\nfamily=wigner\ninit=spectral\ninit_seed=0\nmax_iter=200\n"
     "method=iterative\nout=sweep\np=6\nr=1\nseed=0\nsigma=1\nt_grid=2,4\n"
     "tol=1e-08\ntrials=2\n"),
    (["entropy", "--constraint", "signs", "--p", "6", "--r", "1", "--out", "ent"],
     "budget=4000\nconstraint=signs\neps_max=1.4142135623730951\neps_min=0.01\n"
     "grid_points=24\nout=ent\np=6\nr=1\nseed=0\n"),
    (["oracle", "--n", "6", "--p", "8", "--t", "5", "--trials", "2", "--out",
      "oracle"],
     "init=spectral\ninit_seed=0\nmax_iter=200\nn=6\nout=oracle\np=8\nseed=0\n"
     "sigma=1\nt=5\ntol=1e-08\ntrials=2\n"),
]


def test_minimal_invocations_resolve_every_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, want in _MINIMAL_CONFIGS:
        assert main(argv) == 0, argv[0]
        out = argv[argv.index("--out") + 1]
        assert (tmp_path / out / f"{argv[0]}_config.txt").read_text() == want, argv[0]


def _basis_file(path, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 4)))
    write_matrix(path, q)
    return f"subspace:qfile={path}"


_SUBSPACE = ["--family", "wigner", "--p", "8", "--r", "1", "--t", "6", "--sigma", "1",
             "--trials", "3"]


def test_subspace_risk_digest_reads_the_basis(tmp_path):
    digests = []
    for seed in (1, 2):
        out = tmp_path / f"risk{seed}"
        constraint = _basis_file(tmp_path / f"Q{seed}.csv", seed)
        assert main(["risk", *_SUBSPACE, "--constraint", constraint, "--out", str(out)]) == 0
        digests.append(json.loads((out / "risk.json").read_text())["spec_digest"])
    assert digests[0] != digests[1]


def test_subspace_sweep_over_r_keeps_the_basis(tmp_path):
    out = tmp_path / "sweep"
    constraint = _basis_file(tmp_path / "Q.csv", 1)
    argv = ["sweep", *_SUBSPACE, "--constraint", constraint, "--r-grid", "1,2"]
    assert main([*argv, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["r"], row["k"]) for row in rows] == [("1", "4"), ("2", "4")]


def test_subspace_sweep_over_p_or_k_exit_two_before_any_trial(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "monte_carlo_risk", lambda *args: calls.append(args))
    constraint = _basis_file(tmp_path / "Q.csv", 1)
    for grid, message in ((["--p-grid", "8,10"], "subspace basis must be p x k"),
                          (["--k-grid", "4,5"], "differs from the basis width 4")):
        out = tmp_path / grid[0]
        argv = ["sweep", *_SUBSPACE, "--constraint", constraint, *grid, "--out", str(out)]
        assert main(argv) == 2, grid
        assert not out.exists(), grid
        assert message in capsys.readouterr().err, grid
    assert calls == []


_WIGNER_RISK = ["risk", "--family", "wigner", "--p", "6", "--r", "1", "--t", "4",
                "--sigma", "1", "--constraint", "none", "--trials", "2"]


# each case: files to write under tmp_path, argv ("{tmp}" is tmp_path), exit
# code, and the start of the error message
_REFUSALS = {
    "bad typed value": ({}, [*_WIGNER_RISK, "--r", "x", "--out", "{tmp}/out"],
                        2, "bad value for r: 'x'"),
    "config line without =": ({"bad.txt": "family wigner\n"},
                              ["risk", "--config", "{tmp}/bad.txt", "--out", "{tmp}/out"],
                              2, "{tmp}/bad.txt:1: expected key=value"),
    "missing required option": ({}, [*_WIGNER_RISK[:-2], "--out", "{tmp}/out"],
                                2, "missing required option --trials"),
    "uncreatable out": ({"file": ""}, [*_WIGNER_RISK, "--out", "{tmp}/file/out"],
                        3, "cannot create output directory {tmp}/file/out"),
    "sweep without a grid": ({}, ["sweep", *_WIGNER_RISK[1:], "--out", "{tmp}/out"],
                             2, "sweep needs at least one <knob>_grid key"),
    "sweep without t": ({}, ["sweep", "--family", "wigner", "--p", "6", "--r", "1",
                             "--constraint", "none", "--trials", "2",
                             "--sigma-grid", "1,2", "--out", "{tmp}/out"],
                        2, "sweep needs t or t_grid"),
    "estimate without family": ({"in/Y.csv": "# 2 2\n1,0\n0,1\n"},
                                ["estimate", "--in", "{tmp}/in", "--r", "1",
                                 "--constraint", "none", "--out", "{tmp}/out"],
                                2, "--family not given and absent from {tmp}/in/"),
    "estimate without Y.csv": ({"in/U_truth.csv": "# 2 1\n1\n0\n"},
                               ["estimate", "--in", "{tmp}/in", "--family", "wigner",
                                "--r", "1", "--constraint", "none", "--out", "{tmp}/out"],
                               3, "cannot read {tmp}/in/Y.csv"),
    # the write of risk.json fails on the directory of that name
    "output name taken by a directory": ({"res/risk.json/keep": ""},
                                         [*_WIGNER_RISK, "--out", "{tmp}/res"],
                                         3, "[Errno 21] Is a directory: '{tmp}/res/risk.json'"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_cli_refusal_exit_code_and_message(tmp_path, capsys, case):
    files, argv, code, message = _REFUSALS[case]
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
    assert capsys.readouterr().err.startswith(f"error: {message.format(tmp=tmp_path)}")
    assert not (tmp_path / "out").exists()
