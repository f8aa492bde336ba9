import ast
import dataclasses
import inspect
import pathlib

import numpy as np

import subspace_est
from subspace_est import cli, constraints, entropy, estimators, harness, models


def test_every_export_resolves():
    missing = [name for name in subspace_est.__all__
               if not hasattr(subspace_est, name)]
    assert not missing


def test_only_models_branches_on_family():
    # estimators work on matrices alone; models owns every family rule
    assert not hasattr(estimators, "models")
    package = pathlib.Path(subspace_est.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        if path.name != "models.py" and ("family ==" in text or "family in (" in text):
            offenders.append(path.name)
    assert not offenders


def test_only_constraints_compares_kinds():
    # a constraint set is stated once, by its projection in constraints;
    # other modules compare whole sets, never their kinds
    package = pathlib.Path(subspace_est.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "constraints.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Attribute) and n.attr == "kind" for n in ast.walk(node)):
                offenders.append((path.name, node.lineno))
    assert offenders == []


def _calls(node, names):
    """Names of the calls below node of a function in names."""
    callees = (getattr(n.func, "attr", None) or getattr(n.func, "id", None)
               for n in ast.walk(node) if isinstance(n, ast.Call))
    return sorted(name for name in callees if name in names)


def test_cli_handlers_write_nothing():
    # handlers return their outputs; main alone writes them into --out
    package = pathlib.Path(subspace_est.__file__).parent
    tree = ast.parse((package / "cli.py").read_text())
    handlers = [n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name.startswith("_cmd_")]
    assert len(handlers) == 6
    writers = {"open", "makedirs", "write_matrix", "writerow", "writerows", "dump"}
    assert {n.name: _calls(n, writers) for n in handlers} == {
        n.name: [] for n in handlers}


def test_one_seed_to_stream_rule():
    # every stream comes from constraints.as_generator
    package = pathlib.Path(subspace_est.__file__).parent
    users = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and "SeedSequence" in ast.unparse(node):
                users.append((path.name, node.name))
        if path.name != "constraints.py":
            assert "SeedSequence" not in path.read_text(), path.name
    assert users == [("constraints.py", "as_generator")]


def test_harness_writes_no_file():
    package = pathlib.Path(subspace_est.__file__).parent
    tree = ast.parse((package / "harness.py").read_text())
    assert _calls(tree, {"open", "writer", "writerow", "writerows"}) == []
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                   and "csv" in [alias.name for alias in node.names]
                   for node in ast.walk(tree))


def test_entropy_has_one_draw_path():
    # nets and packings draw through one block generator and compare by
    # stacked rows; only PackingSet.validate checks pairs one by one
    package = pathlib.Path(subspace_est.__file__).parent
    tree = ast.parse((package / "entropy.py").read_text())
    validate = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef) and n.name == "validate")
    per_member = {"random_member", "subspace_distance"}
    assert _calls(tree, per_member) == _calls(validate, per_member)
    assert _calls(tree, {"random_members"}) == ["random_members"]
    # a draw block's one product with the center serves its tangent norm
    # and its center overlaps; no second form of ||W' V||^2 stands beside it
    assert not hasattr(entropy, "_captured")
    assert not hasattr(entropy, "_gram_distances")


def test_trial_path_keeps_no_derivable_state():
    # each returned frame is checked once, when it becomes an OrthonormalFrame,
    # and an instance holds only what its caller cannot derive from the spec
    package = pathlib.Path(subspace_est.__file__).parent
    tree = ast.parse((package / "estimators.py").read_text())
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
             and n.name in ("iterative_projection_batch", "_spectral_members")]
    assert [_calls(n, {"check_orthonormal"}) for n in loops] == [[], []]
    assert [f.name for f in dataclasses.fields(models.SampledInstance)] == [
        "observation", "truth_left", "truth_right"]
    assert "mean" not in {f.name for f in dataclasses.fields(models.ModelSpec)}


def test_each_dimension_is_stated_once():
    # the rank is the spectrum's length, a constraint set is re-dimensioned
    # through its own constructor, the sweep knobs name the model dimensions
    # by the models table, and the oracle samples each block once
    assert "rank" not in {f.name for f in dataclasses.fields(models.ModelSpec)}
    assert not hasattr(constraints.ConstraintSet, "resized")
    package = pathlib.Path(subspace_est.__file__).parent
    tree = ast.parse((package / "harness.py").read_text())
    knobs = next(n.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
                 and [ast.unparse(t) for t in n.targets] == ["KNOBS"])
    assert "*models.DIMENSIONS" in ast.unparse(knobs)
    tree = ast.parse((package / "cli.py").read_text())
    oracle = next(n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == "_cmd_oracle")
    assert _calls(oracle, {"run_trials"}) == ["run_trials"]


def test_benchmark_risk_commands_take_no_svd(monkeypatch, tmp_path):
    # the power step's rank test settles every slice of the seed-0 benchmark
    # risk runs from the determinant bound, without singular values
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    commands = {
        "lowsnr": ["--family", "denoising", "--p1", "200", "--p2", "400", "--r", "1",
                   "--t", "2", "--constraint", "nonneg", "--trials", "10"],
        "sparse": ["--family", "wigner", "--p", "40", "--r", "2", "--t", "8",
                   "--constraint", "sparse:k=6", "--trials", "50"],
    }
    for name, argv in commands.items():
        assert cli.main(["risk", *argv, "--sigma", "1", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / name / "risk.json").exists()
    assert calls == []


def test_records_hold_measurements_only():
    # what a record's function measured is stored; what follows from it, or
    # echoes the caller's inputs, is derived or left to the caller
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(harness.RiskEstimate) == ("mean_distance", "stderr")
    assert names(entropy.EntropyEstimate) == (
        "epsilons", "log_covering", "budget", "unresolved")
    assert entropy.EntropyEstimate.__dataclass_params__.frozen
    assert names(entropy.PackingSet) == ("center", "radius", "separation", "members")
    for cls, prop in ((entropy.EntropyEstimate, "dudley_value"),
                      (entropy.EntropyEstimate, "dudley_prime"),
                      (entropy.EntropyEstimate, "unresolved_share"),
                      (entropy.PackingSet, "alpha")):
        assert isinstance(inspect.getattr_static(cls, prop), property), prop
    assert not hasattr(entropy, "_unresolved_share")
    assert not hasattr(harness, "_spec_digest")


def test_benchmark_read_interface():
    # perfbench/tracing.py reads these names on every benchmark run, traced
    # or not: the 4th argument of monte_carlo_risk by the name trials, the
    # first of dudley_estimate by the name cset, and the log_covering and
    # budget of its result
    risk = list(inspect.signature(harness.monte_carlo_risk).parameters)
    assert risk.index("trials") == 3
    assert list(inspect.signature(entropy.dudley_estimate).parameters)[0] == "cset"
    cset = constraints.signs(4)
    est = entropy.dudley_estimate(cset, constraints.random_member(cset, 0),
                                  epsilon_grid=[0.5, 1.0], budget=5, seed=1)
    assert est.budget == 5 and len(est.log_covering) == 2


def test_every_import_is_used():
    # a deletion takes its imports with it; __init__ imports to re-export
    package = pathlib.Path(subspace_est.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [(path.name, alias.name) for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_each_computation_has_one_copy():
    # one entry per estimator method, one least-squares routine for rate
    # fits, one argument rule for the entropy estimates
    assert not hasattr(estimators, "spectral_estimate")
    assert not hasattr(estimators, "exhaustive_argmax")
    assert not hasattr(harness, "_segment_sse")
    assert not hasattr(entropy, "_check_budget")
    assert not hasattr(entropy, "_check_scales")
