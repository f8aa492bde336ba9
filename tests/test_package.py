import ast
import dataclasses
import pathlib

import subspace_est
from subspace_est import estimators, models


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
