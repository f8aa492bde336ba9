"""Command-line front end.

Each subcommand reads an optional plain-text config file (key=value lines,
"#" comments) and lets flags override file values.  Its handler computes
from that resolved config alone and returns its outputs by file name; main
writes them into the output directory, then the resolved config as
<command>_config.txt, and only once the handler has succeeded, so a failing
command leaves the output directory untouched.  Every command is
deterministic given its resolved config.  Exit codes: 0 success, 2 usage
error, 3 I/O failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import constraints, entropy, estimators, harness, models
from .errors import (BoundViolated, BudgetExhausted, ConstraintViolation,
                     DegenerateInput, DimensionMismatch, InfeasibleParameters,
                     NotPositiveDefinite, RankDeficient, TooFewRows, TooLarge)
from .geometry import subspace_distance
from .matio import format_float, read_matrix, write_matrix

VERSION = "subspace-est 0.1.0"

_NUMERICAL_ERRORS = (RankDeficient, DegenerateInput, NotPositiveDefinite,
                     TooFewRows, BudgetExhausted, BoundViolated)
_USAGE_ERRORS = (TooLarge, DimensionMismatch, ConstraintViolation,
                 InfeasibleParameters, ValueError)


class _UsageError(Exception):
    pass


class _FileError(Exception):
    pass


# key -> (type tag, default, required); None default means "must resolve"
_MODEL_KEYS = {
    "family": ("str", None, True),
    **{name: ("int", None, False) for name in models.DIMENSIONS},
    "r": ("int", None, True), "t": ("float", None, True),
    "sigma": ("float", None, True), "constraint": ("str", None, True),
}
# EstimatorConfig's annotations are strings ("int", "float", "str"), so they
# double as type tags
_ESTIMATOR_KEYS = {field.name: (field.type, field.default, False)
                   for field in dataclasses.fields(estimators.EstimatorConfig)}
_RUN_KEYS = {"trials": ("int", None, True), "seed": ("int", 0, False),
             "out": ("str", None, True)}
_GRID_KEYS = {f"{knob}_grid": ("float_list" if knob in ("t", "sigma") else "int_list",
                               None, False)
              for knob in harness.KNOBS}

_KEYSPECS = {
    "simulate": {**_MODEL_KEYS, "seed": _RUN_KEYS["seed"], "out": _RUN_KEYS["out"]},
    "estimate": {
        "in": ("str", None, True), "out": ("str", None, False),
        "family": ("str", None, False), "r": ("int", None, False),
        "constraint": ("str", None, False), **_ESTIMATOR_KEYS,
    },
    "risk": {**_MODEL_KEYS, **_ESTIMATOR_KEYS, **_RUN_KEYS},
    "sweep": {**_MODEL_KEYS, "t": ("float", None, False),
              "sigma": ("float", 1.0, False), **_ESTIMATOR_KEYS, **_RUN_KEYS,
              **_GRID_KEYS},
    "entropy": {
        "constraint": ("str", None, True), "p": ("int", None, True),
        "r": ("int", None, True), "budget": ("int", 4000, False),
        "seed": ("int", 0, False), "eps_min": ("float", 0.01, False),
        "eps_max": ("float", math.sqrt(2.0), False),
        "grid_points": ("int", 24, False), "out": ("str", None, True),
    },
    # the oracle fixes the family (clustering, rank one) and its two methods
    "oracle": {
        "n": ("int", None, True), "p": ("int", None, True),
        "t": ("float", None, True), "sigma": ("float", 1.0, False),
        **{key: spec for key, spec in _ESTIMATOR_KEYS.items() if key != "method"},
        **_RUN_KEYS,
    },
}


def _convert(key: str, kind: str, raw):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "float_list":
            return tuple(float(x) for x in str(raw).split(","))
        if kind == "int_list":
            return tuple(int(x) for x in str(raw).split(","))
        return str(raw)
    except (TypeError, ValueError):
        raise _UsageError(f"bad value for {key}: {raw!r}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _FileError(f"cannot read config file {path}: {exc}")
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve(command: str, args: argparse.Namespace) -> dict:
    spec = _KEYSPECS[command]
    file_values = {}
    if args.config is not None:
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(spec)
        if unknown:
            raise _UsageError(
                f"unknown config keys for {command}: {', '.join(sorted(unknown))}")
    resolved = {}
    for key, (kind, default, required) in spec.items():
        flag_value = getattr(args, key)
        if flag_value is not None:
            resolved[key] = _convert(key, kind, flag_value)
        elif key in file_values:
            resolved[key] = _convert(key, kind, file_values[key])
        else:
            if required and default is None:
                raise _UsageError(f"missing required option --{key.replace('_', '-')}")
            resolved[key] = default
    return resolved


def _format_value(value) -> str:
    """A config value or a CSV cell as text; None is an empty cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _write_outputs(command: str, resolved: dict, outputs: dict) -> None:
    """Write each output into resolved["out"] in order, by its type: an array
    as a matrix file, a dict as JSON, the sweep's rows as CSV; then the
    resolved config."""
    out_dir = resolved["out"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise _FileError(f"cannot create output directory {out_dir}: {exc}")
    for name, value in outputs.items():
        path = os.path.join(out_dir, name)
        if isinstance(value, np.ndarray):
            write_matrix(path, value)
        elif isinstance(value, dict):
            with open(path, "w") as fh:
                json.dump(value, fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(field.name for field in dataclasses.fields(harness.SweepRow))
                writer.writerows(map(_format_value, dataclasses.astuple(row)) for row in value)
    with open(os.path.join(out_dir, f"{command}_config.txt"), "w") as fh:
        fh.writelines(f"{key}={_format_value(value)}\n"
                      for key, value in sorted(resolved.items()) if value is not None)


def _build_model(resolved: dict, rank: int, t: float) -> models.ModelSpec:
    return models.ModelSpec(
        family=resolved["family"], spectrum=models.SpectrumSpec.flat(t, rank),
        noise_sd=resolved["sigma"], seed=resolved["seed"],
        **{name: resolved.get(name) for name in models.DIMENSIONS})


def _estimator_config(resolved: dict) -> estimators.EstimatorConfig:
    return estimators.EstimatorConfig(**{key: resolved[key] for key in _ESTIMATOR_KEYS})


def _cmd_simulate(resolved: dict) -> dict:
    model = _build_model(resolved, resolved["r"], resolved["t"])
    cset = constraints.parse_constraint(resolved["constraint"], model.frame_dim, model.rank)
    instance = models.sample_instance(model, cset)
    return {"Y.csv": instance.observation,
            "U_truth.csv": instance.truth_left.values,
            "spectrum.csv": model.spectrum.array[:, None]}


def _read_matrix_checked(path: str) -> np.ndarray:
    try:
        return read_matrix(path)
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise _FileError(f"malformed matrix file {path}: {exc}")


def _cmd_estimate(resolved: dict) -> dict:
    in_dir = resolved["in"]
    if not os.path.isdir(in_dir):
        raise _FileError(f"input directory {in_dir} does not exist")
    resolved["out"] = resolved["out"] or in_dir
    stored_path = os.path.join(in_dir, "simulate_config.txt")
    stored = _load_config_file(stored_path) if os.path.exists(stored_path) else {}
    for key in ("family", "r", "constraint"):
        if resolved[key] is None:
            if key not in stored:
                raise _UsageError(f"--{key} not given and absent from {stored_path}")
            resolved[key] = _convert(key, _KEYSPECS["estimate"][key][0], stored[key])
    observation = _read_matrix_checked(os.path.join(in_dir, "Y.csv"))
    m = models.objective_matrix(resolved["family"], observation)
    cset = constraints.parse_constraint(resolved["constraint"], m.shape[0], resolved["r"])
    result = estimators.estimate(m, cset, _estimator_config(resolved))
    d_to_truth = None
    truth_path = os.path.join(in_dir, "U_truth.csv")
    if os.path.exists(truth_path):
        truth = _read_matrix_checked(truth_path)
        # an estimate at another rank than the truth has no distance to it
        if truth.shape == result.frame.values.shape:
            d_to_truth = subspace_distance(result.frame, truth)
    return {"U_hat.csv": result.frame.values,
            "report.json": {"converged": result.converged, "d_to_truth": d_to_truth,
                            "iterations": result.iterations,
                            "objective": result.objective, "status": result.status}}


def _cmd_risk(resolved: dict) -> dict:
    model = _build_model(resolved, resolved["r"], resolved["t"])
    cset = constraints.parse_constraint(resolved["constraint"], model.frame_dim, model.rank)
    config = _estimator_config(resolved)
    estimate = harness.monte_carlo_risk(model, cset, config, resolved["trials"])
    return {"risk.json": {
        "mean_d": estimate.mean_distance, "seed": resolved["seed"],
        "spec_digest": harness.spec_digest(model, cset, config),
        "stderr": estimate.stderr, "trials": resolved["trials"]}}


def _sweep_grid(resolved: dict) -> list:
    axes = []
    for knob in harness.KNOBS:
        values = resolved.get(f"{knob}_grid")
        if values:
            axes.append([(knob, value) for value in values])
    if not axes:
        raise _UsageError("sweep needs at least one <knob>_grid key")
    return [dict(combo) for combo in itertools.product(*axes)]


def _cmd_sweep(resolved: dict) -> dict:
    grid = _sweep_grid(resolved)
    base_t = resolved["t"] if resolved["t"] is not None else grid[0].get("t")
    if base_t is None:
        raise _UsageError("sweep needs t or t_grid")
    model = _build_model(resolved, resolved["r"], float(base_t))
    cset = constraints.parse_constraint(resolved["constraint"], model.frame_dim, model.rank)
    config = _estimator_config(resolved)
    rows = harness.sweep(grid, model, cset, config, resolved["trials"])
    outputs = {"sweep.csv": rows}
    try:
        outputs["fits.json"] = dataclasses.asdict(harness.detect_phase_transition(rows))
    except DegenerateInput:
        pass
    return outputs


def _cmd_entropy(resolved: dict) -> dict:
    bounds = (resolved["eps_min"], resolved["eps_max"])
    if not all(0.0 < eps < math.inf for eps in bounds):
        raise ValueError(f"eps_min and eps_max must be finite and positive, got {bounds}")
    cset = constraints.parse_constraint(resolved["constraint"], resolved["p"],
                                        resolved["r"])
    center = constraints.random_member(cset, resolved["seed"])
    grid = np.geomspace(resolved["eps_min"], resolved["eps_max"],
                        resolved["grid_points"])
    estimate = entropy.dudley_estimate(cset, center, epsilon_grid=grid,
                                       budget=resolved["budget"],
                                       seed=resolved["seed"] + 1)
    return {"entropy.json": {
        "dudley": estimate.dudley_value, "dudley_prime": estimate.dudley_prime,
        "epsilons": list(estimate.epsilons),
        "log_cover": list(estimate.log_covering),
        "unresolved": list(estimate.unresolved),
        "unresolved_share": dict(zip(("dudley", "dudley_prime"),
                                     estimate.unresolved_share))}}


def _cmd_oracle(resolved: dict) -> dict:
    trials = resolved["trials"]
    if trials < 1:
        raise ValueError(f"oracle needs at least 1 trial, got {trials}")
    model = _build_model(dict(resolved, family=models.CLUSTERING), 1, resolved["t"])
    cset = constraints.signs(model.n)
    config = _estimator_config(dict(resolved, method=estimators.ITERATIVE))
    exhaustive = _estimator_config(dict(resolved, method=estimators.EXHAUSTIVE))
    agree = 0
    gaps = []
    runs = harness.run_trials(model, cset, (exhaustive, config), trials)
    for truth, (exact, iterate) in runs:
        if subspace_distance(iterate.frame, exact.frame) <= 1e-9:
            agree += 1
        gaps.append(subspace_distance(iterate.frame, truth)
                    - subspace_distance(exact.frame, truth))
    return {"oracle.json": {
        "agree_count": agree, "mean_d_gap": float(np.mean(gaps)),
        "trials": trials}}


_HANDLERS = {
    "simulate": _cmd_simulate, "estimate": _cmd_estimate, "risk": _cmd_risk,
    "sweep": _cmd_sweep, "entropy": _cmd_entropy, "oracle": _cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-est",
        description="Structured principal subspace estimation toolkit")
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, spec in _KEYSPECS.items():
        cp = sub.add_parser(command)
        cp.add_argument("--config", default=None, help="key=value config file")
        for key in spec:
            cp.add_argument(f"--{key.replace('_', '-')}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    try:
        resolved = _resolve(command, args)
        _write_outputs(command, resolved, _HANDLERS[command](resolved))
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except _USAGE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
