"""Command-line front end.

Each subcommand reads an optional plain-text config file (key=value lines,
"#" comments), lets flags override file values, writes its outputs plus a
fully resolved <command>_config.txt into the output directory, and is
deterministic given that resolved config.  Exit codes: 0 success, 2 usage
error, 3 I/O failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
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
_KEYSPECS = {
    "simulate": {
        "family": ("str", None, True), "p1": ("int", None, False),
        "p2": ("int", None, False), "n": ("int", None, False),
        "p": ("int", None, False), "r": ("int", None, True),
        "t": ("float", None, True), "sigma": ("float", None, True),
        "constraint": ("str", None, True), "seed": ("int", 0, False),
        "out": ("str", None, True),
    },
    "estimate": {
        "in": ("str", None, True), "out": ("str", None, False),
        "family": ("str", None, False), "r": ("int", None, False),
        "constraint": ("str", None, False), "method": ("str", "iterative", False),
        "max_iter": ("int", 200, False), "tol": ("float", 1e-8, False),
        "init": ("str", "spectral", False), "init_seed": ("int", 0, False),
    },
    "risk": {
        "family": ("str", None, True), "p1": ("int", None, False),
        "p2": ("int", None, False), "n": ("int", None, False),
        "p": ("int", None, False), "r": ("int", None, True),
        "t": ("float", None, True), "sigma": ("float", None, True),
        "constraint": ("str", None, True), "method": ("str", "iterative", False),
        "max_iter": ("int", 200, False), "tol": ("float", 1e-8, False),
        "init": ("str", "spectral", False), "init_seed": ("int", 0, False),
        "trials": ("int", None, True), "seed": ("int", 0, False),
        "out": ("str", None, True),
    },
    "sweep": {
        "family": ("str", None, True), "p1": ("int", None, False),
        "p2": ("int", None, False), "n": ("int", None, False),
        "p": ("int", None, False), "r": ("int", None, True),
        "t": ("float", None, False), "sigma": ("float", None, False),
        "constraint": ("str", None, True), "method": ("str", "iterative", False),
        "max_iter": ("int", 200, False), "tol": ("float", 1e-8, False),
        "init": ("str", "spectral", False), "init_seed": ("int", 0, False),
        "trials": ("int", None, True), "seed": ("int", 0, False),
        "out": ("str", None, True),
        "t_grid": ("float_list", None, False),
        "sigma_grid": ("float_list", None, False),
        "p1_grid": ("int_list", None, False), "p2_grid": ("int_list", None, False),
        "n_grid": ("int_list", None, False), "p_grid": ("int_list", None, False),
        "k_grid": ("int_list", None, False), "r_grid": ("int_list", None, False),
    },
    "entropy": {
        "constraint": ("str", None, True), "p": ("int", None, True),
        "r": ("int", None, True), "budget": ("int", 4000, False),
        "seed": ("int", 0, False), "eps_min": ("float", 0.01, False),
        "eps_max": ("float", math.sqrt(2.0), False),
        "grid_points": ("int", 24, False), "out": ("str", None, True),
    },
    "oracle": {
        "n": ("int", None, True), "p": ("int", None, True),
        "t": ("float", None, True), "sigma": ("float", 1.0, False),
        "trials": ("int", None, True), "seed": ("int", 0, False),
        "max_iter": ("int", 200, False), "tol": ("float", 1e-8, False),
        "init": ("str", "spectral", False), "init_seed": ("int", 0, False),
        "out": ("str", None, True),
    },
}

_GRID_ORDER = ("t", "sigma", "p1", "p2", "n", "p", "k", "r")


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
        flag_value = getattr(args, key.replace("in", "in_dir") if key == "in" else key)
        if flag_value is not None:
            resolved[key] = _convert(key, kind, flag_value)
        elif key in file_values:
            resolved[key] = _convert(key, kind, file_values[key])
        else:
            if required and default is None:
                raise _UsageError(f"missing required option --{key.replace('_', '-')}")
            resolved[key] = default
    return resolved


def _format_config_value(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, tuple):
        return ",".join(_format_config_value(v) for v in value)
    return str(value)


def _write_resolved(command: str, out_dir: str, resolved: dict) -> None:
    lines = [f"{key}={_format_config_value(value)}\n"
             for key, value in sorted(resolved.items()) if value is not None]
    with open(os.path.join(out_dir, f"{command}_config.txt"), "w") as fh:
        fh.writelines(lines)


def _ensure_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _FileError(f"cannot create output directory {path}: {exc}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_model(resolved: dict, rank: int, t: float) -> models.ModelSpec:
    return models.ModelSpec(
        family=resolved["family"], rank=rank,
        spectrum=models.SpectrumSpec.flat(t, rank),
        noise_sd=resolved["sigma"], seed=resolved["seed"],
        p1=resolved.get("p1"), p2=resolved.get("p2"),
        n=resolved.get("n"), p=resolved.get("p"))


def _estimator_config(resolved: dict) -> estimators.EstimatorConfig:
    return estimators.EstimatorConfig(
        method=resolved["method"], max_iter=resolved["max_iter"],
        tol=resolved["tol"], init=resolved["init"],
        init_seed=resolved["init_seed"])


def _cmd_simulate(args) -> int:
    resolved = _resolve("simulate", args)
    model = _build_model(resolved, resolved["r"], resolved["t"])
    cset = constraints.parse_constraint(resolved["constraint"], model.frame_dim, model.rank)
    instance = models.sample_instance(model, cset)
    out_dir = resolved["out"]
    _ensure_out_dir(out_dir)
    write_matrix(os.path.join(out_dir, "Y.csv"), instance.observation)
    write_matrix(os.path.join(out_dir, "U_truth.csv"), instance.truth_left.values)
    write_matrix(os.path.join(out_dir, "spectrum.csv"),
                 instance.truth_spectrum.array[:, None])
    _write_resolved("simulate", out_dir, resolved)
    return 0


def _read_matrix_checked(path: str) -> np.ndarray:
    try:
        return read_matrix(path)
    except OSError as exc:
        raise _FileError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise _FileError(f"malformed matrix file {path}: {exc}")


def _cmd_estimate(args) -> int:
    resolved = _resolve("estimate", args)
    in_dir = resolved["in"]
    if not os.path.isdir(in_dir):
        raise _FileError(f"input directory {in_dir} does not exist")
    stored = {}
    stored_path = os.path.join(in_dir, "simulate_config.txt")
    if os.path.exists(stored_path):
        stored = _load_config_file(stored_path)
    for key in ("family", "constraint"):
        if resolved[key] is None and key in stored:
            resolved[key] = stored[key]
    if resolved["r"] is None and "r" in stored:
        resolved["r"] = int(stored["r"])
    for key in ("family", "r", "constraint"):
        if resolved[key] is None:
            raise _UsageError(f"--{key} not given and absent from {stored_path}")
    observation = _read_matrix_checked(os.path.join(in_dir, "Y.csv"))
    family = resolved["family"]
    if family not in models.FAMILIES:
        raise _UsageError(f"unknown family {family!r}")
    frame_dim = observation.shape[1] if family == models.WISHART else observation.shape[0]
    rank = int(resolved["r"])
    cset = constraints.parse_constraint(resolved["constraint"], frame_dim, rank)
    m = estimators.objective_matrix(family, observation)
    result = estimators.estimate(m, cset, _estimator_config(resolved))
    d_to_truth = None
    truth_path = os.path.join(in_dir, "U_truth.csv")
    if os.path.exists(truth_path):
        truth = _read_matrix_checked(truth_path)
        d_to_truth = subspace_distance(result.frame, truth)
    out_dir = resolved["out"] or in_dir
    resolved["out"] = out_dir
    _ensure_out_dir(out_dir)
    write_matrix(os.path.join(out_dir, "U_hat.csv"), result.frame.values)
    _write_json(os.path.join(out_dir, "report.json"), {
        "converged": result.converged, "d_to_truth": d_to_truth,
        "iterations": result.iterations, "objective": result.objective})
    _write_resolved("estimate", out_dir, resolved)
    return 0


def _cmd_risk(args) -> int:
    resolved = _resolve("risk", args)
    model = _build_model(resolved, resolved["r"], resolved["t"])
    cset = constraints.parse_constraint(resolved["constraint"], model.frame_dim, model.rank)
    config = _estimator_config(resolved)
    estimate = harness.monte_carlo_risk(model, cset, config, resolved["trials"])
    out_dir = resolved["out"]
    _ensure_out_dir(out_dir)
    _write_json(os.path.join(out_dir, "risk.json"), {
        "mean_d": estimate.mean_distance, "seed": estimate.seed,
        "spec_digest": estimate.spec_digest, "stderr": estimate.stderr,
        "trials": estimate.trials})
    _write_resolved("risk", out_dir, resolved)
    return 0


def _sweep_grid(resolved: dict) -> list:
    axes = []
    for knob in _GRID_ORDER:
        values = resolved.get(f"{knob}_grid")
        if values:
            axes.append([(knob, value) for value in values])
    if not axes:
        raise _UsageError("sweep needs at least one <knob>_grid key")
    return [dict(combo) for combo in itertools.product(*axes)]


def _cmd_sweep(args) -> int:
    resolved = _resolve("sweep", args)
    grid = _sweep_grid(resolved)
    base_t = resolved["t"] if resolved["t"] is not None else grid[0].get("t")
    if base_t is None:
        raise _UsageError("sweep needs t or t_grid")
    if resolved["sigma"] is None:
        resolved["sigma"] = 1.0
    model = _build_model(resolved, resolved["r"], float(base_t))
    cset = constraints.parse_constraint(resolved["constraint"], model.frame_dim, model.rank)
    config = _estimator_config(resolved)
    rows = harness.sweep(grid, model, cset, config, resolved["trials"])
    out_dir = resolved["out"]
    _ensure_out_dir(out_dir)
    harness.write_sweep_csv(os.path.join(out_dir, "sweep.csv"), rows)
    try:
        fit = harness.detect_phase_transition(rows)
        _write_json(os.path.join(out_dir, "fits.json"), {
            "r_squared_high": fit.r_squared_high,
            "r_squared_low": fit.r_squared_low,
            "slope_high": fit.slope_high, "slope_low": fit.slope_low,
            "t_break": fit.t_break})
    except DegenerateInput:
        pass
    _write_resolved("sweep", out_dir, resolved)
    return 0


def _cmd_entropy(args) -> int:
    resolved = _resolve("entropy", args)
    cset = constraints.parse_constraint(resolved["constraint"], resolved["p"],
                                        resolved["r"])
    center = constraints.random_member(cset, resolved["seed"])
    grid = np.geomspace(resolved["eps_min"], resolved["eps_max"],
                        resolved["grid_points"])
    estimate = entropy.dudley_estimate(cset, center, epsilon_grid=grid,
                                       budget=resolved["budget"],
                                       seed=resolved["seed"] + 1)
    out_dir = resolved["out"]
    _ensure_out_dir(out_dir)
    _write_json(os.path.join(out_dir, "entropy.json"), {
        "dudley": estimate.dudley_value, "dudley_prime": estimate.dudley_prime,
        "epsilons": list(estimate.epsilons),
        "log_cover": list(estimate.log_covering),
        "unresolved": list(estimate.unresolved),
        "unresolved_share": dict(zip(("dudley", "dudley_prime"),
                                     estimate.unresolved_share))})
    _write_resolved("entropy", out_dir, resolved)
    return 0


def _cmd_oracle(args) -> int:
    resolved = _resolve("oracle", args)
    model = models.ModelSpec(
        family=models.CLUSTERING, rank=1,
        spectrum=models.SpectrumSpec.flat(resolved["t"], 1),
        noise_sd=resolved["sigma"], seed=resolved["seed"],
        n=resolved["n"], p=resolved["p"])
    cset = constraints.signs(model.n)
    config = _estimator_config(dict(resolved, method=estimators.ITERATIVE))
    exhaustive = _estimator_config(dict(resolved, method=estimators.EXHAUSTIVE))
    trials = resolved["trials"]
    agree = 0
    gaps = []
    # each run samples its own blocks, so both see the same instances
    for (exact, truth), (iterate, _) in zip(
            harness.run_trials(model, cset, exhaustive, trials),
            harness.run_trials(model, cset, config, trials)):
        if subspace_distance(iterate.frame, exact.frame) <= 1e-9:
            agree += 1
        gaps.append(subspace_distance(iterate.frame, truth)
                    - subspace_distance(exact.frame, truth))
    out_dir = resolved["out"]
    _ensure_out_dir(out_dir)
    _write_json(os.path.join(out_dir, "oracle.json"), {
        "agree_count": agree, "mean_d_gap": float(np.mean(gaps)),
        "trials": trials})
    _write_resolved("oracle", out_dir, resolved)
    return 0


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
            dest = "in_dir" if key == "in" else key
            cp.add_argument(f"--{key.replace('_', '-')}", dest=dest, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
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
