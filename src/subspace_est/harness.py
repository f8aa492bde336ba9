"""Monte Carlo risk harness: per-trial losses, risk aggregation, parameter
sweeps with closed-form rate predictions, log-log rate fits, and two-segment
phase-transition detection.

Rate conventions.  theory_rate evaluates the constant-free minimax rate at
the sweep knobs as the family's noise factor (ModelSpec.noise_rate) times the
constraint set's entropy term (ConstraintSet.rate_term), capped at 1 for
structured sets (sqrt(r) unconstrained); only ratios and fitted slopes are
meaningful, never absolute levels.  The harness itself knows no family or
constraint kind.

run_trials is the one place that turns a model and a trial index into
estimates, one per estimator config; monte_carlo_risk reads it with one
config, and the CLI's oracle comparison with two on the same samples.
Trials run in stacked blocks: each trial is sampled on its own stream, and a
block's estimates run as one stack (estimators.estimate_batch).  All
randomness is derived from the model seed and the trial index and each
trial's loop is bit for bit its loop run alone, so every estimate is a pure
function of its inputs, identical at every block size.  The harness
returns its results and writes no file; the CLI serializes them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import constraints, estimators, models
from .errors import BoundViolated, DegenerateInput
from .geometry import subspace_distance

# bytes of objective matrices that one block of trials holds at once; caps
# the memory of a risk run whatever its trial count and dimension
BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo estimate of the expected subspace loss and its standard
    error."""

    mean_distance: float
    stderr: float

    def __post_init__(self):
        if self.mean_distance < 0 or self.stderr < 0:
            raise ValueError("risk summaries must be non-negative")


@dataclass(kw_only=True)
class SweepRow:
    """One sweep grid point: knob values plus the measured and predicted risk.

    The fields are in the order of sweep.csv's columns.  Dimension fields not
    used by the row's family stay None and serialize to empty CSV cells.
    """

    family: str
    p1: int | None = None
    p2: int | None = None
    n: int | None = None
    p: int | None = None
    r: int
    k: int | None = None
    t: float
    sigma: float
    trials: int
    seed: int
    mean_d: float
    stderr: float
    theory_rate: float


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class PhaseTransitionFit:
    """Two-segment log-log fit of risk against signal strength."""

    t_break: float
    slope_low: float
    slope_high: float
    r_squared_low: float
    r_squared_high: float


def spec_digest(model: models.ModelSpec, cset: constraints.ConstraintSet,
                config: estimators.EstimatorConfig) -> str:
    """A 16-hex-digit hash of the model (seed included), the constraint set
    (basis included) and the estimator config."""
    h = hashlib.sha256()

    def put(*items):
        for item in items:
            h.update(repr(item).encode())
            h.update(b"|")

    put(model.family, model.rank, model.noise_sd, model.seed,
        *(getattr(model, name) for name in models.DIMENSIONS),
        tuple(model.spectrum.values), model.spectrum.scale,
        model.spectrum.conditioning)
    put(cset.kind, cset.p, cset.r, cset.k)
    if cset.basis is not None:
        h.update(np.ascontiguousarray(cset.basis.values).tobytes())
    put(config.method, config.max_iter, config.tol, config.init,
        config.init_seed)
    return h.hexdigest()[:16]


def run_trials(model: models.ModelSpec, cset: constraints.ConstraintSet,
               configs: tuple, trials: int):
    """Yield (truth frame, results) for trials 0 .. trials - 1, in order, with
    one IterationResult per estimator config.

    Trial i is always simulated on the stream (model.seed, i).  Trials run in
    blocks of consecutive indices, as many as fit BLOCK_BYTES of objective
    matrices, and every config estimates each sampled block in one stack.
    Each objective matrix is written into the block and its observation
    dropped, so the (B, p, p) block is the run's working set.  A trial's
    results do not depend on the block it runs in.
    """
    size = max(1, min(trials, BLOCK_BYTES // (8 * cset.p * cset.p)))
    block = np.empty((size, cset.p, cset.p))
    for start in range(0, trials, size):
        count = min(size, trials - start)
        truths = []
        for slot in range(count):
            instance = models.sample_instance(model, cset, trial_index=start + slot)
            block[slot] = models.objective_matrix(model.family, instance.observation)
            truths.append(instance.truth_left)
        runs = [estimators.estimate_batch(block[:count], cset, config) for config in configs]
        yield from zip(truths, zip(*runs))


def monte_carlo_risk(model: models.ModelSpec, cset: constraints.ConstraintSet,
                     config: estimators.EstimatorConfig, trials: int) -> RiskEstimate:
    """Mean and standard error of the loss d(U_hat, U_truth) over the trials
    of run_trials.

    The result is a pure function of the inputs, the same at every block
    size, and the first half of a doubled run reproduces exactly.  It holds
    those two numbers only; the CLI writes seed, trials and spec_digest.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    # loss is bounded by the projector-metric diameter of O(p, r)
    bound = math.sqrt(2.0 * model.rank) + 1e-9
    losses = []
    for truth, (result,) in run_trials(model, cset, (config,), trials):
        dist = subspace_distance(result.frame, truth)
        if dist > bound:
            raise BoundViolated(f"loss {dist} exceeds diameter bound {bound}")
        losses.append(float(dist))
    arr = np.asarray(losses)
    mean = float(np.mean(arr))
    sd = float(np.std(arr, ddof=1))
    return RiskEstimate(mean_distance=mean, stderr=sd / math.sqrt(trials))


def theory_rate(model: models.ModelSpec, cset: constraints.ConstraintSet) -> float:
    """Constant-free minimax rate prediction at the model's knobs: the
    family's noise factor times the constraint's entropy term, capped at 1
    (sqrt(r) when unconstrained)."""
    structure, cap = cset.rate_term()
    return min(model.noise_rate * structure, cap)


# sweep knobs; the CLI nests its grid axes in this order, first outermost
KNOBS = ("t", "sigma", *models.DIMENSIONS, "k", "r")


def sweep(grid, base_model: models.ModelSpec, cset: constraints.ConstraintSet,
          config: estimators.EstimatorConfig, trials: int) -> list:
    """One risk estimate per grid assignment, tagged with theory_rate.

    Each grid entry maps knob names (among t, sigma, p1, p2, n, p, k, r) to
    values; unspecified knobs keep the base model's values.  Row i runs on
    seed base_model.seed + i.  A t or r knob installs a flat spectrum at
    scale t.  Each row's constraint set is cset rebuilt at the row's p, r and
    k, so a subspace basis carries over an r change and refuses a p or k one.
    """
    if not grid:
        raise ValueError("empty sweep grid")
    # every row's model and constraint set is built before the first trial,
    # so a bad grid point fails at once, not after the rows before it ran
    points = []
    for index, assignment in enumerate(grid):
        unknown = set(assignment) - set(KNOBS)
        if unknown:
            raise ValueError(f"unknown sweep knobs {sorted(unknown)}")
        changes = {"seed": base_model.seed + index}
        rank = int(assignment.get("r", base_model.rank))
        if "t" in assignment or "r" in assignment:
            scale = float(assignment.get("t", base_model.spectrum.scale))
            changes["spectrum"] = models.SpectrumSpec.flat(scale, rank)
        if "sigma" in assignment:
            changes["noise_sd"] = float(assignment["sigma"])
        for name in models.DIMENSIONS:
            if name in assignment:
                changes[name] = int(assignment[name])
        model = dataclasses.replace(base_model, **changes)
        points.append((model, dataclasses.replace(
            cset, p=model.frame_dim, r=rank, k=assignment.get("k", cset.k))))
    rows = []
    for model, row_cset in points:
        risk = monte_carlo_risk(model, row_cset, config, trials)
        rows.append(SweepRow(
            family=model.family, r=model.rank, t=model.spectrum.scale,
            sigma=model.noise_sd, trials=trials, seed=model.seed,
            mean_d=risk.mean_distance, stderr=risk.stderr,
            theory_rate=theory_rate(model, row_cset), k=row_cset.k,
            **{name: getattr(model, name) for name in models.DIMENSIONS}))
    return rows


def fit_rate(xs, ys) -> RateFit:
    """Ordinary least squares of ln y on ln x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 3 or xs.size != ys.size:
        raise ValueError("need at least 3 paired points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive inputs")
    lx = np.log(xs)
    ly = np.log(ys)
    if np.ptp(lx) < 1e-12:
        raise DegenerateInput("xs are constant; slope is unidentifiable")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    sse = float(np.sum(resid ** 2))
    sst = float(np.sum((ly - np.mean(ly)) ** 2))
    r_squared = 1.0 if sst <= 1e-300 else 1.0 - sse / sst
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r_squared)


def detect_phase_transition(rows) -> PhaseTransitionFit:
    """Two-segment log-log fit of mean_d against t with an exhaustive
    breakpoint search over grid midpoints.

    Needs at least 8 rows of distinct t values (a repeat means another knob
    varies: several curves) spanning two decades, three points per segment;
    the breakpoint minimizing total squared residual wins, first on ties, and
    is reported as the geometric midpoint of its bracketing grid points.
    """
    ordered = sorted(rows, key=lambda row: row.t)
    ts = np.asarray([row.t for row in ordered], dtype=float)
    ys = np.asarray([row.mean_d for row in ordered], dtype=float)
    if ts.size < 8:
        raise DegenerateInput("need at least 8 sweep rows")
    if np.any(ts[1:] == ts[:-1]):
        raise DegenerateInput("t values repeat, so the rows hold more than one curve")
    if np.any(ts <= 0) or np.any(ys <= 0):
        raise DegenerateInput("phase-transition fit needs positive t and risk")
    if ts[-1] / ts[0] < 100.0 * (1 - 1e-12):
        raise DegenerateInput("t grid must span at least two decades")
    candidates = []
    for split in range(2, ts.size - 3):
        low = fit_rate(ts[: split + 1], ys[: split + 1])
        high = fit_rate(ts[split + 1:], ys[split + 1:])
        sse = _segment_sse(ts[: split + 1], ys[: split + 1], low) \
            + _segment_sse(ts[split + 1:], ys[split + 1:], high)
        candidates.append((sse, split, low, high))
    floor = min(c[0] for c in candidates)
    # rounding noise on an exact power law makes every split tie near zero;
    # the slack sends such ties to the first (boundary) split
    _, split, low, high = next(
        c for c in candidates if c[0] <= floor + 1e-10 * (1.0 + floor))
    return PhaseTransitionFit(
        t_break=math.sqrt(ts[split] * ts[split + 1]),
        slope_low=low.slope, slope_high=high.slope,
        r_squared_low=low.r_squared, r_squared_high=high.r_squared)


def _segment_sse(ts, ys, fit: RateFit) -> float:
    resid = np.log(ys) - (fit.slope * np.log(ts) + fit.intercept)
    return float(np.sum(resid ** 2))
