"""Estimators for the planted frame: projected power iteration, exhaustive
sign search, and spectral truncation.

Every method maximizes the trace form tr(U' M U) over the constraint set,
where M is the family's objective matrix (Gram of the observation, sample
covariance, or the symmetric observation itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constraints, models
from .errors import DegenerateInput, DimensionMismatch, RankDeficient, TooLarge
from .geometry import OrthonormalFrame, orthonormalize

ITERATIVE = "iterative"
EXHAUSTIVE = "exhaustive"
SPECTRAL = "spectral"

_METHODS = (ITERATIVE, EXHAUSTIVE, SPECTRAL)

SPECTRAL_INIT = "spectral"
RANDOM_INIT = "random"
PROVIDED_INIT = "provided"

_EXHAUSTIVE_LIMIT = 20
_MAX_RESTARTS = 5


@dataclass
class EstimatorConfig:
    method: str = ITERATIVE
    max_iter: int = 200
    tol: float = 1e-8
    init: str = SPECTRAL_INIT
    init_frame: OrthonormalFrame | None = None
    init_seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.init not in (SPECTRAL_INIT, RANDOM_INIT, PROVIDED_INIT):
            raise ValueError(f"unknown init {self.init!r}")
        if self.init == PROVIDED_INIT and self.init_frame is None:
            raise ValueError("provided init needs init_frame")
        if self.max_iter < 1 or not self.tol > 0:
            raise ValueError("max_iter must be >= 1 and tol positive")


@dataclass
class IterationResult:
    frame: OrthonormalFrame
    trace_path: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False

    @property
    def objective(self) -> float:
        return max(self.trace_path)


def objective_matrix(family: str, observation: np.ndarray) -> np.ndarray:
    """Symmetric matrix whose constrained top eigenspace is the estimand."""
    y = np.asarray(observation, dtype=float)
    if family in (models.DENOISING, models.CLUSTERING):
        return y @ y.T
    if family == models.WISHART:
        return models.sample_covariance(y)
    if family == models.WIGNER:
        return (y + y.T) / 2.0
    raise DimensionMismatch(f"unknown family {family!r}")


def build_objective_matrix(instance: models.SampledInstance,
                           family: str | None = None) -> np.ndarray:
    """objective_matrix for a sampled instance, with a family cross-check."""
    fam = instance.spec.family if family is None else family
    if fam != instance.spec.family:
        raise DimensionMismatch(
            f"instance family is {instance.spec.family!r}, requested {fam!r}")
    return objective_matrix(fam, instance.observation)


def objective(frame: OrthonormalFrame, m: np.ndarray) -> float:
    """The trace form tr(U' M U)."""
    return float(np.sum(frame.values * (m @ frame.values)))


def spectral_estimate(m: np.ndarray, rank: int) -> OrthonormalFrame:
    """Top-rank eigenvectors of a symmetric matrix, with a deterministic sign
    convention (largest-magnitude entry of each column made positive) and a
    stable order for tied eigenvalues."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"need a square matrix, got shape {m.shape}")
    if rank > m.shape[0]:
        raise DimensionMismatch("rank exceeds matrix size")
    evals, evecs = np.linalg.eigh((m + m.T) / 2.0)
    order = np.argsort(-evals, kind="stable")
    cols = evecs[:, order[:rank]].copy()
    for j in range(rank):
        lead = int(np.argmax(np.abs(cols[:, j])))
        if cols[lead, j] < 0:
            cols[:, j] = -cols[:, j]
    return OrthonormalFrame(cols)


def _initial_frame(m: np.ndarray, cset: constraints.ConstraintSet,
                   config: EstimatorConfig) -> OrthonormalFrame:
    if config.init == PROVIDED_INIT:
        return constraints.project(cset, config.init_frame)
    if config.init == RANDOM_INIT:
        return constraints.random_member(cset, config.init_seed)
    return constraints.project(cset, spectral_estimate(m, cset.r))


def iterative_projection_estimate(m: np.ndarray, cset: constraints.ConstraintSet,
                                  config: EstimatorConfig | None = None) -> IterationResult:
    """Alternate multiply-by-M, thin QR, and constraint projection.

    Stops once successive iterates a (new) and b (old) are closer than
    config.tol in the projector distance or after max_iter rounds.  The step
    is measured as sqrt(2) ||a - b (b'a)||_F, which equals ||aa' - bb'||_F
    (both squares are 2 (r - ||b'a||_F^2)) in O(p r^2) and keeps full
    relative precision near zero.  The returned frame is the best objective
    value visited, not necessarily the last iterate.  A rank collapse
    restarts the iteration from a fresh random member, at most five times,
    before raising RankDeficient.
    """
    if config is None:
        config = EstimatorConfig()
    current = _initial_frame(m, cset, config)
    # mu = M U serves both the trace form tr(U' M U) and the next lift
    mu = m @ current.values
    path = [float(np.sum(current.values * mu))]
    best, best_val = current, path[0]
    iterations = 0
    converged = False
    restarts = 0
    while iterations < config.max_iter:
        try:
            nxt = constraints.project(cset, orthonormalize(mu))
        except (RankDeficient, DegenerateInput):
            restarts += 1
            if restarts > _MAX_RESTARTS:
                raise RankDeficient(
                    f"iterate lost rank after {_MAX_RESTARTS} restarts")
            current = constraints.random_member(
                cset, config.init_seed + 1000003 * restarts)
            mu = m @ current.values
            path.append(float(np.sum(current.values * mu)))
            if path[-1] > best_val:
                best, best_val = current, path[-1]
            iterations += 1
            continue
        a, b = nxt.values, current.values
        mu = m @ a
        path.append(float(np.sum(a * mu)))
        if path[-1] > best_val:
            best, best_val = nxt, path[-1]
        step = np.sqrt(2.0) * np.linalg.norm(a - b @ (b.T @ a))
        current = nxt
        iterations += 1
        if step < config.tol:
            converged = True
            break
    return IterationResult(best, path, iterations, converged)


def _sign_patterns(n: int) -> np.ndarray:
    """All sign vectors of length n with leading entry +1, in lexicographic
    order where +1 sorts before -1."""
    count = 1 << (n - 1)
    idx = np.arange(count, dtype=np.uint64)[:, None]
    shifts = np.arange(n - 1, dtype=np.uint64)[None, :]
    bits = (idx >> (np.uint64(n - 2) - shifts)) & np.uint64(1)
    patterns = np.ones((count, n))
    patterns[:, 1:] = 1.0 - 2.0 * bits
    return patterns


def exhaustive_argmax(cset: constraints.ConstraintSet, m: np.ndarray) -> OrthonormalFrame:
    """Global maximizer of u' M u over sign vectors, one representative per
    antipodal pair, ties resolved toward the lexicographically smallest
    pattern.  Only for the sign-vector constraint with p <= 20."""
    if cset.kind != constraints.SIGNS:
        raise DimensionMismatch("exhaustive search only covers sign vectors")
    n = cset.p
    if n > _EXHAUSTIVE_LIMIT:
        raise TooLarge(f"2^{n - 1} sign patterns exceed the n = {_EXHAUSTIVE_LIMIT} cap")
    patterns = _sign_patterns(n)
    scores = np.einsum("ij,jk,ik->i", patterns, m, patterns) / n
    winner = int(np.argmax(scores))  # first maximum = lexicographically smallest
    return OrthonormalFrame(patterns[winner][:, None] / np.sqrt(n))


def estimate(m: np.ndarray, cset: constraints.ConstraintSet,
             config: EstimatorConfig | None = None) -> IterationResult:
    """Dispatch on config.method; the result's frame is a member of cset.

    Spectral truncation and exhaustive search take no power steps: they
    report 0 iterations, converged, and the one objective value visited.
    """
    if config is None:
        config = EstimatorConfig()
    if config.method == ITERATIVE:
        return iterative_projection_estimate(m, cset, config)
    if config.method == SPECTRAL:
        frame = constraints.project(cset, spectral_estimate(m, cset.r))
    else:
        frame = exhaustive_argmax(cset, m)
    return IterationResult(frame, [objective(frame, m)], 0, True)
