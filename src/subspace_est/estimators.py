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
from .errors import DimensionMismatch, RankDeficient, TooLarge
from .geometry import (OrthonormalFrame, check_orthonormal, frobenius_norms,
                       orthonormalize_batch)

ITERATIVE = "iterative"
EXHAUSTIVE = "exhaustive"
SPECTRAL = "spectral"

_METHODS = (ITERATIVE, EXHAUSTIVE, SPECTRAL)

SPECTRAL_INIT = "spectral"
RANDOM_INIT = "random"

_EXHAUSTIVE_LIMIT = 20
_MAX_RESTARTS = 5


@dataclass
class EstimatorConfig:
    method: str = ITERATIVE
    max_iter: int = 200
    tol: float = 1e-8
    init: str = SPECTRAL_INIT
    init_seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.init not in (SPECTRAL_INIT, RANDOM_INIT):
            raise ValueError(f"unknown init {self.init!r}")
        if self.max_iter < 1 or not self.tol > 0:
            raise ValueError("max_iter must be >= 1 and tol positive")


@dataclass
class IterationResult:
    frame: OrthonormalFrame
    trace_path: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    restarts: int = 0

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


def build_objective_matrix(instance: models.SampledInstance) -> np.ndarray:
    """objective_matrix for a sampled instance of its own family."""
    return objective_matrix(instance.spec.family, instance.observation)


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
    if config.init == RANDOM_INIT:
        return constraints.random_member(cset, config.init_seed)
    return constraints.project(cset, spectral_estimate(m, cset.r))


def _power_step(mu: np.ndarray, cset: constraints.ConstraintSet) -> tuple:
    """Orthonormalize and project every lifted slice; (members, ok) as in
    constraints.project_batch, with ok False also where the lift lost rank."""
    lifted, ok = orthonormalize_batch(mu)
    if ok.all():
        return constraints.project_batch(cset, lifted)
    members = np.empty_like(lifted)
    members[ok], ok[ok] = constraints.project_batch(cset, lifted[ok])
    return members, ok


def iterative_projection_batch(ms: np.ndarray, cset: constraints.ConstraintSet,
                               config: EstimatorConfig | None = None) -> list:
    """Projected power iteration on every slice of a (B, p, p) stack:
    alternate multiply-by-M, thin QR, and constraint projection.

    A slice stops once successive iterates a (new) and b (old) are closer
    than config.tol in the projector distance or after max_iter rounds.  The
    step is measured as sqrt(2) ||a - b (b'a)||_F, which equals
    ||aa' - bb'||_F (both squares are 2 (r - ||b'a||_F^2)) in O(p r^2) and
    keeps full relative precision near zero.  Each returned frame is the best
    objective value its slice visited, not necessarily the last iterate.  A
    rank collapse restarts the slice's iteration from a fresh random member,
    at most five times, before raising RankDeficient; the result counts the
    restarts.

    The power loops of all slices run as one stacked block: one stacked
    product, QR, projection and orthonormality check per step.  A slice
    leaves the block when it converges or reaches max_iter, and a restart
    touches only its own slice.  Each result is bit for bit the result of
    the slice run alone, in a block of one.  ms is taken over as working
    memory: its slices are reordered in place as trials finish.
    """
    if config is None:
        config = EstimatorConfig()
    if ms.ndim != 3 or ms.shape[1:] != (cset.p, cset.p):
        raise DimensionMismatch(
            f"objective stack is {ms.shape}, constraint ambient is {cset.p}")
    count = ms.shape[0]
    if count == 0:
        return []
    cur = np.stack([_initial_frame(m, cset, config).values for m in ms])
    # mu = M U serves both the trace form tr(U' M U) and the next lift
    mu = ms @ cur
    values = (cur * mu).sum(axis=(1, 2))
    paths = [[v] for v in values.tolist()]
    best, best_val = cur.copy(), values
    iterations = np.zeros(count, dtype=int)
    restarts = np.zeros(count, dtype=int)
    trial = np.arange(count)  # the trial whose loop each slot holds
    results = [None] * count
    live = count
    while live:
        nxt, ok = _power_step(mu, cset)
        if not ok.all():
            for slot in np.flatnonzero(~ok):
                restarts[slot] += 1
                if restarts[slot] > _MAX_RESTARTS:
                    raise RankDeficient(
                        f"iterate lost rank after {_MAX_RESTARTS} restarts")
                nxt[slot] = constraints.random_member(
                    cset, config.init_seed + 1000003 * int(restarts[slot])).values
        check_orthonormal(nxt)
        b = cur[:live]
        mu = ms[:live] @ nxt
        values = (nxt * mu).sum(axis=(1, 2))
        for index, value in zip(trial[:live].tolist(), values.tolist()):
            paths[index].append(value)
        better = values > best_val[:live]
        np.copyto(best[:live], nxt, where=better[:, None, None])
        np.copyto(best_val[:live], values, where=better)
        # a restart takes no step test
        step = np.sqrt(2.0) * frobenius_norms(nxt - b @ (b.transpose(0, 2, 1) @ nxt))
        converged = ok & (step < config.tol)
        b[...] = nxt
        iterations[:live] += 1
        finished = converged | (iterations[:live] >= config.max_iter)
        if not finished.any():
            continue
        # descending, so the last live slot moved into a finished one is live
        for slot in np.flatnonzero(finished)[::-1]:
            index = int(trial[slot])
            results[index] = IterationResult(
                OrthonormalFrame(best[slot].copy()), paths[index],
                int(iterations[slot]), bool(converged[slot]), int(restarts[slot]))
            live -= 1
            if slot != live:
                for arr in (ms, cur, mu, best, best_val, iterations, restarts, trial):
                    arr[slot] = arr[live]
        mu = mu[:live]
    return results


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


def estimate_batch(ms: np.ndarray, cset: constraints.ConstraintSet,
                   config: EstimatorConfig | None = None) -> list:
    """Dispatch on config.method over a (B, p, p) stack of objective
    matrices; one IterationResult per slice, whose frame is a member of cset.

    Iterative projection runs the slices as one block
    (iterative_projection_batch, which takes ms over as working memory).
    Spectral truncation and exhaustive search take no power steps: they
    report 0 iterations, converged, and the one objective value visited.
    """
    if config is None:
        config = EstimatorConfig()
    if config.method == ITERATIVE:
        return iterative_projection_batch(ms, cset, config)
    results = []
    for m in ms:
        if config.method == SPECTRAL:
            frame = constraints.project(cset, spectral_estimate(m, cset.r))
        else:
            frame = exhaustive_argmax(cset, m)
        results.append(IterationResult(frame, [objective(frame, m)], 0, True))
    return results


def estimate(m: np.ndarray, cset: constraints.ConstraintSet,
             config: EstimatorConfig | None = None) -> IterationResult:
    """estimate_batch on one objective matrix."""
    m = np.array(m, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"need a square matrix, got shape {m.shape}")
    return estimate_batch(m[None], cset, config)[0]
