"""Estimators for the planted frame: projected power iteration, exhaustive
sign search, and spectral truncation.

Every method maximizes the trace form tr(U' M U) over the constraint set.
The methods work on symmetric matrices M only; models.objective_matrix
builds M from an observation of each family.  They run on a (B, p, p) stack
of objective matrices: the spectral step (the iteration's default init and
the spectral method) is one stacked eigh and one stacked projection, and the
power steps run as one block.  estimate is the one-slice case; it accepts
any square matrix and uses its symmetric part.  Each result carries the
best objective value it visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constraints
from .errors import DegenerateInput, DimensionMismatch, RankDeficient, TooLarge
from .geometry import (OrthonormalFrame, _as_frame, _as_matrix, frobenius_norms,
                       orthonormalize_batch)

ITERATIVE = "iterative"
EXHAUSTIVE = "exhaustive"
SPECTRAL = "spectral"

_METHODS = (ITERATIVE, EXHAUSTIVE, SPECTRAL)

SPECTRAL_INIT = "spectral"
RANDOM_INIT = "random"

# why a power loop stopped: the step test was met, the iterate repeated an
# earlier one bit for bit, or max_iter ran out
CONVERGED = "converged"
CYCLED = "cycled"
CAPPED = "capped"

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
        if self.max_iter < 1 or not 0 < self.tol < math.inf:
            raise ValueError("max_iter must be >= 1 and tol finite and positive")
        if self.init_seed < 0:
            raise ValueError(f"init_seed must be non-negative, got {self.init_seed}")


@dataclass
class IterationResult:
    """An estimate: the frame, the best objective value tr(U' M U) the
    method visited (the frame's own value), the power steps taken, why the
    steps stopped (CONVERGED, CYCLED or CAPPED), and the silent restarts
    after a rank collapse."""

    frame: OrthonormalFrame
    objective: float
    iterations: int = 0
    status: str = CAPPED
    restarts: int = 0

    @property
    def converged(self) -> bool:
        """Whether the step test was met."""
        return self.status == CONVERGED


def objective(frame: OrthonormalFrame, m: np.ndarray) -> float:
    """The trace form tr(U' M U) (arrays must pass as frames)."""
    u = _as_frame(frame).values
    return float(np.sum(u * (_as_matrix(m, (u.shape[0],) * 2) @ u)))


def _top_eigenvectors(ms: np.ndarray, rank: int) -> np.ndarray:
    """Top-rank eigenvectors of every slice of a (B, p, p) stack of symmetric
    matrices, as a (B, p, rank) stack, in a stable order for tied eigenvalues
    and with each column's largest-magnitude entry made positive."""
    evals, evecs = np.linalg.eigh(ms)
    order = np.argsort(-evals, axis=1, kind="stable")[:, None, :rank]
    cols = np.take_along_axis(evecs, order, axis=2)
    lead = np.take_along_axis(cols, np.argmax(np.abs(cols), axis=1)[:, None, :], axis=1)
    return np.where(lead < 0, -cols, cols)


def _symmetric(m) -> np.ndarray:
    """M / 2 + M' / 2 of a square matrix, which is M itself when M is
    symmetric; halving first keeps a finite M's sum from overflowing."""
    m = _as_matrix(m, np.shape(m)[:1] * 2)  # as many columns as rows
    return m / 2.0 + m.T / 2.0


def _spectral_members(ms: np.ndarray, cset: constraints.ConstraintSet) -> np.ndarray:
    """The projections onto cset of the top cset.r eigenvectors of every
    slice of a (B, p, p) stack, as one (B, p, r) array; raises
    DegenerateInput where a slice has no member."""
    members, ok = constraints.project_batch(cset, _top_eigenvectors(ms, cset.r))
    if not ok.all():
        raise DegenerateInput(f"no {cset.kind} member for this input")
    return members


def _check_stack(ms: np.ndarray, cset: constraints.ConstraintSet) -> None:
    if ms.ndim != 3 or ms.shape[1:] != (cset.p, cset.p):
        raise DimensionMismatch(
            f"objective stack is {ms.shape}, constraint ambient is {cset.p}")
    # p^2 max|M| bounds every entry of M U, objective sum and sign score
    scale = float(max(ms.max(initial=0.0), -ms.min(initial=0.0)))
    if not math.isfinite(scale):
        raise DegenerateInput("objective stack has non-finite entries")
    if not math.isfinite(cset.p * cset.p * scale):
        raise DegenerateInput(
            f"objective entries up to {scale:.6g} overflow the power step at p = {cset.p}")


def iterative_projection_batch(ms: np.ndarray, cset: constraints.ConstraintSet,
                               config: EstimatorConfig | None = None) -> list:
    """Projected power iteration on every slice of a (B, p, p) stack:
    alternate multiply-by-M, thin QR, and constraint projection.

    A slice stops, and its result says why, at the first of: successive
    iterates a (new) and b (old) closer than config.tol in the projector
    distance (CONVERGED); an iterate equal bit for bit to the slice's
    checkpoint (CYCLED); max_iter rounds (CAPPED).  The step is measured as
    sqrt(2) ||a - b (b'a)||_F, which equals ||aa' - bb'||_F (both squares
    are 2 (r - ||b'a||_F^2)) in O(p r^2) and keeps full relative precision
    near zero.  Each returned frame is the iterate of best objective value
    its slice visited, not necessarily the last one, and the result carries
    that value.  A rank collapse restarts the slice's iteration from a fresh
    random member, at most five times, before raising RankDeficient; the
    result counts the restarts.

    The checkpoint is the iterate after each power-of-two step, as in
    Brent's method, and after each 16th step, voided by a restart until the
    next one.  The 16th steps catch every cycle of period at most 16 one
    period after the first checkpoint inside it, however late the cycle
    starts, where powers of two alone miss cycles entered after step 128
    under the default max_iter of 200.  The step from an iterate to the next is deterministic, so
    once an iterate repeats the checkpoint, the loop would only go round a
    cycle whose every member it has visited and whose every step failed the
    test: the best frame, its value, the step test's outcome and the
    restarts are final, and running on to max_iter would change only the
    step count.

    All slices run as one stacked block.  The spectral init is one stacked
    eigh and projection; the random init is one draw that every slice starts
    from.  Each step is one stacked product, QR and projection; a returned
    frame is checked once, as an OrthonormalFrame.  A slice leaves the block
    when it stops, and a restart touches only its own slice.  Each result is
    bit for bit the slice's result in a block of one.
    """
    if config is None:
        config = EstimatorConfig()
    _check_stack(ms, cset)
    count = ms.shape[0]
    if count == 0:
        return []
    if config.init == RANDOM_INIT:
        start = constraints.random_member(cset, config.init_seed).values
        cur = np.repeat(start[None], count, axis=0)
    else:
        cur = _spectral_members(ms, cset)
    # mu = M U serves both the trace form tr(U' M U) and the next lift
    mu = ms @ cur
    values = (cur * mu).sum(axis=(1, 2))
    best, best_val = cur.copy(), values
    # every live slot steps once a pass, so all have taken the same steps
    steps = 0
    restarts = np.zeros(count, dtype=int)
    # the checkpoint; no slot holds one before step 1
    mark, marked = cur, np.zeros(count, dtype=bool)
    trial = np.arange(count)  # the trial whose loop each slot holds
    results = [None] * count
    while trial.size:
        lifted, ok = orthonormalize_batch(mu)
        nxt, fits = constraints.project_batch(cset, lifted)
        ok &= fits
        for slot in () if ok.all() else np.flatnonzero(~ok):
            restarts[slot] += 1
            if restarts[slot] > _MAX_RESTARTS:
                raise RankDeficient(
                    f"iterate lost rank after {_MAX_RESTARTS} restarts")
            nxt[slot] = constraints.random_member(
                cset, config.init_seed + 1000003 * int(restarts[slot])).values
        mu = ms @ nxt
        values = (nxt * mu).sum(axis=(1, 2))
        better = values > best_val
        np.copyto(best, nxt, where=better[:, None, None])
        np.copyto(best_val, values, where=better)
        # a restart takes no step test
        step = np.sqrt(2.0) * frobenius_norms(nxt - cur @ (cur.transpose(0, 2, 1) @ nxt))
        converged = ok & (step < config.tol)
        # equal bit patterns, so +0.0 and -0.0 differ
        marked &= ok
        cycled = marked & (nxt.view(np.int64) == mark.view(np.int64)).all(axis=(1, 2))
        cur = nxt
        steps += 1
        if steps & (steps - 1) == 0 or steps % 16 == 0:
            mark, marked = nxt, np.ones(trial.size, dtype=bool)
        finished = converged | cycled | (steps >= config.max_iter)
        if not finished.any():
            continue
        for slot in np.flatnonzero(finished):
            status = CONVERGED if converged[slot] else CYCLED if cycled[slot] else CAPPED
            results[int(trial[slot])] = IterationResult(
                OrthonormalFrame(best[slot].copy()), float(best_val[slot]),
                steps, status, int(restarts[slot]))
        live = ~finished
        ms, cur, mu, best, best_val, restarts, mark, marked, trial = (
            arr[live] for arr in (ms, cur, mu, best, best_val, restarts,
                                  mark, marked, trial))
    return results


def _sign_patterns(n: int) -> np.ndarray:
    """All sign vectors of length n with leading entry +1, in lexicographic
    order where +1 sorts before -1."""
    count = 1 << (n - 1)
    idx = np.arange(count, dtype=np.uint64)[:, None]
    # entry j + 1 reads bit n - 2 - j; n = 1 has no such entries
    shifts = np.arange(n - 1, dtype=np.uint64)[None, ::-1]
    bits = (idx >> shifts) & np.uint64(1)
    patterns = np.ones((count, n))
    patterns[:, 1:] = 1.0 - 2.0 * bits
    return patterns


def estimate_batch(ms: np.ndarray, cset: constraints.ConstraintSet,
                   config: EstimatorConfig | None = None) -> list:
    """Dispatch on config.method over a (B, p, p) stack of objective
    matrices; one IterationResult per slice, whose frame is a member of cset.

    Iterative projection runs the slices as one block
    (iterative_projection_batch).  Spectral truncation is one stacked eigh
    and projection.  Exhaustive search, for sign vectors with p <= 20 only,
    scores each slice against one sign table for the stack and returns the
    global maximizer of u' M u, one representative per antipodal pair, ties
    going to the lexicographically smallest pattern.  Neither takes power
    steps: they report 0 iterations, converged, and the objective value of
    their frame, which is checked once, as the result's OrthonormalFrame.
    ms is never written.
    """
    if config is None:
        config = EstimatorConfig()
    if config.method == ITERATIVE:
        return iterative_projection_batch(ms, cset, config)
    _check_stack(ms, cset)
    if config.method == SPECTRAL:
        frames = _spectral_members(ms, cset)
    else:
        n = cset.p
        if cset != constraints.signs(cset.p):
            raise DimensionMismatch("exhaustive search only covers sign vectors")
        if n > _EXHAUSTIVE_LIMIT:
            raise TooLarge(f"2^{n - 1} sign patterns exceed the n = {_EXHAUSTIVE_LIMIT} cap")
        patterns = _sign_patterns(n)
        winners = [int(np.argmax(np.einsum("ij,jk,ik->i", patterns, m, patterns) / n))
                   for m in ms]  # first maximum = lexicographically smallest
        frames = patterns[winners][:, :, None] / np.sqrt(n)
    values = (frames * (ms @ frames)).sum(axis=(1, 2))
    return [IterationResult(OrthonormalFrame(frame), value, 0, CONVERGED)
            for frame, value in zip(frames, values.tolist())]


def estimate(m: np.ndarray, cset: constraints.ConstraintSet,
             config: EstimatorConfig | None = None) -> IterationResult:
    """estimate_batch on the symmetric part of one square objective matrix."""
    return estimate_batch(_symmetric(m)[None], cset, config)[0]
