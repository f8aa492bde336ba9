"""Metric entropy tools: packing constructions, greedy covering estimates, and
entropy-integral summaries for constraint sets.

Conventions.  A packing of a ball B(center, eps) is a set of members of the
constraint set inside the ball whose pairwise distances exceed alpha * eps.
Covering numbers are estimated from random draws by a greedy net, so every
reported count is a lower estimate of the true covering number at that scale.
The normalized projector differences

    T(C, U) = { (W W' - U U') / ||W W' - U U'||_F : W in C, W not aligned with U }

carry the Frobenius metric; entropy integrals over T summarize how rich the
constraint set looks from U.  Greedy nets cannot count past the number of
draws, so each entropy estimate flags the scales where its net took every
draw.  Members are drawn and compared as stacks (constraints.random_members
and one stacked product per net row), bit for bit as one draw at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constraints
from .errors import BudgetExhausted, DimensionMismatch, InfeasibleParameters
from .geometry import (OrthonormalFrame, check_orthonormal, frobenius_norms,
                       subspace_distance)

_SLACK = 1e-9

# tangent draws run in blocks of at most _DRAW_BYTES of p x r frames, and
# their p x p projector differences are formed _CHUNK_BYTES at a time; larger
# blocks buy little speed and cost peak memory
_DRAW_BYTES = 1 << 17
_CHUNK_BYTES = 1 << 19


@dataclass
class PackingSet:
    """Members of a constraint set packed inside a metric ball.

    Invariants (checked by validate): every member lies within radius + 1e-9
    of the center, distinct members are separated by more than
    separation - 1e-9, and separation = alpha * radius with alpha in (0, 1).
    """

    center: OrthonormalFrame
    radius: float
    separation: float
    members: list
    alpha: float

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if abs(self.separation - self.alpha * self.radius) > _SLACK:
            raise ValueError("separation must equal alpha * radius")
        for i, m in enumerate(self.members):
            dist = subspace_distance(m, self.center)
            if dist > self.radius + _SLACK:
                raise ValueError(
                    f"member {i} at distance {dist:.6g} exceeds radius {self.radius:.6g}")
        for i in range(len(self.members)):
            for j in range(i + 1, len(self.members)):
                dist = subspace_distance(self.members[i], self.members[j])
                if dist <= self.separation - _SLACK:
                    raise ValueError(
                        f"members {i}, {j} at distance {dist:.6g} are closer than "
                        f"the separation {self.separation:.6g}")

    def min_pairwise_distance(self) -> float:
        best = math.inf
        for i in range(len(self.members)):
            for j in range(i + 1, len(self.members)):
                best = min(best, subspace_distance(self.members[i], self.members[j]))
        return best


@dataclass
class EntropyEstimate:
    """Greedy covering counts over an epsilon grid plus entropy integrals.

    dudley_value integrates sqrt(log N(eps)) over the grid, dudley_prime
    integrates log N(eps); both by the trapezoid rule on the given grid.
    unresolved[i] is True where the net at epsilons[i] took every drawn
    element as a center, so the count there may be a floor set by the
    number of draws rather than a measurement.  unresolved_share holds, for dudley_value and then
    dudley_prime, the part of the integral contributed by those scales (the
    trapezoid rule on the integrand zeroed at resolved scales), as a share
    of the whole; a zero integral has share 0.
    """

    epsilons: tuple
    log_covering: tuple
    dudley_value: float
    dudley_prime: float
    budget: int
    unresolved: tuple | None = None
    unresolved_share: tuple = (0.0, 0.0)

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        logs = tuple(float(v) for v in self.log_covering)
        flags = (False,) * len(eps) if self.unresolved is None else tuple(
            bool(f) for f in self.unresolved)
        if len(eps) != len(logs) or len(eps) != len(flags):
            raise DimensionMismatch("epsilons, log_covering and unresolved lengths differ")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly increasing")
        if any(b > a + _SLACK for a, b in zip(logs, logs[1:])):
            raise ValueError("log_covering must be non-increasing in epsilon")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "log_covering", logs)
        object.__setattr__(self, "unresolved", flags)
        object.__setattr__(self, "unresolved_share",
                           tuple(float(s) for s in self.unresolved_share))


def vg_codebook(n: int, d: int, budget: int = 10 ** 6, seed: int = 0,
                target: int | None = None) -> np.ndarray:
    """Constant-weight binary codebook by randomized greedy rejection.

    Draws weight-d vectors in {0,1}^n and keeps one whenever its Hamming
    distance to everything kept so far is at least d/2 (equivalently, support
    overlap at most 3d/4).  The default target size is
    ceil(exp(0.233 d log(n/d))), which such a code always admits; raises
    BudgetExhausted if the draw budget runs out first (retry with a fresh
    seed).  Requires d <= n/4.
    """
    if d < 1 or d > n / 4:
        raise InfeasibleParameters(f"need 1 <= d <= n/4, got n={n} d={d}")
    if target is None:
        target = math.ceil(math.exp(0.233 * d * math.log(n / d)))
    rng = constraints.as_generator(seed)
    max_overlap = (3 * d) // 4
    kept = np.zeros((target, n), dtype=np.int64)
    count = 0
    for _ in range(budget):
        vec = np.zeros(n, dtype=np.int64)
        vec[rng.choice(n, size=d, replace=False)] = 1
        if count and np.max(kept[:count] @ vec) > max_overlap:
            continue
        kept[count] = vec
        count += 1
        if count >= target:
            return kept.copy()
    raise BudgetExhausted(
        f"found {count} of {target} codewords within {budget} draws")


def _pad_identity_columns(first_col: np.ndarray, p: int, r: int) -> np.ndarray:
    """Embed a first column plus a trailing identity block into a p x r frame."""
    out = np.zeros((p, r))
    out[: first_col.size, 0] = first_col
    for j in range(1, r):
        out[p - r + j, j] = 1.0
    return out


def sparse_packing_construction(p1: int, r: int, k: int, epsilon: float,
                                budget: int = 10 ** 6, seed: int = 0) -> PackingSet:
    """Explicit packing of a radius sqrt(2) eps ball inside the k-sparse frames.

    Each member embeds a unit vector (sqrt(1 - eps^2), eps w / sqrt(d)) built
    from a constant-weight codeword w, alongside a fixed identity block for
    the remaining r - 1 columns, giving pairwise distances above eps / 2 at
    distance exactly sqrt(2) eps from the center.  Feasibility needs
    k / e <= (p1 - r - 1) / 4 and room inside k for the head row, the
    codeword weight and the r - 1 identity rows.
    """
    if not 0.0 < epsilon <= 1.0:
        raise InfeasibleParameters("epsilon must lie in (0, 1]")
    if r < 1 or k < r or p1 <= r + 1:
        raise InfeasibleParameters(f"bad dimensions p1={p1} r={r} k={k}")
    n_code = p1 - r - 1
    if k / math.e > n_code / 4.0:
        raise InfeasibleParameters(
            f"need k/e <= (p1 - r - 1)/4, got k={k}, p1={p1}, r={r}")
    weight = max(1, math.floor(k / math.e))
    if weight + r > k:
        raise InfeasibleParameters(
            f"k={k} leaves no room for the codeword weight {weight} and r={r}")
    target = math.ceil(math.exp(0.233 * (k / math.e) * math.log(math.e * n_code / k)))
    code = vg_codebook(n_code, weight, budget=budget, seed=seed, target=target)
    head = math.sqrt(1.0 - epsilon * epsilon)
    members = []
    for row in code:
        vec = np.concatenate(([head], epsilon * row / math.sqrt(weight)))
        members.append(OrthonormalFrame(_pad_identity_columns(vec, p1, r)))
    center_vec = np.zeros(n_code + 1)
    center_vec[0] = 1.0
    center = OrthonormalFrame(_pad_identity_columns(center_vec, p1, r))
    return PackingSet(center=center, radius=math.sqrt(2.0) * epsilon,
                      separation=epsilon / 2.0, members=members,
                      alpha=1.0 / (2.0 * math.sqrt(2.0)))


def sign_packing_construction(n: int, d: int, budget: int = 10 ** 6,
                              seed: int = 0) -> PackingSet:
    """Packing of sign vectors around the all-negative corner.

    Members flip the coordinates of a weight-d codeword, i.e.
    u = (2w - 1) / sqrt(n); the all-negative vector itself (w = 0) is
    included.  Euclidean gaps of 2 sqrt(d/n) translate, through the rotation
    sandwich, to a containment radius 2 sqrt(2 d / n) and a pairwise
    separation sqrt(d/n) in the projector distance.
    """
    code = vg_codebook(n, d, budget=budget, seed=seed)
    root = math.sqrt(n)
    members = [OrthonormalFrame(-np.ones((n, 1)) / root)]
    for row in code:
        members.append(OrthonormalFrame(((2.0 * row - 1.0) / root)[:, None]))
    center = members[0]
    radius = 2.0 * math.sqrt(2.0 * d / n)
    return PackingSet(center=center, radius=radius,
                      separation=math.sqrt(d / n), members=members,
                      alpha=math.sqrt(d / n) / radius)


def greedy_local_packing(cset: constraints.ConstraintSet, center: OrthonormalFrame,
                         epsilon: float, alpha: float, budget: int = 2000,
                         seed: int = 0) -> PackingSet:
    """Greedy packing of B(center, epsilon) by random members of the set.

    Draws budget members, keeps those inside the ball, and admits a candidate
    whenever it is farther than alpha * epsilon from everything admitted so
    far.  The center seeds the packing, so a single-element set means no
    candidate survived.  The count is a lower estimate of the packing number.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rng = constraints.as_generator(seed)
    members = [center]
    threshold = alpha * epsilon
    for _ in range(budget):
        cand = constraints.random_member(cset, rng)
        if subspace_distance(cand, center) > epsilon:
            continue
        if all(subspace_distance(cand, m) > threshold for m in members):
            members.append(cand)
    return PackingSet(center=center, radius=epsilon, separation=threshold,
                      members=members, alpha=alpha)


def _greedy_net_counts(grid, size: int, rows) -> np.ndarray:
    """Nested greedy net sizes over size points, one per scale in grid.

    rows(j) returns the distances from point j to every point.  The grid is
    swept from its largest scale down and each net grows out of the previous
    one: the first point at least eps from every center becomes a center,
    which in draw order is the sequential greedy net.  Counts are therefore
    non-increasing in epsilon by construction.
    """
    min_dist = np.full(size, np.inf)
    is_center = np.zeros(size, dtype=bool)
    counts = np.zeros(len(grid), dtype=np.int64)
    for level in range(len(grid) - 1, -1, -1):
        eps = grid[level]
        while True:
            eligible = np.nonzero(~is_center & (min_dist >= eps))[0]
            if eligible.size == 0:
                break
            j = int(eligible[0])
            is_center[j] = True
            np.minimum(min_dist, rows(j), out=min_dist)
        counts[level] = int(np.count_nonzero(is_center))
    return counts


def _captured(stack, w):
    """||W' w||_F^2 for every slice W of a (B, p, r) stack, by one stacked
    product on a transposed view of the stack (no copy)."""
    cross = stack.swapaxes(1, 2) @ w
    return np.sum(cross * cross, axis=(1, 2))


def covering_number_estimate(cset: constraints.ConstraintSet, epsilon: float,
                             budget: int = 2000, seed: int = 0) -> int:
    """Greedy net size over budget random members: a lower covering estimate.

    Members are drawn from one seeded stream and compared in the projector
    metric; a draw becomes a new net center whenever it is at least epsilon
    away from all current centers.
    """
    stack = constraints.random_members(cset, seed, budget)
    check_orthonormal(stack)
    r = stack.shape[2]

    def rows(j):
        inner = _captured(stack, stack[j])
        return np.sqrt(np.clip(2.0 * (r - inner), 0.0, None))

    return int(_greedy_net_counts([epsilon], budget, rows)[0])


def _draw_tangent_stack(cset, center, budget, rng):
    """Stack of member frames defining tangent elements, with their center
    overlaps and projector-difference norms.

    Members are drawn in blocks with one orthonormality check per block; a
    draw whose projector equals the center's is skipped.
    """
    u = center.values
    p, r = u.shape
    proj = u @ u.T
    block = max(1, _DRAW_BYTES // (8 * p * r))
    chunk = max(1, _CHUNK_BYTES // (8 * p * p))
    frames, overlaps, norms = [], [], []
    for start in range(0, budget, block):
        draws = constraints.random_members(cset, rng, min(block, budget - start))
        check_orthonormal(draws)
        # the norm must come from the projector difference itself: the Gram
        # form sqrt(2(r - captured)) rounds to ~1e-8 on draws equal to the
        # center, which would defeat the skip rule below
        norm = np.concatenate([
            frobenius_norms(sub @ sub.swapaxes(1, 2) - proj)
            for sub in np.split(draws, range(chunk, len(draws), chunk))])
        keep = ~(norm < 1e-9)
        frames.append(draws[keep])
        overlaps.append(_captured(frames[-1], u))
        norms.append(norm[keep])
    if not any(len(f) for f in frames):
        return None
    return np.concatenate(frames), np.concatenate(overlaps), np.concatenate(norms)


def _tangent_distance_rows(stack, overlaps, norms, idx):
    """Frobenius distances from tangent element idx to every element."""
    inner = _captured(stack, stack[idx])
    r = stack.shape[2]
    numer = inner - overlaps - overlaps[idx] + r
    sq = 2.0 - 2.0 * numer / (norms * norms[idx])
    return np.sqrt(np.clip(sq, 0.0, None))


def _unresolved_share(integrand, unresolved, grid, whole: float) -> float:
    """Share of the trapezoid integral whole carried by the unresolved scales."""
    if whole <= 0.0:
        return 0.0
    return float(np.trapezoid(np.where(unresolved, integrand, 0.0), grid)) / whole


def dudley_estimate(cset: constraints.ConstraintSet, center: OrthonormalFrame,
                    epsilon_grid=None, budget: int = 4000,
                    seed: int = 0) -> EntropyEstimate:
    """Entropy integrals of T(cset, center) from nested greedy nets.

    Covering counts come from nested greedy nets over one fixed stream of
    random members, drawn and compared as stacks, so they are non-increasing
    in epsilon.  Both integrals use the trapezoid rule on the grid; a
    singleton tangent set (or none at all) gives zero.  A scale whose net
    takes every drawn tangent element is flagged unresolved, and the
    estimate reports what share of each integral those scales carry.
    """
    if epsilon_grid is None:
        epsilon_grid = np.geomspace(0.01, math.sqrt(2.0), 24)
    grid = np.asarray(sorted(float(e) for e in epsilon_grid))
    if grid.size < 2 or grid[0] <= 0:
        raise ValueError("need an increasing positive epsilon grid")
    rng = constraints.as_generator(seed)
    drawn = _draw_tangent_stack(cset, center, budget, rng)
    counts = np.zeros(grid.size, dtype=np.int64)
    unresolved = np.zeros(grid.size, dtype=bool)
    if drawn is not None:
        stack, overlaps, norms = drawn
        counts = _greedy_net_counts(
            grid, stack.shape[0],
            lambda j: _tangent_distance_rows(stack, overlaps, norms, j))
        unresolved = counts == stack.shape[0]
    logs = np.where(counts > 0, np.log(np.maximum(counts, 1)), 0.0)
    roots = np.sqrt(logs)
    dudley_value = float(np.trapezoid(roots, grid))
    dudley_prime = float(np.trapezoid(logs, grid))
    shares = (_unresolved_share(roots, unresolved, grid, dudley_value),
              _unresolved_share(logs, unresolved, grid, dudley_prime))
    return EntropyEstimate(epsilons=tuple(grid), log_covering=tuple(logs),
                           dudley_value=dudley_value, dudley_prime=dudley_prime,
                           budget=budget, unresolved=tuple(unresolved),
                           unresolved_share=shares)
