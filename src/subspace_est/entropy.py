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
draw.  Nets and local packings share one draw path and one greedy loop:
members come from one seeded stream in bounded blocks
(constraints.random_members, bit for bit as one draw at a time), the
distance rows of a block of candidate centers are one GEMM of their rows
against the row matrix of the transposed draws, and a packing is the greedy
net of the in-ball draws at the separation.  Member distances take the Gram
form and tangent norms the residual form; both agree with per-pair products
to rounding, and golden tests pin the counts they give.
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

# members are drawn in blocks of at most _DRAW_BYTES of p x r frames; larger
# blocks buy little speed and cost peak memory
_DRAW_BYTES = 1 << 17

# a greedy net computes the distance rows of its candidate centers in blocks
# of at most _ROW_BYTES of cross products: one GEMM per block reads the row
# matrix once for all of them, and a wider block costs peak memory
_ROW_BYTES = 1 << 20


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
    Raises ValueError unless epsilon is finite and positive and budget is at
    least 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    _check_scales(epsilon)
    _check_budget(budget)
    threshold = alpha * epsilon
    u = _transposed(center.values[None])
    # the center is row 0 whatever its rounded self-distance reads
    inside = [u]
    for block in _draw_blocks(cset, constraints.as_generator(seed), budget):
        inside.append(block[_gram_distances(block, u)[0] <= epsilon])
    points = np.concatenate(inside)
    # a net at the next float above alpha * epsilon admits exactly the
    # points farther than alpha * epsilon from every earlier admission
    _, admitted = _greedy_net_counts(
        [np.nextafter(threshold, np.inf)], points,
        lambda idx: _gram_distances(points, points[idx]))
    members = [center] + [OrthonormalFrame(w.T) for w in points[1:][admitted[1:]]]
    return PackingSet(center=center, radius=epsilon, separation=threshold,
                      members=members, alpha=alpha)


def _check_budget(budget) -> None:
    if budget < 1:
        raise ValueError(f"budget must be at least 1 draw, got {budget}")


def _check_scales(scales) -> None:
    """Raise ValueError unless every scale is finite and positive."""
    for eps in np.atleast_1d(scales):
        if not 0.0 < eps < math.inf:
            raise ValueError(f"need a finite positive epsilon, got {eps}")


def _greedy_net_counts(grid, members, rows) -> tuple:
    """Nested greedy net sizes over a (n, r, p) stack of transposed member
    frames, one per scale in grid, and the center mask of the net at the
    finest scale.

    rows(idx) returns the distances from each point of the index array idx
    to every point, as a (len(idx), n) array.  The grid is swept from its
    largest scale down and each net grows out of the previous one: the first
    point at least eps from every center becomes a center, which in draw
    order is the sequential greedy net.  Counts are therefore non-increasing
    in epsilon by construction.

    Candidates are taken in blocks of the next eligible points, their rows
    in one call, and admitted in order while still eligible after the
    earlier admissions of the block.  Within a scale distances to the
    centers only fall, so a point skipped once stays ineligible, and the
    blocks admit exactly the centers one point at a time would.
    """
    size, r, _ = members.shape
    block = max(1, _ROW_BYTES // (8 * size * r * r))
    min_dist = np.full(size, np.inf)
    is_center = np.zeros(size, dtype=bool)
    counts = np.zeros(len(grid), dtype=np.int64)
    for level in range(len(grid) - 1, -1, -1):
        eps = grid[level]
        while True:
            candidates = np.flatnonzero(~is_center & (min_dist >= eps))[:block]
            if candidates.size == 0:
                break
            for j, row in zip(candidates, rows(candidates)):
                if min_dist[j] >= eps:
                    is_center[j] = True
                    np.minimum(min_dist, row, out=min_dist)
        counts[level] = int(np.count_nonzero(is_center))
    return counts, is_center


def _transposed(stack):
    """The (B, r, p) C-ordered stack of the transposes of a (B, p, r) stack,
    so that its (B r, p) reshape, the row matrix, is a view."""
    return np.ascontiguousarray(stack.swapaxes(1, 2))


def _captured(members, frames):
    """||W' V||_F^2 for every frame V of a (K, r, p) stack and every member
    W of a (B, r, p) stack, both of transposed frames, as a (K, B) array: one
    GEMM of the row matrix of frames against that of members, then a sum of
    squares over each r x r block by r - 1 strided adds per axis."""
    count, r, p = members.shape
    cross = frames.reshape(-1, p) @ members.reshape(count * r, p).T
    cross *= cross
    cross = cross.reshape(*frames.shape[:2], count, r)
    sums = cross[:, 0]
    for i in range(1, cross.shape[1]):
        sums = sums + cross[:, i]
    total = sums[..., 0]
    for j in range(1, r):
        total = total + sums[..., j]
    return total


def _gram_distances(members, frames):
    """Projector distances sqrt(2 (r - ||W' V||_F^2)) from every frame V of
    a (K, r, p) stack to every member W of a (B, r, p) stack, both of
    transposed frames, as a (K, B) array."""
    return np.sqrt(np.clip(2.0 * (members.shape[1] - _captured(members, frames)),
                           0.0, None))


def _draw_blocks(cset, rng, budget):
    """Yield budget draws of the generator rng as checked, C-ordered
    (b, r, p) blocks of transposed member frames, each at most _DRAW_BYTES."""
    block = max(1, _DRAW_BYTES // (8 * cset.p * cset.r))
    for start in range(0, budget, block):
        draws = constraints.random_members(cset, rng, min(block, budget - start))
        check_orthonormal(draws)
        yield _transposed(draws)


def covering_number_estimate(cset: constraints.ConstraintSet, epsilon: float,
                             budget: int = 2000, seed: int = 0) -> int:
    """Greedy net size over budget random members: a lower covering estimate.

    Members are drawn from one seeded stream and compared in the projector
    metric; a draw becomes a new net center whenever it is at least epsilon
    away from all current centers.  Raises ValueError unless epsilon is finite
    and positive and budget is at least 1.
    """
    _check_scales(epsilon)
    _check_budget(budget)
    members = np.concatenate(list(_draw_blocks(cset, constraints.as_generator(seed), budget)))
    counts, _ = _greedy_net_counts(
        [epsilon], members, lambda idx: _gram_distances(members, members[idx]))
    return int(counts[0])


def _draw_tangent_stack(cset, center, budget, rng):
    """Transposed member frames defining tangent elements, as a (n, r, p)
    stack, with their center overlaps and projector-difference norms.  A
    draw whose projector equals the center's is skipped.
    """
    u = center.values
    ut = _transposed(u[None])
    frames, overlaps, norms = [], [], []
    for members in _draw_blocks(cset, rng, budget):
        cross = members.reshape(-1, u.shape[0]) @ u
        # ||W W' - U U'||_F = sqrt(2) ||W' - (W' U) U'||_F, the residual form
        # of the power step: it keeps full relative precision near zero, so a
        # draw equal to the center reads ~1e-16 and the skip rule below
        # catches it, where the Gram form sqrt(2(r - captured)) rounds to ~1e-8
        resid = members - (cross @ u.T).reshape(members.shape)
        norm = math.sqrt(2.0) * frobenius_norms(resid)
        keep = ~(norm < 1e-9)
        frames.append(members[keep])
        overlaps.append(_captured(frames[-1], ut)[0])
        norms.append(norm[keep])
    if not any(len(f) for f in frames):
        return None
    return np.concatenate(frames), np.concatenate(overlaps), np.concatenate(norms)


def _tangent_distance_rows(members, overlaps, norms, idx):
    """Frobenius distances from each tangent element of the index array idx
    to every element of a (n, r, p) stack of transposed member frames, as a
    (len(idx), n) array."""
    inner = _captured(members, members[idx])
    r = members.shape[1]
    numer = inner - overlaps - overlaps[idx, None] + r
    sq = 2.0 - 2.0 * numer / (norms * norms[idx, None])
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
    estimate reports what share of each integral those scales carry.  Raises
    ValueError, before any draw, unless the grid has two or more distinct
    scales, each finite and positive, and budget is at least 1.
    """
    if epsilon_grid is None:
        epsilon_grid = np.geomspace(0.01, math.sqrt(2.0), 24)
    grid = np.asarray(sorted(float(e) for e in epsilon_grid))
    if grid.size < 2 or np.any(grid[1:] == grid[:-1]):
        raise ValueError(f"need two or more distinct epsilon scales, got {np.unique(grid).size}")
    _check_scales(grid)
    _check_budget(budget)
    rng = constraints.as_generator(seed)
    drawn = _draw_tangent_stack(cset, center, budget, rng)
    counts = np.zeros(grid.size, dtype=np.int64)
    unresolved = np.zeros(grid.size, dtype=bool)
    if drawn is not None:
        members, overlaps, norms = drawn
        counts, _ = _greedy_net_counts(
            grid, members,
            lambda idx: _tangent_distance_rows(members, overlaps, norms, idx))
        unresolved = counts == len(members)
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
