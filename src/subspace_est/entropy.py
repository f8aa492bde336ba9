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
(constraints.random_members, bit for bit as one draw at a time), and a
packing is the greedy net of the in-ball draws at the separation.  A net
keeps, for each point not yet a center, its distance to the nearest
center, and the rows of a block of candidate centers cover those open
points only, since a center's distance is never read again.  The rows are
distances, computed in a workspace allocated once per net: the open points
are gathered in one piece, with no chunks, and one GEMM serves the whole
block, its cross products bounded by _ROW_BYTES.  Member distances take
the Gram form and tangent norms the residual form; both agree with
per-pair products to rounding, and golden tests pin the counts they give.
Blocks admit the centers of a one-at-a-time net given bit-equal rows; a
GEMM's last bits can depend on its shape, set by the candidate block and
the number of open points, so the tests check block-size invariance on
their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constraints
from .errors import BudgetExhausted, DimensionMismatch, InfeasibleParameters
from .geometry import (OrthonormalFrame, _as_frame, check_orthonormal, frobenius_norms,
                       subspace_distance)

_SLACK = 1e-9

# members are drawn in blocks of at most _DRAW_BYTES of p x r frames; larger
# blocks buy little speed and cost peak memory
_DRAW_BYTES = 1 << 17

# a greedy net takes its candidate centers in blocks whose cross products
# with the whole member stack fill at most _ROW_BYTES; wider blocks cost
# peak memory
_ROW_BYTES = 1 << 20


@dataclass
class PackingSet:
    """Members of a constraint set packed inside a metric ball.

    Invariants (checked by validate): 0 < separation < radius, every member
    lies within radius + 1e-9 of the center, and distinct members are
    separated by more than separation - 1e-9.
    """

    center: OrthonormalFrame
    radius: float
    separation: float
    members: list

    @property
    def alpha(self) -> float:
        """The separation as a share of the radius, in (0, 1)."""
        return self.separation / self.radius

    def validate(self) -> None:
        if not 0.0 < self.separation < self.radius:
            raise ValueError(f"need 0 < separation < radius, got {self.separation:.6g}")
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


@dataclass(frozen=True)
class EntropyEstimate:
    """Greedy log-covering counts over an epsilon grid, with the entropy
    integrals derived from them.

    Stored: the grid, log N(eps) at each scale, the draw budget, and
    unresolved[i], True where the net at epsilons[i] took every drawn
    element as a center, so its count may be a floor set by the number of
    draws rather than a measurement.  Derived, by the trapezoid rule on the
    grid: dudley_value integrates sqrt(log N(eps)), dudley_prime integrates
    log N(eps), and unresolved_share holds the share of each (in that order)
    carried by the unresolved scales, the integrand zeroed at resolved
    scales; a zero integral has share 0.
    """

    epsilons: tuple
    log_covering: tuple
    budget: int
    unresolved: tuple

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        logs = tuple(float(v) for v in self.log_covering)
        flags = tuple(bool(f) for f in self.unresolved)
        if len(eps) != len(logs) or len(eps) != len(flags):
            raise DimensionMismatch("epsilons, log_covering and unresolved lengths differ")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilons must be strictly increasing")
        if any(b > a + _SLACK for a, b in zip(logs, logs[1:])):
            raise ValueError("log_covering must be non-increasing in epsilon")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "log_covering", logs)
        object.__setattr__(self, "unresolved", flags)

    @property
    def dudley_value(self) -> float:
        return float(np.trapezoid(np.sqrt(self.log_covering), self.epsilons))

    @property
    def dudley_prime(self) -> float:
        return float(np.trapezoid(self.log_covering, self.epsilons))

    @property
    def unresolved_share(self) -> tuple:
        logs = np.asarray(self.log_covering)
        shares = []
        for integrand, whole in ((np.sqrt(logs), self.dudley_value),
                                 (logs, self.dudley_prime)):
            part = float(np.trapezoid(np.where(self.unresolved, integrand, 0.0),
                                      self.epsilons))
            shares.append(part / whole if whole > 0.0 else 0.0)
        return tuple(shares)


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
                      separation=epsilon / 2.0, members=members)


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
                      separation=math.sqrt(d / n), members=members)


def greedy_local_packing(cset: constraints.ConstraintSet, center: OrthonormalFrame,
                         epsilon: float, alpha: float, budget: int = 2000,
                         seed: int = 0) -> PackingSet:
    """Greedy packing of B(center, epsilon) by random members of the set.

    Draws budget members, keeps those inside the ball, and admits a candidate
    whenever it is farther than alpha * epsilon from everything admitted so
    far.  The center seeds the packing, so a single-element set means no
    candidate survived.  The count is a lower estimate of the packing number.
    Raises ValueError unless epsilon is finite and positive and budget is at
    least 1; the center is checked as dudley_estimate's is.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    _check_scales(epsilon)
    _check_budget(budget)
    threshold = alpha * epsilon
    center = _as_frame(center, (cset.p, cset.r))
    u = center.values
    # the center is row 0 whatever its rounded self-distance reads
    inside = [_transposed(u[None])]
    for block in _draw_blocks(cset, constraints.as_generator(seed), budget):
        captured = _center_overlaps(block.reshape(-1, cset.p) @ u)
        dist = np.sqrt(np.clip(2.0 * (cset.r - captured), 0.0, None))
        inside.append(block[dist <= epsilon])
    points = np.concatenate(inside)
    # a net at the next float above alpha * epsilon admits exactly the
    # points farther than alpha * epsilon from every earlier admission
    _, admitted = _greedy_net_counts(
        [np.nextafter(threshold, np.inf)], points, _gram_rows(points))
    members = [center] + [OrthonormalFrame(w.T) for w in points[1:][admitted[1:]]]
    return PackingSet(center=center, radius=epsilon, separation=threshold,
                      members=members)


def _check_budget(budget) -> None:
    if budget < 1:
        raise ValueError(f"budget must be at least 1 draw, got {budget}")


def _check_scales(scales) -> None:
    """Raise ValueError unless every scale is finite and positive."""
    for eps in np.atleast_1d(scales):
        if not 0.0 < eps < math.inf:
            raise ValueError(f"need a finite positive epsilon, got {eps}")


def _row_block(members) -> int:
    """The number of candidate centers a greedy net over a (n, r, p) stack
    takes per rows call: at most n, so that their (r K) x (r n) cross
    products with the whole stack would fit in _ROW_BYTES."""
    size, r, _ = members.shape
    return min(size, max(1, _ROW_BYTES // (8 * size * r * r)))


def _greedy_net_counts(grid, members, rows) -> tuple:
    """Nested greedy net sizes over a (n, r, p) stack of transposed member
    frames, one per scale in grid, and the center mask of the net at the
    finest scale.

    rows(idx, cols) returns the distances from each point of the index
    array idx, at most _row_block(members) of them, to each point of the
    index array cols, as a (len(idx), len(cols)) array that the next call
    may overwrite.  The grid is swept from its largest scale down and each
    net grows out of the previous one: the first point at least eps from
    every center becomes a center, which in draw order is the sequential
    greedy net.  Counts are therefore non-increasing in epsilon by
    construction.

    Only the open points, those not yet centers, are tracked: a center's
    distance to the net is never read again, so each row covers the open
    points only, and each open point keeps its distance to the nearest
    center.  Candidates are taken in blocks of the next points at least eps
    from the net, their rows in one call, and admitted in order while still
    at least eps from the earlier admissions of the block.  Within a scale
    distances to the centers only fall, so a point skipped once stays
    covered, and the blocks admit exactly the centers one point at a time
    would, given bit-equal rows.  A row's last bits can depend on the shape
    of its product (with OpenBLAS 0.3.31, on the number of candidates and
    open points), so block-size invariance is checked on the tests' inputs,
    not guaranteed by construction.
    """
    size = len(members)
    block = _row_block(members)
    open_idx = np.arange(size)
    open_d = np.full(size, np.inf)
    counts = np.zeros(len(grid), dtype=np.int64)
    for level in range(len(grid) - 1, -1, -1):
        eps = grid[level]
        while True:
            candidates = np.flatnonzero(open_d >= eps)[:block]
            if candidates.size == 0:
                break
            stays = np.ones(open_idx.size, dtype=bool)
            for pos, row in zip(candidates, rows(open_idx[candidates], open_idx)):
                if open_d[pos] >= eps:
                    stays[pos] = False
                    np.minimum(open_d, row, out=open_d)
            open_idx, open_d = open_idx[stays], open_d[stays]
        counts[level] = size - open_idx.size
    is_center = np.ones(size, dtype=bool)
    is_center[open_idx] = False
    return counts, is_center


def _transposed(stack):
    """The (B, r, p) C-ordered stack of the transposes of a (B, p, r) stack,
    so that its (B r, p) reshape, the row matrix, is a view."""
    return np.ascontiguousarray(stack.swapaxes(1, 2))


def _block_sums(cross, out):
    """||W_j' V_i||_F^2 into the (K, B) array out, from the (r, K, r, B)
    view cross of GEMM products, cross[a, i, b, j] the product of row a of
    frame V_i and row b of member W_j: the squares summed over a, then
    over b.  The view is squared, and its a-blocks summed into the first,
    in place."""
    r = cross.shape[0]
    cross *= cross
    for a in range(1, r):
        cross[0] += cross[a]
    if r == 1:
        np.copyto(out, cross[0, :, 0])
    else:
        np.add(cross[0, :, 0], cross[0, :, 1], out=out)
    for b in range(2, r):
        out += cross[0, :, b]
    return out


def _center_overlaps(cross):
    """||W_j' U||_F^2 for each member W_j of a (B, r, p) stack of transposed
    frames, from the (B r, r) product cross of its row matrix with the
    center U, squared in place and summed by _block_sums, U's columns
    first.  A GEMM's last bits can depend on its shape, so these equal the
    U' W orientation's overlaps on the goldens' inputs, not by construction."""
    r = cross.shape[1]
    blocks = cross.reshape(-1, r, r).transpose(2, 1, 0)[:, None]
    return _block_sums(blocks, np.empty((1, blocks.shape[3])))[0]


def _net_rows(members, finish):
    """A rows(idx, cols) callback of _greedy_net_counts over a (n, r, p)
    stack of transposed member frames, computed in one fixed workspace.

    The workspace is allocated once per net and sized from the stack, not
    from the calls: a gather buffer for the whole stack, and cross products
    and rows for a candidate block of _row_block.  All of cols is gathered
    in one piece, row 0 of every point first, then row 1, and so on; one
    GEMM against the candidates' rows, held the same way, fills the cross
    products; _block_sums turns them into ||W_i' W_j||_F^2; finish(sq, idx,
    cols, scratch) makes those squared distances in place, scratch the spent
    GEMM buffer; and their roots, negatives clipped to zero, are the
    distances returned, a view of the workspace.
    """
    size, r, p = members.shape
    block = _row_block(members)
    flat = members.reshape(size * r, p)
    lanes = np.arange(r)[:, None]
    gathered = np.empty(r * size * p)
    cross = np.empty(r * block * r * size)
    out = np.empty(block * size)

    def rows(idx, cols):
        count, width = len(idx), len(cols)
        frames = flat[idx * r + lanes].reshape(r * count, p)
        # the indices are in range; unlike the default "raise", "wrap"
        # writes straight into out
        points = np.take(flat, cols * r + lanes, axis=0, mode="wrap",
                         out=gathered[:r * width * p].reshape(r, width, p))
        prod = np.matmul(frames, points.reshape(r * width, p).T,
                         out=cross[:r * count * r * width].reshape(r * count, r * width))
        dist = _block_sums(prod.reshape(r, count, r, width),
                           out[:count * width].reshape(count, width))
        finish(dist, idx, cols, cross)
        np.clip(dist, 0.0, None, out=dist)
        return np.sqrt(dist, out=dist)
    return rows


def _gram_rows(members):
    """Projector distances, from their squares 2 (r - ||W_i' W_j||_F^2),
    between the members of a (n, r, p) stack of transposed frames, as a
    rows(idx, cols) callback of _greedy_net_counts."""
    r = members.shape[1]

    def finish(sq, idx, cols, scratch):
        np.subtract(r, sq, out=sq)
        sq *= 2.0
    return _net_rows(members, finish)


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
    counts, _ = _greedy_net_counts([epsilon], members, _gram_rows(members))
    return int(counts[0])


def _draw_tangent_stack(cset, center, budget, rng):
    """Transposed member frames defining tangent elements, as a (n, r, p)
    stack, with their center overlaps and projector-difference norms.  A
    draw whose projector equals the center's is skipped.
    """
    u = center.values
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
        overlaps.append(_center_overlaps(cross)[keep])
        norms.append(norm[keep])
    if not any(len(f) for f in frames):
        return None
    return np.concatenate(frames), np.concatenate(overlaps), np.concatenate(norms)


def _tangent_distance_rows(members, overlaps, norms):
    """Frobenius distances between the tangent elements of a (n, r, p)
    stack of transposed member frames, from their squares
    2 - 2 (c - o_j - o_i + r) / (n_j n_i), as a rows(idx, cols) callback of
    _greedy_net_counts, where c = ||W_i' W_j||_F^2 and o and n are the
    center overlaps and norms, evaluated in that order."""
    r = members.shape[1]

    def finish(sq, idx, cols, scratch):
        sq -= overlaps[cols]
        sq -= overlaps[idx, None]
        sq += r
        sq *= 2.0
        sq /= np.multiply(norms[cols], norms[idx, None],
                          out=scratch[:sq.size].reshape(sq.shape))
        np.subtract(2.0, sq, out=sq)
    return _net_rows(members, finish)


def dudley_estimate(cset: constraints.ConstraintSet, center: OrthonormalFrame,
                    epsilon_grid=None, budget: int = 4000,
                    seed: int = 0) -> EntropyEstimate:
    """Log-covering counts of T(cset, center) from nested greedy nets, whose
    estimate derives the entropy integrals.

    Covering counts come from nested greedy nets over one fixed stream of
    random members, drawn and compared as stacks, so they are non-increasing
    in epsilon.  A singleton tangent set (or none at all) has log-covering
    zero at every scale, so both integrals vanish.  A scale whose net takes every
    drawn tangent element is flagged unresolved.  Raises
    ValueError, before any draw, unless the grid has two or more distinct
    scales, each finite and positive, and budget is at least 1; the center
    must be a frame of the set's shape (geometry._as_frame).
    """
    if epsilon_grid is None:
        epsilon_grid = np.geomspace(0.01, math.sqrt(2.0), 24)
    grid = np.asarray(sorted(float(e) for e in epsilon_grid))
    if grid.size < 2 or np.any(grid[1:] == grid[:-1]):
        raise ValueError(f"need two or more distinct epsilon scales, got {np.unique(grid).size}")
    _check_scales(grid)
    _check_budget(budget)
    center = _as_frame(center, (cset.p, cset.r))
    drawn = _draw_tangent_stack(cset, center, budget, constraints.as_generator(seed))
    counts = np.zeros(grid.size, dtype=np.int64)
    unresolved = np.zeros(grid.size, dtype=bool)
    if drawn is not None:
        members, overlaps, norms = drawn
        counts, _ = _greedy_net_counts(
            grid, members, _tangent_distance_rows(members, overlaps, norms))
        unresolved = counts == len(members)
    logs = np.where(counts > 0, np.log(np.maximum(counts, 1)), 0.0)
    return EntropyEstimate(grid, logs, budget, unresolved)
