"""Constraint sets for frames: sparsity, non-negativity, subspace, sign vectors.

Each set lives inside the orthonormal p x r frames.  `project_batch` maps
every slice of a stack of matrices to a member and `project` is its one-slice
case, `contains` tests membership, and `random_members` draws a stack of
members for Monte Carlo work, with `random_member` its one-slice case.
Non-negative orthonormal columns have disjoint supports, so for r > 1 the
non-negative projection searches over row-to-column assignments.
`ConstraintSet.rate_term` gives the set's entropy term in the minimax rate.
The argument each kind takes in a constraint string is listed once
(_ARGUMENTS), and `as_generator` is the one rule from a seed to a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch
from .geometry import (OrthonormalFrame, _as_matrix, _orthonormal_or_raise,
                       frobenius_norms, orthonormalize_batch)

SPARSE = "sparse"
NONNEG = "nonneg"
SUBSPACE = "subspace"
SIGNS = "signs"
UNCONSTRAINED = "none"

_KINDS = (SPARSE, NONNEG, SUBSPACE, SIGNS, UNCONSTRAINED)
# the one argument a kind takes in a constraint string; the others take none
_ARGUMENTS = {SPARSE: "k", SUBSPACE: "qfile"}

# a non-negative assignment move must gain more than this share of the value
_MOVE_RTOL = 1e-12


@dataclass(frozen=True)
class ConstraintSet:
    """A constraint on p x r orthonormal frames.

    kind is one of "sparse" (at most k rows carry a nonzero entry),
    "nonneg" (all entries >= 0), "subspace" (columns lie in the span of a
    stored p x k basis), "signs" (r = 1, entries all +-1/sqrt(p)), or "none".
    """

    kind: str
    p: int
    r: int
    k: int | None = None
    basis: OrthonormalFrame | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.r < 1 or self.p < self.r:
            raise DimensionMismatch(f"need p >= r >= 1, got p={self.p} r={self.r}")
        if self.kind == SPARSE:
            if self.k is None or not (self.r <= self.k <= self.p):
                raise ValueError(f"sparse needs r <= k <= p, got k={self.k}")
        if self.kind == SUBSPACE:
            if self.basis is None:
                raise ValueError("subspace constraint needs a basis")
            k = self.basis.r
            if self.basis.p != self.p or not (self.r < k < self.p):
                raise ValueError(
                    f"subspace basis must be p x k with r < k < p, got {self.basis.p} x {k}")
            if self.k not in (None, k):
                raise ValueError(f"subspace k={self.k} differs from the basis width {k}")
            object.__setattr__(self, "k", k)
        elif self.basis is not None:
            raise ValueError(f"{self.kind} constraint takes no basis")
        if self.kind == SIGNS and self.r != 1:
            raise ValueError("sign-vector constraint requires r = 1")
        if self.kind in (NONNEG, SIGNS, UNCONSTRAINED) and self.k is not None:
            raise ValueError(f"{self.kind} constraint takes no k, got k={self.k}")

    def rate_term(self) -> tuple:
        """(term, cap): the set's entropy term in the minimax rate, and the
        rate's cap, the diameter sqrt(r) of the unconstrained frames and 1 for
        a structured set."""
        if self.kind == SPARSE:
            k = self.k
            return math.sqrt(k * math.log(math.e * self.p / k)) + math.sqrt(k), 1.0
        if self.kind == SUBSPACE:
            return math.sqrt(self.k), 1.0
        if self.kind == UNCONSTRAINED:
            return math.sqrt(self.r * self.p), math.sqrt(self.r)
        return math.sqrt(self.p), 1.0


def sparse(p: int, r: int, k: int) -> ConstraintSet:
    return ConstraintSet(SPARSE, p, r, k=k)


def nonneg(p: int, r: int) -> ConstraintSet:
    return ConstraintSet(NONNEG, p, r)


def subspace(basis: OrthonormalFrame, r: int) -> ConstraintSet:
    return ConstraintSet(SUBSPACE, basis.p, r, basis=basis)


def signs(n: int) -> ConstraintSet:
    return ConstraintSet(SIGNS, n, 1)


def unconstrained(p: int, r: int) -> ConstraintSet:
    return ConstraintSet(UNCONSTRAINED, p, r)


def contains(cset: ConstraintSet, frame: OrthonormalFrame, tol: float = 1e-8) -> bool:
    """Membership test at entrywise tolerance tol (frame must be orthonormal)."""
    if frame.p != cset.p or frame.r != cset.r:
        raise DimensionMismatch(
            f"frame is {frame.p} x {frame.r}, constraint ambient is {cset.p} x {cset.r}")
    m = frame.values
    if cset.kind == UNCONSTRAINED:
        return True
    if cset.kind == SPARSE:
        return bool(np.sum(np.any(np.abs(m) > tol, axis=1)) <= cset.k)
    if cset.kind == NONNEG:
        return bool(np.min(m) >= -tol)
    if cset.kind == SUBSPACE:
        q = cset.basis.values
        return bool(np.max(np.abs(m - q @ (q.T @ m))) <= tol)
    # signs
    return bool(np.max(np.abs(np.abs(m) - 1.0 / np.sqrt(cset.p))) <= tol)


def _project_nonneg_rank_one(stack: np.ndarray) -> np.ndarray:
    """Clip and renormalize every p x 1 slice; a slice with no positive
    entry maps to the basis vector at its largest entry."""
    clipped = np.clip(stack, 0.0, None)
    norms = frobenius_norms(clipped)
    zero = norms <= 0.0
    out = clipped / np.where(zero, 1.0, norms)[:, None, None]
    zero = np.flatnonzero(zero)
    out[zero] = 0.0
    out[zero, np.argmax(stack[zero, :, 0], axis=1), 0] = 1.0
    return out


def _columns(s, sq, owner):
    """For assignments owner (B, p) of a stack s held as (B, r, p) with
    squared positive parts sq: each column's positive mass (a forward sum in
    row order), best owned entry, owned row count, worth without each of its
    rows (as a (B, p) array over the rows), and best owned row."""
    count, r, p = s.shape
    rows, slices = np.arange(p), np.arange(count)[:, None]
    onehot = owner[:, None, :] == np.arange(r)[:, None]
    # the rest of a column keeps the owned mass before and after the row (two
    # sums of non-negative terms), else its best other owned entry
    owned = np.where(onehot, sq, 0.0)
    running = np.cumsum(owned, axis=2)
    start = (owner + r * slices) * p
    before = np.take(running, start + rows - 1, mode="clip")
    after = np.take(np.cumsum(owned[:, :, ::-1], axis=2), start + p - 2 - rows, mode="clip")
    rest = np.where(rows > 0, before, 0.0) + np.where(rows < p - 1, after, 0.0)
    entries = np.where(onehot, s, -np.inf)
    best, best_row = np.max(entries, axis=2), np.argmax(entries, axis=2)
    entries[slices, np.arange(r), best_row] = -np.inf
    other = np.where(best_row[slices, owner] == rows, np.max(entries, axis=2)[slices, owner],
                     best[slices, owner])
    without = np.where(rest > 0.0, np.sqrt(rest), other)
    return running[:, :, -1], best, np.sum(onehot, axis=2), without, best_row


def _best_moves(s, sq, owner):
    """Each slice's best single-row move (arguments as in _columns), as the
    flat index column * p + row, and whether it is taken: where a slice has
    an empty column (worth 0) only moves that fill one count, else the move
    must gain over _MOVE_RTOL of sum_j |value_j|; no move empties a column."""
    count, r, p = s.shape
    mass, best, rows_owned, without, _ = _columns(s, sq, owner)
    value = np.where(rows_owned > 0, np.where(mass > 0.0, np.sqrt(mass), best), 0.0)
    slices = np.arange(count)[:, None]
    mass = mass[:, :, None] + sq
    gain = np.where(mass > 0.0, np.sqrt(mass), np.maximum(best[:, :, None], s))
    gain += (without - value[slices, owner])[:, None, :] - value[:, :, None]
    filling = np.any(rows_owned == 0, axis=1)
    gain[(owner[:, None, :] == np.arange(r)[:, None])
         | (rows_owned[slices, owner] == 1)[:, None, :]
         | (filling[:, None, None] & (rows_owned > 0)[:, :, None])] = -np.inf
    flat = gain.reshape(count, r * p)
    move = np.argmax(flat, axis=1)
    return move, filling | (flat[slices[:, 0], move] > _MOVE_RTOL * np.sum(np.abs(value), axis=1))


def _project_nonneg_stack(s: np.ndarray) -> np.ndarray:
    """Assignment projection of every p x r slice of a stack, r > 1.

    Non-negative orthonormal columns have disjoint supports, so the member
    nearest a slice S maximizes <W, S> = sum_j value_j over assignments of
    rows to columns, where column j is worth ||S+_{A_j, j}|| on its rows
    A_j, or its best entry when S has no positive entry there.  Each slice
    starts at the row-argmax of S and takes its best single-row move per
    round, one that fills an empty column first, until no move gains more
    than _MOVE_RTOL of sum_j |value_j|.  Ties go to the lowest column, then
    row, so each slice is its one-slice result at every block size.  The
    search is local: it reaches the maximum on nearly every Gaussian slice
    once p >= 2 r, less often as p nears r and columns own one row each.
    """
    count, p, r = s.shape
    # dividing each slice by a power of two near its largest entry is exact
    # in the normal range, so no member changes, but the large squares stay
    # finite and nonzero
    _, exponent = np.frexp(np.max(np.abs(s), axis=(1, 2)))
    cols = np.ldexp(s.transpose(0, 2, 1), -exponent[:, None, None], order="C")
    sq = np.clip(cols, 0.0, None) ** 2
    owner = np.argmax(s, axis=2)
    live, state = np.arange(count), (cols, sq, owner.copy())
    while live.size:
        move, go = _best_moves(*state)
        live, move, state = live[go], move[go], tuple(x[go] for x in state)
        state[2][np.arange(live.size), move % p] = move // p
        owner[live] = state[2]
    mass, _, _, _, best_row = _columns(cols, sq, owner)
    members = np.where(owner[:, None, :] == np.arange(r)[:, None], np.clip(cols, 0.0, None), 0.0)
    members /= np.sqrt(np.where(mass > 0.0, mass, 1.0))[:, :, None]
    # a column without positive mass is the basis vector at its best owned row
    slices, empty = np.nonzero(mass <= 0.0)
    members[slices, empty] = 0.0
    members[slices, empty, best_row[slices, empty]] = 1.0
    return np.ascontiguousarray(members.transpose(0, 2, 1))


def _row_norms(s) -> np.ndarray:
    """np.linalg.norm(s, axis=2) of a (B, p, r) stack, bit for bit.  numpy
    sums fewer than 8 terms in order, so below r = 8 the squares are summed
    by r - 1 strided adds, which skip its wrappers; from 8 on it pairs them,
    and its reduction is called directly."""
    squares = s * s
    if s.shape[2] >= 8:
        return np.sqrt(np.add.reduce(squares, axis=2))
    total = squares[:, :, 0]
    for j in range(1, s.shape[2]):
        total = total + squares[:, :, j]
    return np.sqrt(total)


def project_batch(cset: ConstraintSet, stack) -> tuple:
    """Map every slice of a (B, p, r) stack to a member of the constraint set.

    Returns (members, ok), a (B, p, r) array and a boolean mask: ok[i] is
    False where slice i has no member (a rank-deficient input block), and
    members[i] is then meaningless; every "signs" and "nonneg" slice has one.
    The members are raw arrays; callers check orthonormality when they make
    frames of them.  Each slice comes out bit for bit as a call on that slice
    alone.

    Rules per kind: "signs" takes entrywise signs (with sign(0) := +1) over
    sqrt(p); "subspace" re-orthonormalizes the basis-plane projection;
    "none" re-orthonormalizes; "sparse" keeps the k rows of largest Euclidean
    norm (a shared-support reduction) and re-orthonormalizes the surviving
    block; "nonneg" clips negatives for r = 1, and for r > 1 gives each row
    to one column by improving single-row moves (_project_nonneg_stack), so
    a member comes back as itself up to rounding.
    """
    s = np.asarray(stack, dtype=float)
    if s.ndim != 3 or s.shape[1:] != (cset.p, cset.r):
        raise DimensionMismatch(
            f"input stack is {s.shape}, constraint ambient is {cset.p} x {cset.r}")
    count = s.shape[0]
    if cset.kind == SIGNS:
        members = np.where(s >= 0.0, 1.0, -1.0) / np.sqrt(cset.p)
        return members, np.ones(count, dtype=bool)
    if cset.kind == UNCONSTRAINED:
        return orthonormalize_batch(s)
    if cset.kind == SUBSPACE:
        q = cset.basis.values
        return orthonormalize_batch(q @ (q.T @ s))
    if cset.kind == SPARSE:
        order = np.argsort(-_row_norms(s), axis=1, kind="stable")
        keep = np.sort(order[:, : cset.k], axis=1)
        slices = np.arange(count)[:, None]
        block, ok = orthonormalize_batch(s[slices, keep])
        members = np.zeros_like(s)
        members[slices, keep] = block
        return members, ok
    members = _project_nonneg_rank_one(s) if cset.r == 1 else _project_nonneg_stack(s)
    return members, np.ones(count, dtype=bool)


def project(cset: ConstraintSet, u) -> OrthonormalFrame:
    """Map a frame or matrix to a member of the constraint set: the one-slice
    case of project_batch.  Raises DegenerateInput where no member exists and
    ValueError on an input with NaN or infinite entries."""
    m = _as_matrix(u)
    if m.shape != (cset.p, cset.r):
        raise DimensionMismatch(
            f"input is {m.shape[0]} x {m.shape[1]}, constraint ambient is {cset.p} x {cset.r}")
    if not np.isfinite(m).all():
        raise ValueError("cannot project an input with non-finite entries")
    members, ok = project_batch(cset, m[None])
    if not ok[0]:
        raise DegenerateInput(f"no {cset.kind} member for this input")
    return OrthonormalFrame(members[0])


def as_generator(seed, *key) -> np.random.Generator:
    """Accept an int seed or a Generator and return a Generator: for an int,
    the Philox stream of SeedSequence(seed, spawn_key=key), one per key."""
    if isinstance(seed, np.random.Generator):
        return seed
    sequence = np.random.SeedSequence(int(seed), spawn_key=tuple(map(int, key)))
    return np.random.Generator(np.random.Philox(sequence))


def random_members(cset: ConstraintSet, seed, count: int) -> np.ndarray:
    """Draw count members as a (count, p, r) array of raw frames.

    Slice i is bit for bit the i-th of count consecutive random_member draws
    on the same generator, so a draw split into blocks on one generator
    equals one call.  Draws are Haar where the set is rotation invariant,
    else a natural seeded surrogate: a uniform support with a Haar block
    ("sparse"), fair signs ("signs"), or projected absolute Gaussians
    ("nonneg"; for r > 1 the projection is the row-to-column assignment
    search).  Gaussian draws and signs come from one generator call each;
    sparse supports are drawn slice by slice.  Raises RankDeficient where a
    draw has no member.
    """
    rng = as_generator(seed)
    p, r = cset.p, cset.r
    if cset.kind == SIGNS:
        s = rng.integers(0, 2, size=(count, p)) * 2.0 - 1.0
        return s[:, :, None] / np.sqrt(p)
    if cset.kind == SPARSE:
        supports = np.empty((count, cset.k), dtype=np.intp)
        blocks = np.empty((count, cset.k, r))
        for i in range(count):
            supports[i] = np.sort(rng.choice(p, size=cset.k, replace=False))
            blocks[i] = rng.standard_normal((cset.k, r))
        blocks = _orthonormal_or_raise(blocks)
        out = np.zeros((count, p, r))
        np.put_along_axis(out, supports[:, :, None], blocks, axis=1)
        return out
    if cset.kind == UNCONSTRAINED:
        return _orthonormal_or_raise(rng.standard_normal((count, p, r)))
    if cset.kind == SUBSPACE:
        inner = _orthonormal_or_raise(rng.standard_normal((count, cset.basis.r, r)))
        return cset.basis.values @ inner
    return project_batch(cset, np.abs(rng.standard_normal((count, p, r))))[0]


def random_member(cset: ConstraintSet, seed) -> OrthonormalFrame:
    """Draw one member: the one-slice case of random_members."""
    return OrthonormalFrame(random_members(cset, seed, 1)[0])


def parse_constraint(text: str, p: int, r: int) -> ConstraintSet:
    """Parse a constraint string: "sparse:k=10", "nonneg", "subspace:qfile=PATH",
    "signs", or "none"."""
    from .matio import read_matrix

    head, sep, rest = text.partition(":")
    head = head.strip()
    if head not in _KINDS:
        raise ValueError(f"unknown constraint {text!r}")
    key, _, value = rest.partition("=")
    argument = _ARGUMENTS.get(head)
    if (key.strip() if sep else None) != argument:
        wanted = f"{argument}=<value>" if argument else "no argument"
        raise ValueError(f"{head} constraint takes {wanted}, got {text!r}")
    if argument is None:
        return ConstraintSet(head, p, r)
    if argument == "k":
        return ConstraintSet(head, p, r, k=int(value))
    return ConstraintSet(head, p, r, basis=OrthonormalFrame(read_matrix(value.strip())))
