"""Constraint sets for frames: sparsity, non-negativity, subspace, sign vectors.

Each set lives inside the orthonormal p x r frames.  `project_batch` maps
every slice of a stack of matrices to a member and `project` is its one-slice
case, `contains` tests membership, and `random_members` draws a stack of
members for Monte Carlo work, with `random_member` its one-slice case.
`ConstraintSet.rate_term` gives the set's entropy term in the minimax rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, RankDeficient
from .geometry import (OrthonormalFrame, _as_matrix, frobenius_norms,
                       orthonormalize_batch)

SPARSE = "sparse"
NONNEG = "nonneg"
SUBSPACE = "subspace"
SIGNS = "signs"
UNCONSTRAINED = "none"

_KINDS = (SPARSE, NONNEG, SUBSPACE, SIGNS, UNCONSTRAINED)

# rounds and movement threshold for the alternating non-negative projection
_NN_ROUNDS = 50
_NN_MOVE_TOL = 1e-10


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
            object.__setattr__(self, "k", k)
        if self.kind == SIGNS and self.r != 1:
            raise ValueError("sign-vector constraint requires r = 1")
        if self.kind in (NONNEG, SIGNS, UNCONSTRAINED) and self.k is not None:
            raise ValueError(f"{self.kind} constraint takes no k, got k={self.k}")

    def rate_term(self, ambient: int) -> tuple:
        """(term, cap): the set's entropy term in the minimax rate at frame
        dimension ambient, and the rate's cap, the diameter sqrt(r) of the
        unconstrained frames and 1 for a structured set."""
        if self.kind == SPARSE:
            k = self.k
            return math.sqrt(k * math.log(math.e * ambient / k)) + math.sqrt(k), 1.0
        if self.kind == SUBSPACE:
            return math.sqrt(self.k), 1.0
        if self.kind == UNCONSTRAINED:
            return math.sqrt(self.r * ambient), math.sqrt(self.r)
        return math.sqrt(ambient), 1.0

    def resized(self, p: int, r: int, k: int | None = None) -> ConstraintSet:
        """The same kind on p x r frames, with k replaced when given.  A stored
        subspace basis cannot follow a change of dimensions."""
        if self.kind == SUBSPACE:
            if (p, r) != (self.p, self.r) or k not in (None, self.k):
                raise DimensionMismatch(
                    "subspace constraints cannot be re-dimensioned in a sweep")
            return self
        return ConstraintSet(self.kind, p, r, k=self.k if k is None else k)


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


def _disjoint_support_cleanup(w: np.ndarray, original: np.ndarray) -> np.ndarray:
    """Force row-disjoint column supports, then give every column unit norm."""
    p, r = w.shape
    keep = np.zeros_like(w)
    owner = np.argmax(w, axis=1)
    rows = np.arange(p)
    keep[rows, owner] = w[rows, owner]
    for j in range(r):
        if np.linalg.norm(keep[:, j]) > 0.0:
            continue
        free = np.where(np.all(keep == 0.0, axis=1))[0]
        if free.size == 0:
            # steal the weakest row of the most populated column
            counts = np.sum(keep > 0.0, axis=0)
            donor = int(np.argmax(counts))
            if counts[donor] < 2:
                raise DegenerateInput("cannot build disjoint non-negative supports")
            cand = np.where(keep[:, donor] > 0.0)[0]
            row = cand[int(np.argmin(keep[cand, donor]))]
            keep[row, donor] = 0.0
        else:
            row = free[int(np.argmax(original[free, j]))]
        keep[row, j] = 1.0
    norms = np.linalg.norm(keep, axis=0)
    return keep / norms


def _project_nonneg_rank_one(stack: np.ndarray) -> np.ndarray:
    """Clip and renormalize every p x 1 slice; a slice with no positive
    entry maps to the basis vector at its largest entry."""
    clipped = np.clip(stack, 0.0, None)
    norms = frobenius_norms(clipped)
    zero = norms <= 0.0
    out = clipped / np.where(zero, 1.0, norms)[:, None, None]
    if zero.any():
        for i in np.flatnonzero(zero):
            out[i] = 0.0
            out[i, int(np.argmax(stack[i, :, 0])), 0] = 1.0
    return out


def _project_nonneg_stack(s: np.ndarray) -> tuple:
    """Alternating projection of every p x r slice of a stack, r > 1.

    Each round clips the live slices, tests them for a zero clip, and moves
    the rest to the polar factor of their clip; a slice leaves the live set
    when its clip is zero or its move falls below _NN_MOVE_TOL.  The zero
    test and the polar factor stay two svd calls, as on one slice.  The
    final feasibility pass then runs slice by slice.
    """
    r = s.shape[2]
    u = s.copy()
    live = np.arange(s.shape[0])
    for _ in range(_NN_ROUNDS):
        clipped = np.clip(u[live], 0.0, None)
        nonzero = ~np.all(np.linalg.svd(clipped, compute_uv=False) < 1e-12, axis=1)
        live, clipped = live[nonzero], clipped[nonzero]
        if not live.size:
            break
        w, _, vt = np.linalg.svd(clipped, full_matrices=False)
        nxt = w @ vt
        moving = ~(frobenius_norms(nxt - u[live]) < _NN_MOVE_TOL)
        u[live] = nxt
        live = live[moving]
    members = np.empty_like(s)
    ok = np.ones(s.shape[0], dtype=bool)
    for i in range(s.shape[0]):
        w = np.clip(u[i], 0.0, None)
        norms = np.linalg.norm(w, axis=0)
        if np.all(norms > 1e-12):
            cand = w / norms
            if np.max(np.abs(cand.T @ cand - np.eye(r))) <= 1e-12:
                members[i] = cand
                continue
        try:
            members[i] = _disjoint_support_cleanup(w, s[i])
        except DegenerateInput:
            ok[i] = False
    return members, ok


def project_batch(cset: ConstraintSet, stack) -> tuple:
    """Map every slice of a (B, p, r) stack to a member of the constraint set.

    Returns (members, ok), a (B, p, r) array and a boolean mask: ok[i] is
    False where slice i has no member (a rank-deficient input block, or no
    disjoint non-negative supports), and members[i] is then meaningless.
    The members are raw arrays; callers check orthonormality when they make
    frames of them.  Each slice comes out bit for bit as a call on that slice
    alone.

    Rules per kind: "signs" takes entrywise signs (with sign(0) := +1) over
    sqrt(p); "subspace" re-orthonormalizes the basis-plane projection;
    "none" re-orthonormalizes; "sparse" keeps the k rows of largest Euclidean
    norm (a shared-support reduction) and re-orthonormalizes the surviving
    block; "nonneg" clips negatives for r = 1, and for r > 1 alternates
    clipping with polar orthonormalization on the whole stack, each slice
    leaving it on its own exit test, before a final feasibility pass per
    slice.
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
        norms = np.linalg.norm(s, axis=2)
        order = np.argsort(-norms, axis=1, kind="stable")
        keep = np.sort(order[:, : cset.k], axis=1)[:, :, None]
        block, ok = orthonormalize_batch(np.take_along_axis(s, keep, axis=1))
        members = np.zeros_like(s)
        np.put_along_axis(members, keep, block, axis=1)
        return members, ok
    if cset.r == 1:
        return _project_nonneg_rank_one(s), np.ones(count, dtype=bool)
    return _project_nonneg_stack(s)


def project(cset: ConstraintSet, u) -> OrthonormalFrame:
    """Map a frame or matrix to a member of the constraint set: the one-slice
    case of project_batch.  Raises DegenerateInput where no member exists."""
    m = _as_matrix(u)
    if m.shape != (cset.p, cset.r):
        raise DimensionMismatch(
            f"input is {m.shape[0]} x {m.shape[1]}, constraint ambient is {cset.p} x {cset.r}")
    members, ok = project_batch(cset, m[None])
    if not ok[0]:
        raise DegenerateInput(f"no {cset.kind} member for this input")
    return OrthonormalFrame(members[0])


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed or a Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def _orthonormal_or_raise(stack: np.ndarray) -> np.ndarray:
    frames, full_rank = orthonormalize_batch(stack)
    if not full_rank.all():
        raise RankDeficient("matrix has (numerically) dependent columns")
    return frames


def random_members(cset: ConstraintSet, seed, count: int) -> np.ndarray:
    """Draw count members as a (count, p, r) array of raw frames.

    Slice i is bit for bit the i-th of count consecutive random_member draws
    on the same generator, so a draw split into blocks on one generator
    equals one call.  Draws are Haar where the set is rotation invariant,
    else a natural seeded surrogate: a uniform support with a Haar block
    ("sparse"), fair signs ("signs"), or absolute Gaussians normalized for
    r = 1 and projected for r > 1 ("nonneg").  Gaussian draws come from one
    generator call; sparse supports and signs are drawn slice by slice.
    Raises RankDeficient or DegenerateInput where a draw has no member.
    """
    rng = as_generator(seed)
    p, r = cset.p, cset.r
    if cset.kind == SIGNS:
        s = np.empty((count, p))
        for i in range(count):
            s[i] = rng.integers(0, 2, size=p) * 2.0 - 1.0
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
    draws = np.abs(rng.standard_normal((count, p, r)))
    if r == 1:
        return draws / frobenius_norms(draws)[:, None, None]
    members, ok = project_batch(cset, draws)
    if not ok.all():
        raise DegenerateInput("no nonneg member for this draw")
    return members


def random_member(cset: ConstraintSet, seed) -> OrthonormalFrame:
    """Draw one member: the one-slice case of random_members."""
    return OrthonormalFrame(random_members(cset, seed, 1)[0])


def parse_constraint(text: str, p: int, r: int) -> ConstraintSet:
    """Parse a constraint string: "sparse:k=10", "nonneg", "subspace:qfile=PATH",
    "signs", or "none"."""
    from .matio import read_matrix

    head, sep, rest = text.partition(":")
    head = head.strip()
    if sep and head in (UNCONSTRAINED, NONNEG, SIGNS):
        raise ValueError(f"{head} constraint takes no argument, got {text!r}")
    if head == UNCONSTRAINED:
        return unconstrained(p, r)
    if head == NONNEG:
        return nonneg(p, r)
    if head == SIGNS:
        return ConstraintSet(SIGNS, p, r)
    if head == SPARSE:
        key, _, val = rest.partition("=")
        if key.strip() != "k":
            raise ValueError(f"sparse constraint needs k=<int>, got {text!r}")
        return sparse(p, r, int(val))
    if head == SUBSPACE:
        key, _, val = rest.partition("=")
        if key.strip() != "qfile":
            raise ValueError(f"subspace constraint needs qfile=<path>, got {text!r}")
        basis = OrthonormalFrame(read_matrix(val.strip()))
        return subspace(basis, r)
    raise ValueError(f"unknown constraint {text!r}")
