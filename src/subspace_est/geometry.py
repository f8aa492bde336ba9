"""Frame geometry: orthonormal frames, projector distance, Procrustes alignment.

The distance between two frames U1, U2 with orthonormal columns is the
Frobenius norm of the difference of their column-space projectors,

    dist(U1, U2) = || U1 U1' - U2 U2' ||_F = sqrt(2 (r - ||U1' U2||_F^2))
                 = sqrt(2) || U1 - U2 (U2' U1) ||_F.

subspace_distance, the reported loss, forms the p x p projectors, so an exact
match reads exactly 0 and the distance is exactly symmetric.  The power step
in estimators tests convergence with the O(p r^2) residual form on the right.
Neither uses the Gram identity in the middle: it subtracts ||U1' U2||_F^2
from r and so cannot resolve a distance below about 1e-8, the default
convergence tolerance.  The greedy nets and local packings in entropy do
use it between members: their radii and alpha * eps separations sit far
above that floor.  Tangent norms use the residual form, whose skip rule must
see a draw equal to the center as near zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient

# entrywise tolerance on U'U - I for a frame to count as orthonormal
FRAME_TOL = 1e-10

# relative singular-value floor below which a matrix is treated as rank deficient
_RANK_TOL = 1e-12


@dataclass
class OrthonormalFrame:
    """A p x r matrix whose columns are orthonormal within FRAME_TOL."""

    values: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.values)
        p, r = m.shape
        if r < 1 or p < r:
            raise DimensionMismatch(f"need p >= r >= 1, got shape {p} x {r}")
        check_orthonormal(m)
        self.values = m

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SpectrumSpec:
    """Ordered signal singular values with a scale t and conditioning bound L.

    Invariants: the values and t are finite, values[0] >= ... >= values[-1]
    > 0, L > 1, and the whole spectrum lives in [t / L, L t].
    """

    values: tuple
    scale: float
    conditioning: float = 2.0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        t, big_l = self.scale, self.conditioning
        if len(vals) == 0:
            raise DimensionMismatch("spectrum must have at least one value")
        if not all(math.isfinite(v) for v in (*vals, t)):
            raise ValueError("spectrum values and scale must be finite")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise ValueError("spectrum values must be non-increasing")
        if vals[-1] <= 0:
            raise ValueError("spectrum values must be positive")
        if not big_l > 1:
            raise ValueError("conditioning bound must exceed 1")
        if vals[0] > big_l * t or vals[-1] < t / big_l:
            raise ValueError("spectrum must lie within [t/L, L*t]")

    @property
    def rank(self) -> int:
        return len(self.values)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @classmethod
    def flat(cls, scale: float, rank: int) -> "SpectrumSpec":
        return cls(values=(float(scale),) * rank, scale=float(scale))


def _as_matrix(u, shape=None) -> np.ndarray:
    """The one coercion of every public entry's frame or matrix arguments: a
    frame's values, or a float array with a vector read as one column.
    Raises DimensionMismatch unless the result is 2-D, and of shape when one
    is given, and ValueError on a non-finite entry."""
    m = u.values if isinstance(u, OrthonormalFrame) else np.asarray(u, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if shape is not None and m.shape != shape:
        raise DimensionMismatch(f"frame shapes differ: need {shape}, got {m.shape}")
    return m


def _as_frame(u, shape=None) -> OrthonormalFrame:
    """A frame argument: u, where an array must pass as an OrthonormalFrame."""
    frame = u if isinstance(u, OrthonormalFrame) else OrthonormalFrame(u)
    _as_matrix(frame, shape)
    return frame


def check_orthonormal(stack) -> None:
    """Raise ValueError unless the columns of a p x r matrix, or of every
    slice of a (B, p, r) stack, are orthonormal within FRAME_TOL."""
    if not np.isfinite(stack).all():
        raise ValueError("frame has non-finite entries")
    gram = stack.swapaxes(-1, -2) @ stack
    err = np.abs(gram - np.eye(stack.shape[-1])).max(initial=0.0)
    # written so that a NaN error, which compares False, raises too
    if not err <= FRAME_TOL:
        raise ValueError(f"columns are not orthonormal: max |U'U - I| = {err:.3e}")


def frobenius_norms(stack) -> np.ndarray:
    """Frobenius norm of every slice of a C-contiguous (B, ...) stack.

    Each norm is the square root of the slice's inner product with itself,
    taken by a (1 x n)(n x 1) product, which matches np.linalg.norm of the
    slice bit for bit; a stacked sum of squares rounds differently.
    """
    flat = stack.reshape(stack.shape[0], 1, math.prod(stack.shape[1:]))
    return np.sqrt((flat @ flat.transpose(0, 2, 1))[:, 0, 0])


def orthonormalize_batch(stack) -> tuple:
    """Thin QR factors with diag(R) >= 0 of every slice of a (B, p, r) stack.

    Returns (frames, full_rank).  full_rank[i] is False when the smallest
    singular value of slice i falls at or below 1e-12 times its largest;
    frames[i] is then meaningless.  The r x r factor R of a slice carries its
    singular values, and the rank test needs no p x r decomposition: since
    |det R| = prod |R_ii| <= s_min s_max^(r-1), the ratio s_min / s_max is
    at least prod(|R_ii| / ||R||_F), and a slice where that bound exceeds
    twice the floor is full rank with room for the rounding of both sides.
    Only finite slices the bound cannot settle (zero, badly scaled or near
    the floor) take the singular values of R; a non-finite R is deficient.
    At r = 1 the bound is exact, so only R_00 = 0 reaches them.  Each slice
    comes out bit for bit as a call on that slice alone.
    """
    q, rfac = np.linalg.qr(stack)
    count, r = rfac.shape[0], rfac.shape[-1]
    diag = np.diagonal(rfac, axis1=1, axis2=2)
    flat = rfac.reshape(count, r * r)
    # overflowing, NaN and zero slices read as unsettled, not as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        squares = np.vecdot(flat, flat)
        bound = np.multiply.reduce(np.abs(diag) / np.sqrt(squares)[:, None], axis=1)
    # below the normal range the squares lose digits, so the bound is not trusted
    full_rank = (bound > 2.0 * _RANK_TOL) & (squares >= sys.float_info.min)
    if not full_rank.all():
        unsettled = np.flatnonzero(~full_rank)
        unsettled = unsettled[np.isfinite(rfac[unsettled]).all(axis=(1, 2))]
        sv = np.linalg.svd(rfac[unsettled], compute_uv=False)
        full_rank[unsettled] = ~((sv[:, 0] == 0.0) | (sv[:, -1] <= _RANK_TOL * sv[:, 0]))
    # multiplying by -1 or 1 is exact, so this is q * sign(diag) with sign(0) := 1
    q *= np.where(diag < 0, -1.0, 1.0)[:, None, :]
    return q, full_rank


def _orthonormal_or_raise(stack) -> np.ndarray:
    """orthonormalize_batch's frames; RankDeficient if any slice is deficient."""
    frames, full_rank = orthonormalize_batch(stack)
    if not full_rank.all():
        raise RankDeficient("matrix has (numerically) dependent columns")
    return frames


def orthonormalize(m) -> OrthonormalFrame:
    """Thin QR factor of m with the sign convention diag(R) >= 0.

    Raises RankDeficient when the smallest singular value falls at or below
    1e-12 times the largest.  The sign convention makes the output unique, and
    an input that is already orthonormal with a positive-diagonal triangular
    factor comes back unchanged.  This is the one-slice orthonormalize_batch.
    """
    m = _as_matrix(m)
    if m.shape[0] < m.shape[1]:
        raise DimensionMismatch(f"need p >= r, got shape {m.shape}")
    return OrthonormalFrame(_orthonormal_or_raise(m[None])[0])


def subspace_distance(u1, u2) -> float:
    """Projector distance between two frames of equal shape, in [0, sqrt(2r)].

    Computed as the Frobenius norm of the projector difference rather than
    through the Gram identity 2(r - |U1'U2|_F^2): the identity loses half the
    significant digits near zero, where exact-match tests live.
    """
    a = _as_matrix(u1)
    b = _as_matrix(u2, a.shape)
    return float(np.linalg.norm(a @ a.T - b @ b.T))


def procrustes_align(u1, u2):
    """Best rotation O of u2 onto u1 and the aligned residual.

    Returns (rotation, residual) where rotation minimizes ||u1 - u2 O||_F over
    r x r orthogonal matrices and residual is that minimum.  The residual and
    the projector distance d satisfy d / sqrt(2) <= residual <= d.
    """
    a = _as_matrix(u1)
    b = _as_matrix(u2, a.shape)
    w, _, vt = np.linalg.svd(b.T @ a)
    rotation = w @ vt
    residual = float(np.linalg.norm(a - b @ rotation))
    return rotation, residual


def quadratic_form_gap(u, spectrum: SpectrumSpec, w, mode: str = "squared") -> float:
    """Trace inner product of a spectral form of u against the projector gap.

    mode "squared" gives < U G^2 U', U U' - W W' > for G = diag(spectrum), and
    mode "linear" replaces G^2 by G.  The squared mode is sandwiched between
    (lambda_r^2 / 2) d^2 and (lambda_1^2 / 2) d^2 with d the projector
    distance, and the linear mode likewise with lambda / 2 factors.
    """
    a = _as_matrix(u)
    b = _as_matrix(w, a.shape)
    if a.shape[1] != spectrum.rank:
        raise DimensionMismatch("spectrum rank does not match frame width")
    lam = spectrum.array
    if mode == "squared":
        weights = lam * lam
    elif mode == "linear":
        weights = lam
    else:
        raise ValueError(f"unknown mode {mode!r}")
    cross = a.T @ b
    captured = np.sum(cross * cross, axis=1)  # diag of (U'W)(U'W)'
    return float(np.sum(weights * (1.0 - captured)))
