"""Observation models that share a planted frame: matrix denoising, spiked
covariance, symmetric noise, and two-group clustering.

Families and shapes:

- "denoising":  Y = U diag(spectrum) V' + sigma * Z, Y is p1 x p2
- "wishart":    n rows iid N(0, U diag(spectrum) U' + sigma^2 I), Y is n x p
- "wigner":     Y = U diag(spectrum) U' + sigma * Z symmetric, Y is p x p
- "clustering": rank-one denoising of an n x p matrix whose planted u is a
                sign vector; the group labels are sign(u)

Each family reads the dimensions of its planted frames, listed in one table
(_FRAME_DIMS), and wishart also its row count n; a spec refuses any other
dimension.  Each family also fixes the objective matrix its estimators
maximize over (objective_matrix) and its noise factor in the minimax rate
(ModelSpec.noise_rate); no other module branches on the family.

All randomness flows through a counter-based generator keyed by
(seed, trial_index), built by constraints.as_generator, so any trial can
be regenerated bit for bit without replaying the ones before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constraints
from .errors import (BoundViolated, ConstraintViolation, DegenerateInput,
                     DimensionMismatch, NotPositiveDefinite, TooFewRows)
from .geometry import OrthonormalFrame, SpectrumSpec, _as_frame, _as_matrix, procrustes_align

DENOISING = "denoising"
WISHART = "wishart"
WIGNER = "wigner"
CLUSTERING = "clustering"

# the dimension fields of a spec, in the order the spec digest hashes them
DIMENSIONS = ("p1", "p2", "n", "p")
# each family's planted frames by their dimensions, the estimated frame first
_FRAME_DIMS = {DENOISING: ("p1", "p2"), CLUSTERING: ("n", "p"),
               WISHART: ("p",), WIGNER: ("p",)}


@dataclass(frozen=True)
class ModelSpec:
    """Family, dimensions, planted spectrum, noise level, and master seed."""

    family: str
    spectrum: SpectrumSpec
    noise_sd: float
    seed: int
    p1: int | None = None
    p2: int | None = None
    n: int | None = None
    p: int | None = None

    def __post_init__(self):
        if self.family not in _FRAME_DIMS:
            raise ValueError(f"unknown family {self.family!r}")
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be positive")
        if not math.isfinite(self.noise_sd):
            raise ValueError("noise_sd must be finite")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        frames = _FRAME_DIMS[self.family]
        # a sample covariance also reads its row count
        reads = [name for name in DIMENSIONS
                 if name in frames or (self.family, name) == (WISHART, "n")]
        unread = [f"{name}={getattr(self, name)}" for name in DIMENSIONS
                  if name not in reads and getattr(self, name) is not None]
        if unread:
            raise ValueError(f"{self.family} does not read {', '.join(unread)}")
        if not all(getattr(self, name) for name in reads):
            raise DimensionMismatch(f"{self.family} needs {' and '.join(reads)}")
        if self.rank > min(getattr(self, name) for name in frames):
            raise DimensionMismatch(f"rank exceeds {' or '.join(frames)}")
        if self.family == CLUSTERING and self.rank != 1:
            raise ValueError("clustering is a rank-one family")
        if self.family == WISHART and self.n < 2:
            raise ValueError("wishart needs n >= 2 rows for a sample covariance")

    @property
    def rank(self) -> int:
        """The number of planted directions: the spectrum's length."""
        return self.spectrum.rank

    @property
    def frame_dim(self) -> int:
        """Ambient dimension of the planted frame."""
        return getattr(self, _FRAME_DIMS[self.family][0])

    @property
    def noise_rate(self) -> float:
        """The family's noise factor in the constant-free minimax rate.

        Denoising-type families give sigma sqrt(t^2 + sigma^2 p2) / t^2 (p in
        place of p2 for clustering), Wishart sigma sqrt(t + sigma^2) /
        (t sqrt(n)), Wigner sigma / t, at the spectrum scale t.
        """
        sigma = self.noise_sd
        t = self.spectrum.scale
        if self.family == WISHART:
            return sigma * math.sqrt(t + sigma * sigma) / (t * math.sqrt(self.n))
        if self.family == WIGNER:
            return sigma / t
        width = getattr(self, _FRAME_DIMS[self.family][1])
        return sigma * math.sqrt(t * t + sigma * sigma * width) / (t * t)


@dataclass
class SampledInstance:
    """One draw from a model: the observation plus the planted frames."""

    observation: np.ndarray
    truth_left: OrthonormalFrame
    truth_right: OrthonormalFrame | None = None


def sample_instance(spec: ModelSpec, cset: constraints.ConstraintSet,
                    truth_frame: OrthonormalFrame | None = None,
                    trial_index: int = 0) -> SampledInstance:
    """Draw one observation with the planted frame taken from cset, which
    for clustering must be the sign vectors.

    Draw order within the trial stream is fixed (truth, then the right frame
    where one exists, then noise), so identical specs reproduce the identical
    instance.  A provided truth_frame is membership-checked instead of drawn.
    """
    if cset.p != spec.frame_dim or cset.r != spec.rank:
        raise DimensionMismatch(
            f"constraint ambient {cset.p} x {cset.r} does not match model "
            f"({spec.frame_dim} x {spec.rank})")
    if spec.family == CLUSTERING and cset != constraints.signs(spec.n):
        raise ValueError(f"clustering plants a sign vector, so needs signs, got {cset.kind}")
    rng = constraints.as_generator(spec.seed, trial_index)
    if truth_frame is not None:
        truth = _as_frame(truth_frame)
        if not constraints.contains(cset, truth, tol=1e-8):
            raise ConstraintViolation("truth_frame is not a member of the constraint")
    else:
        truth = constraints.random_member(cset, rng)
    lam = spec.spectrum.array
    sigma = spec.noise_sd

    if spec.family in (DENOISING, CLUSTERING):
        rows, cols = (getattr(spec, name) for name in _FRAME_DIMS[spec.family])
        right = constraints.random_member(
            constraints.unconstrained(cols, spec.rank), rng)
        noise = rng.standard_normal((rows, cols))
        y = (truth.values * lam) @ right.values.T + sigma * noise
        return SampledInstance(y, truth, right)

    if spec.family == WISHART:
        scores = rng.standard_normal((spec.n, spec.rank))
        noise = rng.standard_normal((spec.n, spec.p))
        y = (scores * np.sqrt(lam)) @ truth.values.T + sigma * noise
        return SampledInstance(y, truth)

    # wigner
    raw = rng.standard_normal((spec.p, spec.p))
    z = np.triu(raw) + np.triu(raw, 1).T
    y = (truth.values * lam) @ truth.values.T + sigma * z
    return SampledInstance(y, truth, truth)


def objective_matrix(family: str, observation: np.ndarray) -> np.ndarray:
    """Symmetric matrix whose constrained top eigenspace is the estimand:
    the Gram matrix Y Y' (denoising, clustering), the sample covariance
    (wishart), or the symmetrized observation (wigner).  Raises
    DegenerateInput where an entry overflows or is not finite."""
    y = np.asarray(observation, dtype=float)
    # an overflow is reported once, as the typed error below
    with np.errstate(over="ignore", invalid="ignore"):
        if family in (DENOISING, CLUSTERING):
            m = y @ y.T
        elif family == WISHART:
            m = sample_covariance(y)
        elif family == WIGNER:
            if y.ndim != 2 or y.shape[0] != y.shape[1]:
                raise DimensionMismatch(
                    f"wigner needs a square observation, got shape {y.shape}")
            m = (y + y.T) / 2.0
        else:
            raise DimensionMismatch(f"unknown family {family!r}")
    if not np.isfinite(m).all():
        raise DegenerateInput("objective matrix has non-finite entries")
    return m


def sample_covariance(rows: np.ndarray) -> np.ndarray:
    """Centered second-moment matrix with divisor n (not n - 1)."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatch(f"expected an n x p matrix, got shape {rows.shape}")
    n = rows.shape[0]
    if n < 2:
        raise TooFewRows("need at least two rows")
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / n
    return (cov + cov.T) / 2.0


def kl_spiked_wishart(ui: OrthonormalFrame, uj: OrthonormalFrame, t: float,
                      sigma: float, n: int) -> float:
    """KL divergence between n-sample spiked covariance models with flat
    spectra t and frames ui, uj:  n t^2 (r - ||ui' uj||_F^2) / (2 s^2 (s^2 + t))."""
    a = _as_frame(ui).values
    gram = a.T @ _as_frame(uj, a.shape).values
    gap = max(a.shape[1] - float(np.sum(gram * gram)), 0.0)
    s2 = sigma * sigma
    return n * t * t * gap / (2.0 * s2 * (s2 + t))


def _check_spd(cov: np.ndarray, name: str) -> None:
    ev = np.linalg.eigvalsh(cov)
    if ev[0] <= 1e-12 * max(ev[-1], 0.0) or ev[-1] <= 0.0:
        raise NotPositiveDefinite(f"{name} is not positive definite")


def kl_gaussian_generic(mean0, cov0, mean1, cov1) -> float:
    """KL(N(mean0, cov0) || N(mean1, cov1)), the standard closed form
    (trace + quadratic + log-determinant terms), of p-vector means and
    p x p covariances."""
    mean0 = np.asarray(mean0, dtype=float).ravel()
    mean1 = np.asarray(mean1, dtype=float).ravel()
    p = mean0.size
    if mean1.size != p:
        raise DimensionMismatch("mean/covariance shapes are inconsistent")
    cov0, cov1 = _as_matrix(cov0, (p, p)), _as_matrix(cov1, (p, p))
    _check_spd(cov0, "cov0")
    _check_spd(cov1, "cov1")
    solve = np.linalg.solve
    trace_term = float(np.trace(solve(cov1, cov0)))
    delta = mean1 - mean0
    quad = float(delta @ solve(cov1, delta))
    _, logdet0 = np.linalg.slogdet(cov0)
    _, logdet1 = np.linalg.slogdet(cov1)
    return 0.5 * (trace_term + quad - p + logdet1 - logdet0)


def kl_denoising_fixed(ui: OrthonormalFrame, uj: OrthonormalFrame,
                       v0: OrthonormalFrame, spectrum: SpectrumSpec,
                       sigma: float) -> float:
    """KL divergence between denoising models sharing the right frame v0,
    after rotating uj onto ui:  ||(ui - uj O) diag(spectrum) v0'||_F^2 / (2 s^2)."""
    a = _as_frame(ui).values
    b = _as_frame(uj, a.shape).values
    if _as_frame(v0).r != a.shape[1]:
        raise DimensionMismatch("right frame width must match rank")
    rotation, residual = procrustes_align(a, b)
    diff = (a - b @ rotation) * spectrum.array
    value = float(np.sum(diff * diff)) / (2.0 * sigma * sigma)
    lam1 = spectrum.values[0]
    bound = (lam1 * residual) ** 2 / (2.0 * sigma * sigma)
    if value > bound + 1e-9:
        raise BoundViolated(f"KL {value} exceeds its residual bound {bound}")
    return value
