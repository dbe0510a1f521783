"""Discretized fuzzy sets and the operator family used throughout the package.

A linguistic variable is discretized onto a ``Universe``: an evenly spaced grid
with one neuron per grid point. Fuzzy sets over a universe are stored as
``MembershipVector`` samples with all degrees in [0, 1]. Crisp values enter the
system through triangular fuzzification and leave it through centroid
defuzzification; similarity between membership vectors is the cosine of the
two sampled curves, so every per-variable similarity is itself a confidence
degree in [0, 1].
"""

import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroMembership,
    DegenerateFuzzification,
    EmptyOperands,
    EmptyRange,
    MisalignedRange,
    NegativeSupport,
    NonPositiveResolution,
    OperandOutOfRange,
    OutOfRange,
    UniverseMismatch,
    ZeroVector,
)

# Relative tolerance for deciding that a span is an integer multiple of the
# resolution, and for boundary checks on crisp inputs.
ALIGN_RTOL = 1e-9

# Cosines within this band of 1 are rounding artifacts of norm computation;
# snapping keeps self-similarity exactly 1, which the activation relies on.
COSINE_SNAP = 1e-12


def pow2_scale(rows):
    """Scale each row (last axis) by 2**-e, e the frexp exponent of its largest magnitude.

    Returns (scaled, norms, e), norms the 2-norms of the scaled rows.  Every
    nonzero row, subnormal ones included, has its largest entry in [0.5, 1)
    afterwards, so squares and dot products of scaled rows cannot underflow
    to zero (Blue's scaled 2-norm, ACM TOMS 4(1), 1978); all-zero rows stay
    zero with norm 0 and e = 0.  Multiplying by a power of two is exact for
    normal floats, so a cosine formed from scaled rows is bit for bit the
    unscaled one wherever the unscaled one did not underflow.
    """
    rows = np.asarray(rows, dtype=np.float64)
    _, e = np.frexp(np.abs(rows).max(axis=-1))
    scaled = np.ldexp(rows, -e[..., None])
    return scaled, np.sqrt(np.einsum("...j,...j->...", scaled, scaled)), e


def cosines(dots, x_norms, w_norms):
    """Snapped cosines of every x row against every w row.

    x_norms[i] and w_norms[j] are the norms of power-of-two-scaled rows
    (pow2_scale), and dots[i, j] is the dot product of those same scaled
    rows; a pair involving an all-zero row scores 0.
    """
    denom = x_norms[:, None] * w_norms[None, :]
    sims = np.divide(dots, denom, out=np.zeros_like(denom), where=denom > 0.0)
    sims[sims >= 1.0 - COSINE_SNAP] = 1.0
    return np.maximum(sims, 0.0, out=sims)


def pair_cosine(a, b):
    """Snapped cosine of row i of a with row i of b; NaN where either row is all zero."""
    a, a_norms, _ = pow2_scale(a)
    b, b_norms, _ = pow2_scale(b)
    denom = a_norms * b_norms
    cos = cosines(np.einsum("ij,ij->i", a, b)[:, None], denom, np.ones(1))[:, 0]
    return np.where(denom > 0.0, cos, np.nan)


def power_activation(groups, p: int) -> np.ndarray:
    """Hidden activations ((s^1 + ... + s^G) / G) ** p.

    groups holds one (dots, x_norms, w_norms) triple per input group, as
    cosines takes them; s^g is that group's (B, N) cosine block.
    """
    acc = None
    for dots, x_norms, w_norms in groups:
        sims = cosines(dots, x_norms, w_norms)
        acc = sims if acc is None else np.add(acc, sims, out=acc)
    acc /= len(groups)
    acc **= p
    return acc


def centroid(out, grid):
    """Centroid readout of raw outputs (..., n) over grid.

    Returns (predictions, fired): a row fires when its outputs sum above 0,
    and its prediction is NaN otherwise.  The centroid is scale invariant,
    so unbounded raw outputs need no normalization.
    """
    total = out.sum(axis=-1)
    fired = total > 0.0
    # dividing by NaN gives NaN without a floating-point warning
    return (out @ grid) / np.where(fired, total, np.nan), fired


def argmax(out):
    """Index of the largest raw output per row, ties to the lower index; -1 where none fires."""
    return np.where(out.max(axis=-1) > 0.0, np.argmax(out, axis=-1), -1)


@dataclass(frozen=True)
class Universe:
    """Evenly spaced grid covering one variable; one neuron per grid point."""

    lo: float
    hi: float
    resolution: float
    count: int

    def __post_init__(self):
        # built once: training reads the output grid for every sample
        g = self.lo + self.resolution * np.arange(self.count)
        g.flags.writeable = False
        object.__setattr__(self, "_grid", g)

    def grid(self) -> np.ndarray:
        return self._grid

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def nearest_index(self, value: float) -> int:
        """Index of the grid point closest to ``value``; ties go to the lower index."""
        q = (value - self.lo) / self.resolution
        i = int(np.ceil(q - 0.5))
        return min(max(i, 0), self.count - 1)

    def contains(self, values):
        """Elementwise: whether each value lies in [lo, hi] to ALIGN_RTOL."""
        tol = ALIGN_RTOL * max(1.0, abs(self.lo), abs(self.hi))
        return (values >= self.lo - tol) & (values <= self.hi + tol)


def build_universe(lo: float, hi: float, resolution: float) -> Universe:
    """Construct a universe from bounds and resolution.

    The span must be an integer multiple of the resolution (to ALIGN_RTOL
    relative); e.g. a variable on [0, 10] at resolution 0.1 needs 101 neurons.
    """
    if resolution <= 0:
        raise NonPositiveResolution(f"resolution must be > 0, got {resolution}")
    if hi <= lo:
        raise EmptyRange(f"need hi > lo, got [{lo}, {hi}]")
    q = (hi - lo) / resolution
    k = round(q)
    if k < 1 or abs(q - k) > ALIGN_RTOL * max(1.0, q):
        raise MisalignedRange(
            f"span {hi - lo} is not an integer multiple of resolution {resolution}"
        )
    return Universe(lo=float(lo), hi=float(hi), resolution=float(resolution), count=k + 1)


def universe_from_count(lo: float, hi: float, count: int) -> Universe:
    """Universe with a given neuron count; resolution = span / (count - 1)."""
    if count < 2:
        raise EmptyRange(f"need at least 2 grid points, got {count}")
    return build_universe(lo, hi, (hi - lo) / (count - 1))


@dataclass(frozen=True)
class MembershipVector:
    """Sampled membership function over a universe; every value in [0, 1]."""

    universe: Universe
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.universe.count,):
            raise UniverseMismatch(
                f"expected {self.universe.count} values, got shape {v.shape}"
            )
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise OperandOutOfRange("membership values must lie in [0, 1]")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def to_csv(self) -> str:
        """One ``grid_value,membership`` line per grid point (plot emission)."""
        buf = io.StringIO()
        for g, m in zip(self.universe.grid(), self.values):
            buf.write(f"{float(g)!r},{float(m)!r}\n")
        return buf.getvalue()


def triangular_matrix(u: Universe, crisps: np.ndarray, half_support: float) -> np.ndarray:
    """Fuzzify a batch of crisp values; returns a (len(crisps), u.count) matrix.

    Rows are symmetric triangles of the given half support sampled on the
    grid; half_support == 0 produces singletons at the nearest grid point.
    """
    crisps = np.asarray(crisps, dtype=np.float64)
    if half_support < 0:
        raise NegativeSupport(f"half_support must be >= 0, got {half_support}")
    tol = ALIGN_RTOL * max(1.0, abs(u.lo), abs(u.hi))
    if np.any(crisps < u.lo - tol) or np.any(crisps > u.hi + tol):
        bad = crisps[(crisps < u.lo - tol) | (crisps > u.hi + tol)][0]
        raise OutOfRange(f"crisp value {bad} outside universe [{u.lo}, {u.hi}]")
    if half_support == 0.0:
        out = np.zeros((crisps.size, u.count))
        q = (crisps - u.lo) / u.resolution
        idx = np.clip(np.ceil(q - 0.5).astype(int), 0, u.count - 1)
        out[np.arange(crisps.size), idx] = 1.0
        return out
    out = np.maximum(0.0, 1.0 - np.abs(u.grid()[None, :] - crisps[:, None]) / half_support)
    if np.any(out.sum(axis=1) == 0.0):
        raise DegenerateFuzzification(
            f"half_support {half_support} < half the grid spacing leaves some "
            "crisp values without any support on the grid"
        )
    return out


def fuzzify_triangular(u: Universe, crisp: float, half_support: float) -> MembershipVector:
    """Triangular fuzzification of one crisp value (singleton if half_support=0)."""
    row = triangular_matrix(u, np.array([crisp]), half_support)[0]
    return MembershipVector(u, row)


def defuzzify_centroid(mv: MembershipVector) -> float:
    """Membership-weighted mean grid position; scale invariant by construction."""
    pred, fired = centroid(mv.values, mv.universe.grid())
    if not fired:
        raise AllZeroMembership("no activation anywhere on the universe")
    return float(pred)


def similarity(a: MembershipVector, b: MembershipVector) -> float:
    """Cosine similarity of two membership vectors on the same universe.

    Non-negative entries make the result a confidence degree in [0, 1];
    it is 1 exactly when the vectors are positively proportional.  Dot
    product and norms are taken on power-of-two-scaled rows (pow2_scale), so
    any nonzero vector, subnormal entries included, has a defined cosine;
    ZeroVector is raised only for an all-zero vector.
    """
    if a.universe != b.universe:
        raise UniverseMismatch("membership vectors live on different universes")
    cos = float(pair_cosine(a.values[None], b.values[None])[0])
    if np.isnan(cos):
        raise ZeroVector("similarity of an all-zero membership vector is undefined")
    return cos


@dataclass(frozen=True)
class TNorm:
    """Soft-AND operator family.

    kind is one of ``min``, ``product``, ``power_sum`` and ``tansig``.
    ``power_sum`` raises the operand mean to the integer power ``p`` (so the
    all-ones input maps to 1 regardless of arity); ``tansig`` is the shifted
    tanh activation rescaled onto [0, 1] over the operand range.
    """

    kind: str
    p: int = 1

    def __post_init__(self):
        if self.kind not in ("min", "product", "power_sum", "tansig"):
            raise ValueError(f"unknown t-norm kind {self.kind!r}")
        if self.kind == "power_sum" and self.p < 1:
            raise ValueError(f"power_sum exponent must be >= 1, got {self.p}")

    @staticmethod
    def power_sum(p: int) -> "TNorm":
        return TNorm("power_sum", p)


MIN = TNorm("min")
PRODUCT = TNorm("product")
TANSIG = TNorm("tansig")


def _tansig_rescaled(total, n):
    # tansig(s) = 2/(1+exp(-2s)) - 1 = tanh(s); shift mirrors the 2-operand
    # tanh(a+b-3) shape, then min-max rescale onto [0,1] over the operand range
    # so all-zero operands map to 0 and all-one operands map to 1.
    raw = np.tanh(total - (n + 1.0))
    lo = np.tanh(-(n + 1.0))
    hi = np.tanh(-1.0)
    return (raw - lo) / (hi - lo)


def apply_tnorm(op: TNorm, operands) -> float:
    """Apply a t-norm operator to one or more confidence degrees in [0, 1]."""
    vals = np.asarray(operands, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise EmptyOperands("need at least one operand")
    if np.any(vals < 0.0) or np.any(vals > 1.0):
        raise OperandOutOfRange(f"operands must lie in [0, 1], got {vals}")
    n = vals.size
    if op.kind == "min":
        return float(vals.min())
    if op.kind == "product":
        return float(vals.prod())
    if op.kind == "power_sum":
        return float((vals.sum() / n) ** op.p)
    return float(_tansig_rescaled(vals.sum(), n))


def pairwise_tnorm(op: TNorm, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t(a_i, b_j) for all pairs; returns a (len(a), len(b)) matrix.

    Vectorized 2-operand form of apply_tnorm, used by the Hebbian update.
    """
    a = np.asarray(a, dtype=np.float64)[:, None]
    b = np.asarray(b, dtype=np.float64)[None, :]
    if op.kind == "min":
        return np.minimum(a, b)
    if op.kind == "product":
        return a * b
    if op.kind == "power_sum":
        return ((a + b) / 2.0) ** op.p
    return _tansig_rescaled(a + b, 2)
