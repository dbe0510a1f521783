"""Discretized fuzzy sets and the kernels the network and the crossbar share.

A linguistic variable is discretized onto a ``Universe``: count evenly spaced
grid points on [lo, hi], one neuron per point (universe_from_count). Fuzzy sets
over a universe are sampled membership vectors with all degrees in [0, 1].
Crisp values, inputs and training targets alike, enter the system through
triangular fuzzification, and outputs leave it through centroid
defuzzification; similarity between an input and a stored row is the cosine of
the two sampled curves, so every per-variable similarity is itself a
confidence degree in [0, 1].
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    DegenerateFuzzification,
    EmptyRange,
    NegativeSupport,
    OperandOutOfRange,
    OutOfRange,
    UniverseMismatch,
)

# Relative tolerance, of the larger bound magnitude (at least 1), for boundary
# checks on crisp values.
ALIGN_RTOL = 1e-9

# Cosines within this band of 1 are rounding artifacts of norm computation;
# snapping keeps self-similarity exactly 1, which the activation relies on.
COSINE_SNAP = 1e-12


def pow2_scale(rows):
    """Scale each row (last axis) by 2**-e, e the frexp exponent of its largest magnitude.

    Returns (scaled, inv, e), inv the reciprocal 2-norms of the scaled rows (0 for
    an all-zero row).  A nonzero row, even a subnormal one, then peaks in [0.5, 1),
    so its squares cannot underflow (Blue's scaled 2-norm, ACM TOMS 4(1), 1978)."""
    rows = np.asarray(rows, dtype=np.float64)
    _, e = np.frexp(np.maximum(rows.max(axis=-1), -rows.min(axis=-1)))
    scaled = np.ldexp(rows, -e[..., None])
    norms = np.sqrt(np.einsum("...j,...j->...", scaled, scaled))
    return scaled, np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0), e


def unit_rows(rows, out=None):
    """Each row (last axis) over its 2-norm, into out if given, in two passes; rows
    whose sum of squares is outside [2**-900, 2**900] (zero, tiny, huge) go through
    pow2_scale, whose exact scaling cancels inside it.  The dot product of two unit
    rows is their cosine."""
    rows = np.asarray(rows, dtype=np.float64)
    sq = np.einsum("...j,...j->...", rows, rows)
    fast = (sq >= 2.0 ** -900) & (sq <= 2.0 ** 900)
    out = np.einsum("...j,...->...j", rows, 1.0 / np.sqrt(np.where(fast, sq, 1.0)), out=out)
    if not fast.all():
        scaled, inv, _ = pow2_scale(rows[~fast])
        out[~fast] = scaled * inv[..., None]
    return out


def unit_concat(mats, out=None):
    """Each group's (B, count_g) rows mats[g] as unit_rows, side by side, into out if
    given, in lanes (in_lanes).  One GEMM of two such matrices sums the group cosines."""
    counts = [np.shape(X)[1] for X in mats]
    out = np.empty((len(mats[0]), sum(counts))) if out is None else out

    def block(i, c):
        for X, start, k in zip(mats, np.cumsum([0] + counts), counts):
            unit_rows(X[i:i + c], out[i:i + c, start:start + k])
    in_lanes(len(out), block)
    return out


def inverse_norms(rows):
    """1 / the 2-norm of each row (last axis), via pow2_scale; 0 for an all-zero row."""
    _, inv, e = pow2_scale(rows)
    return np.ldexp(inv, -e)


def int_power(x, p: int, work=None):
    """x ** p in place for an integer p >= 1, as p - 1 products with a copy of x in work.

    libm pow is several times slower at 0 and where the result underflows.
    Up to p = 9 the chain stays within 4 ulp of x ** p on all but a few in a
    million inputs; repeated squaring, which doubles earlier errors, does not."""
    base = np.empty_like(x) if work is None else work
    np.copyto(base, x)
    for _ in range(p - 1):
        x *= base
    return x


# Batches are scored this many rows at a time, so a chunk's (rows, N) block
# of cosines stays in cache from the first GEMM through the output GEMM.
SCORE_ROWS = 1024
_POOLS = {}   # in_lanes' lane count L -> the pool that runs its lanes 1 to L - 1
LANE_WORK_MIN = 2 ** 20   # in_lane runs a task of fewer products in the caller, handoff-free


def power_activation(sums, n_groups: int, p: int, work=None):
    """Hidden activations ((s^1 + ... + s^G) / G) ** p, in place on the (B, N) sums.

    The mean is snapped at COSINE_SNAP and clamped at 0 before the power, so
    a stored row fires at exactly 1 on a copy of itself."""
    pow2 = not n_groups & (n_groups - 1)   # then a product by 1 / G is exact, and cheaper
    (np.multiply if pow2 else np.divide)(sums, 1.0 / n_groups if pow2 else n_groups, out=sums)
    if np.fmax.reduce(sums, axis=None, initial=0.0) >= 1.0 - COSINE_SNAP:   # skips NaN
        np.copyto(sums, 1.0, where=sums >= 1.0 - COSINE_SNAP)
    return int_power(np.maximum(sums, 0.0, out=sums), p, work)


def usable_cores() -> int:
    """The CPUs this process may run on: its affinity mask, where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@cache
def score_lanes() -> int:
    """in_lanes' lanes: usable_cores() // the most BLAS threads set, or 1 if none is."""
    blas = [int(v) for v in map(os.environ.get, ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS")) if v and v.strip().isdecimal()]
    return max(1, usable_cores() // max(blas)) if any(blas) else 1


def _pool(lanes: int) -> ThreadPoolExecutor:
    return _POOLS.get(lanes) or _POOLS.setdefault(lanes, ThreadPoolExecutor(lanes - 1))


def in_lane(work: int, fn, *args):
    """fn(*args) in a lane of in_lanes' pool if score_lanes() > 1 and work >= LANE_WORK_MIN,
    else here; returns its join (a no-op here), which runs fn here if still queued, else waits."""
    if score_lanes() < 2 or work < LANE_WORK_MIN:
        fn(*args)
        return lambda: None
    future = _pool(score_lanes()).submit(fn, *args)
    return lambda: fn(*args) if future.cancel() else future.result()


def in_lanes(n: int, block, buffers=tuple):
    """block(i, c, *bufs) on each SCORE_ROWS block [i, i + c) of rows [0, n).  Of L =
    score_lanes() lanes (at most one a block), lane j takes blocks j, j + L, ...: lane 0
    in the caller, the others in a pool, or in the caller after lane 0 if still queued,
    so a call from a pool thread cannot deadlock.  Each lane has its own buffers(), a
    lane the caller runs lane 0's (one set L times larger read 4% more peak RSS in the
    cli-session workload: 2-core host, L = 2).  No lane outlives the call."""
    step, lanes = SCORE_ROWS, max(1, min(score_lanes(), -(-n // SCORE_ROWS)))
    sets = [buffers() for _ in range(lanes)]

    def lane(j, bufs):
        for i in range(j * step, n, lanes * step):
            block(i, min(step, n - i), *bufs)
    futures = [_pool(lanes).submit(lane, j, sets[j]) for j in range(1, lanes)]
    try:
        lane(0, sets[0])
        for j, f in enumerate(futures, 1):
            lane(j, sets[0]) if f.cancel() else f.result()
    finally:   # after a raise, drop the queued lanes and wait for the running ones
        wait([f for f in futures if not f.cancel()])


def score_batch(mats, unit_w, w_out, p: int, hidden=None, check=None, readout=None,
                check_inputs=None):
    """Outputs (B, k) of (B, count_g) input rows mats[g] against N stored rows unit_w
    (as unit_concat gives them) and (k, N) output weights w_out, raw or folded
    (centroid_matrix); the one scoring loop of both backends, SCORE_ROWS rows at a
    time, in lanes (in_lanes).  hidden, if given, receives the (B, N) activations.  Each
    chunk's input rows (a view a group) go to check_inputs before its first GEMM, its
    activations to check before its output GEMM, if given.  readout, if given, maps each
    chunk's outputs, in a lane's buffer, to a tuple of arrays of an entry a row, returned
    (B, ...) in place of the outputs.  No bit of the result depends on L."""
    n, k, rows = len(mats[0]), w_out.shape[0], min(len(mats[0]), SCORE_ROWS)
    outs = [np.empty((n, k))] if readout is None else [   # typed by a 0-row readout
        np.empty((n,) + r.shape[1:], r.dtype) for r in readout(np.empty((0, k)))]

    def block(i, c, units, work, buf):
        xs = [X[i:i + c] for X in mats]
        if check_inputs is not None:
            check_inputs(xs)
        h = work[0, :c] if hidden is None else hidden[i:i + c]
        np.matmul(unit_concat(xs, units[:c]), unit_w.T, out=h)
        power_activation(h, len(mats), p, work[1, :c])
        if check is not None:
            check(h)
        o = np.matmul(h, w_out.T, out=outs[0][i:i + c] if readout is None else buf[:c])
        for r, v in zip(outs, () if readout is None else readout(o)):
            r[i:i + c] = v
    in_lanes(n, block, lambda: (np.empty((rows, unit_w.shape[1])),
                                np.empty((2, rows, unit_w.shape[0])),
                                None if readout is None else np.empty((rows, k))))
    return outs[0] if readout is None else tuple(outs)


def centroid_matrix(grid):
    """The centroid as the (nz, 2) matrix C = [grid, 1]: raw outputs @ C are each row's
    numerator and denominator, and C.T @ w_out folds it into the output weights."""
    return np.stack([grid, np.ones_like(grid)], axis=1)


def centroid(folded, out=None):
    """(predictions, fired) of (..., 2) numerators and denominators (centroid_matrix):
    a row fires when its raw outputs sum above 0.  Predictions go into out if given,
    where a row that does not fire keeps its value; a new out holds NaN there.  The
    centroid is scale invariant, so raw outputs need no scaling."""
    fired = folded[..., 1] > 0.0
    out = np.full(fired.shape, np.nan) if out is None else out
    return np.divide(folded[..., 0], folded[..., 1], out=out, where=fired), fired


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
        if not (self.count >= 2 and float(self.count).is_integer()
                and -np.inf < self.lo < self.hi < np.inf
                and 0 < self.resolution == (self.hi - self.lo) / (self.count - 1) < np.inf):
            raise EmptyRange(f"need finite lo < hi, a whole count >= 2 and a finite resolution "
                             f"(hi - lo) / (count - 1) > 0, got {self}")
        object.__setattr__(self, "count", int(self.count))
        # built once: training reads the output grid for every sample
        g = self.lo + self.resolution * np.arange(self.count)
        g.flags.writeable = False
        object.__setattr__(self, "_grid", g)

    def grid(self) -> np.ndarray:
        return self._grid

    def contains(self, values):
        """Elementwise: whether each value lies in [lo, hi] to ALIGN_RTOL."""
        tol = ALIGN_RTOL * max(1.0, abs(self.lo), abs(self.hi))
        return (values >= self.lo - tol) & (values <= self.hi + tol)


def universe_from_count(lo: float, hi: float, count: int) -> Universe:
    """Universe of count neurons on [lo, hi]; resolution = span / (count - 1)."""
    lo, hi = float(lo), float(hi)
    return Universe(lo, hi, (hi - lo) / max(count - 1, 1), count)   # Universe checks count


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


def triangular_matrix(u: Universe, crisps: np.ndarray, half_support: float) -> np.ndarray:
    """Fuzzify a batch of crisp values; returns a (len(crisps), u.count) matrix.

    Rows are symmetric triangles of the given half support sampled on the
    grid, in lanes; half_support == 0 produces singletons at the nearest grid point.
    """
    crisps = np.asarray(crisps, dtype=np.float64)
    if not 0 <= half_support < np.inf:
        raise NegativeSupport(f"half_support must be finite and >= 0, got {half_support}")
    inside = u.contains(crisps)     # False for NaN
    if not inside.all():
        raise OutOfRange(f"crisp value {crisps[~inside][0]} outside universe [{u.lo}, {u.hi}]")
    if half_support == 0.0:
        out = np.zeros((crisps.size, u.count))
        q = (crisps - u.lo) / u.resolution
        idx = np.clip(np.ceil(q - 0.5).astype(int), 0, u.count - 1)
        out[np.arange(crisps.size), idx] = 1.0
        return out
    out = np.empty((crisps.size, u.count))

    def block(i, c):   # max(0, 1 - |grid - c| / half_support), in place
        o = np.subtract(u.grid(), crisps[i:i + c, None], out=out[i:i + c])
        np.divide(np.abs(o, out=o), half_support, out=o)
        np.maximum(np.subtract(1.0, o, out=o), 0.0, out=o)
        if np.any(o.sum(axis=1) == 0.0):
            raise DegenerateFuzzification(
                f"half_support {half_support} < half the grid spacing leaves some crisp values "
                "without any support on the grid")
    in_lanes(crisps.size, block)
    return out
