"""Behavioral memristor-crossbar backend.

Devices follow the linear ion-drift model: the doped-region fraction
x in [0, 1] sets the memristance M(x) = R_on*x + R_off*(1-x), and a voltage v
above the device threshold drives

    dx/dt = (mu_v * R_on / D^2) * v / M(x)

integrated by explicit Euler at a fixed step.  M is affine in x, so the steps
are taken on M itself, dM/dt = (R_on - R_off) * dx/dt clamped to [R_on, R_off]:
the same iterates as stepping x and clamping it to [0, 1], up to rounding.  A
span of steps no device can leave the bounds in skips the clamps, and a device
pinned on the bound it drives toward stops stepping; neither changes a bit.
Voltages at or below the threshold never move the state, which is what makes
sub-threshold reads non-destructive; delta_weight_sweep traces the weight
change of one write pulse, zero up to the threshold and rising above it.

A crossbar read is the usual op-amp summing stage, out_i = -sum_j (R_f/M_ij) I_j.
Logical weights are carried as conductance above the pristine floor
(w = 0  <=>  M = R_off), and the forward pass subtracts the floor from the
weights it reads - the software stand-in for a reference column.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityExceeded, DimensionMismatch, ReadDisturbRisk, WeightOutOfRange
from .fuzzy import centroid, centroid_matrix, inverse_norms, score_batch
from .network import NetworkState, WeightFaults

HEBBIAN_PULSE_SECONDS = 0.05
# Most Euler steps one pulse may take, round(duration / dt): dt >= 5e-8 s for the
# write pulse, finer than the 1e-7 s the convergence checks use.  The default sweep
# at the cap takes about 1.4 s on one core, so more steps are rejected, not run.
MAX_PULSE_STEPS = 1_000_000


@dataclass(frozen=True)
class MemristorParams:
    """HP linear-drift device constants and the read's feedback resistance R_f
    (canonical defaults, all overridable)."""

    r_on: float = 100.0          # ohm, fully doped
    r_off: float = 16e3          # ohm, pristine
    d: float = 10e-9             # m, film thickness
    mu_v: float = 1e-14          # m^2 / (V s), ion mobility
    v_threshold: float = 1.0     # V, no drift at or below this magnitude
    dt: float = 1e-5             # s, Euler step
    # ohm, op-amp feedback resistance; None means r_off.  __post_init__ fills it in,
    # so dataclasses.replace(p, r_off=...) keeps the old R_f
    r_f: float | None = None

    def __post_init__(self):
        if self.r_f is None:
            object.__setattr__(self, "r_f", self.r_off)
        elif not 0 < self.r_f < math.inf:
            raise ValueError(f"feedback resistance r_f must be finite and > 0, got {self.r_f}")
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("device constants must be finite")
        if not (0 < self.r_on < self.r_off):
            raise ValueError("need 0 < r_on < r_off")
        if self.d <= 0 or self.mu_v <= 0 or self.dt <= 0 or self.v_threshold < 0:
            raise ValueError("device constants must be positive")
        if round(HEBBIAN_PULSE_SECONDS / self.dt) > MAX_PULSE_STEPS:
            raise ValueError(f"dt = {self.dt} s takes more than {MAX_PULSE_STEPS} Euler "
                             f"steps per {HEBBIAN_PULSE_SECONDS} s write pulse")

    @property
    def drift_gain(self) -> float:
        return self.mu_v * self.r_on / (self.d * self.d)

    def memristance(self, x):
        """M(x) = R_on*x + R_off*(1-x) of doped fractions x."""
        return self.r_on * x + self.r_off * (1.0 - x)


def _pulse_array(x: np.ndarray, volts: np.ndarray, params: MemristorParams,
                 duration: float) -> np.ndarray:
    """Vectorized pulse on an array of device states under per-device voltages: round(duration/dt)
    in-place Euler steps M += a / M, a = (R_on - R_off) k v dt, clamped to [R_on, R_off], bit for
    bit, though spans that no device can leave the bounds in skip the clamps, and a device pinned
    on the bound it drives toward is retired.  Sub-threshold devices keep their state."""
    x = x.copy()
    active = np.abs(volts) > params.v_threshold
    r_on, r_off = params.r_on, params.r_off
    m_end = r_off + (r_on - r_off) * x[active]
    a = (r_on - r_off) * (params.drift_gain * volts[active] * params.dt)
    m, idx, t, block = m_end.copy(), np.arange(m_end.size), np.empty_like(m_end), 16
    steps = int(round(duration / params.dt))
    while steps > 0 and m.size:
        # A step moves M monotonically, by |a|/M and at most 2^-52 R_off of rounding (if |a|/M
        # <= R_off; else the count is < 1).  A rising device (a > 0) divides by no less than its
        # M now, so needs (R_off - M) / (a/M + e) steps to reach R_off, e = 2^-50 R_off; a falling
        # one divides by no less than h = (M + R_on)/2 until halfway to R_on, (M - h) / (|a|/h + e)
        # steps away.  Half the least count, less one step, is the margin for the counts' rounding.
        low = np.where(a > 0, m, 0.5 * (m + r_on))
        room = np.where(a > 0, r_off - m, m - low)
        span = int(np.min(room / (np.abs(a) / low + r_off * 2.0 ** -50)) / 2) - 1
        if span >= block:
            span = min(span, steps)
            div, add = np.divide, np.add   # positional ufunc calls: the cheapest per step
            for _ in range(span):
                div(a, m, t)
                add(m, t, m)
        else:
            span = min(block, steps)
            lo, hi = np.full_like(m, r_on), np.full_like(m, r_off)  # faster than scalar bounds
            for _ in range(span):
                np.divide(a, m, out=t)
                np.add(m, t, out=m)
                np.maximum(m, lo, out=m)
                np.minimum(m, hi, out=m)
            # M + a/M overshoots the bound a device drives toward and is clamped back to it
            pinned = m == np.where(a > 0, r_off, r_on)
            m_end[idx[pinned]] = m[pinned]
            m, a, idx, t = m[~pinned], a[~pinned], idx[~pinned], t[~pinned]
        steps -= span
    m_end[idx] = m
    x[active] = (r_off - m_end) / (r_off - r_on)
    return x


class Crossbar:
    """rows x cols array of memristive devices, read through the op-amp feedback
    resistor params.r_f."""

    def __init__(self, rows: int, cols: int, params: MemristorParams | None = None):
        if rows < 1 or cols < 1:
            raise DimensionMismatch("crossbar needs at least one row and column")
        self.rows, self.cols = rows, cols
        self.params = params if params is not None else MemristorParams()
        self.x = np.zeros((rows, cols))
        self.fault_mask = np.zeros((rows, cols), dtype=bool)

    def memristance(self) -> np.ndarray:
        return self.params.memristance(self.x)

    def weights(self) -> np.ndarray:
        """Raw stored weights R_f / M_ij (the pristine floor is R_f / R_off)."""
        return self.params.r_f / self.memristance()


def delta_weight_sweep(params: MemristorParams | None = None,
                       voltages: np.ndarray | None = None,
                       duration: float = HEBBIAN_PULSE_SECONDS,
                       dt: float | None = None):
    """Weight change of a pristine device versus applied voltage.

    Reproduces the single-device learning curve: the device starts at R_off,
    the voltage is held for `duration`, and the reported value is the change
    of the stored weight params.r_f / M (R_f = R_off by default).
    """
    params = params if params is not None else MemristorParams()
    if dt is not None:
        params = replace(params, dt=dt)
    volts = np.linspace(0.0, 2.0 * params.v_threshold, 81) if voltages is None \
        else np.asarray(voltages, dtype=np.float64)
    if not np.isfinite(volts).all():
        raise ValueError(f"voltages must be finite, got {volts[~np.isfinite(volts)][0]}")
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and >= 0 s, got {duration}")
    if round(duration / params.dt) > MAX_PULSE_STEPS:
        raise ValueError(f"duration = {duration} s takes {round(duration / params.dt)} Euler "
                         f"steps at dt = {params.dt} s, more than {MAX_PULSE_STEPS}")
    x = _pulse_array(np.zeros(volts.shape), volts, params, duration)
    return volts, params.r_f / params.memristance(x) - params.r_f / params.r_off


def _stuck_cells(rng: np.random.Generator, shape, fraction: float):
    """The package's one stuck-cell draw: floor(fraction * cells) distinct cells of
    an array of the given shape, and a uniform device state for each (0 elsewhere)."""
    mask = np.zeros(shape, dtype=bool)
    x = np.zeros(shape)
    k = int(fraction * mask.size)
    if k > 0:
        idx = rng.choice(mask.size, size=k, replace=False)
        mask.flat[idx] = True
        x.flat[idx] = rng.uniform(0.0, 1.0, k)
    return mask, x


def distort(cb: Crossbar, fraction: float, seed: int) -> Crossbar:
    """Mark floor(fraction * cells) distinct cross-points as permanently stuck.

    Each distorted device gets a uniformly random state and is excluded from
    every subsequent write; deterministic per seed.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    mask, x = _stuck_cells(np.random.default_rng(seed), cb.x.shape, fraction)
    cb.fault_mask |= mask
    cb.x[mask] = x[mask]
    return cb


def draw_faults(seed: int, group_counts, nz: int, capacity: int, fraction: float,
                out_scale: float, device: MemristorParams = MemristorParams()) -> WeightFaults:
    """Seeded network.WeightFaults over provisioned capacity (rows or columns): the
    cells of _stuck_cells, each weight scale * R_on / M(x) of its device state x, so
    most sit near the conductance floor with a heavy tail up to the full scale (1 for
    the input rows, out_scale for the output columns)."""
    rng = np.random.default_rng(seed)
    specs = [((capacity, n), 1.0) for n in group_counts] + [((nz, capacity), out_scale)]
    drawn = []
    for shape, scale in specs:
        mask, x = _stuck_cells(rng, shape, fraction)
        drawn.append((mask, np.where(mask, scale * device.r_on / device.memristance(x), 0.0)))
    *groups, (out_mask, out_stuck) = drawn
    return WeightFaults(capacity=capacity, in_masks=[m for m, _ in groups],
                        in_stuck=[s for _, s in groups], out_mask=out_mask, out_stuck=out_stuck)


# --- network mapping ---------------------------------------------------------


@dataclass
class CrossbarMapping:
    """Calibration data produced by map_network and consumed by crossbar_forward_batch."""

    group_slices: list
    scale_in: float
    scale_out: float
    floor: float                     # R_f / R_off, weight of a pristine device
    v_read: float
    p: int
    output_grid: np.ndarray
    inv_norms: list = field(default_factory=list)   # per group, 1 / norm of each read-back row


def _program_targets(cb: Crossbar, w_scaled: np.ndarray) -> None:
    """Program-and-verify stand-in: set each writable cell straight to the state whose
    conductance sits w_scaled above the floor; distorted cells keep their stuck state."""
    params = cb.params
    g_target = (w_scaled + params.r_f / params.r_off) / params.r_f
    if np.any(g_target > 1.0 / params.r_on * (1.0 + 1e-12)):
        raise WeightOutOfRange("scaled weight needs memristance below R_on")
    x = np.clip((params.r_off - 1.0 / g_target) / (params.r_off - params.r_on), 0.0, 1.0)
    np.copyto(cb.x, x, where=~cb.fault_mask)


def map_network(state, params: MemristorParams | None = None,
                cb1: Crossbar | None = None, cb2: Crossbar | None = None,
                scale_in: float | None = None, scale_out: float | None = None):
    """Program a trained network onto two crossbars.

    cb1 holds the concatenated first-layer groups (one column per input
    neuron), cb2 the output matrix.  Logical weights map linearly onto
    conductance above the pristine floor; the scale is chosen so the largest
    weight lands on R_on unless overridden.  Pre-distorted crossbars may be
    passed in, with the mapping's device constants, R_f included (else
    ValueError); their stuck cells are skipped.  A faulted state already holds
    its stuck weights, so the crossbars made here are programmed with them and
    then take the fault plan's masks.  Returns (cb1, cb2, mapping).
    """
    if not isinstance(state, NetworkState):
        raise TypeError("map_network expects a trained NetworkState")
    params = params if params is not None else MemristorParams()
    n_v = state.n_minterms
    counts = [g.universe.count for g in state.config.groups]
    total_cols = sum(counts)
    nz = state.config.output_universe.count

    if any(cb is not None and cb.params != params for cb in (cb1, cb2)):
        raise ValueError("a given crossbar's device constants or R_f differ from the mapping's")
    made = (cb1 is None, cb2 is None)
    if cb1 is None:
        cb1 = Crossbar(n_v, total_cols, params)
    if cb2 is None:
        cb2 = Crossbar(nz, n_v, params)
    if cb1.rows < n_v or cb2.cols < n_v:
        raise CapacityExceeded(f"{n_v} min-terms exceed the provisioned crossbar")
    if cb1.cols != total_cols or cb2.rows != nz:
        raise DimensionMismatch("crossbar shape does not match the network universes")

    w_span = params.r_f / params.r_on - params.r_f / params.r_off
    s_in = w_span / 1.0 if scale_in is None else scale_in   # memberships are <= 1
    w_max = float(state.w_out.max()) if n_v else 0.0
    s_out = (w_span / w_max if w_max > 0.0 else 1.0) if scale_out is None else scale_out

    w1 = np.zeros((cb1.rows, total_cols))
    w1[:n_v] = np.hstack([state.w_in(g) for g in range(len(counts))])
    _program_targets(cb1, w1 * s_in)
    w2 = np.zeros((nz, cb2.cols))
    w2[:, :n_v] = state.w_out
    _program_targets(cb2, w2 * s_out)
    plan = state.faults
    if plan is not None and made[0]:
        cb1.fault_mask = np.hstack([m[:n_v] for m in plan.in_masks])
    if plan is not None and made[1]:
        cb2.fault_mask = plan.out_mask[:, :n_v].copy()

    ends = np.cumsum(counts).tolist()
    mapping = CrossbarMapping(
        group_slices=[slice(e - c, e) for e, c in zip(ends, counts)],
        scale_in=s_in, scale_out=s_out,
        floor=params.r_f / params.r_off, v_read=0.5 * params.v_threshold,
        p=state.config.p, output_grid=state.config.output_universe.grid(),
    )
    # calibration norms come from the hardware state, so distorted rows are
    # normalized by what is actually stored, not by the ideal pattern
    logical_in = (cb1.weights()[:n_v] - mapping.floor) / s_in
    mapping.inv_norms = [inverse_norms(logical_in[:, sl]) for sl in mapping.group_slices]
    return cb1, cb2, mapping


def crossbar_forward_batch(cb1: Crossbar, cb2: Crossbar, mapping: CrossbarMapping,
                           group_mats, readout=None) -> np.ndarray:
    """Raw analog outputs (B, nz) of a fuzzified batch, scored by score_batch, or its readout.

    Each crossbar is read once per call, as its devices stand: cb1's weights
    less the floor, over scale_in and the calibration norms, are the stored
    unit rows, cb2's less the floor, over scale_out, the output weights.  In
    its lane, each chunk's input voltages are checked against the device
    threshold before its read of cb1, its hidden-layer voltages before its read
    of cb2; a NaN voltage is skipped, so it hides no other."""
    return _score(cb1, cb2, mapping, group_mats, readout=readout)


def _score(cb1, cb2, mapping, group_mats, fold=None, readout=None):
    """crossbar_forward_batch, with the output weights times a (k, nz) fold on the left.
    Each chunk's voltages are checked in its lane, by reductions that copy nothing."""
    n_v, v = mapping.inv_norms[0].size, abs(mapping.v_read)
    widths = [np.shape(X)[-1] for X in group_mats]
    if widths != [sl.stop - sl.start for sl in mapping.group_slices]:
        raise DimensionMismatch(f"input groups of {widths} columns do not fit the crossbar")

    def check_inputs(xs):   # each group's largest |X| in the chunk, NaN skipped
        if any(max(np.fmax.reduce(X, None, initial=0.0), -np.fmin.reduce(X, None, initial=0.0))
               * v >= cb1.params.v_threshold for X in xs):
            raise ReadDisturbRisk("input read voltage at or above the device threshold")

    def check_hidden(hidden):
        if np.fmax.reduce(hidden, None, initial=0.0) * v >= cb2.params.v_threshold:
            raise ReadDisturbRisk("hidden-layer read voltage at or above the device threshold")

    w1 = cb1.weights()[:n_v] - mapping.floor
    unit_w = np.hstack([w1[:, sl] * (inv_w / mapping.scale_in)[:, None]
                        for sl, inv_w in zip(mapping.group_slices, mapping.inv_norms)])
    w_out = (cb2.weights()[:, :n_v] - mapping.floor) / mapping.scale_out
    w_out = w_out if fold is None else fold @ w_out
    return score_batch(group_mats, unit_w, w_out, mapping.p, check=check_hidden, readout=readout,
                       check_inputs=check_inputs)


def crossbar_infer_crisp_batch(cb1, cb2, mapping, group_mats):
    """Folded centroid readout of the analog forward pass, chunk by chunk in its lane;
    NaN where nothing fires."""
    fold = centroid_matrix(mapping.output_grid).T
    return _score(cb1, cb2, mapping, group_mats, fold, readout=centroid)
