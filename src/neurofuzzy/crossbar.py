"""Behavioral memristor-crossbar backend.

Devices follow the linear ion-drift model: the doped-region fraction
x in [0, 1] sets the memristance M(x) = R_on*x + R_off*(1-x), and a voltage v
above the device threshold drives

    dx/dt = (mu_v * R_on / D^2) * v / M(x)

integrated by explicit Euler at a fixed step.  Voltages at or below the
threshold never move the state, which is what makes sub-threshold reads
non-destructive and gives the Hebbian write pulse its soft-AND character:
a device only switches when the row and column drives fire together.

A crossbar read is the usual op-amp summing stage, out_i = -sum_j (R_f/M_ij) I_j.
Logical weights are carried as conductance above the pristine floor
(w = 0  <=>  M = R_off), and the read wrapper subtracts the floor term
analytically - the software stand-in for a reference column.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityExceeded,
    DimensionMismatch,
    ReadDisturbRisk,
    RowInUse,
    VoltageEncodingOutOfRange,
    WeightOutOfRange,
)
from .fuzzy import SCORE_ROWS, centroid, inverse_norms, power_activation

HEBBIAN_PULSE_SECONDS = 0.05


@dataclass(frozen=True)
class MemristorParams:
    """HP linear-drift device constants (canonical defaults, all overridable)."""

    r_on: float = 100.0          # ohm, fully doped
    r_off: float = 16e3          # ohm, pristine
    d: float = 10e-9             # m, film thickness
    mu_v: float = 1e-14          # m^2 / (V s), ion mobility
    v_threshold: float = 1.0     # V, no drift at or below this magnitude
    dt: float = 1e-5             # s, Euler step

    def __post_init__(self):
        if not (0 < self.r_on < self.r_off):
            raise ValueError("need 0 < r_on < r_off")
        if self.d <= 0 or self.mu_v <= 0 or self.dt <= 0 or self.v_threshold < 0:
            raise ValueError("device constants must be positive")

    @property
    def drift_gain(self) -> float:
        return self.mu_v * self.r_on / (self.d * self.d)


@dataclass(frozen=True)
class MemristorState:
    """Single-device state: doped fraction x in [0, 1]."""

    x: float

    def memristance(self, params: MemristorParams) -> float:
        return params.r_on * self.x + params.r_off * (1.0 - self.x)


def step_device(s: MemristorState, params: MemristorParams, v: float,
                dt: float | None = None) -> MemristorState:
    """One explicit-Euler step; sub-threshold voltages leave the state alone."""
    dt = params.dt if dt is None else dt
    if abs(v) <= params.v_threshold:
        return s
    m = s.memristance(params)
    x = s.x + params.drift_gain * (v / m) * dt
    return MemristorState(x=min(1.0, max(0.0, x)))


def pulse_device(s: MemristorState, params: MemristorParams, v: float,
                 duration: float) -> MemristorState:
    """Constant-voltage pulse integrated as round(duration/dt) Euler steps."""
    n = int(round(duration / params.dt))
    for _ in range(n):
        s = step_device(s, params, v)
    return s


def _pulse_array(x: np.ndarray, volts: np.ndarray, params: MemristorParams,
                 duration: float, frozen: np.ndarray | None = None) -> np.ndarray:
    """Vectorized pulse on an array of device states under per-device voltages."""
    x = x.copy()
    active = np.abs(volts) > params.v_threshold
    if frozen is not None:
        active &= ~frozen
    if not np.any(active):
        return x
    n = int(round(duration / params.dt))
    k = params.drift_gain
    xa = x[active]
    va = volts[active]
    for _ in range(n):
        m = params.r_on * xa + params.r_off * (1.0 - xa)
        xa = np.clip(xa + k * (va / m) * params.dt, 0.0, 1.0)
    x[active] = xa
    return x


class Crossbar:
    """rows x cols array of memristive devices plus the op-amp feedback resistor."""

    def __init__(self, rows: int, cols: int, params: MemristorParams | None = None,
                 r_f: float | None = None):
        if rows < 1 or cols < 1:
            raise DimensionMismatch("crossbar needs at least one row and column")
        self.rows = rows
        self.cols = cols
        self.params = params if params is not None else MemristorParams()
        self.r_f = self.params.r_off if r_f is None else float(r_f)
        if self.r_f <= 0:
            raise ValueError("feedback resistance must be positive")
        self.x = np.zeros((rows, cols))
        self.fault_mask = np.zeros((rows, cols), dtype=bool)

    def memristance(self) -> np.ndarray:
        return self.params.r_on * self.x + self.params.r_off * (1.0 - self.x)

    def weights(self) -> np.ndarray:
        """Raw stored weights R_f / M_ij (the pristine floor is R_f / R_off)."""
        return self.r_f / self.memristance()

    def memristance_csv(self) -> str:
        lines = [",".join(repr(float(v)) for v in row) for row in self.memristance()]
        return "\n".join(lines) + "\n"


def vmm(cb: Crossbar, input_voltages: np.ndarray, cols=slice(None)) -> np.ndarray:
    """Analog vector-matrix multiply out_i = -sum_j (R_f/M_ij) I_j, on one row or a batch.

    The voltages drive the columns in cols; the others are grounded.  Inputs
    must stay strictly below the device threshold so the read cannot disturb
    stored states; device states are untouched.
    """
    volts = np.asarray(input_voltages, dtype=np.float64)
    w = cb.weights()[:, cols]
    if volts.shape[-1] != w.shape[1]:
        raise DimensionMismatch(f"expected {w.shape[1]} input voltages, got {volts.shape[-1]}")
    if np.any(np.abs(volts) >= cb.params.v_threshold):
        raise ReadDisturbRisk("read voltage at or above the device threshold")
    return -(volts @ w.T)


def program_row(cb: Crossbar, row: int, target_profile: np.ndarray,
                duration: float = HEBBIAN_PULSE_SECONDS,
                v_write_base: float | None = None, v_write_span: float = 1.0):
    """Store a membership profile on an unused row, amplitude encoded.

    Column j is driven at v_write_base + profile_j * v_write_span while the
    row is grounded; the base sits at the threshold so zero-profile columns
    never write.  The resulting conductance is monotone in the profile but
    not proportional to it (the drift is nonlinear), matching the behaviour
    of fixed-duration programming.  Returns the column indices skipped
    because their cross-point is distorted.
    """
    profile = np.asarray(target_profile, dtype=np.float64)
    if profile.shape[0] != cb.cols:
        raise DimensionMismatch(f"expected {cb.cols} profile entries, got {profile.shape[0]}")
    if np.any(profile < 0.0) or np.any(profile > 1.0):
        raise VoltageEncodingOutOfRange("profile entries must lie in [0, 1]")
    if not 0 <= row < cb.rows:
        raise DimensionMismatch(f"row {row} outside crossbar with {cb.rows} rows")
    used = (cb.x[row] != 0.0) & ~cb.fault_mask[row]
    if np.any(used):
        raise RowInUse(f"row {row} already holds data")
    base = cb.params.v_threshold if v_write_base is None else v_write_base
    volts = base + profile * v_write_span
    cb.x[row] = _pulse_array(cb.x[row], volts, cb.params, duration,
                             frozen=cb.fault_mask[row])
    return np.nonzero(cb.fault_mask[row] & (profile > 0.0))[0]


def hebbian_pulse(cb: Crossbar, row_voltages: np.ndarray, col_voltages: np.ndarray,
                  duration: float = HEBBIAN_PULSE_SECONDS,
                  v_max: float | None = None) -> None:
    """Joint-firing write: device (i, j) sees row_voltages[i] + col_voltages[j].

    Each terminal is capped at v_max <= v_threshold, so one side alone can
    never switch a device; only cross-points whose two neurons fire strongly
    together cross the threshold and gain weight.
    """
    u = np.asarray(row_voltages, dtype=np.float64)
    v = np.asarray(col_voltages, dtype=np.float64)
    if u.shape[0] != cb.rows or v.shape[0] != cb.cols:
        raise DimensionMismatch("drive vectors do not match crossbar dimensions")
    cap = cb.params.v_threshold if v_max is None else v_max
    if cap > cb.params.v_threshold:
        raise VoltageEncodingOutOfRange("v_max above the device threshold")
    for name, arr in (("row", u), ("column", v)):
        if np.any(arr < 0.0) or np.any(arr > cap):
            raise VoltageEncodingOutOfRange(f"{name} voltages outside [0, {cap}]")
    volts = u[:, None] + v[None, :]
    cb.x = _pulse_array(cb.x, volts, cb.params, duration, frozen=cb.fault_mask)


def delta_weight_sweep(params: MemristorParams | None = None, r_f: float | None = None,
                       voltages: np.ndarray | None = None,
                       duration: float = HEBBIAN_PULSE_SECONDS,
                       dt: float | None = None):
    """Weight change of a pristine device versus applied voltage.

    Reproduces the single-device learning curve: R_f and the initial
    memristance both equal R_off, the voltage is held for `duration`, and the
    reported value is the change of the stored weight R_f / M.
    """
    params = params if params is not None else MemristorParams()
    if dt is not None:
        params = MemristorParams(r_on=params.r_on, r_off=params.r_off, d=params.d,
                                 mu_v=params.mu_v, v_threshold=params.v_threshold, dt=dt)
    r_f = params.r_off if r_f is None else r_f
    volts = np.linspace(0.0, 2.0 * params.v_threshold, 81) if voltages is None \
        else np.asarray(voltages, dtype=np.float64)
    x = _pulse_array(np.zeros(volts.shape), volts, params, duration)
    m = params.r_on * x + params.r_off * (1.0 - x)
    return volts, r_f / m - r_f / params.r_off


def sweep_csv(volts: np.ndarray, delta_w: np.ndarray) -> str:
    lines = ["voltage,delta_weight"]
    lines += [f"{float(v)!r},{float(d)!r}" for v, d in zip(volts, delta_w)]
    return "\n".join(lines) + "\n"


def distort(cb: Crossbar, fraction: float, seed: int) -> Crossbar:
    """Mark floor(fraction * cells) distinct cross-points as permanently stuck.

    Each distorted device gets a uniformly random state and is excluded from
    every subsequent write; deterministic per seed.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    k = int(fraction * cb.rows * cb.cols)
    if k > 0:
        rng = np.random.default_rng(seed)
        idx = rng.choice(cb.rows * cb.cols, size=k, replace=False)
        cb.fault_mask.flat[idx] = True
        cb.x.flat[idx] = rng.uniform(0.0, 1.0, k)
    return cb


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

    def logical_in(self, cb1: Crossbar, g: int) -> np.ndarray:
        """Read-back logical first-layer weights for group g."""
        return (cb1.weights()[:, self.group_slices[g]] - self.floor) / self.scale_in

    def logical_out(self, cb2: Crossbar) -> np.ndarray:
        return (cb2.weights() - self.floor) / self.scale_out


def _x_for_weight(w_scaled: np.ndarray, params: MemristorParams, r_f: float) -> np.ndarray:
    """Device state whose conductance sits w_scaled above the pristine floor."""
    g_target = (w_scaled + r_f / params.r_off) / r_f
    ceiling = 1.0 / params.r_on
    if np.any(g_target > ceiling * (1.0 + 1e-12)):
        raise WeightOutOfRange("scaled weight needs memristance below R_on")
    m_target = 1.0 / g_target
    return np.clip((params.r_off - m_target) / (params.r_off - params.r_on), 0.0, 1.0)


def _program_targets(cb: Crossbar, x_targets: np.ndarray) -> None:
    # stands in for program-and-verify: every writable cell is set to its
    # target state directly, no write pulse is integrated; distorted cells
    # keep their stuck state
    writable = ~cb.fault_mask
    cb.x[writable] = x_targets[writable]


def map_network(state, params: MemristorParams | None = None, r_f: float | None = None,
                cb1: Crossbar | None = None, cb2: Crossbar | None = None,
                scale_in: float | None = None, scale_out: float | None = None):
    """Program a trained network onto two crossbars.

    cb1 holds the concatenated first-layer groups (one column per input
    neuron), cb2 the output matrix.  Logical weights map linearly onto
    conductance above the pristine floor; the scale is chosen so the largest
    weight lands on R_on unless overridden.  Pre-distorted crossbars may be
    passed in; their stuck cells are skipped.  Returns (cb1, cb2, mapping).
    """
    from .network import NetworkState  # local import to avoid a cycle

    if not isinstance(state, NetworkState):
        raise TypeError("map_network expects a trained NetworkState")
    params = params if params is not None else MemristorParams()
    r_f = params.r_off if r_f is None else float(r_f)
    n_v = state.n_minterms
    counts = [g.universe.count for g in state.config.groups]
    total_cols = sum(counts)
    nz = state.config.output_universe.count

    if cb1 is None:
        cb1 = Crossbar(n_v, total_cols, params, r_f)
    if cb2 is None:
        cb2 = Crossbar(nz, n_v, params, r_f)
    if cb1.rows < n_v or cb2.cols < n_v:
        raise CapacityExceeded(f"{n_v} min-terms exceed the provisioned crossbar")
    if cb1.cols != total_cols or cb2.rows != nz:
        raise DimensionMismatch("crossbar shape does not match the network universes")

    w_span = r_f / params.r_on - r_f / params.r_off
    s_in = w_span / 1.0 if scale_in is None else scale_in   # memberships are <= 1
    w_max = float(state.w_out.max()) if n_v else 0.0
    s_out = (w_span / w_max if w_max > 0.0 else 1.0) if scale_out is None else scale_out

    w1 = np.zeros((cb1.rows, total_cols))
    w1[:n_v] = np.hstack([state.w_in(g) for g in range(len(counts))])
    _program_targets(cb1, _x_for_weight(w1 * s_in, params, r_f))
    w2 = np.zeros((nz, cb2.cols))
    w2[:, :n_v] = state.w_out
    _program_targets(cb2, _x_for_weight(w2 * s_out, params, r_f))

    ends = np.cumsum(counts).tolist()
    mapping = CrossbarMapping(
        group_slices=[slice(e - c, e) for e, c in zip(ends, counts)],
        scale_in=s_in, scale_out=s_out,
        floor=r_f / params.r_off, v_read=0.5 * params.v_threshold,
        p=state.config.p, output_grid=state.config.output_universe.grid(),
    )
    # calibration norms come from the hardware state, so distorted rows are
    # normalized by what is actually stored, not by the ideal pattern
    mapping.inv_norms = [inverse_norms(mapping.logical_in(cb1, g)[:n_v])
                         for g in range(len(counts))]
    return cb1, cb2, mapping


def crossbar_forward_batch(cb1: Crossbar, cb2: Crossbar, mapping: CrossbarMapping,
                           group_mats) -> np.ndarray:
    """Analog forward pass for a batch of fuzzified inputs, SCORE_ROWS rows at a time.

    A sub-threshold read (vmm) of each group's columns of cb1 recovers the
    per-group dot products, which the input and calibration norms turn into
    cosines; after the power activation a read of cb2 gives the raw fuzzy
    output, rescaled back to logical units."""
    n_v, v, n = mapping.inv_norms[0].size, mapping.v_read, len(group_mats[0])
    out = np.empty((n, cb2.rows))
    for i in range(0, n, SCORE_ROWS):
        sums = 0.0
        for sl, mat, inv_w in zip(mapping.group_slices, group_mats, mapping.inv_norms):
            mat = np.asarray(mat[i:i + SCORE_ROWS], dtype=np.float64)
            # the read also sees every device's floor conductance
            dots = vmm(cb1, mat * v, sl)[:, :n_v] / -v - mapping.floor * mat.sum(axis=1)[:, None]
            sums = sums + dots * (inverse_norms(mat) / mapping.scale_in)[:, None] * inv_w
        hidden = power_activation(sums, len(group_mats), mapping.p)
        raw = vmm(cb2, hidden * v, slice(0, n_v)) / -v
        raw -= mapping.floor * hidden.sum(axis=1)[:, None]
        out[i:i + len(raw)] = raw / mapping.scale_out
    return out


def crossbar_infer_crisp_batch(cb1, cb2, mapping, group_mats):
    """Centroid readout of the analog forward pass; NaN where nothing fires."""
    return centroid(crossbar_forward_batch(cb1, cb2, mapping, group_mats), mapping.output_grid)
