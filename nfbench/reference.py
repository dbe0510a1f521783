"""Independent references and the correctness checks built on them.

Nothing here calls into neurofuzzy except to read the arrays a state
exposes: the forward pass, the fuzzification, the FVU and the device ODE
are written out again from the paper's definitions, so a fault in the
program cannot hide behind the same fault in its own reference.
"""

import numpy as np

# Cosines this close to 1 are rounding artefacts of the norms; the method
# scores them as exactly 1 (self-similarity of a stored min-term).
COSINE_SNAP = 1e-12

# Criterion 7 of the acceptance suite: per-output relative deviation of the
# pristine crossbar from the ideal network, with an absolute floor anchored
# at the largest output.
CROSSBAR_RTOL = 0.05
CROSSBAR_ATOL_REL = 1e-9

# Euler states may sit this far from the closed-form ion-drift solution.
# Criterion 8 allows 1e-3 between dt and dt/2; the default dt lands near
# 4e-7, so this bound is far tighter and still catches a wrong step size.
DEVICE_ATOL = 1e-5

# Classification floors of acceptance criterion 3, in percent.
CLASS_FLOORS = {1: 95.0, 2: 95.0, 3: 95.0, 4: 90.0}

# A readout state's FVU may be at most this multiple of its Table 1 value.
TABLE1_BAND = 2.5

# Familiar streams (recognised samples dominate) store few min-terms.
FAMILIAR_MINTERM_SHARE = 0.35


class Checks:
    """Collects failed checks; a run is correct when none failed."""

    def __init__(self):
        self.failures = []
        self.passed = 0

    def check(self, ok, what):
        if bool(ok):
            self.passed += 1
        else:
            self.failures.append(what)
        return bool(ok)

    @property
    def correct(self):
        return not self.failures


# --- fuzzification and the forward pass --------------------------------------


def grid(lo, resolution, count):
    return lo + resolution * np.arange(count)


def triangles(lo, resolution, count, crisps, half_support):
    """Symmetric triangles of the given half support sampled on a grid."""
    g = grid(lo, resolution, count)
    c = np.asarray(crisps, dtype=np.float64)
    return np.maximum(0.0, 1.0 - np.abs(g[None, :] - c[:, None]) / half_support)


def forward(w_in, w_out, p, mats):
    """Raw outputs (B, nz): per-group cosine, group mean, power p, weighted sum."""
    acc = 0.0
    for w, x in zip(w_in, mats):
        dots = x @ w.T
        denom = np.sqrt((x * x).sum(axis=1))[:, None] * np.sqrt((w * w).sum(axis=1))[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.where(denom > 0.0, dots / denom, 0.0)
        acc = acc + np.where(cos >= 1.0 - COSINE_SNAP, 1.0, np.maximum(cos, 0.0))
    hidden = (acc / len(w_in)) ** p
    return hidden @ w_out.T


def centroid(out, out_grid):
    """Centroid readout; NaN where no output neuron is activated."""
    total = out.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(total > 0.0, (out @ out_grid) / np.where(total > 0.0, total, 1.0), np.nan)


def argmax(out):
    """Most activated output neuron, -1 where none is; also the near-tie mask."""
    top = np.sort(out, axis=1)
    labels = np.where(top[:, -1] > 0.0, np.argmax(out, axis=1), -1)
    if out.shape[1] < 2:
        return labels, np.zeros(out.shape[0], dtype=bool)
    ties = (top[:, -1] - top[:, -2]) <= 1e-9 * np.abs(top[:, -1])
    return labels, ties


def state_forward(state, mats):
    """Reference raw outputs of a trained NetworkState on fuzzified batches."""
    w_in = [state.w_in(g) for g in range(len(state.config.groups))]
    return forward(w_in, state.w_out, state.config.p, mats)


def fvu(pred, actual):
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    return float(((actual - pred) ** 2).sum() / ((actual - actual.mean()) ** 2).sum())


# --- the memristor device ------------------------------------------------------


def ion_drift_x(params, volts, duration):
    """Closed-form doped fraction after a constant-voltage pulse from x = 0.

    The linear ion-drift model M(x) dx = k v dt with M(x) = R_off - (R_off -
    R_on) x integrates to R_off x - (R_off - R_on) x^2 / 2 = k v T (Strukov et
    al., Nature 453:80, 2008); x is the smaller root, clipped to 1 once the
    device saturates.  Voltages at or below the threshold leave x at 0.
    """
    volts = np.asarray(volts, dtype=np.float64)
    k = params.mu_v * params.r_on / (params.d * params.d)
    span = params.r_off - params.r_on
    disc = params.r_off ** 2 - 2.0 * span * k * volts * duration
    with np.errstate(invalid="ignore"):
        x = (params.r_off - np.sqrt(np.maximum(disc, 0.0))) / span
    x = np.where(disc < 0.0, 1.0, np.minimum(x, 1.0))
    return np.where(np.abs(volts) > params.v_threshold, x, 0.0)


def x_from_delta_weight(params, r_f, delta_w):
    """Device state recovered from the weight change R_f / M - R_f / R_off."""
    m = r_f / (np.asarray(delta_w, dtype=np.float64) + r_f / params.r_off)
    return (params.r_off - m) / (params.r_off - params.r_on)


def active_devices(params, volts):
    return int((np.abs(np.asarray(volts)) > params.v_threshold).sum())


# --- checks ---------------------------------------------------------------------


def check_ideal(chk, label, state, mats, preds, labels, out_grid):
    """Ideal centroid and argmax outputs against the reference forward pass."""
    ref = state_forward(state, mats)
    ref_pred = centroid(ref, out_grid)
    chk.check(np.array_equal(np.isnan(ref_pred), np.isnan(preds)),
              f"{label}: activated points differ from the reference")
    both = ~np.isnan(ref_pred)
    chk.check(np.allclose(preds[both], ref_pred[both], rtol=1e-12, atol=0.0),
              f"{label}: centroid outputs differ from the reference beyond rtol 1e-12")
    if labels is not None:
        ref_labels, ties = argmax(ref)
        chk.check(np.array_equal(labels[~ties], ref_labels[~ties]),
                  f"{label}: argmax labels differ from the reference")
    return ref


def check_crossbar_raw(chk, label, ref_out, cb_out):
    atol = CROSSBAR_ATOL_REL * np.abs(ref_out).max()
    chk.check(cb_out.shape == ref_out.shape
              and np.isclose(cb_out, ref_out, rtol=CROSSBAR_RTOL, atol=atol).all(),
              f"{label}: pristine crossbar outputs deviate from the reference "
              f"beyond {CROSSBAR_RTOL:.0%}")


def check_read_untouched(chk, label, before, crossbars):
    chk.check(all(np.array_equal(b, cb.x) for b, cb in zip(before, crossbars)),
              f"{label}: an analog read changed a device state")


def check_stuck_untouched(chk, label, before, crossbars):
    chk.check(all(np.array_equal(b[cb.fault_mask], cb.x[cb.fault_mask])
                  for b, cb in zip(before, crossbars)),
              f"{label}: mapping wrote a stuck cell")


def check_sweep(chk, label, params, r_f, volts, delta_w, duration):
    """Zero at and below threshold, non-decreasing above, on the ODE solution."""
    volts = np.asarray(volts)
    delta_w = np.asarray(delta_w)
    below = np.abs(volts) <= params.v_threshold
    chk.check(np.all(delta_w[below] == 0.0),
              f"{label}: weight change at or below the threshold is not exactly 0")
    chk.check(np.all(np.diff(delta_w[~below]) >= 0.0),
              f"{label}: weight change decreases above the threshold")
    x = x_from_delta_weight(params, r_f, delta_w)
    err = np.abs(x - ion_drift_x(params, volts, duration)).max()
    chk.check(err <= DEVICE_ATOL,
              f"{label}: Euler states sit {err:.2e} from the closed-form solution "
              f"(bound {DEVICE_ATOL:.0e})")
    return err


def check_training(chk, label, state, fuzzified_inputs, n_train, familiar=False):
    """Properties every single-pass Hebbian state has.

    fuzzified_inputs holds, per input group, the (n_train, count) matrix of
    the training stream's fuzzified inputs.  Every stored min-term must be an
    exact copy of one of them, and every min-term's own Hebbian update leaves
    at least alpha times its target's peak in its output column.
    """
    n = state.n_minterms
    groups = range(len(state.config.groups))
    chk.check(0 < n < n_train, f"{label}: {n} min-terms for {n_train} samples")
    if familiar:
        chk.check(n < FAMILIAR_MINTERM_SHARE * n_train,
                  f"{label}: {n} min-terms not under {FAMILIAR_MINTERM_SHARE:.0%} of {n_train}")
    weights = [state.w_in(g) for g in groups] + [state.w_out]
    chk.check(all(np.isfinite(w).all() and (w >= 0.0).all() for w in weights),
              f"{label}: a weight is negative or not finite")
    seen = {np.concatenate([m[k] for m in fuzzified_inputs]).tobytes()
            for k in range(n_train)}
    rows = np.concatenate([state.w_in(g) for g in groups], axis=1)
    copies = sum(r.tobytes() in seen for r in rows)
    chk.check(copies == n, f"{label}: {n - copies} of {n} min-terms are no exact copy "
                           "of a fuzzified training input")
    chk.check(n == 0 or state.w_out.max(axis=0).min() >= 0.5 * state.config.alpha,
              f"{label}: a min-term column got no Hebbian update")
