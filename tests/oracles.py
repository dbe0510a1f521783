"""Reference implementations the tests check the package against, and helpers.

Each reference is written from its definition, independent of the package
internals; forward_batch is a helper that reads the package's forward pass.
"""

import numpy as np

from neurofuzzy import fuzzy, network
from neurofuzzy.errors import DimensionMismatch, ReadDisturbRisk


def forward_batch(state, mats):
    """Hidden activations (B, N) and raw fuzzy outputs (B, nz) of a batch; mats[g]
    is the (B, count_g) matrix of membership rows for input group g."""
    hidden = np.empty((len(mats[0]), state.n_minterms))
    return hidden, network.output_batch(state, mats, hidden)


def triangular_matrix(u, crisps, half_support):
    """Triangular memberships max(0, 1 - |grid - c| / half_support), one row per
    crisp value c, as one broadcast over the whole batch: the package's formula as
    it stood before it fuzzified in blocks.  No input is checked.  The package's
    fuzzifier must give these rows bit for bit."""
    out = u.grid()[None, :] - np.asarray(crisps, dtype=np.float64)[:, None]
    np.divide(np.abs(out, out=out), half_support, out=out)
    return np.maximum(np.subtract(1.0, out, out=out), 0.0, out=out)


def states_equal(a, b) -> bool:
    """Bitwise equality of two network states: configuration and all weights."""
    if a.config != b.config or a.n_minterms != b.n_minterms:
        return False
    pairs = [(a.w_in(g), b.w_in(g)) for g in range(len(a.config.groups))]
    pairs += [(a.unit_rows(), b.unit_rows()), (a.w_out, b.w_out)]
    return all(np.array_equal(x, y) for x, y in pairs)


def ion_drift_x(params, volts, t):
    """Doped fraction of a pristine device after volts are held for t seconds.

    With M(x) = R_off - (R_off - R_on) x, the linear ion-drift law M(x) dx =
    k v dt integrates to R_off x - (R_off - R_on) x^2 / 2 = k v t, whose root
    in [0, 1] is taken here (Strukov et al., Nature 453:80, 2008).  The state
    saturates at 1, and drives at or below the threshold leave it at 0.
    """
    volts = np.asarray(volts, dtype=np.float64)
    d = params.r_off - params.r_on
    disc = params.r_off ** 2 - 2.0 * d * params.drift_gain * volts * t
    # disc falls to R_on^2 exactly where x reaches 1
    x = (params.r_off - np.sqrt(np.maximum(disc, params.r_on ** 2))) / d
    return np.where(volts > params.v_threshold, np.minimum(x, 1.0), 0.0)


def euler_pulse_x(x, volts, params, duration):
    """Device states after a pulse, by explicit Euler on the doped fraction x.

    Each of the round(duration / dt) steps evaluates M(x), adds k v dt / M(x)
    to x and clamps x to [0, 1]; devices at or below the threshold keep their
    state.
    """
    x = np.array(x, dtype=np.float64)
    volts = np.asarray(volts, dtype=np.float64)
    active = np.abs(volts) > params.v_threshold
    xa, va = x[active], volts[active]
    for _ in range(int(round(duration / params.dt))):
        m = params.r_on * xa + params.r_off * (1.0 - xa)
        xa = np.clip(xa + params.drift_gain * (va / m) * params.dt, 0.0, 1.0)
    x[active] = xa
    return x


def clamped_pulse_x(x, volts, params, duration):
    """Device states after a pulse, by the clamped Euler loop on the memristance M.

    A frozen copy of the package's integrator as it stood before it skipped
    any clamp: M = R_off + (R_on - R_off) x, and each of the round(duration /
    dt) steps adds a / M to M, a = (R_on - R_off) k v dt, then clamps M to
    [R_on, R_off].  Devices at or below the threshold keep their state.  The
    package's integrator must give these states bit for bit.
    """
    x = np.array(x, dtype=np.float64)
    volts = np.asarray(volts, dtype=np.float64)
    active = np.abs(volts) > params.v_threshold
    if not np.any(active):
        return x
    r_on, r_off = params.r_on, params.r_off
    m = r_off + (r_on - r_off) * x[active]
    a = (r_on - r_off) * (params.drift_gain * volts[active] * params.dt)
    t, lo, hi = np.empty_like(m), np.full_like(m, r_on), np.full_like(m, r_off)
    for _ in range(int(round(duration / params.dt))):
        np.divide(a, m, out=t)
        np.add(m, t, out=m)
        np.maximum(m, lo, out=m)
        np.minimum(m, hi, out=m)
    x[active] = (r_off - m) / (r_off - r_on)
    return x


def chunked_train(state, mats, targets):
    """A frozen copy of network.train_matrix's chunk loop as it stood before it
    scored each chunk as a contiguous block and scanned for novelty in place.

    Returns the TrainingStats.  Each chunk of CHUNK_MAX samples is scored by one
    GEMM into a strided view of its hidden block; each scan recomputes the whole
    tail's centroid errors (NaN where nothing fires, then inf by fmin) and takes
    the first at or above the threshold; an add folds its update into the rows
    after it as an np.outer.  The stream is not validated.  train_matrix must
    give this state, these errors and these add indices bit for bit.
    """
    cfg, faults = state.config, state.faults
    targets = np.asarray(targets, dtype=np.float64)
    mats = [np.asarray(X, dtype=np.float64) for X in mats]
    fuzzy_targets = fuzzy.triangular_matrix(cfg.output_universe, targets,
                                            cfg.output_half_support)
    n, groups = len(targets), len(cfg.groups)
    units = fuzzy.unit_concat(mats)
    stats = network.TrainingStats(n_samples=n, errors=np.full(n, np.inf))
    proj = fuzzy.centroid_matrix(cfg.output_universe.grid())
    hebb = cfg.alpha * (fuzzy_targets @ proj)
    for i in range(0, n, network.CHUNK_MAX):
        stop = min(i + network.CHUNK_MAX, n)
        n0 = state.n_minterms
        hid = np.zeros((stop - i, n0 + stop - i))
        fuzzy.power_activation(np.matmul(units[i:stop], state.unit_rows().T, out=hid[:, :n0]),
                               groups, cfg.p)
        out = hid[:, :n0] @ (proj.T @ state.w_out).T
        start, selfs, adds = 0, None, []
        while start < stop - i:
            folded = out[start:]
            pred = folded[:, 0] / np.where(folded[:, 1] > 0.0, folded[:, 1], np.nan)
            err = np.fmin(np.abs(pred - targets[i + start:stop]), np.inf,
                          out=stats.errors[i + start:stop])
            novel = np.flatnonzero(err >= cfg.novelty_threshold)
            if novel.size == 0:
                break
            b = start + int(novel[0])
            j, start = i + b, b + 1
            m = state.n_minterms
            state._store_rows([X[j:j + 1] for X in mats], units[j:j + 1])
            stats.add_indices.append(m)
            adds.append(b)
            h = hid[b, :m + 1]
            if faults is None:
                if selfs is None:
                    b0, selfs = b, fuzzy.power_activation(units[j:stop] @ units[j:stop].T,
                                                          groups, cfg.p)
                hid[b:, m] = selfs[b - b0:, b - b0]
                out[start:] += np.outer(hid[start:, :m + 1] @ h, hebb[j])
            else:
                hid[b:, m] = fuzzy.power_activation(units[j:stop] @ state._unit[m],
                                                    groups, cfg.p)
                delta = cfg.alpha * np.outer(fuzzy_targets[j], h)
                delta[faults.out_mask[:, :m + 1]] = 0.0
                out[start:] += np.outer(hid[start:, m], state._w_out[:, m] @ proj)
                out[start:] += hid[start:, :m + 1] @ (delta.T @ proj)
        if adds:
            m = state.n_minterms
            delta = cfg.alpha * (fuzzy_targets[i:stop][adds].T @ hid[adds, :m])
            state._w_out[:, :m] += (delta if faults is None
                                    else np.where(faults.out_mask[:, :m], 0.0, delta))
    stats.n_minterms_added = len(stats.add_indices)
    return stats


def vmm(cb, input_voltages, cols=slice(None)):
    """Analog vector-matrix multiply out_i = -sum_j (R_f/M_ij) I_j, on one row or a batch.

    The voltages drive the columns in cols; the others are grounded.  Inputs
    must stay strictly below the device threshold so the read cannot disturb
    stored states; device states are untouched.
    """
    volts = np.asarray(input_voltages, dtype=np.float64)
    w = (cb.params.r_f / cb.memristance())[:, cols]
    if volts.shape[-1] != w.shape[1]:
        raise DimensionMismatch(f"expected {w.shape[1]} input voltages, got {volts.shape[-1]}")
    if np.any(np.abs(volts) >= cb.params.v_threshold):
        raise ReadDisturbRisk("read voltage at or above the device threshold")
    return -(volts @ w.T)


def crossbar_forward(cb1, cb2, mapping, group_mats):
    """Raw outputs of the analog forward pass, read group by group through vmm.

    Each group's columns of cb1 are driven at v_read; the floor current of the
    drive is subtracted, and the input norms and the map-time calibration
    norms turn the dot products into cosines.  Their mean over the groups,
    snapped to 1 within 1e-12 and clamped at 0, is raised to the power p, and
    a vmm read of cb2 less its floor current gives the outputs.
    """
    v, n_v = mapping.v_read, mapping.inv_norms[0].size
    sums = 0.0
    for sl, mat, inv_w in zip(mapping.group_slices, group_mats, mapping.inv_norms):
        mat = np.asarray(mat, dtype=np.float64)
        dots = vmm(cb1, mat * v, sl)[:, :n_v] / -v - mapping.floor * mat.sum(axis=1)[:, None]
        norms = np.linalg.norm(mat, axis=1)
        inv_x = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
        sums = sums + dots * (inv_x / mapping.scale_in)[:, None] * inv_w
    mean = sums / len(group_mats)
    hidden = np.maximum(np.where(mean >= 1.0 - 1e-12, 1.0, mean), 0.0) ** mapping.p
    raw = vmm(cb2, hidden * v, slice(0, n_v)) / -v - mapping.floor * hidden.sum(axis=1)[:, None]
    return raw / mapping.scale_out
