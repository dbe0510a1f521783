"""Reference implementations the tests check the package against.

Each is written from its definition, independent of the package internals.
"""

import numpy as np


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
