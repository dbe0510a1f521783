"""Benchmark functions, reference tables, and seeded data generators.

The five two-variable regression benchmarks g1..g5 are evaluated on the unit
square.  OUTPUT_RANGE holds each function's range over the domain: g1-g3 have
closed-form extremes, g4/g5 extremes were located by dense grid scans (2e6
points per axis; both are separable in x and y) and rounded outward in the
last digit.
"""

import numpy as np

from .errors import DomainViolation, UnknownDatasetId


def g1(x, y):
    return 10.391 * ((x - 0.4) * (y - 0.6) + 0.36)


def g2(x, y):
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
    return 24.234 * (r2 * (0.75 - r2))


def g3(x, y):
    xt = x - 0.5
    yt = y - 0.5
    return 42.659 * (0.1 + xt * (0.05 + xt ** 4 - 10.0 * xt ** 2 * yt ** 2 + 5.0 * yt ** 4))


def g4(x, y):
    return (1.3356 * (1.5 * (1.0 - x) + np.exp(2.0 * x - 1.0) * np.sin(3.0 * np.pi * (x - 0.6) ** 2))
            + 1.3356 * np.exp(3.0 * (y - 0.5)) * np.sin(4.0 * np.pi * (y - 0.9) ** 2))


def g5(x, y):
    return 1.9 * (1.35 + np.exp(x) * np.sin(13.0 * (x - 0.6) ** 2) * np.exp(-y) * np.sin(7.0 * y))


FUNCTIONS = {"g1": g1, "g2": g2, "g3": g3, "g4": g4, "g5": g5}

OUTPUT_RANGE = {
    "g1": (0.0, 6.2346),            # exact: 10.391 * 0.6 at (0, 0)
    "g2": (0.0, 3.40790625),        # exact: 24.234 * 0.375 * (0.75 - 0.375)
    "g3": (0.0, 8.5318),            # exact: 42.659 * 0.2 at (0, 0)
    "g4": (0.023047, 5.258868),
    "g5": (0.024551, 6.544435),
}


def eval_benchmark(fn_id: str, x, y):
    """Evaluate one benchmark function; accepts scalars or arrays on [0,1]^2."""
    if fn_id not in FUNCTIONS:
        raise UnknownDatasetId(f"unknown benchmark function {fn_id!r}")
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if np.any(xa < 0.0) or np.any(xa > 1.0) or np.any(ya < 0.0) or np.any(ya > 1.0):
        raise DomainViolation("benchmark inputs must lie in [0, 1]")
    return FUNCTIONS[fn_id](xa, ya)


# --- reference values from the source tables (comparison columns only) -------

# per function: neurons per axis, output neurons, novelty threshold, FVU,
# constructed min-terms (225 training / 10000 test points)
TABLE1 = {
    "g1": {"nx": 100, "ny": 100, "nz": 116, "threshold": 0.2, "fvu": 0.067, "minterms": 77},
    "g2": {"nx": 100, "ny": 100, "nz": 69, "threshold": 0.1, "fvu": 0.044, "minterms": 161},
    "g3": {"nx": 100, "ny": 100, "nz": 143, "threshold": 0.1, "fvu": 0.263, "minterms": 140},
    "g4": {"nx": 100, "ny": 100, "nz": 105, "threshold": 0.2, "fvu": 0.087, "minterms": 123},
    "g5": {"nx": 100, "ny": 100, "nz": 126, "threshold": 0.15, "fvu": 0.09, "minterms": 130},
}

# growing training-set study: per function, {n_train: (fvu, minterms)}
TABLE3 = {
    "g1": {400: (0.026, 194), 700: (0.021, 238)},
    "g3": {400: (0.153, 216), 700: (0.117, 245)},
    "g5": {400: (0.058, 189), 700: (0.036, 229)},
}

# two-class sets: neurons per axis, training points, min-terms, rate (%)
CLASSIFICATION = {
    1: {"nx": 100, "ny": 100, "n_train": 335, "minterms": 52, "rate": 99.8},
    2: {"nx": 90, "ny": 90, "n_train": 200, "minterms": 45, "rate": 99.36},
    3: {"nx": 98, "ny": 98, "n_train": 1000, "minterms": 107, "rate": 99.64},
    4: {"nx": 94, "ny": 94, "n_train": 600, "minterms": 40, "rate": 95.83},
}

# FVU after training on data with zero-mean Gaussian noise, variance 0.01
NOISE_FVU = {"g1": 0.281, "g2": 0.394, "g3": 0.727, "g4": 0.586, "g5": 0.61}

# FVU and min-terms with 20% of cross-points randomly distorted
FAULT = {
    "g1": {"fvu": 0.212, "minterms": 96},
    "g2": {"fvu": 0.096, "minterms": 186},
    "g3": {"fvu": 0.357, "minterms": 156},
    "g4": {"fvu": 0.144, "minterms": 152},
    "g5": {"fvu": 0.228, "minterms": 139},
}


# --- data generators ---------------------------------------------------------


def gen_uniform_samples(n: int, seed: int) -> np.ndarray:
    """n points uniform on [0,1]^2, deterministic per seed.

    Draws fill row-major, so for a fixed seed the first k rows of a larger
    draw equal the k-row draw: growing-training-set studies are nested.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 2))


def gen_classification_dataset(ds_id: int, n: int, seed: int):
    """Two-class synthetic sets on [0,1]^2: blobs, crescents, annuli, XOR.

    Reconstructed generators (the original point sets are unpublished);
    deterministic per seed, labels roughly balanced, points clipped into the
    unit square.  Returns (points (n,2), labels (n,) in {0,1}).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    if ds_id == 1:
        a = rng.normal((0.30, 0.30), 0.10, size=(n0, 2))
        b = rng.normal((0.70, 0.70), 0.10, size=(n1, 2))
    elif ds_id == 2:
        t0 = rng.uniform(0.0, np.pi, n0)
        t1 = rng.uniform(0.0, np.pi, n1)
        a = np.stack([np.cos(t0), np.sin(t0)], axis=1)
        b = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
        a += rng.normal(0.0, 0.08, a.shape)
        b += rng.normal(0.0, 0.08, b.shape)
        for m in (a, b):
            m[:, 0] = (m[:, 0] + 1.3) / 3.6
            m[:, 1] = (m[:, 1] + 0.8) / 2.1
    elif ds_id == 3:
        th0 = rng.uniform(0.0, 2.0 * np.pi, n0)
        r0 = 0.13 * np.sqrt(rng.uniform(0.0, 1.0, n0))
        th1 = rng.uniform(0.0, 2.0 * np.pi, n1)
        r1 = np.sqrt(rng.uniform(0.25 ** 2, 0.40 ** 2, n1))
        a = np.stack([0.5 + r0 * np.cos(th0), 0.5 + r0 * np.sin(th0)], axis=1)
        b = np.stack([0.5 + r1 * np.cos(th1), 0.5 + r1 * np.sin(th1)], axis=1)
    elif ds_id == 4:
        q0 = rng.integers(0, 2, n0)
        q1 = rng.integers(0, 2, n1)
        c0 = np.where(q0[:, None] == 0, (0.25, 0.25), (0.75, 0.75))
        c1 = np.where(q1[:, None] == 0, (0.25, 0.75), (0.75, 0.25))
        a = rng.normal(c0, 0.09)
        b = rng.normal(c1, 0.09)
    else:
        raise UnknownDatasetId(f"classification dataset id must be 1..4, got {ds_id}")
    pts = np.clip(np.concatenate([a, b]), 0.0, 1.0)
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    perm = rng.permutation(n)
    return pts[perm], labels[perm]
