"""One train-then-score protocol, train_and_score, for every study: modeling,
classification, noise and fault.

Every run is a pure function of its configuration: training points, test
points, noise and fault draws all come from explicitly seeded generators, so
repeating a run reproduces it bit for bit.  Reports carry the matching
reference value from the source tables where one exists.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import benchmarks, crossbar, fuzzy, network
from .benchmarks import (
    CLASSIFICATION,
    FAULT,
    NOISE_FVU,
    OUTPUT_RANGE,
    TABLE1,
    TABLE3,
    gen_classification_dataset,
    gen_uniform_samples,
)
from .crossbar import MemristorParams
from .errors import ConstantActual, LengthMismatch, UnknownDatasetId, UnreadField
from .fuzzy import universe_from_count
from .network import InputGroup, NetworkConfig, NetworkState

NOISE_SEED_OFFSET = 500_000
FAULT_SEED_OFFSET = 900_000
CLASS_TEST_SEED_OFFSET = 10_000
DEFAULT_TEST_SEED = 977
SURFACE_SIDE = 101

REPORT_COLUMNS = [
    "function_or_dataset", "n_train", "n_test", "seed", "p", "alpha", "threshold",
    "nx", "ny", "nz", "n_minterms", "fvu_or_rate", "paper_reference_value",
    "runtime_ms",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run; exactly one of function / dataset is set.  Setting a
    field the run never reads raises UnreadField."""

    function: str | None = None          # g1..g5 for regression studies
    dataset: int | None = None           # 1..4 for classification studies
    n_train: int = 225
    n_test: int = 10_000
    seed: int = 1
    test_seed: int | None = None         # a function's; DEFAULT_TEST_SEED unless set
    p: int = 7
    alpha: float = 5e-4
    threshold: float | None = None       # None: table default for the target
    nx: int | None = None
    ny: int | None = None
    nz: int | None = None
    input_hs_scale: float = 10.0         # input half support, in grid resolutions at 225 samples
    input_hs_shrink_exp: float = 0.1     # support shrinks as (225/n_train)^exp
    output_hs_mult: float | None = None  # a function's output half support, 3.0 resolutions
    noise_variance: float | None = None  # a function's; 0.0 unless set
    fault_fraction: float = 0.0
    fault_seed: int | None = None
    backend: str = "ideal"               # "ideal" | "crossbar"
    # the crossbar set-up, R_f in the device; the scales default as in crossbar.map_network
    device: MemristorParams = field(default_factory=MemristorParams)
    scale_in: float | None = None
    scale_out: float | None = None
    # the run's NetworkConfig, built by __post_init__, so its checks raise at construction
    net: NetworkConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.function is None) == (self.dataset is None):
            raise ValueError("set exactly one of function / dataset")
        if self.dataset is None and self.function not in TABLE1:
            raise UnknownDatasetId(f"unknown benchmark function {self.function!r}")
        if self.function is None and self.dataset not in CLASSIFICATION:
            raise UnknownDatasetId(f"classification dataset id must be 1..4, got {self.dataset}")
        # only a function's run reads these (None: the default, as for MemristorParams.r_f);
        # a dataset's draws its test points from seed and has label targets
        for key, default in (("test_seed", DEFAULT_TEST_SEED), ("nz", None),
                             ("output_hs_mult", 3.0), ("noise_variance", 0.0)):
            if self.dataset is None and getattr(self, key) is None:
                object.__setattr__(self, key, default)
            elif self.dataset is not None and getattr(self, key) is not None:
                raise UnreadField(key, "a dataset run")
        # a dataset draws both classes, an FVU needs two test points; numpy seeds are >= 0
        least = {"n_train": 1 if self.dataset is None else 2, "n_test": 2, "seed": 0,
                 "test_seed": 0, "fault_seed": 0, "nx": 2, "ny": 2, "nz": 2, "p": 1}
        for key, low in least.items():
            value = getattr(self, key)
            if value is not None and not float(value).is_integer():
                raise ValueError(f"{key} must be a whole number, got {value}")
            if value is not None and value < low:
                raise ValueError(f"{key} must be >= {low}, got {value}")
            object.__setattr__(self, key, value if value is None else int(value))
        if self.dataset is None and not 0 <= self.noise_variance < np.inf:
            raise ValueError(f"noise variance must be finite and >= 0, got {self.noise_variance}")
        if not 0.0 <= self.fault_fraction <= 1.0:
            raise ValueError("fault fraction must lie in [0, 1]")
        if self.backend not in ("ideal", "crossbar"):
            raise ValueError(f"unknown backend {self.backend!r}")
        # an ideal run maps no crossbar: of the set-up it reads r_on and r_off, its fault plan's
        dev = self.device
        for key, unread in (("v_threshold", dev.v_threshold != MemristorParams.v_threshold),
                            ("r_f", dev.r_f != dev.r_off), ("scale_in", self.scale_in is not None),
                            ("scale_out", self.scale_out is not None)):
            if unread and self.backend == "ideal":
                raise UnreadField(key, "a run on the ideal backend")
        if not 0 < self.input_hs_scale < np.inf:
            raise ValueError(f"input_hs_scale must be finite and > 0, got {self.input_hs_scale}")
        if not np.isfinite(self.input_hs_shrink_exp):
            raise ValueError(f"input_hs_shrink_exp must be finite, got {self.input_hs_shrink_exp}")
        for key in ("scale_in", "scale_out"):
            value = getattr(self, key)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{key} must be finite and > 0, got {value}")
        object.__setattr__(self, "net", _network_config(self))

    @property
    def label(self) -> str:
        """The run's name in reports and file names: the function, or set<dataset>."""
        return self.function if self.dataset is None else f"set{self.dataset}"


@dataclass
class ExperimentReport:
    """A run's config and what the run measured."""

    cfg: ExperimentConfig
    n_minterms: int
    fvu_or_rate: float
    paper_reference: float | None = None
    runtime_ms: float | None = None
    n_unactivated: int = 0               # test points predicted as the midpoint
    per_class_counts: tuple | None = None
    n_unclassified: int = 0

    def csv_row(self, with_runtime: bool = False) -> list:
        """The REPORT_COLUMNS row: the config values that name the run, then its results."""
        cfg, net = self.cfg, self.cfg.net
        rt = "" if (self.runtime_ms is None or not with_runtime) else repr(self.runtime_ms)
        ref = "" if self.paper_reference is None else repr(self.paper_reference)
        return [cfg.label, cfg.n_train, cfg.n_test, cfg.seed, cfg.p, repr(cfg.alpha),
                repr(net.novelty_threshold), net.groups[0].universe.count,
                net.groups[1].universe.count, net.output_universe.count,
                self.n_minterms, repr(self.fvu_or_rate), ref, rt]


def fvu(predicted, actual) -> float:
    """Fraction of variance unexplained: sum sq error over sum sq deviation."""
    p = np.asarray(predicted, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape or p.ndim != 1 or p.size < 2:
        raise LengthMismatch(f"need two equal-length vectors of >= 2 points, "
                             f"got {p.shape} vs {a.shape}")
    denom = float(((a - a.mean()) ** 2).sum())
    if denom == 0.0:
        raise ConstantActual("reference values are constant; FVU is undefined")
    return float(((a - p) ** 2).sum()) / denom


def input_half_support(cfg: ExperimentConfig, resolution: float) -> float:
    """Default fuzzification width: wide at 225 samples, shrinking gently."""
    return cfg.input_hs_scale * (225.0 / cfg.n_train) ** cfg.input_hs_shrink_exp * resolution


def _network_config(cfg: ExperimentConfig):
    """Resolve universes, supports and threshold for a regression or classification run."""
    if cfg.dataset is not None:     # one output neuron per class, singleton targets
        ref = {**CLASSIFICATION[cfg.dataset], "threshold": 0.35}
        uz, out_hs = universe_from_count(0.0, 1.0, 2), 0.0
    else:
        ref = TABLE1.get(cfg.function, {})
        nz = cfg.nz if cfg.nz is not None else ref.get("nz", 101)
        uz = universe_from_count(*OUTPUT_RANGE[cfg.function], nz)
        out_hs = cfg.output_hs_mult * uz.resolution
    nx = cfg.nx if cfg.nx is not None else ref.get("nx", 100)
    ny = cfg.ny if cfg.ny is not None else ref.get("ny", 100)
    threshold = cfg.threshold if cfg.threshold is not None else ref.get("threshold", 0.1)
    ux = universe_from_count(0.0, 1.0, nx)
    uy = universe_from_count(0.0, 1.0, ny)
    groups = (
        InputGroup("x", ux, input_half_support(cfg, ux.resolution)),
        InputGroup("y", uy, input_half_support(cfg, uy.resolution)),
    )
    return NetworkConfig(
        groups=groups, output_universe=uz, p=cfg.p, alpha=cfg.alpha,
        novelty_threshold=threshold, output_half_support=out_hs,
    )


def _training_data(cfg: ExperimentConfig):
    """Seeded training points and targets: a dataset's class labels, or a function's
    values clipped to the output universe, with optional Gaussian noise."""
    if cfg.dataset is not None:
        pts, labels = gen_classification_dataset(cfg.dataset, cfg.n_train, cfg.seed)
        return pts, labels.astype(np.float64)
    pts = gen_uniform_samples(cfg.n_train, cfg.seed)
    targets = benchmarks.eval_benchmark(cfg.function, pts[:, 0], pts[:, 1])
    if cfg.noise_variance > 0.0:
        nrng = np.random.default_rng(cfg.seed + NOISE_SEED_OFFSET)
        sd = math.sqrt(cfg.noise_variance)
        pts = np.clip(pts + nrng.normal(0.0, sd, pts.shape), 0.0, 1.0)
        targets = targets + nrng.normal(0.0, sd, targets.shape)
    uz = cfg.net.output_universe
    return pts, np.clip(targets, uz.lo, uz.hi)


def _backend_readout(cfg: ExperimentConfig, state: NetworkState, mats, crisp: bool = False):
    """The configured backend's argmax labels of mats, or with crisp its centroid
    readout (predictions, activated); each chunk is read out in its lane."""
    if cfg.backend == "ideal":
        return (network.infer_crisp_batch if crisp else network.classify_batch)(state, mats)
    cbs = crossbar.map_network(state, cfg.device, scale_in=cfg.scale_in, scale_out=cfg.scale_out)
    if crisp:
        return crossbar.crossbar_infer_crisp_batch(*cbs, mats)
    return crossbar.crossbar_forward_batch(*cbs, mats, readout=lambda o: (fuzzy.argmax(o),))[0]


def _regression_readout(cfg: ExperimentConfig, state: NetworkState, pts):
    """Centroid predictions at pts through the configured backend, and the count
    of unactivated points, which score as the output midpoint."""
    uz = state.config.output_universe
    pred, activated = _backend_readout(cfg, state, state.fuzzify(pts), crisp=True)
    return np.where(activated, pred, (uz.lo + uz.hi) / 2.0), int((~activated).sum())


def train_and_score(cfg: ExperimentConfig):
    """Single-pass training, scored on fresh test points: (report, state).

    A function's run is scored by FVU, a dataset's by the percentage of test
    points classified right (one output neuron per class, singleton targets).
    noise_variance > 0 trains a function on noisy data (clean test set);
    fault_fraction > 0 sticks weight cells before training.
    """
    t0 = time.perf_counter()
    state = rebuild_trained_state(cfg)
    if cfg.dataset is not None:
        test, labels = gen_classification_dataset(cfg.dataset, cfg.n_test,
                                                  cfg.seed + CLASS_TEST_SEED_OFFSET)
        predicted = _backend_readout(cfg, state, state.fuzzify(test))
        score = 100.0 * float((predicted == labels).mean())
        ref = CLASSIFICATION[cfg.dataset]["rate"]
        counts = {"per_class_counts": tuple(int((labels == c).sum()) for c in (0, 1)),
                  "n_unclassified": int((predicted == -1).sum())}
    else:
        test = gen_uniform_samples(cfg.n_test, cfg.test_seed)
        pred, n_dead = _regression_readout(cfg, state, test)
        score = fvu(pred, benchmarks.eval_benchmark(cfg.function, test[:, 0], test[:, 1]))
        ref = TABLE1[cfg.function]["fvu"] if cfg.n_train == 225 else \
            TABLE3.get(cfg.function, {}).get(cfg.n_train, (None,))[0]
        if cfg.noise_variance > 0.0:
            ref = NOISE_FVU.get(cfg.function)
        if cfg.fault_fraction > 0.0:
            ref = FAULT.get(cfg.function, {}).get("fvu")
        counts = {"n_unactivated": n_dead}
    return ExperimentReport(cfg, state.n_minterms, score, paper_reference=ref,
                            runtime_ms=(time.perf_counter() - t0) * 1e3, **counts), state


def run_modeling(cfg: ExperimentConfig) -> ExperimentReport:
    """The report of train_and_score; the state is dropped with the run."""
    return train_and_score(cfg)[0]


def run_classification(cfg: ExperimentConfig) -> ExperimentReport:
    """Two-class study: the report of train_and_score for a dataset config."""
    return train_and_score(cfg)[0]


# --- suite definitions --------------------------------------------------------


def paper_modeling_config(fn: str, **overrides) -> ExperimentConfig:
    """Table-pinned configuration for one benchmark function."""
    return ExperimentConfig(function=fn, **overrides)


def paper_classification_config(ds: int, **overrides) -> ExperimentConfig:
    """Table-pinned configuration for one classification set: its table's
    n_train and 2000 test points unless overridden."""
    # an unknown ds has no table row: ExperimentConfig rejects it
    overrides.setdefault("n_train", CLASSIFICATION.get(ds, {}).get("n_train", 225))
    overrides.setdefault("n_test", 2000)
    return ExperimentConfig(dataset=ds, **overrides)


# Each table's rows, as the keys that define them: the CLI builds every row
# through its one resolver, with these and the paper's table keys pinned.
SUITE = {
    "table1": [{"function": fn} for fn in TABLE1],
    "table3": [{"function": fn, "n_train": 700} for fn in ("g1", "g3", "g5")],
    "classification": [{"dataset": ds} for ds in CLASSIFICATION],
    "noise": [{"function": fn, "noise_variance": 0.01} for fn in TABLE1],
    "fault": [{"function": fn, "fault_fraction": 0.2} for fn in TABLE1],
}


def surface_grid(cfg: ExperimentConfig, state: NetworkState):
    """(x, y, predicted, actual) rows over a regular SURFACE_SIDE^2 grid, for plot emission."""
    axis = np.linspace(0.0, 1.0, SURFACE_SIDE)
    xx, yy = np.meshgrid(axis, axis)
    flat = np.stack([xx.ravel(), yy.ravel()], axis=1)
    actual = benchmarks.eval_benchmark(cfg.function, flat[:, 0], flat[:, 1])
    pred, _ = _regression_readout(cfg, state, flat)
    return np.stack([flat[:, 0], flat[:, 1], pred, actual], axis=1)


def rebuild_trained_state(cfg: ExperimentConfig) -> NetworkState:
    """Train and return the network of a config (no evaluation)."""
    net_cfg, faults = cfg.net, None
    pts, targets = _training_data(cfg)
    if cfg.fault_fraction > 0.0:
        seed = cfg.fault_seed if cfg.fault_seed is not None else cfg.seed + FAULT_SEED_OFFSET
        faults = crossbar.draw_faults(
            seed, [g.universe.count for g in net_cfg.groups],
            net_cfg.output_universe.count, capacity=cfg.n_train,
            fraction=cfg.fault_fraction, out_scale=net_cfg.alpha, device=cfg.device,
        )
    state = NetworkState(net_cfg, faults=faults)
    network.train_matrix(state, state.fuzzify(pts), targets)
    return state
