"""Two-layer neuro-fuzzy network with dynamic min-term growth.

The first layer stores one row per learned fuzzy min-term and per input
group; the similarity of a fuzzified input to each stored row is combined
across groups by the normalized power activation

    v_i = ((s_i^1 + ... + s_i^G) / G) ** p

where s_i^g is the cosine similarity of input group g to row i.  The second
layer is a plain weighted sum: output_raw = W_out @ v, read out as a fuzzy
membership function over the output universe.

Training is single-pass and optimization-free.  Each sample is first checked
for novelty (inference error against its target); familiar samples are
skipped, novel ones append one min-term row per group (an exact copy of the
fuzzified inputs) and then Hebbian-update the full output matrix:

    w_ij += alpha * t(v_j, u_i)

with u the fuzzified target and t a configurable soft-AND.
"""

import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import fuzzy
from .errors import (
    AllZeroMembership,
    CapacityExceeded,
    MalformedPayload,
    NeuroFuzzyError,
    TargetOutOfRange,
    Unclassifiable,
    UniverseMismatch,
    UntrainedNetwork,
    VersionMismatch,
    ZeroVector,
)
from .fuzzy import MembershipVector, TNorm, Universe

_FORMAT = "neurofuzzy-state-v1"


@dataclass(frozen=True)
class InputGroup:
    """One input variable: its universe and default fuzzification width."""

    name: str
    universe: Universe
    half_support: float


@dataclass(frozen=True)
class NetworkConfig:
    groups: tuple
    output_universe: Universe
    p: int = 7
    alpha: float = 5e-4
    novelty_threshold: float = 0.1
    output_half_support: float = 0.0
    hebbian_tnorm: TNorm = fuzzy.PRODUCT

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("need at least one input group")
        if self.p < 1 or int(self.p) != self.p:
            raise ValueError(f"activation exponent must be an integer >= 1, got {self.p}")
        if self.alpha < 0:
            raise ValueError(f"learning coefficient must be >= 0, got {self.alpha}")
        if self.novelty_threshold <= 0:
            raise ValueError(f"novelty threshold must be > 0, got {self.novelty_threshold}")
        if self.output_half_support < 0:
            raise ValueError("output half support must be >= 0")


@dataclass
class WeightFaults:
    """Stuck-cell plan mirroring distorted crossbar cross-points.

    Masked cells hold a fixed random value and ignore every write.  Stuck
    values follow a uniformly random device state fed through the memristance
    map, scale / (x + ratio*(1-x)), so most distorted cells sit near the
    conductance floor with a heavy tail up to the full scale.
    """

    capacity: int
    in_masks: list
    in_stuck: list
    out_mask: np.ndarray
    out_stuck: np.ndarray

    @staticmethod
    def draw(seed: int, group_counts, nz: int, capacity: int, fraction: float,
             out_scale: float, memristance_ratio: float = 160.0) -> "WeightFaults":
        """Seeded fault plan over provisioned capacity (rows or columns)."""
        rng = np.random.default_rng(seed)
        in_masks, in_stuck = [], []
        specs = [((capacity, n), 1.0) for n in group_counts]
        specs.append(((nz, capacity), out_scale))
        drawn = []
        for shape, scale in specs:
            mask = np.zeros(shape, dtype=bool)
            stuck = np.zeros(shape)
            k = int(fraction * mask.size)
            if k > 0:
                idx = rng.choice(mask.size, size=k, replace=False)
                mask.flat[idx] = True
                x = rng.uniform(0.0, 1.0, k)
                stuck.flat[idx] = scale / (x + memristance_ratio * (1.0 - x))
            drawn.append((mask, stuck))
        for mask, stuck in drawn[:-1]:
            in_masks.append(mask)
            in_stuck.append(stuck)
        out_mask, out_stuck = drawn[-1]
        return WeightFaults(capacity=capacity, in_masks=in_masks, in_stuck=in_stuck,
                            out_mask=out_mask, out_stuck=out_stuck)


@dataclass
class TrainOutcome:
    kind: str                      # "skipped" | "added"
    index: int | None              # new min-term index when added
    pre_update_error: float        # novelty error before any change (inf when untestable)
    hidden: np.ndarray             # activations: pre-update when skipped, post-add otherwise


@dataclass
class TrainingStats:
    n_samples: int = 0
    n_minterms_added: int = 0
    add_indices: list = field(default_factory=list)


class NetworkState:
    """Grown weight matrices plus their configuration.

    Mutable only through training; all inference entry points are read-only,
    so a trained state can be shared freely across threads.
    """

    def __init__(self, config: NetworkConfig, faults: WeightFaults | None = None):
        self.config = config
        self.faults = faults
        self.n_minterms = 0
        cap = faults.capacity if faults is not None else 16
        self._capacity = cap
        self._w_in = [np.zeros((cap, g.universe.count)) for g in config.groups]
        # each stored row scaled by fuzzy.pow2_scale and the norm of the
        # scaled row, so a forward pass dots inputs against rows that cannot
        # underflow, subnormal ones included
        self._scaled = [np.zeros((cap, g.universe.count)) for g in config.groups]
        self._norms = [np.zeros(cap) for g in config.groups]
        self._w_out = np.zeros((config.output_universe.count, cap))
        if faults is not None:
            if len(faults.in_masks) != len(config.groups):
                raise ValueError("fault plan group count does not match config")
            for g, (mask, stuck) in enumerate(zip(faults.in_masks, faults.in_stuck)):
                self._w_in[g][mask] = stuck[mask]
            self._w_out[faults.out_mask] = faults.out_stuck[faults.out_mask]

    # --- views -----------------------------------------------------------

    def w_in(self, g: int) -> np.ndarray:
        return self._w_in[g][: self.n_minterms]

    @property
    def w_out(self) -> np.ndarray:
        return self._w_out[:, : self.n_minterms]

    def scaled_rows(self, g: int) -> np.ndarray:
        """Stored rows of group g, each scaled by fuzzy.pow2_scale."""
        return self._scaled[g][: self.n_minterms]

    def row_norms(self, g: int) -> np.ndarray:
        """Norms of scaled_rows(g)."""
        return self._norms[g][: self.n_minterms]

    # --- helpers ----------------------------------------------------------

    def fuzzify_inputs(self, crisps) -> list:
        """Fuzzify one crisp value per input group with its configured width."""
        if len(crisps) != len(self.config.groups):
            raise UniverseMismatch(
                f"expected {len(self.config.groups)} inputs, got {len(crisps)}"
            )
        return [fuzzy.fuzzify_triangular(g.universe, c, g.half_support)
                for g, c in zip(self.config.groups, crisps)]

    def copy(self) -> "NetworkState":
        dup = NetworkState.__new__(NetworkState)
        dup.config = self.config
        dup.faults = self.faults
        dup.n_minterms = self.n_minterms
        dup._capacity = self._capacity
        dup._w_in = [w.copy() for w in self._w_in]
        dup._scaled = [w.copy() for w in self._scaled]
        dup._norms = [n.copy() for n in self._norms]
        dup._w_out = self._w_out.copy()
        return dup

    def _grow(self):
        if self.faults is not None:
            raise CapacityExceeded(
                f"fault plan provisions {self._capacity} min-term rows; all are in use"
            )
        extra = self._capacity

        def grow_rows(a):
            return np.pad(a, [(0, extra)] + [(0, 0)] * (a.ndim - 1))

        self._w_in = [grow_rows(w) for w in self._w_in]
        self._scaled = [grow_rows(w) for w in self._scaled]
        self._norms = [grow_rows(n) for n in self._norms]
        self._w_out = np.pad(self._w_out, [(0, 0), (0, extra)])
        self._capacity += extra

    def _append_row(self, xs) -> int:
        if self.n_minterms == self._capacity:
            self._grow()
        r = self.n_minterms
        for g, x in enumerate(xs):
            if self.faults is not None:
                keep = ~self.faults.in_masks[g][r]
                self._w_in[g][r][keep] = x[keep]
            else:
                self._w_in[g][r] = x
            self._scaled[g][r], self._norms[g][r], _ = fuzzy.pow2_scale(self._w_in[g][r])
        self.n_minterms += 1
        return r


def states_equal(a: NetworkState, b: NetworkState) -> bool:
    """Bitwise equality of configuration and all logical weights."""
    if a.config != b.config or a.n_minterms != b.n_minterms:
        return False
    for g in range(len(a.config.groups)):
        if not np.array_equal(a.w_in(g), b.w_in(g)):
            return False
        if not np.array_equal(a.row_norms(g), b.row_norms(g)):
            return False
    return np.array_equal(a.w_out, b.w_out)


# --- forward pass ----------------------------------------------------------


def _sample_mats(state: NetworkState, inputs) -> list:
    """Checked 1-row batches (one per group) of one fuzzified sample."""
    if len(inputs) != len(state.config.groups):
        raise UniverseMismatch(
            f"expected {len(state.config.groups)} input groups, got {len(inputs)}"
        )
    mats = []
    for g, mv in zip(state.config.groups, inputs):
        if mv.universe != g.universe:
            raise UniverseMismatch(f"input universe does not match group {g.name!r}")
        if not np.any(mv.values):
            raise ZeroVector("all-zero input membership vector")
        mats.append(mv.values[None, :])
    return mats


def _hidden_batch(state: NetworkState, mats) -> np.ndarray:
    """Hidden activations for a batch; mats[g] has shape (B, count_g)."""
    groups = []
    for g, X in enumerate(mats):
        xs, x_norms, _ = fuzzy.pow2_scale(X)
        groups.append((xs @ state.scaled_rows(g).T, x_norms, state.row_norms(g)))
    return fuzzy.power_activation(groups, state.config.p)


def forward_batch(state: NetworkState, mats):
    """Hidden activations (B, N) and raw fuzzy outputs (B, nz) of a batch.

    mats[g] is a (B, count_g) matrix of membership rows for input group g.
    """
    if state.n_minterms == 0:
        raise UntrainedNetwork("network has no min-terms yet")
    hidden = _hidden_batch(state, mats)
    return hidden, hidden @ state.w_out.T


def forward(state: NetworkState, inputs):
    """Hidden activations and raw fuzzy output for one fuzzified sample."""
    hidden, out = forward_batch(state, _sample_mats(state, inputs))
    return hidden[0], out[0]


def infer_crisp(state: NetworkState, inputs) -> float:
    """Centroid-defuzzified crisp output for one fuzzified sample.

    Raw Hebbian outputs are unbounded, so the centroid is taken directly
    rather than through a [0,1]-checked MembershipVector; scale invariance
    of the centroid makes the magnitude irrelevant.
    """
    pred, activated = infer_crisp_batch(state, _sample_mats(state, inputs))
    if not activated[0]:
        raise AllZeroMembership("no output neuron is activated for this input")
    return float(pred[0])


def classify(state: NetworkState, inputs) -> int:
    """Index of the most activated output neuron; ties go to the lower index."""
    label = int(classify_batch(state, _sample_mats(state, inputs))[0])
    if label < 0:
        raise Unclassifiable("no output neuron is activated for this input")
    return label


def infer_crisp_batch(state: NetworkState, mats):
    """Vectorized inference over fuzzified batches.

    mats[g] is a (B, count_g) matrix of membership rows for group g.  Returns
    (predictions, activated): predictions hold NaN where no output neuron is
    activated, activated is the corresponding boolean mask.
    """
    return fuzzy.centroid(forward_batch(state, mats)[1], state.config.output_universe.grid())


def classify_batch(state: NetworkState, mats):
    """Vectorized argmax classification; -1 where no output is activated."""
    return fuzzy.argmax(forward_batch(state, mats)[1])


# --- training ---------------------------------------------------------------


def _novelty_error(state, out, target_crisp, target_u) -> float:
    if target_crisp is not None:
        pred, fired = fuzzy.centroid(out, state.config.output_universe.grid())
        return abs(float(pred) - target_crisp) if fired else np.inf
    cos = fuzzy.pair_cosine(out, target_u)
    return np.inf if cos is None else 1.0 - cos


def train_one(state: NetworkState, inputs, target_crisp: float | None = None,
              target_fuzzy: MembershipVector | None = None) -> TrainOutcome:
    """Present one sample: skip it if familiar, otherwise grow and update.

    Exactly one of target_crisp / target_fuzzy must be given.  The novelty
    error is the absolute defuzzified error for crisp targets and one minus
    the cosine of the raw output against the target membership for fuzzy
    ones; errors below the configured threshold leave the state untouched.
    A novel sample appends one row per group (exact copy of the fuzzified
    inputs), recomputes the hidden layer including the new neuron, and adds
    alpha * t(v_j, u_i) to every output weight.
    """
    if (target_crisp is None) == (target_fuzzy is None):
        raise ValueError("give exactly one of target_crisp / target_fuzzy")
    mats = _sample_mats(state, inputs)
    out_u = state.config.output_universe
    if target_crisp is not None:
        if not out_u.contains(target_crisp):
            raise TargetOutOfRange(
                f"target {target_crisp} outside output universe [{out_u.lo}, {out_u.hi}]"
            )
        u = fuzzy.triangular_matrix(out_u, np.array([target_crisp]),
                                    state.config.output_half_support)[0]
    else:
        if target_fuzzy.universe != out_u:
            raise UniverseMismatch("fuzzy target universe does not match the output universe")
        u = target_fuzzy.values

    if state.n_minterms > 0:
        hidden, out = forward_batch(state, mats)
        err = _novelty_error(state, out[0], target_crisp, u)
        if err < state.config.novelty_threshold:
            return TrainOutcome(kind="skipped", index=None, pre_update_error=err,
                                hidden=hidden[0])
    else:
        err = np.inf

    idx = state._append_row([x[0] for x in mats])
    hidden = _hidden_batch(state, mats)[0]
    delta = state.config.alpha * fuzzy.pairwise_tnorm(state.config.hebbian_tnorm, u, hidden)
    if state.faults is not None:
        delta[state.faults.out_mask[:, : state.n_minterms]] = 0.0
    state._w_out[:, : state.n_minterms] += delta
    return TrainOutcome(kind="added", index=idx, pre_update_error=err, hidden=hidden)


def train_dataset(state: NetworkState, samples) -> TrainingStats:
    """Fold train_one over (inputs, target) pairs in order.

    Targets may be floats (crisp) or MembershipVectors (fuzzy).  Per-sample
    failures abort with the sample index attached.
    """
    stats = TrainingStats()
    for i, (inputs, target) in enumerate(samples):
        try:
            if isinstance(target, MembershipVector):
                outcome = train_one(state, inputs, target_fuzzy=target)
            else:
                outcome = train_one(state, inputs, target_crisp=float(target))
        except NeuroFuzzyError as e:
            raise type(e)(f"sample {i}: {e}") from e
        stats.n_samples += 1
        if outcome.kind == "added":
            stats.n_minterms_added += 1
            stats.add_indices.append(outcome.index)
    return stats


# --- serialization ----------------------------------------------------------


def _universe_dict(u: Universe) -> dict:
    return {"lo": u.lo, "hi": u.hi, "resolution": u.resolution, "count": u.count}


def _universe_from_dict(d: dict) -> Universe:
    return Universe(lo=d["lo"], hi=d["hi"], resolution=d["resolution"], count=d["count"])


def serialize(state: NetworkState) -> bytes:
    """Versioned binary container; weight round-trips are bit-exact."""
    meta = {
        "format": _FORMAT,
        "groups": [
            {"name": g.name, "universe": _universe_dict(g.universe),
             "half_support": g.half_support}
            for g in state.config.groups
        ],
        "output_universe": _universe_dict(state.config.output_universe),
        "p": state.config.p,
        "alpha": state.config.alpha,
        "novelty_threshold": state.config.novelty_threshold,
        "output_half_support": state.config.output_half_support,
        "hebbian_tnorm": {"kind": state.config.hebbian_tnorm.kind,
                          "p": state.config.hebbian_tnorm.p},
        "n_minterms": state.n_minterms,
        "has_faults": state.faults is not None,
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for g in range(len(state.config.groups)):
        arrays[f"w_in_{g}"] = state.w_in(g)
    arrays["w_out"] = state.w_out
    if state.faults is not None:
        arrays["fault_capacity"] = np.array([state.faults.capacity])
        for g in range(len(state.config.groups)):
            arrays[f"fault_in_mask_{g}"] = state.faults.in_masks[g]
            arrays[f"fault_in_stuck_{g}"] = state.faults.in_stuck[g]
        arrays["fault_out_mask"] = state.faults.out_mask
        arrays["fault_out_stuck"] = state.faults.out_stuck
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def deserialize(payload: bytes) -> NetworkState:
    try:
        data = np.load(io.BytesIO(payload), allow_pickle=False)
        meta = json.loads(bytes(data["meta"]).decode())
    except Exception as e:
        raise MalformedPayload(f"cannot parse state container: {e}") from e
    if meta.get("format") != _FORMAT:
        raise VersionMismatch(f"unsupported state format {meta.get('format')!r}")
    try:
        groups = tuple(
            InputGroup(name=g["name"], universe=_universe_from_dict(g["universe"]),
                       half_support=g["half_support"])
            for g in meta["groups"]
        )
        config = NetworkConfig(
            groups=groups,
            output_universe=_universe_from_dict(meta["output_universe"]),
            p=meta["p"],
            alpha=meta["alpha"],
            novelty_threshold=meta["novelty_threshold"],
            output_half_support=meta["output_half_support"],
            hebbian_tnorm=TNorm(meta["hebbian_tnorm"]["kind"], meta["hebbian_tnorm"]["p"]),
        )
        faults = None
        if meta["has_faults"]:
            faults = WeightFaults(
                capacity=int(data["fault_capacity"][0]),
                in_masks=[data[f"fault_in_mask_{g}"] for g in range(len(groups))],
                in_stuck=[data[f"fault_in_stuck_{g}"] for g in range(len(groups))],
                out_mask=data["fault_out_mask"],
                out_stuck=data["fault_out_stuck"],
            )
        state = NetworkState(config, faults=faults)
        n = int(meta["n_minterms"])
        while state._capacity < n:
            state._grow()
        for g in range(len(groups)):
            rows = data[f"w_in_{g}"]
            if rows.shape != (n, groups[g].universe.count):
                raise MalformedPayload(f"group {g} weight shape {rows.shape} is inconsistent")
            state._w_in[g][:n] = rows
            state._scaled[g][:n], state._norms[g][:n], _ = fuzzy.pow2_scale(rows)
        w_out = data["w_out"]
        if w_out.shape != (config.output_universe.count, n):
            raise MalformedPayload(f"output weight shape {w_out.shape} is inconsistent")
        state._w_out[:, :n] = w_out
        state.n_minterms = n
    except (KeyError, ValueError, TypeError) as e:
        raise MalformedPayload(f"state container is missing or corrupt: {e}") from e
    return state
