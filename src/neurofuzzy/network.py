"""Two-layer neuro-fuzzy network with dynamic min-term growth.

The first layer stores one row per learned fuzzy min-term and per input
group; the similarity of a fuzzified input to each stored row is combined
across groups by the normalized power activation

    v_i = ((s_i^1 + ... + s_i^G) / G) ** p

where s_i^g is the cosine similarity of input group g to row i.  The second
layer is a plain weighted sum: output_raw = W_out @ v, read out as a fuzzy
membership function over the output universe.

Training is single-pass and optimization-free, on crisp targets.  A sample's
novelty is the absolute error of its centroid readout; familiar samples are
skipped, novel ones append one min-term row per group (an exact copy of the
fuzzified inputs) and then Hebbian-update the full output matrix:

    w_ij += alpha * v_j * u_i

with v the hidden activations and u the fuzzified target.  train_matrix is
the one trainer (train_dataset stacks its samples into it, train_one is train_dataset of one
sample); it folds each add's update into its chunk's outputs, checks the row after an add
alone, and stores a chunk's rows, then its W_out updates (when large, in a lane), at its end.
Inference is batched (output_batch and its argmax readout; infer_crisp_batch
folds the centroid into the output weights); one sample is a 1-row batch.
"""

import copy
import io
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import fuzzy
from .errors import (
    CapacityExceeded,
    DegenerateFuzzification,
    EmptyRange,
    MalformedPayload,
    OperandOutOfRange,
    TargetOutOfRange,
    UniverseMismatch,
    UntrainedNetwork,
    VersionMismatch,
    ZeroVector,
)
from .fuzzy import Universe

_FORMAT = "neurofuzzy-state-v1"
# the v1 format's entry for the Hebbian rule, which is always the product alpha * v_j * u_i
_HEBBIAN = {"kind": "product", "p": 1}


@dataclass(frozen=True)
class InputGroup:
    """One input variable: its universe and default fuzzification width."""

    name: str
    universe: Universe
    half_support: float

    def __post_init__(self):
        if not 0 <= self.half_support < np.inf:
            raise ValueError(f"half support must be finite and >= 0, got {self.half_support}")


@dataclass(frozen=True)
class NetworkConfig:
    groups: tuple
    output_universe: Universe
    p: int = 7
    alpha: float = 5e-4
    novelty_threshold: float = 0.1
    output_half_support: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("need at least one input group")
        if not (self.p >= 1 and float(self.p).is_integer()):
            raise ValueError(f"activation exponent must be an integer >= 1, got {self.p}")
        object.__setattr__(self, "p", int(self.p))   # int_power counts its products in p
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"learning coefficient must be finite and >= 0, got {self.alpha}")
        if not self.novelty_threshold > 0:
            raise ValueError(f"novelty threshold must be > 0, got {self.novelty_threshold}")
        if not 0 <= self.output_half_support < np.inf:
            raise ValueError("output half support must be finite and >= 0")
        # group names become file names (dump-state), so each must be a distinct identifier
        names = [g.name for g in self.groups]
        if not all(isinstance(n, str) and n.isidentifier() for n in names) \
                or len(set(names)) < len(names):
            raise ValueError(f"input group names must be distinct identifiers, got {names}")


@dataclass
class WeightFaults:
    """Stuck-cell plan mirroring distorted crossbar cross-points, drawn by
    crossbar.draw_faults: masked cells hold a fixed value and ignore every write."""

    capacity: int
    in_masks: list
    in_stuck: list
    out_mask: np.ndarray
    out_stuck: np.ndarray


@dataclass
class TrainingStats:
    n_samples: int = 0
    n_minterms_added: int = 0
    add_indices: list = field(default_factory=list)
    errors: np.ndarray | None = None   # each sample's |centroid - target| before its update


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
        # each min-term's stored rows as unit rows side by side (fuzzy.unit_concat),
        # so one GEMM of concatenated unit inputs sums the group cosines
        self._unit = np.zeros((cap, sum(g.universe.count for g in config.groups)))
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

    def unit_rows(self) -> np.ndarray:
        """Each min-term's stored rows, all groups, as fuzzy.unit_concat gives them."""
        return self._unit[: self.n_minterms]

    # --- helpers ----------------------------------------------------------

    def fuzzify(self, points) -> list:
        """(B, count_g) triangular memberships per group of (B, G) crisp points,
        each group at its configured width."""
        return [fuzzy.triangular_matrix(g.universe, points[:, i], g.half_support)
                for i, g in enumerate(self.config.groups)]

    def copy(self) -> "NetworkState":
        dup = copy.copy(self)
        dup._w_in = [w.copy() for w in self._w_in]
        dup._unit = self._unit.copy()
        dup._w_out = self._w_out.copy()
        return dup

    def _store_rows(self, xs, units=None):
        """Store min-terms in one block write, xs[g] their (k, count_g) rows of group g;
        units is fuzzy.unit_concat(xs) where the caller holds it.  The capacity
        doubles as often as the block needs, in one reallocation."""
        n, k = self.n_minterms, len(xs[0])
        if self.faults is not None and n + k > self._capacity:
            raise CapacityExceeded(f"fault plan provisions {self._capacity} min-term rows; "
                                   "all are in use")
        cap = self._capacity
        while cap < n + k:
            cap *= 2
        if cap > self._capacity:
            def grown(a, axis=0):
                b = np.zeros(a.shape[:axis] + (cap,) + a.shape[axis + 1:])
                b[tuple(map(slice, a.shape))] = a
                return b
            self._w_in = [grown(w) for w in self._w_in]
            self._unit, self._w_out, self._capacity = grown(self._unit), grown(self._w_out, 1), cap
        rows = slice(n, n + k)
        for g, (w, x) in enumerate(zip(self._w_in, xs)):
            w[rows] = x if self.faults is None else np.where(
                self.faults.in_masks[g][rows], self.faults.in_stuck[g][rows], x)
        # stuck cells change what is stored, so it is normalized as stored
        self._unit[rows] = (units if units is not None and self.faults is None
                            else fuzzy.unit_concat([w[rows] for w in self._w_in]))
        self.n_minterms += k


# --- forward pass ----------------------------------------------------------


def _hidden(state: NetworkState, units) -> np.ndarray:
    """Hidden activations of rows of concatenated unit inputs (fuzzy.unit_concat)."""
    return fuzzy.power_activation(units @ state.unit_rows().T,
                                  len(state.config.groups), state.config.p)


def output_batch(state: NetworkState, mats, hidden=None, fold=None, readout=None):
    """Raw fuzzy outputs (B, nz) of a batch, scored by fuzzy.score_batch against the
    cached unit rows, or (B, k) with w_out multiplied on the left by a (k, nz) fold;
    hidden, if given, receives the (B, N) activations; readout is score_batch's."""
    if state.n_minterms == 0:
        raise UntrainedNetwork("network has no min-terms yet")
    w_out = state.w_out if fold is None else fold @ state.w_out
    return fuzzy.score_batch(mats, state.unit_rows(), w_out, state.config.p, hidden,
                             readout=readout)


def infer_crisp_batch(state: NetworkState, mats):
    """Vectorized inference over fuzzified batches, the centroid folded into w_out.

    mats[g] is a (B, count_g) matrix of membership rows for group g.  Returns
    (predictions, activated): predictions hold NaN where no output neuron is
    activated, activated is the corresponding boolean mask; each chunk is read out in its lane."""
    fold = fuzzy.centroid_matrix(state.config.output_universe.grid()).T
    return output_batch(state, mats, fold=fold, readout=fuzzy.centroid)


def classify_batch(state: NetworkState, mats):
    """Vectorized argmax classification, each chunk in its lane; -1 where none is activated."""
    return output_batch(state, mats, readout=lambda out: (fuzzy.argmax(out),))[0]


# --- training ---------------------------------------------------------------

# Novelty is checked CHUNK_MAX samples at a time: one GEMM scores a chunk against
# the stored rows, one block write and one GEMM store its adds and their w_out updates,
# and an add costs its new hidden column and a GEMV that folds it into the rows after it.
CHUNK_MAX = 64


def _check_stream(state: NetworkState, mats, targets) -> np.ndarray:
    """Validate a whole stream of (B,) crisp targets before training writes anything,
    the inputs' extremes and row sums block by block in lanes; returns the targets fuzzified."""
    out_u, n = state.config.output_universe, len(targets) if targets.ndim else 0
    want = [(n, g.universe.count) for g in state.config.groups]
    if [X.shape for X in mats] != want or targets.ndim != 1:
        raise UniverseMismatch(f"input shapes {[X.shape for X in mats]} and target shape "
                               f"{targets.shape} do not fit {want} and ({n},) crisp targets")
    # weights must be finite and >= 0, or the state cannot be reloaded: only a block whose
    # extremes fail (NaN fails both) is checked row by row; a row in range is 0 iff it sums to 0
    ok, sums = np.ones((len(mats), n), dtype=bool), np.empty((len(mats), n))

    def block(i, c):
        for x, good, total in zip([X[i:i + c] for X in mats], ok[:, i:i + c], sums[:, i:i + c]):
            if not (x.min() >= 0.0 and x.max() < np.inf):
                good[:] = (x.min(axis=1) >= 0.0) & (x.max(axis=1) < np.inf)
            np.matmul(x, np.ones(x.shape[1]), out=total)
    fuzzy.in_lanes(n, block)
    out_of_range, zero = ~ok.all(axis=0), (sums == 0.0).any(axis=0)
    bad = out_of_range | zero | ~out_u.contains(targets)
    if bad.any():
        k = int(np.argmax(bad))
        if out_of_range[k]:
            raise OperandOutOfRange(f"sample {k}: a membership value is negative or not finite")
        if zero[k]:
            raise ZeroVector(f"sample {k}: all-zero input membership vector")
        raise TargetOutOfRange(f"sample {k}: target {targets[k]} outside output "
                               f"universe [{out_u.lo}, {out_u.hi}]")
    hs = state.config.output_half_support
    try:
        return fuzzy.triangular_matrix(out_u, targets, hs)
    except DegenerateFuzzification as e:
        # the rows triangular_matrix found all zero: every |grid - t| / hs >= 1
        k = int(np.argmax((np.abs(out_u.grid() - targets[:, None]) / hs).min(axis=1) >= 1.0))
        raise DegenerateFuzzification(f"sample {k}: target {targets[k]}: {e}") from e


def _hebbian(state: NetworkState, u, hid, rows):
    """A chunk's Hebbian updates, w_out += alpha * u[rows].T @ hid[rows, :m]; stuck cells +0.0."""
    m = state.n_minterms
    delta = u[rows].T @ hid[rows, :m]
    delta *= state.config.alpha
    if state.faults is not None:
        delta[state.faults.out_mask[:, :m]] = 0.0
    state._w_out[:, :m] += delta


def train_matrix(state: NetworkState, mats, targets) -> TrainingStats:
    """Present fuzzified samples in order: skip the familiar, grow on the novel.

    mats[g] is the (B, count_g) matrix of group g's rows; targets is (B,) crisp, fuzzified
    at the output half support.  The novelty error is the absolute centroid error, inf
    where nothing fires.  Each chunk of CHUNK_MAX samples is scored by one GEMM against
    the stored rows, its outputs projected through P, the centroid matrix.  An add at
    chunk row b takes its hidden column from the chunk's self-activations (pristine) or
    the row as stored (faulted) and folds its update into the rows after b, without
    faults as the rank-1 (hid @ v) (x) alpha * (u @ P); row b + 1 is then checked alone,
    as scalars.  The chunk's added rows are stored in one block write at its end, then
    w_out gets their updates in one masked GEMM, in a lane if it is large (fuzzy.in_lane),
    joined before the next chunk reads w_out, at the end and on any raise.  The result is
    that of presenting the samples one at a time.  The stream is validated first: an
    invalid sample k raises with "sample k" and changes nothing; a fault plan out of rows
    at sample k raises CapacityExceeded, samples 0..k-1 trained.
    """
    cfg, faults = state.config, state.faults
    targets = np.asarray(targets, dtype=np.float64)
    mats = [np.asarray(X, dtype=np.float64) for X in mats]
    fuzzy_targets = _check_stream(state, mats, targets)
    n = len(targets)
    units = fuzzy.unit_concat(mats)
    stats = TrainingStats(n_samples=n, errors=np.full(n, np.inf))
    proj = fuzzy.centroid_matrix(cfg.output_universe.grid())
    hebb = cfg.alpha * (fuzzy_targets @ proj)
    joins = []   # of the last chunk's w_out update (fuzzy.in_lane), popped as it is joined
    try:
        for i in range(0, n, CHUNK_MAX):
            stop, n0 = min(i + CHUNK_MAX, n), state.n_minterms
            # the chunk's activations, one contiguous block (numpy runs 2.4x slower on a strided
            # view of hid); a min-term added at chunk row b fills its column from row b, 0 above
            act = _hidden(state, units[i:stop])
            hid = np.empty((stop - i, n0 + stop - i))
            hid[:, :n0], hid[:, n0:] = act, 0.0
            while joins:   # the last chunk's w_out update, which this chunk reads from here on
                joins.pop()()
            out = act @ (proj.T @ state.w_out).T
            start, b, selfs, adds = 0, None, None, []
            try:
                while start < stop - i:
                    if b is None:
                        # in place: a row that does not fire keeps its inf, as no add lowers
                        # a denominator (hidden values, targets and stuck weights are >= 0)
                        err = fuzzy.centroid(out[start:], out=stats.errors[i + start:stop])[0]
                        np.abs(np.subtract(err, targets[i + start:stop], out=err), out=err)
                        # the first novel row; an overflowed centroid (NaN) is novel, reads inf
                        k = int((err < cfg.novelty_threshold).argmin())
                        if err[k] < cfg.novelty_threshold:
                            break
                        err[k] = min(np.inf, err[k])   # NaN < inf is false, so min keeps inf
                        b = start + k
                    j, start, m = i + b, b + 1, n0 + len(adds)
                    if faults is not None and m == faults.capacity:
                        raise CapacityExceeded(f"sample {j}: fault plan provisions {m} "
                                               "min-term rows; all are in use")
                    stats.add_indices.append(m)
                    adds.append(b)
                    h = hid[b, :m + 1]
                    if faults is None:
                        # the stored row copies the input: its column is a self-activation
                        if selfs is None:
                            b0, selfs = b, fuzzy.power_activation(
                                units[j:stop] @ units[j:stop].T, len(cfg.groups), cfg.p)
                        hid[b:, m] = selfs[b - b0:, b - b0]
                        out[start:] += (hid[start:, :m + 1] @ h)[:, None] * hebb[j]
                    else:
                        # scored against the row as stored, whose stuck cells hold weight
                        rows = [np.where(faults.in_masks[g][m], faults.in_stuck[g][m],
                                         X[j:j + 1]) for g, X in enumerate(mats)]
                        hid[b:, m] = fuzzy.power_activation(
                            units[j:stop] @ fuzzy.unit_concat(rows)[0], len(cfg.groups), cfg.p)
                        delta = cfg.alpha * np.outer(fuzzy_targets[j], h)
                        delta[faults.out_mask[:, :m + 1]] = 0.0
                        out[start:] += np.outer(hid[start:, m], state._w_out[:, m] @ proj)
                        out[start:] += hid[start:, :m + 1] @ (delta.T @ proj)
                    b = None
                    if start < stop - i:   # the row after an add, checked alone as scalars
                        num, den = out[start].tolist()
                        e = min(np.inf, abs(num / den - targets[j + 1])) if den > 0 else np.inf
                        stats.errors[j + 1] = e
                        if e < cfg.novelty_threshold:
                            start += 1     # familiar: the tail scan goes on after it
                        else:
                            b = start
            finally:  # the chunk's rows, then its w_out updates, each written at once
                if adds:
                    state._store_rows([X[i:stop][adds] for X in mats], units[i:stop][adds])
                    joins.append(fuzzy.in_lane(len(proj) * len(adds) * state.n_minterms,
                                               _hebbian, state, fuzzy_targets[i:stop], hid, adds))
    finally:
        while joins:
            joins.pop()()
    stats.n_minterms_added = len(stats.add_indices)
    return stats


def train_one(state: NetworkState, inputs, target_crisp: float) -> TrainingStats:
    """train_dataset of one sample."""
    return train_dataset(state, [(inputs, target_crisp)])


def train_dataset(state: NetworkState, samples) -> TrainingStats:
    """train_matrix over (inputs, crisp target) pairs, inputs one MembershipVector per group."""
    samples = list(samples)
    groups = state.config.groups
    # train_matrix checks the values; the universes are checked here
    for i, (inputs, _) in enumerate(samples):
        if len(inputs) != len(groups):
            raise UniverseMismatch(f"sample {i}: expected {len(groups)} input groups, "
                                   f"got {len(inputs)}")
        for g, mv in zip(groups, inputs):
            if mv.universe != g.universe:
                raise UniverseMismatch(f"sample {i}: input universe does not match "
                                       f"group {g.name!r}")
    mats = [np.array([inputs[g].values for inputs, _ in samples]).reshape(
                len(samples), grp.universe.count) for g, grp in enumerate(groups)]
    return train_matrix(state, mats, np.array([float(t) for _, t in samples]))


# --- serialization ----------------------------------------------------------


def serialize(state: NetworkState) -> bytes:
    """Versioned binary container; weight round-trips are bit-exact.  Its meta header is
    the format tag, the NetworkConfig as dataclasses.asdict (its field order is the v1
    key order), then the Hebbian rule, the min-term count and the fault flag."""
    meta = {"format": _FORMAT, **asdict(state.config), "hebbian_tnorm": _HEBBIAN,
            "n_minterms": state.n_minterms, "has_faults": state.faults is not None}
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


def _array(data, key: str, shape: tuple, mask: bool = False) -> np.ndarray:
    """data[key] of the given shape: bool for a mask, else finite and non-negative."""
    a = data[key]
    ok = a.dtype == bool if mask else (
        a.dtype.kind == "f" and np.isfinite(a).all() and (a >= 0.0).all())
    if a.shape != shape or not ok:
        raise MalformedPayload(f"{key}: {a.dtype} {a.shape} is no {shape} "
                               f"{'mask' if mask else 'array of finite non-negative weights'}")
    return a


def deserialize(payload: bytes) -> NetworkState:
    try:
        data = np.load(io.BytesIO(payload), allow_pickle=False)
        meta = json.loads(bytes(data["meta"]).decode())
    except Exception as e:
        raise MalformedPayload(f"cannot parse state container: {e}") from e
    if not isinstance(meta, dict):
        raise MalformedPayload("state meta is not a JSON object")
    if meta.get("format") != _FORMAT:
        raise VersionMismatch(f"unsupported state format {meta.get('format')!r}")
    try:
        if meta["hebbian_tnorm"]["kind"] != _HEBBIAN["kind"]:
            raise MalformedPayload(f"unsupported Hebbian rule {meta['hebbian_tnorm']!r}: "
                                   "the update is alpha * v_j * u_i")
        kw = {f.name: meta[f.name] for f in fields(NetworkConfig)}
        groups = tuple(InputGroup(**{**g, "universe": Universe(**g["universe"])})
                       for g in kw.pop("groups"))
        config = NetworkConfig(groups, Universe(**kw.pop("output_universe")), **kw)
        n, nz = int(meta["n_minterms"]), config.output_universe.count
        counts = [g.universe.count for g in groups]
        faults = None
        if meta["has_faults"]:
            cap = int(data["fault_capacity"][0])
            if n > cap:
                raise MalformedPayload(f"{n} min-terms exceed the fault plan's {cap} rows")
            faults = WeightFaults(
                capacity=cap,
                in_masks=[_array(data, f"fault_in_mask_{g}", (cap, c), mask=True)
                          for g, c in enumerate(counts)],
                in_stuck=[_array(data, f"fault_in_stuck_{g}", (cap, c))
                          for g, c in enumerate(counts)],
                out_mask=_array(data, "fault_out_mask", (nz, cap), mask=True),
                out_stuck=_array(data, "fault_out_stuck", (nz, cap)),
            )
        state = NetworkState(config, faults=faults)
        state._store_rows([_array(data, f"w_in_{g}", (n, c)) for g, c in enumerate(counts)])
        state._w_out[:, :n] = _array(data, "w_out", (nz, n))
    except (KeyError, IndexError, ValueError, TypeError, EmptyRange) as e:
        raise MalformedPayload(f"state container is missing or corrupt: {e}") from e
    return state
