"""Span tracing of the neurofuzzy layers from outside the package.

install() replaces every public function of each layer module with a
wrapper that records a span (name, parent, start, end) and, where the call
carries a natural work count, that count.  A function imported by name into
another module (experiments.triangular_matrix, crossbar.cosines, ...) is
replaced at that binding too.  Spans stay in memory and are written out at
the end; self times are derived from them afterwards.  Each thread keeps its
own span stack, so spans from `suite --jobs` workers nest correctly.
"""

import functools
import inspect
import threading
import time
from array import array

import numpy as np

LAYERS = ("benchmarks", "fuzzy", "network", "crossbar", "experiments", "cli")


def _rows(res):
    return res.shape[0]


def _first_rows(args, kwargs, res):
    mats = args[1] if len(args) > 1 else kwargs.get("mats")
    return mats[0].shape[0]


def _device_steps(args, kwargs, res):
    # delta_weight_sweep(params, r_f, voltages, duration, dt) returns
    # (volts, delta_w); only devices above threshold take Euler steps
    params = args[0] if args else kwargs.get("params")
    duration = args[3] if len(args) > 3 else kwargs.get("duration", 0.05)
    dt = args[4] if len(args) > 4 else kwargs.get("dt")
    if params is None:
        from neurofuzzy.crossbar import MemristorParams
        params = MemristorParams()
    dt = params.dt if dt is None else dt
    volts = res[0]
    return int((np.abs(volts) > params.v_threshold).sum()) * int(round(duration / dt))


def _cells_programmed(args, kwargs, res):
    return sum(int((~cb.fault_mask).sum()) for cb in res[:2])


# work counts per wrapped function: (args, kwargs, result) -> (work_a, work_b)
WORK = {
    "fuzzy.triangular_matrix": lambda a, k, r: (_rows(r), 0),
    "fuzzy.fuzzify_triangular": lambda a, k, r: (1, 0),
    "fuzzy.cosines": lambda a, k, r: (a[0].shape[0] * a[0].shape[1], 0),
    "fuzzy.pair_cosine": lambda a, k, r: (1, 0),
    "network.infer_crisp_batch": lambda a, k, r: (_first_rows(a, k, r), 0),
    "network.classify_batch": lambda a, k, r: (_first_rows(a, k, r), 0),
    "network.forward": lambda a, k, r: (1, 0),
    "network.infer_crisp": lambda a, k, r: (1, 0),
    "network.classify": lambda a, k, r: (1, 0),
    "network.train_dataset": lambda a, k, r: (r.n_samples, r.n_minterms_added),
    "network.serialize": lambda a, k, r: (len(r), 0),
    "network.deserialize": lambda a, k, r: (len(a[0]), 0),
    "crossbar.map_network": lambda a, k, r: (_cells_programmed(a, k, r), 0),
    "crossbar.crossbar_forward_batch": lambda a, k, r: (r.shape[0], 0),
    "crossbar.vmm": lambda a, k, r: (1, 0),
    "crossbar.delta_weight_sweep": lambda a, k, r: (_device_steps(a, k, r), 0),
}

# span names grouped into the per-layer figures
FUZZIFY = ("fuzzy.triangular_matrix", "fuzzy.fuzzify_triangular")
COSINE = ("fuzzy.pow2_scale", "fuzzy.cosines", "fuzzy.pair_cosine", "fuzzy.similarity")
COSINE_CALLS = ("fuzzy.cosines", "fuzzy.pair_cosine")
INFER = ("network.forward", "network.infer_crisp", "network.classify",
         "network.infer_crisp_batch", "network.classify_batch")
READ = ("crossbar.crossbar_forward_batch", "crossbar.crossbar_forward",
        "crossbar.crossbar_infer_crisp_batch", "crossbar.vmm")
DEVICE = ("crossbar.delta_weight_sweep", "crossbar.step_device", "crossbar.pulse_device",
          "crossbar.program_row", "crossbar.hebbian_pulse")
RUNS = ("experiments.run_modeling", "experiments.run_classification",
        "experiments.rebuild_trained_state")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work_a = array("d")
        self.work_b = array("d")
        self.worker = array("b")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    # --- recording -------------------------------------------------------------

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        work = WORK.get(qualname)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tr._local, "stack", None)
            if stack is None:
                main = threading.current_thread() is threading.main_thread()
                stack = tr._local.stack = tr._main_stack if main else []
            # a worker thread's outermost span hangs under the main thread's
            # innermost open span, which is the one waiting for it
            worker = not stack and stack is not tr._main_stack
            with tr._lock:
                idx = len(tr.start)
                tr.name.append(nid)
                if stack:
                    tr.parent.append(stack[-1])
                else:
                    tr.parent.append(tr._main_stack[-1] if worker and tr._main_stack else -1)
                tr.worker.append(worker)
                tr.end.append(0.0)
                tr.work_a.append(0.0)
                tr.work_b.append(0.0)
                tr.start.append(time.perf_counter())
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                tr.end[idx] = time.perf_counter()
                stack.pop()
            if work is not None:
                tr.work_a[idx], tr.work_b[idx] = work(args, kwargs, res)
            return res

        return wrapper

    def install(self):
        pkg = self.package
        modules = [pkg] + [getattr(pkg, layer) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def mark(self):
        """Span count so far; passes are delimited by two marks."""
        return len(self.start)

    # --- analysis --------------------------------------------------------------

    def _arrays(self, lo, hi):
        """Name ids, self times and work counts of spans lo..hi.

        Self time is a span's duration minus the time its children cover.
        Children in the same thread run one after another, so their durations
        add up; the children a worker pool runs for one parent overlap, so
        their union is taken.
        """
        name = np.frombuffer(self.name[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        start = np.frombuffer(self.start[lo:hi], dtype=np.float64)
        end = np.frombuffer(self.end[lo:hi], dtype=np.float64)
        worker = np.frombuffer(self.worker[lo:hi], dtype=np.int8).astype(bool)
        dur = end - start
        child = np.zeros(hi - lo)
        same = (parent >= 0) & ~worker
        np.add.at(child, parent[same], dur[same])
        for p in np.unique(parent[(parent >= 0) & worker]):
            kids = np.flatnonzero((parent == p) & worker)
            covered, reach = 0.0, -np.inf
            for s, e in sorted(zip(start[kids], end[kids])):
                if e > reach:
                    covered += e - max(s, reach)
                    reach = e
            child[p] += covered
        work = (np.frombuffer(self.work_a[lo:hi], dtype=np.float64),
                np.frombuffer(self.work_b[lo:hi], dtype=np.float64))
        return name, dur - child, work

    def pass_metrics(self, lo, hi):
        """Per-layer figures of the spans recorded between two marks."""
        name, self_s, (wa, wb) = self._arrays(lo, hi)
        names = np.array(self.names + [""])
        label = names[name] if name.size else np.array([], dtype=names.dtype)
        layer = np.array([n.split(".")[0] for n in label])

        def pick(which):
            return np.isin(label, which)

        def total(values, which):
            return float(values[pick(which)].sum())

        m = {}
        for lay in LAYERS:
            m[f"{lay}.self_s"] = float(self_s[layer == lay].sum())
        m["benchmarks.gen_s"] = m["benchmarks.self_s"]
        m["benchmarks.gen_calls"] = int((layer == "benchmarks").sum())
        m["fuzzy.fuzzify_s"] = total(self_s, FUZZIFY)
        m["fuzzy.fuzzify_rows"] = int(total(wa, FUZZIFY))
        m["fuzzy.cosine_s"] = total(self_s, COSINE)
        m["fuzzy.cosine_calls"] = int(pick(COSINE_CALLS).sum())
        m["fuzzy.cosine_pairs"] = int(total(wa, COSINE_CALLS))
        train = np.char.startswith(label.astype(str), "network.train")
        m["network.train_self_s"] = float(self_s[train].sum())
        samples = total(wa, ("network.train_dataset",))
        added = total(wb, ("network.train_dataset",))
        m["network.samples"] = int(samples)
        m["network.minterms_added"] = int(added)
        m["network.skip_ratio"] = (samples - added) / samples if samples else 0.0
        m["network.infer_self_s"] = total(self_s, INFER)
        m["network.infer_rows"] = int(total(wa, INFER))
        m["network.infer_calls"] = int(pick(INFER).sum())
        m["network.serialize_s"] = total(self_s, ("network.serialize",))
        m["network.deserialize_s"] = total(self_s, ("network.deserialize",))
        m["network.state_bytes"] = int(total(wa, ("network.serialize",)))
        m["crossbar.map_s"] = total(self_s, ("crossbar.map_network",))
        m["crossbar.cells_programmed"] = int(total(wa, ("crossbar.map_network",)))
        m["crossbar.read_self_s"] = total(self_s, READ)
        m["crossbar.read_rows"] = int(total(wa, ("crossbar.crossbar_forward_batch", "crossbar.vmm")))
        m["crossbar.device_s"] = total(self_s, DEVICE)
        m["crossbar.device_steps"] = int(total(wa, DEVICE))
        m["experiments.runs"] = int(pick(RUNS).sum())
        m["cli.commands"] = int(pick(("cli.main",)).sum())
        m["trace.spans"] = int(hi - lo)
        return m

    def trainings_under(self, lo, hi, command):
        """network.train_dataset spans under each span named `command`.

        Returns the largest count; `cli.cmd_model` with --surface or
        --save-state shows whether one model command trains more than once.
        """
        name = np.frombuffer(self.name[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        ids = {n: i for i, n in enumerate(self.names)}
        counts = {}
        for idx in np.flatnonzero(name == ids["network.train_dataset"]):
            p = parent[idx]
            while p >= 0 and name[p] != ids[command]:
                p = parent[p]
            if p >= 0:
                counts[int(p)] = counts.get(int(p), 0) + 1
        return max(counts.values(), default=0)

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 work_a=np.frombuffer(self.work_a, dtype=np.float64),
                 work_b=np.frombuffer(self.work_b, dtype=np.float64),
                 worker=np.frombuffer(self.worker, dtype=np.int8))
