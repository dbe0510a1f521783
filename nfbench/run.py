#!/usr/bin/env python3
"""Run one neurofuzzy benchmark workload and print its metrics as JSON.

    python3 nfbench/run.py --workload readout --seed 1 --seconds 20 --trace 0

The program is imported from src/ of the checkout this file sits in.  A run
sets up its inputs several times (the median is setup_s), then repeats whole
passes of its operations until --seconds have gone by, checks the outputs of
the first pass against independent references and the outputs of every
later pass against the first, and prints one JSON object as the last line of
standard output.  --trace 1 spends the first half of the time untraced and
the second half with every layer wrapped, and reports per-layer figures and
the tracing overhead instead of the end-to-end metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "run_s": "s", "train_samples_per_s": "1/s",
    "test_points_per_s": "1/s", "crossbar_points_per_s": "1/s",
    "device_steps_per_s": "1/s", "peak_rss_mib": "MiB",
}
# per-layer figures of the traced set-up, reported with a "setup." prefix
SETUP_LAYER_METRICS = ("benchmarks.gen_s", "benchmarks.gen_calls", "fuzzy.fuzzify_s",
                       "fuzzy.fuzzify_rows", "fuzzy.cosine_s", "network.train_self_s",
                       "network.samples", "experiments.self_s")
RATE_KINDS = {"train_samples_per_s": "train", "test_points_per_s": "score",
              "crossbar_points_per_s": "crossbar", "device_steps_per_s": "device"}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def fail(msg):
    print(f"nfbench: {msg}", file=sys.stderr)
    return 2


def import_once():
    """A fresh interpreter importing the package, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import neurofuzzy.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)


def timed(fn, calibrate):
    """(seconds, calibration before, calibration after) of fn()."""
    before = calibrate()
    t0 = time.perf_counter()
    fn()
    dt = time.perf_counter() - t0
    return dt, before, calibrate()


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def set_up(nf, args, tracer, wlmod):
    """Import and set up several times; a traced run traces one more set-up.

    Returns the workload, the import and set-up timings (seconds and the
    calibrations around them) and the span range of the traced set-up.
    """
    imports = [timed(import_once, wlmod.calibrate) for _ in range(IMPORT_REPEATS)]
    setups, setup_spans, wl = [], None, None
    for rep in range(SETUP_REPEATS + args.trace):
        if wl is not None:
            wl.close()
        wl = wlmod.WORKLOADS[args.workload](nf, args.seed, tiny=args.tiny, workdir=RESULTS)
        if rep < SETUP_REPEATS:
            setups.append(timed(wl.setup, wlmod.calibrate))
            continue
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()
        setup_spans = (0, tracer.mark())
    return wl, imports, setups, setup_spans


def run_passes(wl, args, tracer, wlmod):
    """A warm-up pass, then whole passes until --seconds are over.

    A traced run spends the second half of the time traced.  Returns the
    passes, the first pass that did not fail (its outputs are checked), and
    whether every later pass reproduced it exactly.
    """
    phases = [("warmup", 0.0)] + ([("plain", args.seconds / 2), ("traced", args.seconds / 2)]
                                   if args.trace else [("plain", args.seconds)])
    passes, first, repeats_ok = [], None, True
    for phase, span in phases:
        if phase == "traced":
            tracer.install()
        try:
            deadline = time.perf_counter() + span
            while True:
                log = wlmod.PassLog()
                lo = tracer.mark()
                try:
                    wl.run_pass(log)
                except Exception:  # a failed operation is counted, and the run goes on
                    traceback.print_exc(file=sys.stderr)
                    log.abort(wl.ops_per_pass)
                log.phase, log.spans = phase, (lo, tracer.mark())
                if log.failed == 0:
                    if first is None:
                        first = log
                    else:
                        repeats_ok &= wlmod.same(first.fp, log.fp)
                        log.out = log.fp = None
                passes.append(log)
                if time.perf_counter() >= deadline:
                    break
        finally:
            tracer.uninstall()
    return passes, first, repeats_ok


def check_run(wl, first, repeats_ok, reference):
    chk = reference.Checks()
    chk.check(first is not None, "no pass completed")
    chk.check(repeats_ok, "a later pass did not reproduce the first pass exactly")
    if first is not None:
        try:
            wl.check({**first.out, "fp": first.fp}, chk)
        except Exception as e:  # a check that raises is a failed check
            traceback.print_exc(file=sys.stderr)
            chk.check(False, f"checks raised {type(e).__name__}: {e}")
    for what in chk.failures:
        print(f"nfbench: CHECK FAILED: {what}", file=sys.stderr)
    return chk


def end_to_end(passes, imports, setups, peak_rss_mib, wlmod):
    plain = [p for p in passes if p.phase == "plain" and p.failed == 0]
    kinds = wlmod.typical_pass(plain) if plain else {}
    values = {"setup_s": statistics.median(wlmod.calibrated(*t) for t in imports)
              + statistics.median(wlmod.calibrated(*t) for t in setups),
              "run_s": sum(t for _, t in kinds.values()) or None,
              "peak_rss_mib": peak_rss_mib}
    for metric, kind in RATE_KINDS.items():
        work, seconds = kinds.get(kind, (None, None))
        values[metric] = work / seconds if seconds else None
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def per_layer(passes, tracer, setup_spans, wlmod):
    """Per-pass medians of the traced passes' figures, the tracing overhead,
    and the figures of the traced set-up."""
    traced = [p for p in passes if p.phase == "traced" and p.failed == 0]
    plain = [p for p in passes if p.phase == "plain" and p.failed == 0]
    figures = [tracer.pass_metrics(*p.spans) for p in traced]
    metrics = {k: statistics.median(f[k] for f in figures) for k in figures[0]} if figures else {}
    run_traced, run_plain = (sum(t for _, t in wlmod.typical_pass(ps, raw=True).values())
                             if ps else None for ps in (traced, plain))
    metrics["trace.run_s_traced"] = run_traced
    metrics["trace.run_s_untraced"] = run_plain
    metrics["trace.overhead_s"] = (run_traced - run_plain) \
        if run_traced is not None and run_plain is not None else None
    metrics["cli.model_trainings"] = max(
        (tracer.trainings_under(*p.spans, "cli.cmd_model") for p in traced), default=0)
    setup = tracer.pass_metrics(*setup_spans)
    for key in SETUP_LAYER_METRICS:
        metrics[f"setup.{key}"] = setup[key]
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "neurofuzzy" / "__init__.py").is_file():
        return fail(f"no neurofuzzy package under {SRC}")
    if args.seed < 0:
        return fail("--seed must be >= 0")
    # One BLAS thread: suite --jobs runs nproc worker threads, so the
    # cli-session stays within nproc threads, and no idle BLAS thread spins
    # on a core the timed thread needs.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import neurofuzzy as nf
    import neurofuzzy.cli  # noqa: F401  (the package does not import its CLI)
    if Path(nf.__file__).resolve().parent != SRC / "neurofuzzy":
        return fail(f"imported neurofuzzy from {nf.__file__}, not from {SRC}")
    import reference
    import tracer as tracing
    import workloads as wlmod

    if args.workload not in wlmod.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(wlmod.WORKLOADS)}")
    RESULTS.mkdir(exist_ok=True)
    info = machine_info()
    tracer = tracing.Tracer(nf)
    wl, imports, setups, setup_spans = set_up(nf, args, tracer, wlmod)
    try:
        passes, first, repeats_ok = run_passes(wl, args, tracer, wlmod)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        chk = check_run(wl, first, repeats_ok, reference)
    finally:
        wl.close()

    if args.trace:
        metrics = per_layer(passes, tracer, setup_spans, wlmod)
        tracer.save(RESULTS / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = end_to_end(passes, imports, setups, peak_rss_mib, wlmod)
    result = {"correct": chk.correct, "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "passes": len(passes),
              "import_s": imports, "setup_s": setups, "checks_passed": chk.passed,
              "pass_ops": [[o[1:3] for o in p.ops] for p in passes],
              "pass_cals": [p.cals for p in passes],
              "check_failures": chk.failures, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"machine": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
