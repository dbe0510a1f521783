#!/usr/bin/env python3
"""End-to-end benchmark figures: each nfbench workload run several times, as medians.

Runs `nfbench/run.py --trace 0` --repeats times (at least 5) per workload, seeds
1 to --repeats, and writes a JSON file with each end-to-end metric's median and
quartiles over the runs and each run's figure (values, in seed order), whether
every run was correct and how many operations failed, the machine info nfbench
reports, the summary of
scripts/fingerprint.py, src_lines, the line count of src/neurofuzzy/*.py, and
host_parallel and cpu_seconds at the start and the end of the run (see below).
With --baseline DIR another checkout (the parent commit, say) runs the same
runs, alternating with this one run by run, and its figures and src_lines are
recorded next to them; each metric of this checkout then also
records how many of the seed-matched pairs it won, by the direction
BENCHMARK.json gives it (a tie wins for neither), each pair's ratio (this
checkout's figure over the baseline's), a bootstrap 95% interval of the median
ratio, and whether the claim rule holds (see claim below).  Per workload and checkout,
ops_uncalibrated_s holds each nfbench operation's (run_modeling, say) median raw
time, read from the result file each run writes, without nfbench's calibration.
With --baseline, ops_uncalibrated_pairs holds, per operation, each seed-matched
pair's raw-time ratio (this checkout's over the baseline's) and the pairs this
checkout won (the lower time wins), so a claim shows which operation moved.
After the timed runs, each checkout runs `nfbench/run.py --trace 1` once per
workload, on seed --repeats + 1, which no timed run used; per_layer holds the
per-layer figures that run reports, as reported, with the baseline's value
beside each, and whether the traced run was correct.

    python scripts/bench.py --out BENCH_<n>.json [--seconds 20] [--repeats 5] \\
        [--workloads train-novel,readout] [--baseline DIR]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-familiar", "train-novel", "readout", "cli-session")


def run(checkout: Path, argv, **env):
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, capture_output=True,
                          text=True, env={**os.environ, **env})
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def nfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0):
    """(machine info, result) of one nfbench run, untraced unless trace is 1: its last
    two output lines, the result with op_s, op_seconds of the result file the run wrote."""
    rc, lines, err = run(checkout, ["nfbench/run.py", "--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", str(trace)])
    if rc != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: nfbench {workload} seed {seed} exited {rc}\n{err}")
    path = checkout / "nfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result = {**json.loads(lines[-1]), "op_s": op_seconds(json.loads(path.read_text()))}
    return json.loads(lines[-2])["machine"], result


def op_seconds(result_file: dict) -> dict:
    """Each operation's median raw time in an nfbench result file's pass_ops, the
    warm-up pass dropped.  Raw: not calibrated, unlike nfbench's own figures."""
    times = {}
    for ops in result_file["pass_ops"][1:]:
        for name, seconds in ops:
            times.setdefault(name, []).append(seconds)
    return {name: statistics.median(ts) for name, ts in times.items()}


def fingerprint(checkout: Path) -> dict:
    """scripts/fingerprint.py's exit code and its one-line-per-file summary."""
    rc, lines, _ = run(checkout, ["scripts/fingerprint.py"], PYTHONPATH="src")
    return {"exit": rc, "summary": [s for s in lines if not s.startswith(("differs", " "))]}


def src_lines(checkout: Path) -> int:
    """Lines of the package's modules, src/neurofuzzy/*.py, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "neurofuzzy").glob("*.py"))


def spin(n: int) -> float:
    """Seconds a fixed CPU-bound pure-Python loop of n steps takes."""
    start = time.perf_counter()
    x = 0
    for i in range(n):
        x ^= i
    return time.perf_counter() - start


# a child process's preamble: it loads this file as the module bench; argv[2] is n
CHILD = ("import importlib.util, os, sys\n"
         "spec = importlib.util.spec_from_file_location('bench', sys.argv[1])\n"
         "bench = importlib.util.module_from_spec(spec)\n"
         "spec.loader.exec_module(bench)\n")


def host_parallel(n: int = 4_000_000) -> float:
    """Twice spin(n)'s time alone over its time while a second copy runs in another
    process: about 2 when the host gives this run two cores, about 1 when it gives one.

    On a shared host this can change within the hour, and the figures of code that
    runs on two cores (score_batch's lanes) change with it."""
    alone = spin(n)
    code = CHILD + "print(flush=True)\nbench.spin(4 * int(sys.argv[2]))\n"
    # the copy outlasts the timed loop on one core too, and is killed after it
    with subprocess.Popen([sys.executable, "-c", code, __file__, str(n)],
                          stdout=subprocess.PIPE) as other:
        try:
            other.stdout.readline()
            shared = spin(n)
        finally:
            other.kill()
    return 2.0 * alone / shared


def cpu_seconds(n: int = 4_000_000) -> dict | None:
    """spin(n)'s seconds in a child process pinned (os.sched_setaffinity, in the child
    only) to each CPU this process may use, one after another, by CPU number, and the
    slowest over the fastest; None where the platform cannot pin.  Lanes on two CPUs
    finish at the slower one's pace, so a two-lane figure moves with max_over_min."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    code = CHILD + ("os.sched_setaffinity(0, {int(sys.argv[3])})\n"
                    "print(bench.spin(int(sys.argv[2])))\n")
    seconds = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        proc = subprocess.run([sys.executable, "-c", code, __file__, str(n), str(cpu)],
                              capture_output=True, text=True, check=True)
        seconds[str(cpu)] = float(proc.stdout)
    return {"seconds": seconds, "max_over_min": max(seconds.values()) / min(seconds.values())}


def directions() -> dict:
    """Each end-to-end metric's better direction, "higher" or "lower", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def won(value: float, other: float, better: str) -> bool:
    return value > other if better == "higher" else value < other


def claim(values, others, better: str, draws: int = 10_000) -> dict:
    """Seed-matched figures of a change (values) against a baseline's (others): the
    pairs the change won, each pair's ratio value / other, a bootstrap 95% interval
    of the median ratio (draws resamples of the pairs, numpy at seed 0), and whether
    the claim rule holds: at least 9 in 10 pairs won, and a median better than the
    baseline's by more than the baseline's q3 - q1."""
    ratios = np.asarray(values, dtype=float) / np.asarray(others, dtype=float)
    medians = np.median(np.random.default_rng(0).choice(ratios, (draws, len(ratios))), axis=1)
    pairs_won = sum(won(v, o, better) for v, o in zip(values, others))
    base = spread(others)
    gain = statistics.median(values) - base["median"]
    return {"pairs_won": pairs_won, "ratios": ratios.tolist(),
            "median_ratio_ci95": np.percentile(medians, [2.5, 97.5]).tolist(),
            "claim_holds": bool(10 * pairs_won >= 9 * len(ratios)
                                and (gain if better == "higher" else -gain) > base["q3"] - base["q1"])}


def figures(results: dict, baseline: dict | None = None) -> dict:
    """Per workload: each metric's median and quartiles over its runs and each run's
    figure, the run count, whether every run was correct, the failed operations of all
    runs, and the median and quartiles over the runs of each operation's op_s.  Given
    the baseline's runs of the same seeds, each metric also holds its claim figures."""
    out, better = {}, directions()
    for workload, runs in results.items():
        metrics, values = {}, {}
        for name, m in runs[0]["metrics"].items():
            values[name] = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {**spread(values[name]), "unit": m["unit"]}
            if baseline is not None:
                others = [r["metrics"][name]["value"] for r in baseline[workload]]
                metrics[name].update(claim(values[name], others, better[name]))
        ops = op_times(runs)
        out[workload] = {"runs": len(runs), "correct": all(r["correct"] for r in runs),
                         "failed": sum(r["failed"] for r in runs), "metrics": metrics,
                         "values": values,
                         "ops_uncalibrated_s": {name: spread(ts) for name, ts in ops.items()}}
        if baseline is not None:
            # which operation moved: lower raw times win, each seed against its own
            others = op_times(baseline[workload])
            out[workload]["ops_uncalibrated_pairs"] = {
                name: {k: v for k, v in claim(ts, others[name], "lower").items()
                       if k in ("pairs_won", "ratios")}
                for name, ts in ops.items() if len(others.get(name, ())) == len(ts)}
    return out


def per_layer(traced: dict, baseline: dict | None = None) -> dict:
    """Per workload: whether its traced run was correct, and each per-layer figure it
    reported, with the baseline's traced value beside it when there is one."""
    out = {}
    for workload, result in traced.items():
        metrics = {name: dict(m) for name, m in result["metrics"].items()}
        if baseline is not None:
            for name, m in metrics.items():
                m["baseline"] = baseline[workload]["metrics"].get(name, {}).get("value")
        out[workload] = {"correct": result["correct"], "failed": result["failed"],
                         "metrics": metrics}
    return out


def op_times(runs) -> dict:
    """Each operation's op_s over the runs, in run (seed) order."""
    ops = {}
    for r in runs:
        for name, seconds in r.get("op_s", {}).items():
            ops.setdefault(name, []).append(seconds)
    return ops


def spread(values) -> dict:
    """Median and quartiles of a list of figures."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--baseline", type=Path, help="another checkout to run alternately")
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("--repeats must be at least 5: a median of fewer runs says little")
    workloads = args.workloads.split(",")
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {', '.join(unknown)}; known: {', '.join(WORKLOADS)}")
    checkouts = [ROOT] + ([args.baseline.resolve()] if args.baseline else [])
    parallel_at_start, cpus_at_start = host_parallel(), cpu_seconds()
    results = {c: {w: [] for w in workloads} for c in checkouts}
    machine = None
    for seed in range(1, args.repeats + 1):
        for workload in workloads:
            # the checkouts take turns going first
            for c in checkouts[::1 if seed % 2 else -1]:
                machine, result = nfbench(c, workload, seed, args.seconds)
                results[c][workload].append(result)
                print(f"{c.name} {workload} seed {seed}: correct {result['correct']}, "
                      f"failed {result['failed']}", file=sys.stderr)
    traced_seed, traced = args.repeats + 1, {c: {} for c in checkouts}
    for workload in workloads:
        for c in checkouts:
            result = traced[c][workload] = nfbench(c, workload, traced_seed, args.seconds, 1)[1]
            print(f"{c.name} {workload} seed {traced_seed} traced: correct {result['correct']}, "
                  f"failed {result['failed']}", file=sys.stderr)
    baseline = results[checkouts[1]] if args.baseline else None
    report = {"seconds": args.seconds, "seeds": list(range(1, args.repeats + 1)),
              "machine": machine, "fingerprint": fingerprint(ROOT), "src_lines": src_lines(ROOT),
              "host_parallel": {"start": parallel_at_start, "end": host_parallel()},
              "cpu_seconds": {"start": cpus_at_start, "end": cpu_seconds()},
              "workloads": figures(results[ROOT], baseline),
              "per_layer": {"seed": traced_seed, "workloads": per_layer(
                  traced[ROOT], traced[checkouts[1]] if args.baseline else None)}}
    if args.baseline:
        report["baseline"] = {"commit": commit(checkouts[1]), "src_lines": src_lines(checkouts[1]),
                              "workloads": figures(baseline)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
