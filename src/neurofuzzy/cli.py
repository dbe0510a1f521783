"""Command-line entry point.

Subcommands: model, classify, noise, fault, suite, crossbar-compare,
dump-state.  Every run's configuration comes from one resolver, resolve():
flags > config file > defaults, with the crossbar set-up read from the
[crossbar] section by _crossbar_setup alone.  The config file is INI-style
with [network], [experiment] and [crossbar] sections; unknown keys, keys a
subcommand cannot use and keys a suite row pins are rejected before any
file is written.  dump-state reads only its state file.  Reports are CSV,
written atomically except for the streaming suite files; human progress
goes to stderr, machine output to files and stdout.  Exit codes: 0 ok, 1
configuration error, 2 runtime failure.
"""

import argparse
import configparser
import csv
import functools
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import crossbar, experiments, fuzzy, network
from .crossbar import MemristorParams
from .errors import ConfigError, NeuroFuzzyError, UnknownDatasetId, UnreadField
from .experiments import REPORT_COLUMNS, ExperimentConfig

OUT_DIR_ENV = "NEUROFUZZY_OUT_DIR"

CONFIG_SCHEMA = {
    "network": {
        "p": int, "alpha": float, "threshold": float, "nx": int, "ny": int,
        "nz": int, "input_hs_scale": float, "input_hs_shrink_exp": float,
        "output_hs_mult": float,
    },
    "experiment": {
        "function": str, "dataset": int, "n_train": int, "n_test": int,
        "seed": int, "test_seed": int, "noise_variance": float,
        "fault_fraction": float, "fault_seed": int, "backend": str,
    },
    "crossbar": {
        "r_on": float, "r_off": float, "d": float, "mu_v": float,
        "v_threshold": float, "dt": float, "r_f": float,
        "scale_in": float, "scale_out": float,
    },
}


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def load_config_file(path: str) -> dict:
    """Parse and type-check an INI config; unknown sections/keys fail fast."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)     # values are literal
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot parse {path}: {e}") from e
    out: dict = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        out[section] = {}
        for key, raw in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            typ = CONFIG_SCHEMA[section][key]
            try:
                out[section][key] = typ(raw)
            except ValueError as e:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from e
    return out


_DEVICE_KEYS = ("r_on", "r_off", "d", "mu_v", "v_threshold", "dt", "r_f")
# the ion-drift constants: no mapping or read integrates a pulse, only the sweep does
_DRIFT_KEYS = {"d", "mu_v", "dt"}

# the table parameters --paper-defaults fixes; a suite row also fixes the keys
# that define it
_PAPER_PINNED = {"p", "alpha", "threshold", "nx", "ny", "nz", "input_hs_scale",
                 "input_hs_shrink_exp", "output_hs_mult", "n_train", "n_test"}
_ROW_KEYS = {key for rows in experiments.SUITE.values() for row in rows for key in row}
# the keys a subcommand never reads that its ExperimentConfig takes (dataset and the
# drift constants for the modeling ones): crossbar-compare always maps onto crossbars
# and draws its own probes, and with --sweep-only it reads the device constants alone
_UNUSED = {"classify": {"function", *_DRIFT_KEYS},
           "crossbar-compare": {"dataset", "backend", "n_test", "test_seed"},
           "crossbar-compare --sweep-only": {*CONFIG_SCHEMA["network"],
                                             *CONFIG_SCHEMA["experiment"], "scale_in", "scale_out"},
           "suite": _DRIFT_KEYS}


def _crossbar_setup(file_cfg: dict) -> dict:
    """The [crossbar] section as ExperimentConfig fields; the only reader of that section."""
    cb = dict(file_cfg.get("crossbar", {}))
    try:
        device = MemristorParams(**{k: cb.pop(k) for k in _DEVICE_KEYS if k in cb})
    except ValueError as e:
        raise ConfigError(f"bad [crossbar] device constants: {e}") from e
    return {"device": device, **cb}


def _given(args, file_cfg: dict, command: str) -> list:
    """(section, key, value) of each key a flag or the config file sets, the flag
    winning; a key the command never reads (_UNUSED) may not be set."""
    unused, given = _UNUSED.get(command, {"dataset", *_DRIFT_KEYS}), []
    for section, keys in CONFIG_SCHEMA.items():
        for key in keys:
            value = getattr(args, key, None)
            value = file_cfg.get(section, {}).get(key) if value is None else value
            if value is not None and key in unused:
                raise ConfigError(f"{section}.{key} does not apply to {command}")
            if value is not None:
                given.append((section, key, value))
    return given


def resolve(args, file_cfg: dict, pins: dict | None = None) -> ExperimentConfig:
    """The configuration of one run: flags > config file > study default > defaults.

    Each [network] and [experiment] key, and the flag of the same name, sets
    the ExperimentConfig field of that name.  A key the run never reads may
    not be set: ExperimentConfig rejects its field (UnreadField), and _UNUSED
    the keys the config cannot tell.  noise, fault and crossbar-compare start
    from their study_default.  A suite row passes its pins: _PAPER_PINNED and
    _ROW_KEYS may then not be set at all, and a dataset row drops test_seed.
    --paper-defaults drops any _PAPER_PINNED value given instead.
    """
    fields = {**getattr(args, "study_default", {}), **(pins or {})}
    target = "dataset" if "dataset" in fields or hasattr(args, "dataset") else "function"
    pinned = _PAPER_PINNED | _ROW_KEYS if pins is not None else set()
    if getattr(args, "paper_defaults", False):
        pinned = _PAPER_PINNED
    for section, key, value in _given(args, file_cfg, args.command):
        if key in pinned and pins is not None:
            raise ConfigError(f"suite pins {section}.{key} in every row; "
                              "remove it from the config file")
        if key not in pinned and section != "crossbar":
            fields[key] = value
    if "dataset" in (pins or {}):       # suite applies test_seed to the rows that read it
        fields.pop("test_seed", None)
    if target not in fields:
        raise ConfigError("no benchmark function given (use --fn or the config file)"
                          if target == "function" else
                          "no dataset id given (use --dataset or the config file)")
    fields.update(_crossbar_setup(file_cfg))
    make = (experiments.paper_classification_config if target == "dataset"
            else experiments.paper_modeling_config)
    try:
        cfg = make(fields.pop(target), **fields)
    except UnreadField as e:                  # a [crossbar] field is unread on ideal only
        section = next(s for s, keys in CONFIG_SCHEMA.items() if e.field in keys)
        ideal = " on the ideal backend" if section == "crossbar" else ""
        raise ConfigError(f"{section}.{e.field} does not apply to {args.command}{ideal}") from e
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return cfg


def _out_dir(args) -> Path:
    d = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def atomic_write(path: Path, data: str | bytes) -> None:
    """Write via a new temp file (mode 0o666, so the umask applies) + rename, so
    interrupted runs never truncate output, then log the write; every file but
    the streaming suite CSVs is written here."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with (os.fdopen(fd, "wb") if isinstance(data, bytes)
              else os.fdopen(fd, "w", newline="")) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    _progress(f"wrote {path}")


def _write_csv(path: Path, header, rows) -> str:
    """Write a CSV file atomically, headed unless header is None; returns its text.
    Floats are written as repr; a float64 table formats each distinct bit pattern once."""
    if isinstance(rows, np.ndarray):        # by bit pattern: -0.0 keeps its sign, unlike 0.0
        bits, at = np.unique(rows.view(np.int64), return_inverse=True)
        texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        rows = texts[at].reshape(rows.shape).tolist()
    else:                                   # str, int and float fields: none needs quoting
        rows = [list(map(str, row)) for row in rows]
    text = "".join(",".join(row) + "\n" for row in ([header] if header else []) + rows)
    atomic_write(path, text)
    return text


# --- subcommands --------------------------------------------------------------


def cmd_model(args, file_cfg) -> int:
    """model, classify, noise and fault: one run, reported as <command>_<label>.csv."""
    cfg = resolve(args, file_cfg)
    state_path = Path(args.save_state) if getattr(args, "save_state", None) else None
    if state_path is not None and (state_path.is_dir() or not state_path.parent.is_dir()):
        raise ConfigError(f"--save-state {state_path} is no file in an existing directory")
    out_dir = _out_dir(args)
    _progress(f"{args.command} {cfg.label}: {cfg.n_train} train / {cfg.n_test} test, "
              f"seed {cfg.seed}, backend {cfg.backend}")
    report, state = experiments.train_and_score(cfg)
    sys.stdout.write(_write_csv(out_dir / f"{args.command}_{cfg.label}.csv",
                                REPORT_COLUMNS, [report.csv_row(with_runtime=args.timing)]))
    if getattr(args, "surface", False):
        _write_csv(out_dir / f"surface_{cfg.function}.csv",
                   ["x", "y", "predicted", "actual"], experiments.surface_grid(cfg, state))
    if state_path is not None:
        atomic_write(state_path, network.serialize(state))
    return 0


def _positive(args, name: str, flag: str) -> None:
    value = getattr(args, name)
    if value is not None and value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")


def cmd_suite(args, file_cfg) -> int:
    _positive(args, "jobs", "--jobs")
    tables = experiments.SUITE
    if args.only:
        if args.only not in tables:
            raise ConfigError(f"--only must be one of {sorted(tables)}, got {args.only!r}")
        tables = {args.only: tables[args.only]}
    jobs = {table: [resolve(args, file_cfg, pins) for pins in rows]
            for table, rows in tables.items()}
    workers = args.jobs or fuzzy.usable_cores()
    out_dir = _out_dir(args)
    for table, rows in jobs.items():
        out = out_dir / f"suite_{table}.csv"
        _progress(f"suite {table}: {len(rows)} rows -> {out}")
        # streaming write, flushed per completed row, in fixed row order
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(REPORT_COLUMNS + ["status"])
            fh.flush()
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_safe_job, cfg) for cfg in rows]
                for cfg, fut in zip(rows, futures):
                    report, err = fut.result()
                    if err is not None:
                        writer.writerow([cfg.label] + [""] * (len(REPORT_COLUMNS) - 1)
                                        + [f"error:{err}"])
                    else:
                        writer.writerow(report.csv_row(with_runtime=args.timing) + ["ok"])
                    fh.flush()
                    _progress(f"  {table} row done: {cfg.label}")
    return 0


def _safe_job(cfg):
    try:
        return experiments.train_and_score(cfg)[0], None
    except Exception as e:  # keep the suite streaming past bad rows
        return None, f"{type(e).__name__}: {e}"


def cmd_crossbar_compare(args, file_cfg) -> int:
    _positive(args, "n_probes", "--n-probes")
    if args.timing:
        raise ConfigError("--timing does not apply to crossbar-compare")
    if args.sweep_only:
        for flag, given in (("--paper-defaults", args.paper_defaults),
                            ("--n-probes", args.n_probes is not None)):
            if given:
                raise ConfigError(f"{flag} does not apply to crossbar-compare --sweep-only")
        _given(args, file_cfg, "crossbar-compare --sweep-only")
    cfg = None if args.sweep_only else resolve(args, file_cfg)
    sweep = np.column_stack(crossbar.delta_weight_sweep(_crossbar_setup(file_cfg)["device"]))
    out_dir = _out_dir(args)
    _write_csv(out_dir / "device_weight_sweep.csv", ["voltage", "delta_weight"], sweep)
    if args.sweep_only:
        return 0
    _progress(f"training ideal {cfg.function} model for crossbar comparison")
    state = experiments.rebuild_trained_state(cfg)
    n_probes = 100 if args.n_probes is None else args.n_probes
    rng = np.random.default_rng(cfg.seed + 777)
    mats = state.fuzzify(rng.uniform(0.0, 1.0, size=(n_probes, 2)))
    ideal_out = network.output_batch(state, mats)
    cb_out = crossbar.crossbar_forward_batch(*crossbar.map_network(
        state, cfg.device, scale_in=cfg.scale_in, scale_out=cfg.scale_out), mats)
    scale = np.abs(ideal_out).max(axis=1, keepdims=True)
    denom = np.maximum(np.abs(ideal_out), 1e-9 * np.maximum(scale, 1e-300))
    rel = np.abs(cb_out - ideal_out) / denom
    _write_csv(out_dir / f"crossbar_compare_{cfg.function}.csv",
               ["probe", "max_rel_deviation", "mean_rel_deviation"],
               [[i, float(r.max()), float(r.mean())] for i, r in enumerate(rel)])
    print(f"max relative output deviation over {n_probes} probes: {rel.max():.3e}")
    return 0


def cmd_dump_state(args, file_cfg) -> int:
    state = network.deserialize(Path(args.state).read_bytes())
    out_dir = _out_dir(args)
    u = state.config.output_universe
    print(f"min-terms: {state.n_minterms}")
    print(f"output universe: [{u.lo}, {u.hi}] x {u.count}")
    tables = []
    for g, grp in enumerate(state.config.groups):
        print(f"group {grp.name}: [{grp.universe.lo}, {grp.universe.hi}] "
              f"x {grp.universe.count}, half_support {grp.half_support}")
        tables.append((f"state_w_in_{grp.name}.csv", state.w_in(g)))
    for name, rows in tables + [("state_w_out.csv", state.w_out)]:
        _write_csv(out_dir / name, None, rows)
    return 0


# --- parser -------------------------------------------------------------------


def _add_out_dir(sub):
    sub.add_argument("--out-dir", help=f"output directory (or ${OUT_DIR_ENV})")


def _add_common(sub):
    _add_out_dir(sub)
    sub.add_argument("--config", help="INI config file")
    sub.add_argument("--seed", type=int, help="experiment seed")
    sub.add_argument("--backend", choices=["ideal", "crossbar"])
    sub.add_argument("--timing", action="store_true",
                     help="fill the runtime_ms column (off by default so repeated "
                          "runs stay byte-identical)")


def _add_model_flags(sub):
    sub.add_argument("--fn", dest="function", help="benchmark function g1..g5")
    sub.add_argument("--paper-defaults", action="store_true",
                     help="pin every table parameter for the chosen function")
    sub.add_argument("--n-train", type=int, dest="n_train")
    sub.add_argument("--n-test", type=int, dest="n_test")
    sub.add_argument("--p", type=int)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--threshold", type=float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="neurofuzzy",
                                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p_model = subs.add_parser("model", help="model one benchmark function")
    _add_common(p_model)
    _add_model_flags(p_model)
    p_model.add_argument("--surface", action="store_true",
                         help="also write a (x,y,predicted,actual) grid CSV")
    p_model.add_argument("--save-state", help="serialize the trained network here")
    p_model.set_defaults(func=cmd_model.__name__)

    p_classify = subs.add_parser("classify", help="run one classification set")
    _add_common(p_classify)
    p_classify.add_argument("--dataset", type=int, help="dataset id 1..4")
    p_classify.add_argument("--n-train", type=int, dest="n_train")
    p_classify.add_argument("--n-test", type=int, dest="n_test")
    p_classify.add_argument("--threshold", type=float)
    p_classify.set_defaults(func=cmd_model.__name__)

    # noise and fault: modeling runs whose study key defaults below the file and the flag
    for name, text, key, default in [
            ("noise", "noisy-training study", "noise_variance", 0.01),
            ("fault", "distorted-cross-point study", "fault_fraction", 0.2)]:
        p_study = subs.add_parser(name, help=text)
        _add_common(p_study)
        _add_model_flags(p_study)
        p_study.add_argument("--" + key.replace("_", "-"), type=float, dest=key)
        p_study.set_defaults(func=cmd_model.__name__, study_default={key: default})

    p_suite = subs.add_parser("suite", help="reproduce every table")
    _add_common(p_suite)
    p_suite.add_argument("--only", help="run a single table "
                         "(table1, table3, classification, noise, fault)")
    p_suite.add_argument("--jobs", type=int, help="worker pool size")
    p_suite.set_defaults(func=cmd_suite.__name__)

    p_cmp = subs.add_parser("crossbar-compare",
                            help="map a trained model onto crossbars and compare")
    _add_common(p_cmp)
    _add_model_flags(p_cmp)
    p_cmp.add_argument("--sweep-only", action="store_true",
                       help="only emit the device weight-change sweep CSV")
    p_cmp.add_argument("--n-probes", type=int, help="probe points (default 100)")
    p_cmp.set_defaults(func=cmd_crossbar_compare.__name__, study_default={"backend": "crossbar"})

    p_dump = subs.add_parser("dump-state", help="inspect a serialized network")
    _add_out_dir(p_dump)
    p_dump.add_argument("--state", required=True, help="serialized state file")
    p_dump.set_defaults(func=cmd_dump_state.__name__)

    return parser


def main(argv=None) -> int:
    """Run one subcommand: the first call builds the parser; each finds its function by name."""
    args = build_parser().parse_args(argv)
    try:
        file_cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
        return globals()[args.func](args, file_cfg)
    except (ConfigError, UnknownDatasetId, FileNotFoundError, FileExistsError,
            IsADirectoryError, NotADirectoryError, PermissionError) as e:  # a bad path given
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NeuroFuzzyError as e:
        print(f"runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
