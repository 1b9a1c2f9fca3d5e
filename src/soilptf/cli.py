"""Command-line pipeline around the package.

Subcommands cover the full workflow: fit retention curves (fit-vg), build
the feature/target table (derive-features), train and cross-validate
models (train, evaluate), predict on new samples (predict), generate
synthetic benchmark data (synth) and compare evaluation reports (report).

Every CSV artifact is data.table_text of the columns a command builds.
Exit codes: 0 success, 1 runtime failure, 2 usage error. Every artifact
embeds the resolved seed, a hash of the run settings and the tool
version; none embeds a timestamp, so reruns with identical inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

# Only what fit-vg and --version run is imported here; every other command
# imports its own modules when it runs.
from . import __version__
from .data import (
    BASE_FEATURES,
    SCALE_FEATURES,
    STR,
    VG_FEATURES,
    DataError,
    Schema,
    SoilptfError,
    integer,
    load_dataset,
    map_jobs,
    one_of,
    read_table,
    retention_columns,
    select_columns,
    table_text,
)
from .hydrology import (
    MODEL_CONFIGS,
    PARAMETRIC_TARGETS,
    each,
    fit_vg,  # only benchmark/trace_child.py looks it up here
    fit_vg_rows,
    parameter_faults,
    texture_faults,
    vg_curve,
)


def __getattr__(name):
    # names no command calls, which only benchmark/trace_child.py looks up
    # here; the package imports each one's module on first use
    if name not in ("train_cpxr", "fit_local", "cross_validate"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


class UsageError(ValueError):
    pass


SEED_ENV = "CPXR_PTF_SEED"

# Columns derive-features reads. Every fitted sample needs a value in the
# required basic columns and in every parameter column.
BASIC_REQUIRED = BASE_FEATURES[:4]  # d_g and sigma_g are derived from the texture
MEASURED_COLUMNS = BASIC_REQUIRED + SCALE_FEATURES
BASIC_COLUMNS = MEASURED_COLUMNS + ("ksat_cm_day",)
VG_COLUMNS = ("theta_r", "theta_s", "alpha_per_cm", "n")


# ----------------------------------------------------------------------
# small shared helpers
# ----------------------------------------------------------------------


def _resolve_seed(flag_value) -> int:
    """Explicit flag, then the environment, then 0; a non-negative integer."""
    if flag_value is not None:
        if flag_value < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {flag_value}")
        return int(flag_value)
    raw = os.environ.get(SEED_ENV, "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = -1  # reported below like a negative value
    if seed < 0:
        raise UsageError(f"{SEED_ENV} must be a non-negative integer, got {raw!r}")
    return seed


def _config_hash(settings: dict) -> str:
    blob = json.dumps(settings, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _meta(seed: int, settings: dict) -> dict:
    return {
        "tool": "soilptf",
        "version": __version__,
        "seed": seed,
        "config_hash": _config_hash(settings),
    }


# the meta of every JSON file a command writes, as _meta makes it
META = Schema({"tool": one_of("soilptf"), "version": STR, "seed": integer(0), "config_hash": STR})


def _meta_comments(meta: dict) -> list[str]:
    return [f"{meta['tool']} {meta['version']}", f"seed={meta['seed']}",
            f"config_hash={meta['config_hash']}"]


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {p}")
    return p


def _require_out_dir(path):
    """UsageError if --out-dir names a file, which would fail only after the work."""
    if os.path.lexists(path) and not os.path.isdir(path):
        raise UsageError(f"--out-dir names a file: {path}")


def _out_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_text(path, text: str):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path, payload: dict):
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_comparison(path, table, meta: dict):
    """Write a method comparison as CSV under its meta comment, then print it.

    The file comes first, so a closed stdout cannot leave it unwritten.
    """
    rows = table.rows  # (name, column) pairs: the two methods may share a name
    columns = [("target", [r.target for r in rows]), ("metric", [r.metric for r in rows]),
               (table.method_a, np.array([r.value_a for r in rows])),
               (table.method_b, np.array([r.value_b for r in rows])),
               ("pct_change", np.array([r.pct_change for r in rows]))]
    _write_text(path, table_text(columns, _meta_comments(meta)))
    print(table)


def _first_cell(ids, names, mask) -> tuple[str, str] | None:
    """(sample id, column name) of the first True cell of mask in row-major order."""
    cells = np.argwhere(mask)
    if not len(cells):
        return None
    i, j = cells[0]
    return ids[i], names[j]


def _require_outputs(*outputs):
    """UsageError unless every (name, path) output of one command names a
    file of its own: a directory would fail only after the work, and a
    second output naming the file of an earlier one would replace it."""
    for name, path in outputs:
        if os.path.isdir(path):
            raise UsageError(f"{name} names a directory: {path}")
    earlier = {}
    for name, path in outputs:
        real = os.path.realpath(path)
        if real in earlier:
            raise UsageError(f"{earlier[real]} and {name} name the same file: {path}")
        earlier[real] = name


def _require_values(path, ids, columns, names):
    """Raise DataError naming the first missing cell of the named columns."""
    gap = _first_cell(ids, names, np.isnan(np.column_stack([columns[c] for c in names])))
    if gap is not None:
        raise DataError(f"{path}: sample {gap[0]!r} lacks {gap[1]!r}")


def _read_json(path, what: str):
    """Parsed JSON of a file; text that is not UTF-8, not JSON, or past the
    parser's integer-digit or nesting limit is a usage error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{path}: malformed {what} ({exc})") from None


def _resolve_hyper(args) -> CpxrConfig:
    """Built-in defaults, overridden by the JSON file, overridden by --set."""
    from .cpxr import CpxrConfig, CpxrError

    overrides: dict = {}
    if getattr(args, "hyper", None):
        path = _require_file(args.hyper)
        loaded = _read_json(path, "hyperparameter file")
        if not isinstance(loaded, dict):
            raise UsageError(f"{path}: hyperparameter file must hold a JSON object")
        overrides.update(loaded)
    for spec in getattr(args, "set", None) or []:
        key, sep, raw = spec.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {spec!r}")
        try:
            value = json.loads(raw)
        except (ValueError, RecursionError):
            raise UsageError(f"--set {key}: value {raw!r} is not a number or JSON literal") from None
        overrides[key] = value
    try:
        return CpxrConfig.from_mapping(overrides)
    except (CpxrError, TypeError) as exc:
        raise UsageError(str(exc)) from None


def _jobs(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


def _model_config(config_id: str):
    try:
        return MODEL_CONFIGS[config_id]
    except KeyError:
        raise UsageError(
            f"unknown model configuration {config_id!r}; choose from {', '.join(MODEL_CONFIGS)}"
        ) from None


# ----------------------------------------------------------------------
# fit-vg
# ----------------------------------------------------------------------


def _read_retention(path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """The sample ids in first-appearance order, and the table's columns:
    each row's sample code (its id's place among the ids), tension and water
    content; a sample's rows need not be adjacent."""
    _, ids, columns = read_table(path, ("tension_cm", "theta"), required=("id", "tension_cm", "theta"))
    if not ids:
        raise DataError(f"{path}: no samples")
    _require_values(path, ids, columns, ("tension_cm", "theta"))
    codes: dict[str, int] = {}
    sample = np.array([codes.setdefault(sid, len(codes)) for sid in ids])
    return list(codes), sample, columns["tension_cm"], columns["theta"]


def _fit_part(part):
    """fit_vg_rows of one part: (codes, tensions, water contents, samples)."""
    return fit_vg_rows(*part)


def cmd_fit_vg(args) -> int:
    try:
        log_path = args.log or str(Path(args.out).with_suffix(".log"))
    except ValueError:  # Path("."), say, has no name to put a suffix on
        raise UsageError(f"--out {args.out!r} names no file") from None
    _require_outputs(("--out", args.out), ("the log" if args.log is None else "--log", log_path))
    path = _require_file(args.input)
    jobs = _jobs(args)
    seed = _resolve_seed(args.seed)
    settings = {"command": "fit-vg", "seed": seed}
    meta = _meta(seed, settings)

    ids, sample, h, theta = _read_retention(path)
    # a sample's fit does not depend on the others, so the contiguous ranges
    # of sample codes give the same bytes for every --jobs
    k = min(jobs, len(ids))
    if k == 1:  # one part: the columns themselves, not copies
        parts = [(sample, h, theta, len(ids))]
    else:
        cuts = [i * len(ids) // k for i in range(k + 1)]
        parts = []
        for a, b in zip(cuts, cuts[1:]):  # the rows of the samples coded a to b - 1
            rows = (a <= sample) & (sample < b)
            parts.append((sample[rows] - a, h[rows], theta[rows], b - a))
    fits = map_jobs(_fit_part, parts, jobs)
    params, rmse = (np.concatenate([fit[j] for fit in fits]) for j in (0, 1))
    errors = [err for fit in fits for err in fit[2]]

    ok = [err is None for err in errors]
    log_lines = [f"# {comment}" for comment in _meta_comments(meta)] + [
        f"ok {sid}: rmse={r:.6g} over {points} points" if err is None else f"fail {sid}: {err}"
        for sid, err, r, points in zip(ids, errors, rmse.tolist(), np.bincount(sample).tolist())]
    columns = {"id": [sid for sid, fitted in zip(ids, ok) if fitted],
               **dict(zip(VG_COLUMNS, params[ok].T)), "fit_rmse": rmse[ok]}
    _write_text(args.out, table_text(columns, _meta_comments(meta)))
    _write_text(log_path, "\n".join(log_lines) + "\n")

    failures = ok.count(False)
    if failures:
        print(f"fit-vg: {failures} of {len(ids)} samples failed; see {log_path}", file=sys.stderr)
    if 2 * failures > len(ids):
        return 1
    return 0


# ----------------------------------------------------------------------
# derive-features
# ----------------------------------------------------------------------


def cmd_derive_features(args) -> int:
    from .synth import derive_columns

    _require_outputs(("--out", args.out))
    basic_path = _require_file(args.basic)
    vg_path = _require_file(args.vg)
    seed = _resolve_seed(args.seed)
    meta = _meta(seed, {"command": "derive-features", "seed": seed})

    _, basic_ids, basic = read_table(basic_path, BASIC_COLUMNS)
    _, vg_ids, vg = read_table(vg_path, VG_COLUMNS)
    vg_row = {sid: j for j, sid in enumerate(vg_ids)}
    if len(vg_row) < len(vg_ids):  # a repeated id: vg_row holds its last row
        twice = next(sid for j, sid in enumerate(vg_ids) if vg_row[sid] != j)
        raise DataError(f"{vg_path}: sample {twice!r} is listed twice")
    rows = [i for i, sid in enumerate(basic_ids) if sid in vg_row]
    skipped = [sid for sid in basic_ids if sid not in vg_row]
    if not rows:
        raise DataError(f"no sample of {basic_path} has fitted parameters in {vg_path}")
    ids = [basic_ids[i] for i in rows]
    b = {c: basic[c][rows] for c in BASIC_COLUMNS}
    v = {c: vg[c][[vg_row[sid] for sid in ids]] for c in VG_COLUMNS}
    _require_values(basic_path, ids, b, BASIC_REQUIRED)
    _require_values(vg_path, ids, v, VG_COLUMNS)

    # a sample's parameters are checked first, then its ksat, then its texture
    ksat = b["ksat_cm_day"]  # NaN when not measured
    params = dict(zip(VG_FEATURES, v.values()))
    faults = [(i, f"{vg_path}: sample {ids[i]!r}: {p}") for i, p in parameter_faults(**params)]
    faults += [(i, f"{basic_path}: sample {ids[i]!r} has non-positive ksat_cm_day")
               for i in np.flatnonzero(ksat <= 0).tolist()]
    faults += [(i, f"{basic_path}: sample {ids[i]!r}: {p}")
               for i, p in texture_faults(b["sand"], b["silt"], b["clay"])]
    if faults:  # the lowest row's first problem
        raise DataError(min(faults, key=lambda fault: fault[0])[1])
    dataset = derive_columns(ids, {c: b[c] for c in MEASURED_COLUMNS}, params, each(math.log, ksat))
    _write_text(args.out, table_text({"id": dataset.ids, **dataset.columns}, _meta_comments(meta)))
    if skipped:
        print(
            f"derive-features: {len(skipped)} samples without fitted parameters skipped "
            f"({', '.join(skipped[:5])}{'...' if len(skipped) > 5 else ''})",
            file=sys.stderr,
        )
    return 0


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


def cmd_train(args) -> int:
    from .cpxr import PxrModel
    from .evaluation import fit_targets

    _require_out_dir(args.out_dir)
    features_path = _require_file(args.features)
    config = _model_config(args.config)
    method = args.method
    seed = _resolve_seed(args.seed)
    hyper = _resolve_hyper(args)
    settings = {
        "command": "train",
        "config": config.id,
        "method": method,
        "seed": seed,
        "hyper": hyper.__dict__,
    }
    meta = _meta(seed, settings)

    dataset = load_dataset(features_path)
    selection = select_columns(dataset, config)
    X, names = selection.X, selection.feature_names
    ys = [selection.targets[target] for target in config.targets]
    models, training = {}, {}
    for target, y, fit in zip(config.targets, ys, fit_targets(method, X, ys, names, hyper)):
        model, pred = fit.model, fit.train_pred
        entry = {"train_rmse": float(np.sqrt(np.mean((pred - y) ** 2))), "n_train": len(y)}
        if isinstance(model, PxrModel):
            entry["patterns"] = model.k
            entry["baseline_rmse"] = model.baseline_rmse
        training[target] = entry
        models[target] = model
    # every target trains before the output directory exists: a failure leaves no partial model set
    out_dir = _out_dir(args.out_dir)
    for target, model in models.items():
        payload = {
            "meta": meta,
            "config_id": config.id,
            "method": method,
            "target": target,
            "model": model.to_dict(),
        }
        _write_json(out_dir / f"{config.id}_{method}_{target}.json", payload)
    _write_json(
        out_dir / f"{config.id}_{method}_training.json",
        {"meta": meta, "config_id": config.id, "method": method, "targets": training},
    )
    if selection.excluded_ids:
        print(f"train: {len(selection.excluded_ids)} incomplete samples excluded", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------


def cmd_evaluate(args) -> int:
    from .evaluation import MAX_REPETITIONS, compare, cross_validate_methods

    _require_out_dir(args.out_dir)
    features_path = _require_file(args.features)
    config = _model_config(args.config)
    methods = [m.strip().lower() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("no methods given")
    for m in methods:
        if m not in ("mlr", "cpxr"):
            raise UsageError(f"unknown method {m!r}; choose mlr or cpxr")
    if len(set(methods)) != len(methods):
        raise UsageError(f"--methods names a method twice: {args.methods}")
    if not 1 <= args.reps <= MAX_REPETITIONS:
        raise UsageError(f"repetitions must be from 1 to {MAX_REPETITIONS}, got {args.reps}")
    if args.k < 2:
        raise UsageError(f"need at least 2 folds, got {args.k}")
    if args.k < 3 and args.cv_scheme == "paired":
        raise UsageError(f"--cv-scheme paired needs at least 3 folds, got {args.k}")
    jobs = _jobs(args)
    seed = _resolve_seed(args.seed)
    hyper = _resolve_hyper(args)
    settings = {
        "command": "evaluate",
        "config": config.id,
        "methods": methods,
        "seed": seed,
        "reps": args.reps,
        "k": args.k,
        "cv_scheme": args.cv_scheme,
        "hyper": hyper.__dict__,
    }
    meta = _meta(seed, settings)
    dataset = load_dataset(features_path)

    # every method runs before the output directory exists: a failure leaves no partial report
    reports = cross_validate_methods(
        dataset,
        config,
        methods,
        repetitions=args.reps,
        seed=seed,
        k=args.k,
        cv_scheme=args.cv_scheme,
        cpxr_config=hyper,
        jobs=jobs,
        collect_predictions=args.dump_predictions,
    )
    comments = _meta_comments(meta)
    out_dir = _out_dir(args.out_dir)
    for method, report in reports.items():
        _write_json(
            out_dir / f"report_{config.id}_{method}.json",
            {"meta": meta, "report": report.to_dict()},
        )
        if args.dump_predictions:
            # every test set holds a sample, so there are rows to unzip
            sid, target, observed, predicted = zip(*(row for rec in report.records
                                                      for row in rec.predictions))
            of_row = [rec for rec in report.records for _ in rec.predictions]
            columns = {"id": sid, "repetition": [str(rec.repetition) for rec in of_row],
                       "split": [str(rec.split) for rec in of_row], "target": target,
                       "observed": np.array(observed), "predicted": np.array(predicted)}
            _write_text(out_dir / f"predictions_{config.id}_{method}.csv",
                        table_text(columns, comments))

    summaries = [(method, target, ms) for method in methods
                 for target, ms in reports[method].summary("test").items()]
    columns = {"config": [config.id] * len(summaries), "method": [m for m, _, _ in summaries],
               "target": [t for _, t, _ in summaries],
               **{name: np.array([getattr(ms, name) for _, _, ms in summaries], dtype=float)
                  for name in ("rmse", "rmsle", "r2")}}  # a None metric is NaN: an empty cell
    _write_text(out_dir / f"summary_{config.id}.csv", table_text(columns, comments))

    if len(methods) == 2:
        table = compare(reports[methods[0]], reports[methods[1]], split="test")
        _write_comparison(out_dir / f"comparison_{config.id}.csv", table, meta)
    return 0


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def _load_model_payload(path: Path) -> dict:
    """The model file's fields as train writes them, its model read as a
    PxrModel for method cpxr and as a LinearModel for mlr."""
    from .cpxr import PXR_MODEL
    from .linreg import LINEAR_MODEL

    payload = _read_json(path, "model file")
    if not (isinstance(payload, dict) and {"model", "target"} <= payload.keys()):
        raise UsageError(f"{path}: not a model file (expected keys 'model' and 'target')")
    model = PXR_MODEL if payload.get("method") == "cpxr" else LINEAR_MODEL
    try:
        return Schema({"meta": META, "config_id": STR, "method": one_of("cpxr", "mlr"),
                       "target": STR, "model": model}).load(payload)
    except SoilptfError as exc:
        raise UsageError(f"{path}: malformed model file ({exc})") from None


def _model_paths(spec: str) -> list[Path]:
    p = Path(spec)
    if p.is_dir():
        paths = sorted(q for q in p.glob("*.json") if not q.name.endswith("_training.json"))
        if not paths:
            raise UsageError(f"{p}: directory holds no model files")
        return paths
    return [_require_file(p)]


def cmd_predict(args) -> int:
    _require_outputs(("--out", args.out), *([("--curve", args.curve)] if args.curve else []))
    features_path = _require_file(args.features)
    seed = _resolve_seed(args.seed)

    payloads = [_load_model_payload(p) for p in _model_paths(args.model)]
    targets = [pl["target"] for pl in payloads]
    if len(set(targets)) != len(targets):
        raise UsageError(f"duplicate targets among model files: {sorted(targets)}")
    config_ids = sorted({pl["config_id"] for pl in payloads})
    settings = {"command": "predict", "seed": seed, "configs": config_ids, "targets": sorted(targets)}
    meta = _meta(seed, settings)

    # Keep the declared target order when all models share a known config.
    if len(config_ids) == 1 and config_ids[0] in MODEL_CONFIGS:
        declared = MODEL_CONFIGS[config_ids[0]].targets
        order = [t for t in declared if t in targets] + sorted(set(targets) - set(declared))
    else:
        order = sorted(targets)
    by_target = {pl["target"]: pl["model"] for pl in payloads}

    dataset = load_dataset(features_path, strict=False)
    needed = {f for pl in payloads for f in pl["model"].feature_names}
    missing = sorted(needed - set(dataset.columns))
    if missing:
        raise UsageError(f"feature table lacks columns required by the models: {missing}")

    # One design matrix per distinct model column order (models trained
    # together share one). The gap reported is the first one met in
    # (sample, target, feature) order.
    names = {t: tuple(by_target[t].feature_names) for t in order}
    matrices = {cols: dataset.matrix(cols) for cols in names.values()}
    flat = [f for cols in matrices for f in cols]
    gap = _first_cell(dataset.ids, flat, np.isnan(dataset.matrix(flat)))
    if gap is not None:
        raise DataError(f"sample {gap[0]!r} lacks a value for feature {gap[1]!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        columns = {t: by_target[t].predict_matrix(matrices[names[t]], names[t]) for t in order}
    # Checked before either file is written, like the curves below.
    stacked = np.column_stack([columns[t] for t in order])
    bad = _first_cell(dataset.ids, order, ~np.isfinite(stacked))
    if bad is not None:
        raise DataError(f"sample {bad[0]!r}: predicted {bad[1]} is not a finite number")

    # The curves are built before either file is written, so a sample
    # that cannot be expanded leaves no partial output behind.
    if args.curve:
        if not set(PARAMETRIC_TARGETS) <= set(order):
            raise UsageError(
                f"--curve needs models for all of {list(PARAMETRIC_TARGETS)}, have {order}"
            )
        theta_r, theta_s, log_alpha, log_n = stacked[:, [order.index(t) for t in PARAMETRIC_TARGETS]].T
        alpha, n = each(math.exp, log_alpha), each(math.exp, log_n)
        for i in np.flatnonzero((alpha == math.inf) | (n == math.inf))[:1].tolist():
            target, value = ("log_alpha", log_alpha[i]) if alpha[i] == math.inf else ("log_n", log_n[i])
            raise DataError(f"sample {dataset.ids[i]!r}: predicted {target} {value:g} is too large "
                            "to expand into a curve")
        # nudge predictions outside the feasible region back, so the curve stays defined
        theta_s = np.minimum(np.maximum(theta_s, 0.012), 0.99)
        params = (np.minimum(np.maximum(theta_r, 0.0), theta_s - 0.01), theta_s,
                  np.maximum(alpha, 1e-8), np.maximum(n, 1.000001))
        tensions = np.geomspace(1.0, 15000.0, 50)
        theta = vg_curve(*(p[:, None] for p in params), tensions)  # (samples, tensions)
        curve = retention_columns(dataset.ids, tensions, theta)
    comments = _meta_comments(meta)
    # pairs, not a mapping: a model's target may be called id
    _write_text(args.out, table_text([("id", dataset.ids), *columns.items()], comments))
    if args.curve:
        _write_text(args.curve, table_text(curve, comments))
    return 0


# ----------------------------------------------------------------------
# synth
# ----------------------------------------------------------------------

# kind -> the name of its config factory in soilptf.synth
_SYNTH_KINDS = {"default": "default_synth_config", "two-regime": "two_regime_config",
                "scale-effect": "scale_effect_config"}


def cmd_synth(args) -> int:
    from . import synth

    _require_out_dir(args.out_dir)
    seed = _resolve_seed(args.seed)
    factory = getattr(synth, _SYNTH_KINDS[args.kind])
    try:  # a bad argument value is a usage error, found before anything is generated
        config = factory(n_samples=args.n, noise_sd=args.noise_sd, seed=seed)
        synth._check_noise_sd("retention noise_sd", args.retention_noise_sd)
    except synth.SynthError as exc:
        raise UsageError(str(exc)) from None
    settings = {"command": "synth", "kind": args.kind, "seed": seed, "config": config.to_dict()}
    meta = _meta(seed, settings)

    dataset, truth = synth.generate(config)
    comments = _meta_comments(meta)
    out_dir = _out_dir(args.out_dir)
    _write_text(out_dir / "dataset.csv", table_text({"id": dataset.ids, **dataset.columns}, comments))
    _write_json(out_dir / "truth.json", {"meta": meta, "truth": truth})
    if args.retention:
        retention = synth.generate_retention(truth, noise_sd=args.retention_noise_sd, seed=seed)
        _write_text(out_dir / "retention.csv", table_text(retention, comments))
    return 0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def _load_report(path) -> EvaluationReport:
    """The report of a report file as evaluate writes it."""
    from .evaluation import REPORT

    payload = _read_json(_require_file(path), "report file")
    try:
        return Schema({"meta": META, "report": REPORT}).load(payload)["report"]
    except SoilptfError as exc:
        raise UsageError(f"{path}: not an evaluation report ({exc})") from None


def cmd_report(args) -> int:
    from .evaluation import EvaluationError, compare

    if args.out:
        _require_outputs(("--out", args.out))
    report_a = _load_report(args.a)
    report_b = _load_report(args.b)
    try:
        table = compare(report_a, report_b, split=args.split)
    except EvaluationError as exc:
        raise UsageError(str(exc)) from None
    if not args.out:
        print(table)
        return 0
    seed = _resolve_seed(args.seed)
    _write_comparison(
        args.out, table, _meta(seed, {"command": "report", "seed": seed, "split": args.split})
    )
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default: ${SEED_ENV} or 0)")


def _add_hyper(p):
    p.add_argument("--hyper", help="JSON file with trainer hyperparameters")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one hyperparameter; repeatable, wins over --hyper",
    )


def _add_jobs(p, default: int):
    p.add_argument(
        "--jobs", type=int, default=default,
        help="parallel worker processes, at least 1; never more than the tasks or "
        "the cores (default: %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soilptf",
        description="Pedotransfer pipeline: retention-curve fitting, pattern-aided "
        "regression, cross-validated benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-vg", help="fit retention parameters per sample")
    p.add_argument("--input", required=True, help="long-format CSV: id,tension_cm,theta")
    p.add_argument("--out", required=True, help="output parameter CSV")
    p.add_argument("--log", help="fit log path (default: output with .log suffix)")
    _add_seed(p)
    # a pool gains nothing on the batched fit of a few hundred curves
    _add_jobs(p, 1)
    p.set_defaults(func=cmd_fit_vg)

    p = sub.add_parser("derive-features", help="merge basic properties with fitted parameters")
    p.add_argument("--basic", required=True, help="CSV with id,sand,silt,clay,bulk_density,...")
    p.add_argument("--vg", required=True, help="parameter CSV from fit-vg")
    p.add_argument("--out", required=True, help="output feature/target table")
    _add_seed(p)
    p.set_defaults(func=cmd_derive_features)

    p = sub.add_parser("train", help="train one model per target")
    p.add_argument("--features", required=True)
    p.add_argument("--config", required=True, help=f"one of {', '.join(MODEL_CONFIGS)}")
    p.add_argument("--method", choices=("mlr", "cpxr"), default="cpxr")
    p.add_argument("--out-dir", required=True)
    _add_seed(p)
    _add_hyper(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="cross-validate methods on one configuration")
    p.add_argument("--features", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--methods", default="cpxr,mlr", help="comma-separated: cpxr,mlr")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--cv-scheme", choices=("paired", "classic"), default="paired")
    p.add_argument("--dump-predictions", action="store_true")
    p.add_argument("--out-dir", required=True)
    _add_seed(p)
    _add_hyper(p)
    _add_jobs(p, os.cpu_count() or 1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="apply trained models to new samples")
    p.add_argument("--model", required=True, help="model JSON or directory of them")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--curve", help="also expand parametric predictions into a curve table")
    _add_seed(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--kind", choices=sorted(_SYNTH_KINDS), default="default")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--noise-sd", type=float, default=0.01)
    p.add_argument("--retention", action="store_true", help="also write a retention table")
    p.add_argument("--retention-noise-sd", type=float, default=0.002)
    _add_seed(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="compare two evaluation reports")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--out", help="write the comparison as CSV")
    _add_seed(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        finally:
            # --help and --version print, then exit inside parse_args
            sys.stdout.flush()
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader went away after every file was written; point
        # stdout at devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SoilptfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
