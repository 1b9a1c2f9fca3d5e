"""Command-line pipeline around the package.

Subcommands cover the full workflow: fit retention curves (fit-vg), build
the feature/target table (derive-features), train and cross-validate
models (train, evaluate), predict on new samples (predict), generate
synthetic benchmark data (synth) and compare evaluation reports (report).

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every artifact
embeds the resolved seed, a hash of the run settings and the tool
version; none embeds a timestamp, so reruns with identical inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .cpxr import CpxrConfig, CpxrError, PxrModel, train_cpxr
from .data import (
    KNOWN_FEATURES,
    DataError,
    Dataset,
    load_dataset,
    parse_columns,
    read_rows,
    select_columns,
)
from .evaluation import EvaluationError, EvaluationReport, compare, cross_validate
from .hydrology import (
    MODEL_CONFIGS,
    PARAMETRIC_TARGETS,
    POINT_TARGETS,
    HydrologyError,
    RetentionPoint,
    VgFitError,
    VgParameters,
    derived_water_contents,
    fit_vg,
    texture_statistics,
    vg_theta,
)
from .linreg import FitError, LinearModel, fit_local
from .synth import (
    SynthError,
    default_synth_config,
    generate,
    generate_retention,
    scale_effect_config,
    two_regime_config,
)


class UsageError(ValueError):
    pass


SEED_ENV = "CPXR_PTF_SEED"

# Column order of feature tables written by derive-features and synth.
TARGET_COLUMNS = tuple(
    t for t in POINT_TARGETS + ("log_alpha", "log_n", "log_ksat") if t not in KNOWN_FEATURES
)

# Columns derive-features reads. Every fitted sample needs a value in the
# required basic columns and in every parameter column.
BASIC_REQUIRED = ("sand", "silt", "clay", "bulk_density")
BASIC_COLUMNS = BASIC_REQUIRED + ("internal_diameter_cm", "length_cm", "ksat_cm_day")
VG_COLUMNS = ("theta_r", "theta_s", "alpha_per_cm", "n")


# ----------------------------------------------------------------------
# small shared helpers
# ----------------------------------------------------------------------


def _resolve_seed(flag_value) -> int:
    """Explicit flag, then the environment, then 0."""
    if flag_value is not None:
        return int(flag_value)
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


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


def _meta_comment_lines(meta: dict) -> list[str]:
    return [
        f"# {meta['tool']} {meta['version']}",
        f"# seed={meta['seed']}",
        f"# config_hash={meta['config_hash']}",
    ]


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"no such file: {p}")
    return p


def _out_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_text(path, text: str):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path, payload: dict):
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path, header: list[str], rows, meta: dict):
    buf = io.StringIO()
    for line in _meta_comment_lines(meta):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def _first_gap(ids, names, matrix) -> tuple[str, str] | None:
    """(sample id, column name) of the first NaN of matrix in row-major order."""
    gaps = np.argwhere(np.isnan(matrix))
    if not len(gaps):
        return None
    i, j = gaps[0]
    return ids[i], names[j]


def _require_values(path, ids, columns, names):
    """Raise DataError naming the first missing cell of the named columns."""
    gap = _first_gap(ids, names, np.column_stack([columns[c] for c in names]))
    if gap is not None:
        raise DataError(f"{path}: sample {gap[0]!r} lacks {gap[1]!r}")


def _resolve_hyper(args) -> CpxrConfig:
    """Built-in defaults, overridden by the JSON file, overridden by --set."""
    overrides: dict = {}
    if getattr(args, "hyper", None):
        path = _require_file(args.hyper)
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError(f"{path}: hyperparameter file must hold a JSON object")
        overrides.update(loaded)
    for spec in getattr(args, "set", None) or []:
        key, sep, raw = spec.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {spec!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            raise UsageError(f"--set {key}: value {raw!r} is not a number or JSON literal") from None
        overrides[key] = value
    try:
        return CpxrConfig.from_mapping(overrides)
    except (CpxrError, TypeError) as exc:
        raise UsageError(str(exc)) from None


def _model_config(config_id: str):
    try:
        return MODEL_CONFIGS[config_id]
    except KeyError:
        raise UsageError(
            f"unknown model configuration {config_id!r}; choose from {', '.join(MODEL_CONFIGS)}"
        ) from None


def _dataset_to_rows(dataset: Dataset) -> tuple[list[str], list[list[str]]]:
    names = list(dataset.feature_names) + list(dataset.target_names)
    cells = {
        c: ["" if math.isnan(v) else repr(v) for v in dataset.columns[c].tolist()] for c in names
    }
    rows = [[sid] + [cells[c][i] for c in names] for i, sid in enumerate(dataset.ids)]
    return ["id"] + names, rows


# ----------------------------------------------------------------------
# fit-vg
# ----------------------------------------------------------------------


def _read_retention(path) -> list[tuple[str, list[tuple[float, float]]]]:
    header, rows = read_rows(path)
    needed = {"id", "tension_cm", "theta"}
    if not needed <= set(header):
        raise DataError(f"{path}: retention table needs columns {sorted(needed)}, has {header}")
    ids, columns = parse_columns(header, rows, ("tension_cm", "theta"))
    _require_values(path, ids, columns, ("tension_cm", "theta"))
    groups: dict[str, list[tuple[float, float]]] = {}
    for sid, h, theta in zip(ids, columns["tension_cm"].tolist(), columns["theta"].tolist()):
        groups.setdefault(sid, []).append((h, theta))
    return list(groups.items())


def _fit_one_sample(item):
    sid, pairs = item
    try:
        points = [RetentionPoint(tension=h, theta=t) for h, t in pairs]
        params = fit_vg(points)
    except (HydrologyError, VgFitError) as exc:
        return sid, None, f"fail {sid}: {exc}"
    return (
        sid,
        {
            "theta_r": params.theta_r,
            "theta_s": params.theta_s,
            "alpha_per_cm": params.alpha,
            "n": params.n,
            "fit_rmse": params.fit_rmse,
        },
        f"ok {sid}: rmse={params.fit_rmse:.6g} over {len(pairs)} points",
    )


def cmd_fit_vg(args) -> int:
    path = _require_file(args.input)
    seed = _resolve_seed(args.seed)
    settings = {"command": "fit-vg", "seed": seed}
    meta = _meta(seed, settings)

    items = _read_retention(path)
    if args.jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_fit_one_sample, items))
    else:
        results = [_fit_one_sample(it) for it in items]

    header = ["id", "theta_r", "theta_s", "alpha_per_cm", "n", "fit_rmse"]
    rows = [
        [sid] + [_fmt(params[c]) for c in header[1:]]
        for sid, params, _ in results
        if params is not None
    ]
    _write_csv(args.out, header, rows, meta)
    log_path = args.log or str(Path(args.out).with_suffix(".log"))
    log_lines = _meta_comment_lines(meta) + [msg for _, _, msg in results]
    _write_text(log_path, "\n".join(log_lines) + "\n")

    failures = sum(1 for _, params, _ in results if params is None)
    if failures:
        print(f"fit-vg: {failures} of {len(results)} samples failed; see {log_path}", file=sys.stderr)
    if 2 * failures > len(results):
        return 1
    return 0


# ----------------------------------------------------------------------
# derive-features
# ----------------------------------------------------------------------


def cmd_derive_features(args) -> int:
    basic_path = _require_file(args.basic)
    vg_path = _require_file(args.vg)
    seed = _resolve_seed(args.seed)
    meta = _meta(seed, {"command": "derive-features", "seed": seed})

    basic_ids, basic = parse_columns(*read_rows(basic_path), BASIC_COLUMNS)
    vg_ids, vg = parse_columns(*read_rows(vg_path), VG_COLUMNS)
    vg_row = {sid: j for j, sid in enumerate(vg_ids)}
    rows = [i for i, sid in enumerate(basic_ids) if sid in vg_row]
    skipped = [sid for sid in basic_ids if sid not in vg_row]
    if not rows:
        raise DataError(f"no sample of {basic_path} has fitted parameters in {vg_path}")
    ids = [basic_ids[i] for i in rows]
    b = {c: basic[c][rows].tolist() for c in BASIC_COLUMNS}
    v = {c: vg[c][[vg_row[sid] for sid in ids]].tolist() for c in VG_COLUMNS}
    _require_values(basic_path, ids, b, BASIC_REQUIRED)
    _require_values(vg_path, ids, v, VG_COLUMNS)

    columns: dict[str, list[float]] = {name: [] for name in KNOWN_FEATURES + TARGET_COLUMNS}
    for k, sid in enumerate(ids):
        d_g, sigma_g = texture_statistics(b["sand"][k], b["silt"][k], b["clay"][k])
        params = VgParameters(
            theta_r=v["theta_r"][k],
            theta_s=v["theta_s"][k],
            alpha=v["alpha_per_cm"][k],
            n=v["n"][k],
        )
        ksat = b["ksat_cm_day"][k]  # NaN when not measured
        if ksat <= 0:
            raise DataError(f"{basic_path}: sample {sid!r} has non-positive ksat_cm_day")
        values = {
            **derived_water_contents(params),
            **{c: col[k] for c, col in b.items()},
            "d_g": d_g,
            "sigma_g": sigma_g,
            "theta_r": params.theta_r,
            "theta_s": params.theta_s,
            "alpha": params.alpha,
            "n": params.n,
            "log_alpha": math.log(params.alpha),
            "log_n": math.log(params.n),
            "log_ksat": math.log(ksat),
        }
        for name, col in columns.items():
            col.append(values[name])

    dataset = Dataset(ids, columns, list(KNOWN_FEATURES), list(TARGET_COLUMNS))
    header, out_rows = _dataset_to_rows(dataset)
    _write_csv(args.out, header, out_rows, meta)
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


def _train_one(method: str, X, y, names, hyper: CpxrConfig):
    if method == "mlr":
        return fit_local(X, y, names)
    return train_cpxr(X, y, names, hyper)


def cmd_train(args) -> int:
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
    out_dir = _out_dir(args.out_dir)

    dataset = load_dataset(features_path)
    selection = select_columns(dataset, config)
    training = {}
    for target in config.targets:
        y = selection.targets[target]
        model = _train_one(method, selection.X, y, selection.feature_names, hyper)
        pred = model.predict_matrix(selection.X, selection.feature_names)
        entry = {"train_rmse": float(np.sqrt(np.mean((pred - y) ** 2))), "n_train": len(y)}
        if isinstance(model, PxrModel):
            entry["patterns"] = model.k
            entry["baseline_rmse"] = model.baseline_rmse
        training[target] = entry
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
    features_path = _require_file(args.features)
    config = _model_config(args.config)
    methods = [m.strip().lower() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError("no methods given")
    for m in methods:
        if m not in ("mlr", "cpxr"):
            raise UsageError(f"unknown method {m!r}; choose mlr or cpxr")
    if args.reps < 1:
        raise UsageError(f"repetitions must be positive, got {args.reps}")
    if args.k < 2:
        raise UsageError(f"need at least 2 folds, got {args.k}")
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
    out_dir = _out_dir(args.out_dir)
    dataset = load_dataset(features_path)

    reports = {}
    for method in methods:
        report = cross_validate(
            dataset,
            config,
            method=method,
            repetitions=args.reps,
            seed=seed,
            k=args.k,
            cv_scheme=args.cv_scheme,
            cpxr_config=hyper,
            jobs=args.jobs,
            collect_predictions=args.dump_predictions,
        )
        reports[method] = report
        _write_json(
            out_dir / f"report_{config.id}_{method}.json",
            {"meta": meta, "report": report.to_dict()},
        )
        if args.dump_predictions:
            rows = [
                [sid, str(rec.repetition), str(rec.split), target, _fmt(obs), _fmt(pred)]
                for rec in report.records
                for sid, target, obs, pred in rec.predictions or []
            ]
            _write_csv(
                out_dir / f"predictions_{config.id}_{method}.csv",
                ["id", "repetition", "split", "target", "observed", "predicted"],
                rows,
                meta,
            )

    summary_rows = []
    for method in methods:
        for target, ms in reports[method].summary("test").items():
            summary_rows.append(
                [config.id, method, target, _fmt(ms.rmse), _fmt(ms.rmsle), _fmt(ms.r2)]
            )
    _write_csv(
        out_dir / f"summary_{config.id}.csv",
        ["config", "method", "target", "rmse", "rmsle", "r2"],
        summary_rows,
        meta,
    )

    if len(methods) == 2:
        table = compare(reports[methods[0]], reports[methods[1]], split="test")
        comment = "\n".join(_meta_comment_lines(meta)) + "\n"
        _write_text(out_dir / f"comparison_{config.id}.csv", comment + table.to_csv_text())
        print(table)
    return 0


# ----------------------------------------------------------------------
# predict
# ----------------------------------------------------------------------


def _load_model_payload(path: Path) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: malformed model file ({exc})") from None
    if (
        not isinstance(payload, dict)
        or not isinstance(payload.get("model"), dict)
        or not isinstance(payload.get("target"), str)
    ):
        raise UsageError(f"{path}: not a model file (expected keys 'model' and 'target')")
    try:
        payload["model"] = _model_from_payload(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise UsageError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from None
    return payload


def _model_from_payload(payload: dict):
    d = payload["model"]
    if d.get("kind") == "pxr":
        return PxrModel.from_dict(d)
    model = LinearModel.from_dict(d)
    config = MODEL_CONFIGS.get(payload.get("config_id"))
    if config is not None and sorted(config.features) == sorted(model.coefficients):
        # The file lists coefficients sorted; restore the training column
        # order so predictions sum in the same order as at training time.
        model.coefficients = {c: model.coefficients[c] for c in config.features}
    return model


def _model_paths(spec: str) -> list[Path]:
    p = Path(spec)
    if p.is_dir():
        paths = sorted(q for q in p.glob("*.json") if not q.name.endswith("_training.json"))
        if not paths:
            raise UsageError(f"{p}: directory holds no model files")
        return paths
    return [_require_file(p)]


def _clamped_vg(preds: dict) -> VgParameters:
    # Predictions can land slightly outside the feasible region; nudge
    # them back so the curve stays defined.
    theta_s = min(max(preds["theta_s"], 0.012), 0.99)
    theta_r = min(max(preds["theta_r"], 0.0), theta_s - 0.01)
    return VgParameters(
        theta_r=theta_r,
        theta_s=theta_s,
        alpha=max(math.exp(preds["log_alpha"]), 1e-8),
        n=max(math.exp(preds["log_n"]), 1.000001),
    )


def cmd_predict(args) -> int:
    features_path = _require_file(args.features)
    seed = _resolve_seed(args.seed)

    payloads = [_load_model_payload(p) for p in _model_paths(args.model)]
    targets = [pl["target"] for pl in payloads]
    if len(set(targets)) != len(targets):
        raise UsageError(f"duplicate targets among model files: {sorted(targets)}")
    config_ids = sorted({pl.get("config_id", "?") for pl in payloads})
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
    gap = _first_gap(dataset.ids, flat, dataset.matrix(flat))
    if gap is not None:
        raise DataError(f"sample {gap[0]!r} lacks a value for feature {gap[1]!r}")
    columns = {t: by_target[t].predict_matrix(matrices[names[t]], names[t]) for t in order}
    predictions = [{t: float(columns[t][i]) for t in order} for i in range(len(dataset))]
    rows = [
        [sid] + [_fmt(per_sample[t]) for t in order]
        for sid, per_sample in zip(dataset.ids, predictions)
    ]
    _write_csv(args.out, ["id"] + list(order), rows, meta)

    if args.curve:
        if not set(PARAMETRIC_TARGETS) <= set(order):
            raise UsageError(
                f"--curve needs models for all of {list(PARAMETRIC_TARGETS)}, have {order}"
            )
        tensions = np.geomspace(1.0, 15000.0, 50)
        curve_rows = []
        for sid, per_sample in zip(dataset.ids, predictions):
            params = _clamped_vg(per_sample)
            for h in tensions:
                curve_rows.append([sid, _fmt(h), _fmt(vg_theta(params, float(h)))])
        _write_csv(args.curve, ["id", "tension_cm", "theta"], curve_rows, meta)
    return 0


# ----------------------------------------------------------------------
# synth
# ----------------------------------------------------------------------

_SYNTH_KINDS = {
    "default": default_synth_config,
    "two-regime": two_regime_config,
    "scale-effect": scale_effect_config,
}


def cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    factory = _SYNTH_KINDS[args.kind]
    config = factory(n_samples=args.n, noise_sd=args.noise_sd, seed=seed)
    settings = {"command": "synth", "kind": args.kind, "seed": seed, "config": config.to_dict()}
    meta = _meta(seed, settings)
    out_dir = _out_dir(args.out_dir)

    dataset, truth = generate(config)
    header, rows = _dataset_to_rows(dataset)
    _write_csv(out_dir / "dataset.csv", header, rows, meta)
    _write_json(out_dir / "truth.json", {"meta": meta, "truth": truth})
    if args.retention:
        points = generate_retention(truth, noise_sd=args.retention_noise_sd, seed=seed)
        _write_csv(
            out_dir / "retention.csv",
            ["id", "tension_cm", "theta"],
            [[sid, _fmt(h), _fmt(t)] for sid, h, t in points],
            meta,
        )
    return 0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------


def _load_report(path) -> EvaluationReport:
    with open(_require_file(path)) as fh:
        payload = json.load(fh)
    d = payload.get("report", payload) if isinstance(payload, dict) else None
    if d is None:
        raise UsageError(f"{path}: not an evaluation report")
    try:
        return EvaluationReport.from_dict(d)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"{path}: not an evaluation report ({exc})") from None


def cmd_report(args) -> int:
    report_a = _load_report(args.a)
    report_b = _load_report(args.b)
    try:
        table = compare(report_a, report_b, split=args.split)
    except EvaluationError as exc:
        raise UsageError(str(exc)) from None
    print(table)
    if args.out:
        seed = _resolve_seed(args.seed)
        meta = _meta(seed, {"command": "report", "seed": seed, "split": args.split})
        comment = "\n".join(_meta_comment_lines(meta)) + "\n"
        _write_text(args.out, comment + table.to_csv_text())
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


def _add_jobs(p):
    p.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1,
        help="parallel worker processes (default: all cores)",
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
    _add_jobs(p)
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
    _add_jobs(p)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CpxrError, EvaluationError, FitError, HydrologyError, SynthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
