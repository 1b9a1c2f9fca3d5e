"""Acceptance suite: ten checks covering the whole pipeline.

Each test prints one `criterion N: PASS ...` or `criterion N: FAIL ...`
line (run with `pytest -s tests/test_acceptance.py` to see them all):

  1. weighted-mean predictor vs an independently coded evaluator
  2. MDL discretization vs exhaustive cut search
  3. contrast-pattern miner vs exhaustive enumeration
  4. retention-parameter recovery, noise-free and under 1% noise
  5. closed-form inflection point vs a numerical second-derivative root
  6. pattern-aided regression beats plain regression on two-regime data
  7. measurement-scale features help the pattern model, not the baseline
  8. training error never exceeds the baseline, on every iteration
  9. cross-validation bookkeeping at 10 repetitions x 10 folds
 10. byte-identical artifacts across full pipeline reruns

Comparative checks (6-8) share their cross-validation runs through a
module-level cache, so the suite stays fast regardless of test order.
"""

import math
import time
from collections import Counter

import numpy as np
from scipy.optimize import brentq

from soilptf.cli import main as cli_main
from soilptf.cpxr import PatternLocal, PxrModel
from soilptf.discretize import DiscretizationScheme, mdl_discretize
from soilptf.evaluation import cross_validate
from soilptf.hydrology import (
    BASE_FEATURES,
    MODEL_CONFIGS,
    SCALE_FEATURES,
    ModelConfig,
    VgParameters,
    fit_vg,
    inflection_point,
    vg_theta,
)
from soilptf.linreg import LinearModel
from soilptf.patterns import Item, Pattern
from soilptf.synth import generate, scale_effect_config, two_regime_config

from test_discretize import brute_force_cuts
from test_patterns import _mine, exhaustive_mine


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ----------------------------------------------------------------------
# criterion 1: weighted-mean prediction against an independent evaluator
# ----------------------------------------------------------------------

_C1_FEATURES = ("u", "v", "w")


def _rand_linear(rng) -> LinearModel:
    return LinearModel(
        intercept=float(rng.normal()),
        coefficients={f: float(rng.normal()) for f in _C1_FEATURES},
        training_count=5,
        feature_means={f: 0.0 for f in _C1_FEATURES},
        feature_scales={f: 1.0 for f in _C1_FEATURES},
    )


def _rand_item(rng, feature: str) -> Item:
    kind = int(rng.integers(4))
    if kind == 0:
        lo = float(rng.normal())
        return Item(feature, lo=lo, hi=lo + float(np.abs(rng.normal())) + 0.2)
    if kind == 1:
        return Item(feature, hi=float(rng.normal()))
    if kind == 2:
        return Item(feature, lo=float(rng.normal()))
    # a unit bin around an integer: on the integer column w it holds
    # exactly the rows equal to that integer
    v = float(rng.integers(-2, 3))
    return Item(feature, lo=v - 0.5, hi=v + 0.5)


def _rand_model(rng) -> PxrModel:
    pairs, seen = [], set()
    for _ in range(int(rng.integers(0, 5))):
        picks = rng.choice(len(_C1_FEATURES), size=int(rng.integers(1, 3)), replace=False)
        pattern = Pattern(tuple(_rand_item(rng, _C1_FEATURES[i]) for i in picks))
        if str(pattern) in seen:
            continue
        seen.add(str(pattern))
        pairs.append(PatternLocal(pattern=pattern, model=_rand_linear(rng),
                                  weight=float(rng.uniform(1e-6, 2.0))))
    default = _rand_linear(rng)
    return PxrModel(pairs=pairs, default_model=default, baseline=default,
                    scheme=DiscretizationScheme(), feature_names=list(_C1_FEATURES))


def _manual_linear(model: LinearModel, x: dict) -> float:
    return model.intercept + sum(c * x[f] for f, c in model.coefficients.items())


def _manual_weighted_mean(model: PxrModel, x: dict) -> float:
    num = den = 0.0
    for pair in model.pairs:
        if all(it.lo <= x[it.feature] < it.hi for it in pair.pattern.items):
            num += pair.weight * _manual_linear(pair.model, x)
            den += pair.weight
    return num / den if den > 0.0 else _manual_linear(model.default_model, x)


def test_criterion_01_weighted_mean_prediction_oracle():
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    worst, matched = 0.0, 0
    for _ in range(1000):
        model = _rand_model(rng)
        x = {"u": float(rng.normal()), "v": float(2.0 * rng.normal()),
             "w": float(rng.integers(-2, 3))}
        got = model.predict(x)
        want = _manual_weighted_mean(model, x)
        worst = max(worst, abs(got - want) / max(1.0, abs(got), abs(want)))
        matched += any(
            all(i.lo <= x[i.feature] < i.hi for i in p.pattern.items)
            for p in model.pairs
        )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(1, ok, f"max relative deviation {worst:.2e} over 1000 random models "
                    f"({matched} with a matching pattern) in {elapsed:.2f}s")


# ----------------------------------------------------------------------
# criterion 2: discretization against exhaustive cut search
# ----------------------------------------------------------------------


def test_criterion_02_discretization_oracle():
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        if int(rng.integers(2)):
            values = rng.integers(0, 10, size=n).astype(float)
        else:
            values = np.round(rng.normal(0.0, 2.0, size=n), 1)
        labels = rng.integers(0, int(rng.integers(2, 4)), size=n)
        if mdl_discretize(values, labels).cuts != brute_force_cuts(values, labels):
            mismatches += 1
    _verdict(2, mismatches == 0, f"{mismatches} mismatches on 200 random instances (N <= 20)")


# ----------------------------------------------------------------------
# criterion 3: miner against exhaustive pattern enumeration
# ----------------------------------------------------------------------


def test_criterion_03_mining_oracle():
    rng = np.random.default_rng(303)
    mismatches = 0
    for trial in range(100):
        cuts = {}
        for name in ("x", "y"):
            k = int(rng.integers(0, 3))
            cuts[name] = tuple(sorted(rng.choice([0.5, 1.5, 2.5, 3.5, 4.5], k, replace=False)))
        with_g = trial % 3 == 0
        if with_g:
            cuts["g"] = (0.5,)  # g is drawn from {0, 1}
        scheme = DiscretizationScheme(cuts=cuts)
        names = ["x", "y"] + (["g"] if with_g else [])

        def draw(count):
            cols = [rng.integers(0, 6, count), rng.integers(0, 6, count)]
            if with_g:
                cols.append(rng.integers(0, 2, count))
            return np.column_stack(cols)

        le = draw(int(rng.integers(2, 21)))
        se = draw(int(rng.integers(2, 21)))
        got = _mine(le, se, names, scheme, min_support_le=0.1, min_growth=1.5, max_len=3,
                    min_count_le=2)
        want = exhaustive_mine(le, se, names, scheme, 0.1, 1.5, 3, 2)
        flatten = lambda rows: [
            (str(p), st.support_le, st.support_se, st.count_le, st.count_se) for p, st in rows
        ]
        if flatten(got) != flatten(want):
            mismatches += 1
    _verdict(3, mismatches == 0,
             f"{mismatches} mismatches on 100 random datasets (<= 8 items, <= 40 rows)")


# ----------------------------------------------------------------------
# criteria 4 and 5: retention-curve fitting and the inflection identity
# ----------------------------------------------------------------------

_TENSIONS_40 = np.geomspace(1.0, 15000.0, 40)


def _random_params(rng) -> VgParameters:
    theta_r = float(rng.uniform(0.08, 0.20))
    theta_s = float(rng.uniform(theta_r + 0.20, 0.60))
    alpha = float(10.0 ** rng.uniform(-2.3, -1.5))
    n = float(rng.uniform(1.4, 2.8))
    return VgParameters(theta_r=theta_r, theta_s=theta_s, alpha=alpha, n=n)


def _worst_rel_error(true: VgParameters, got: VgParameters) -> float:
    return max(
        abs(got.theta_r - true.theta_r) / true.theta_r,
        abs(got.theta_s - true.theta_s) / true.theta_s,
        abs(got.alpha - true.alpha) / true.alpha,
        abs(got.n - true.n) / true.n,
    )


def test_criterion_04_parameter_recovery():
    rng = np.random.default_rng(42)
    worst_clean = 0.0
    for _ in range(50):
        p = _random_params(rng)
        points = [(float(h), float(vg_theta(p, float(h)))) for h in _TENSIONS_40]
        worst_clean = max(worst_clean, _worst_rel_error(p, fit_vg(points)))

    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(100):
        p = _random_params(rng)
        theta = np.array([vg_theta(p, float(h)) for h in _TENSIONS_40])
        noisy = theta + rng.normal(0.0, 0.01 * theta)
        points = [(float(h), float(t)) for h, t in zip(_TENSIONS_40, noisy)]
        try:
            hits += _worst_rel_error(p, fit_vg(points)) <= 0.05
        except Exception:
            pass

    ok = worst_clean <= 1e-3 and hits >= 90
    _verdict(4, ok, f"noise-free worst relative error {worst_clean:.2e} over 50 sets "
                    f"(limit 1e-3); {hits}/100 noisy fits within 5% (need 90)")


def test_criterion_05_inflection_identity():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        p = _random_params(rng)
        h_i, theta_i = inflection_point(p)
        dh = 3e-3 * h_i

        def second_derivative(x):
            f = lambda h: vg_theta(p, h)
            return (-f(x + 2 * dh) + 16 * f(x + dh) - 30 * f(x)
                    + 16 * f(x - dh) - f(x - 2 * dh)) / (12 * dh * dh)

        root = brentq(second_derivative, 0.2 * h_i, 5.0 * h_i, xtol=1e-13)
        worst = max(worst, abs(vg_theta(p, root) - theta_i) / theta_i)
    _verdict(5, worst <= 1e-4,
             f"worst relative gap {worst:.2e} between closed form and numerical root "
             f"over 100 parameter sets (limit 1e-4)")


# ----------------------------------------------------------------------
# criteria 6-8: comparative benchmarks (shared cross-validation cache)
# ----------------------------------------------------------------------

_CACHE: dict = {}


def _two_regime_runs():
    """Per seed: paired-fold reports of both methods on SHC2, plus the
    wall time of the pattern-model run."""
    if "two_regime" not in _CACHE:
        runs = []
        config = MODEL_CONFIGS["SHC2"]
        for seed in range(10):
            dataset, _ = generate(two_regime_config(n_samples=300, noise_sd=0.01, seed=seed))
            started = time.perf_counter()
            cpxr = cross_validate(dataset, config, method="cpxr",
                                  repetitions=1, seed=seed, k=10, jobs=1)
            elapsed = time.perf_counter() - started
            mlr = cross_validate(dataset, config, method="mlr",
                                 repetitions=1, seed=seed, k=10, jobs=1)
            runs.append((seed, cpxr, mlr, elapsed))
        _CACHE["two_regime"] = runs
    return _CACHE["two_regime"]


def _scale_effect_runs():
    """Per seed: reports for both methods with and without the
    measurement-scale features, single target theta_10."""
    if "scale_effect" not in _CACHE:
        without_scale = ModelConfig("T10_BASE", BASE_FEATURES, ("theta_10",))
        with_scale = ModelConfig("T10_SCALE", BASE_FEATURES + SCALE_FEATURES, ("theta_10",))
        runs = []
        for seed in range(10):
            dataset, _ = generate(scale_effect_config(n_samples=300, noise_sd=0.01, seed=seed))
            per = {}
            for method in ("cpxr", "mlr"):
                for label, config in (("base", without_scale), ("scale", with_scale)):
                    per[method, label] = cross_validate(dataset, config, method=method,
                                                        repetitions=1, seed=seed, k=10, jobs=1)
            runs.append(per)
        _CACHE["scale_effect"] = runs
    return _CACHE["scale_effect"]


def test_criterion_06_pattern_model_beats_plain_regression():
    cpxr_rmse, mlr_rmse = [], []
    slowest, degraded = 0.0, 0
    for _, cpxr, mlr, elapsed in _two_regime_runs():
        cpxr_rmse.append(cpxr.summary("test")["log_ksat"].rmse)
        mlr_rmse.append(mlr.summary("test")["log_ksat"].rmse)
        slowest = max(slowest, elapsed)
        degraded += sum(rec.degraded for rec in cpxr.records)
    ratio = float(np.mean(cpxr_rmse) / np.mean(mlr_rmse))
    ok = ratio <= 0.6 and slowest < 120.0 and degraded == 0
    _verdict(6, ok, f"mean test RMSE ratio {ratio:.4f} over 10 seeds (limit 0.6), "
                    f"slowest seed {slowest:.1f}s, degraded iterations {degraded}")


def test_criterion_07_scale_features_help_pattern_model_only():
    runs = _scale_effect_runs()

    def mean_rmse(method, label):
        return float(np.mean(
            [per[method, label].summary("test")["theta_10"].rmse for per in runs]
        ))

    cpxr_pct = 100.0 * (1.0 - mean_rmse("cpxr", "scale") / mean_rmse("cpxr", "base"))
    mlr_pct = 100.0 * (1.0 - mean_rmse("mlr", "scale") / mean_rmse("mlr", "base"))
    ok = 10.0 <= cpxr_pct <= 40.0 and mlr_pct < 5.0
    _verdict(7, ok, f"theta_10 RMSE drop with diameter and length features: "
                    f"pattern model {cpxr_pct:.1f}% (need 10-40), baseline {mlr_pct:.1f}% (need < 5)")


def test_criterion_08_training_error_never_worse():
    pairs = [(cpxr, mlr) for _, cpxr, mlr, _ in _two_regime_runs()]
    for per in _scale_effect_runs():
        pairs.append((per["cpxr", "base"], per["mlr", "base"]))
        pairs.append((per["cpxr", "scale"], per["mlr", "scale"]))

    iterations = violations = 0
    worst_excess = -math.inf
    for cpxr, mlr in pairs:
        assert len(cpxr.records) == len(mlr.records)
        for rec_c, rec_m in zip(cpxr.records, mlr.records):
            assert (rec_c.repetition, rec_c.split) == (rec_m.repetition, rec_m.split)
            for target, metrics in rec_c.train.items():
                iterations += 1
                excess = metrics.rmse - rec_m.train[target].rmse
                worst_excess = max(worst_excess, excess)
                violations += excess > 0.0
    ok = violations == 0 and iterations == 300
    _verdict(8, ok, f"{violations} violations over {iterations} training iterations, "
                    f"worst excess over baseline {worst_excess:.3e}")


# ----------------------------------------------------------------------
# criterion 9: cross-validation bookkeeping
# ----------------------------------------------------------------------


def test_criterion_09_cv_bookkeeping():
    dataset, _ = generate(two_regime_config(n_samples=120, noise_sd=0.01, seed=4))
    report = cross_validate(dataset, MODEL_CONFIGS["SHC2"], method="mlr",
                            repetitions=10, seed=4, k=10, jobs=1)
    counts = Counter(sid for rec in report.records for sid in rec.test_ids)
    ok = (len(report.records) == 100
          and len(counts) == 120
          and set(counts.values()) == {20})
    _verdict(9, ok, f"{len(report.records)} iterations recorded; "
                    f"{len(counts)} sample ids each tested {sorted(set(counts.values()))} times")


# ----------------------------------------------------------------------
# criterion 10: pipeline determinism
# ----------------------------------------------------------------------


def _run_pipeline(root, jobs: int):
    def run(argv):
        assert cli_main([str(a) for a in argv]) == 0, argv

    synth = root / "synth"
    run(["synth", "--out-dir", synth, "--kind", "two-regime", "--n", "60",
         "--noise-sd", "0.01", "--retention", "--seed", "13"])
    run(["fit-vg", "--input", synth / "retention.csv", "--out", root / "vg.csv",
         "--jobs", jobs, "--seed", "13"])
    run(["derive-features", "--basic", synth / "dataset.csv", "--vg", root / "vg.csv",
         "--out", root / "features.csv", "--seed", "13"])
    run(["train", "--features", root / "features.csv", "--config", "SWRC3",
         "--method", "cpxr", "--seed", "13", "--out-dir", root / "models"])
    run(["evaluate", "--features", synth / "dataset.csv", "--config", "SHC2",
         "--methods", "cpxr,mlr", "--reps", "2", "--k", "5", "--seed", "13",
         "--jobs", jobs, "--out-dir", root / "eval"])
    run(["predict", "--model", root / "models", "--features", root / "features.csv",
         "--out", root / "preds.csv", "--curve", root / "curves.csv", "--seed", "13"])
    run(["report", "--a", root / "eval" / "report_SHC2_cpxr.json",
         "--b", root / "eval" / "report_SHC2_mlr.json",
         "--out", root / "cmp.csv", "--seed", "13"])


def test_criterion_10_pipeline_determinism(tmp_path, capsys):
    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    _run_pipeline(run_a, jobs=1)
    _run_pipeline(run_b, jobs=2)
    capsys.readouterr()  # swallow the comparison tables the pipeline prints

    names_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    if names_a != names_b:
        _verdict(10, False, f"artifact sets differ: {names_a} vs {names_b}")
    differing = [str(rel) for rel in names_a
                 if (run_a / rel).read_bytes() != (run_b / rel).read_bytes()]
    ok = not differing and len(names_a) >= 15
    detail = (f"{len(names_a)} artifacts byte-identical across reruns with different "
              f"worker counts" if ok else f"artifacts differ: {differing}")
    _verdict(10, ok, detail)
