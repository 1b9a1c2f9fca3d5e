"""End-to-end and per-layer benchmark of the soilptf command line.

    python3 benchmark/run.py --workload cv-swrc2 --seed 7 --seconds 50 --trace 0
    python3 benchmark/run.py --workload all --seed 7 --seconds 50
    python3 benchmark/run.py --smoke

Run it from anywhere; it works on the checkout it sits in. BENCHMARK.json at
the root of that checkout fixes every metric's name and unit and declares
the workloads that gate changes (cv-swrc2 and fit-vg); cv-shc2-large and
predict run the same way on request and in ``--workload all``. For one
workload the script

1. generates the inputs with ``soilptf synth`` (and, for ``predict``,
   trains the models with ``soilptf train``), untimed; see DATA_SEED for
   what --seed changes;
2. with ``--trace 0``, times ``python -m soilptf --version`` several times
   (``setup_s``), then runs the workload command as a fresh subprocess again
   and again for --seconds (at least three times), each run between two
   runs of a fixed reference (see REFERENCE_CODE), and reports the medians
   of the end-to-end metrics;
3. with ``--trace 1``, alternates plain runs with runs under
   ``trace_child.py``, which puts spans around the calls between soilptf
   modules, and reports the per-layer medians and the tracing overhead.

Every run is checked: the command exits 0, its artifacts are hashed
(sha256) and must be byte-identical across all runs of one invocation,
traced or not, and their contents must pass the workload's plausibility
checks. A run that fails a check counts as failed in ``success_rate`` and
in ``failed``; it is not dropped. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The full
record (per-run times, digests, machine and version details) is written to
``.bench_work/<workload>/result.json``.

Needs only the standard library; soilptf itself needs numpy and scipy.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
TRACE_CHILD = BENCH_DIR / "trace_child.py"

MIN_RUNS = 3          # timed runs per invocation, whatever --seconds says
SETUP_RUNS = 10       # `soilptf --version` launches behind setup_s
RUN_LIMIT_S = 165.0   # stop starting runs once the invocation nears this age

# The CV workloads and the models of `predict` use the fixed synthetic table
# of seed 7; --seed picks the CV fold assignment, the retention table of
# `fit-vg` and the 10k-row table `predict` runs on. Across seeds the work
# stays comparable while every seed still gives the program new problems.
DATA_SEED = 7
# soilptf draws the folds of repetition r from seed XOR r; shifting the
# benchmark seed gives every benchmark seed its own fold sets.
FOLD_SEED_SHIFT = 10
TABLE_SEED_OFFSET = 1000  # keeps the predict table apart from the training table

# On a shared machine the speed of a core drifts by 20-50% over minutes, and
# the program's wall time drifts with it (CPU time equals wall time, so it is
# not waiting). This fixed piece of numpy work, of the kind the program does
# (sorts, cumulative sums and least squares on 300-row arrays), drifts the
# same way (per-run correlation 0.65 with fit-vg; a pure-Python loop showed
# none), so every untraced run is timed next to it and wall_s is reported
# at the reference's nominal speed: wall x REFERENCE_NOMINAL_S / reference.
# setup_s is scaled by the median reference of the invocation.
# The reference is the benchmark's own code: no change to soilptf moves it.
REFERENCE_CODE = """
import time
import numpy as np
rng = np.random.default_rng(0)
X = rng.random((300, 6))
y = rng.random(300)
t0 = time.perf_counter()
for i in range(8000):
    a = np.sort(X[:, i % 6])
    np.log(np.cumsum(a) + 1.0).sum()
    np.linalg.lstsq(X, y, rcond=None)
    {j: float(a[j]) for j in range(0, 300, 10)}
print(time.perf_counter() - t0)
"""
# Median reference time on a 2-core x86-64 VM, Python 3.11, numpy 2.4.
REFERENCE_NOMINAL_S = 0.45

# One process, one thread: BLAS thread pools would otherwise race for the
# few cores the benchmark machine has and add noise, not speed.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CPXR_PTF_SEED")}
    env.update(CHILD_ENV, PYTHONPATH=str(ROOT / "src"))
    return env


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stderr: str


def run_proc(argv, cwd: Path, deadline: float) -> Proc:
    """Run argv to completion; wall time, peak RSS (from wait4) and exit code.

    The process is killed if it is still running at the deadline.
    """
    err_path = cwd / ".stderr"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    # ru_maxrss is in KiB on Linux
    return Proc(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0,
                exit_code=proc.returncode, stderr=stderr)


def soilptf_argv(*args) -> list[str]:
    return [sys.executable, "-m", "soilptf", *map(str, args)]


def reference_time(cwd: Path, deadline: float) -> float:
    """Seconds REFERENCE_CODE takes in a fresh interpreter, by its own clock
    (interpreter start and imports excluded)."""
    try:
        proc = subprocess.run([sys.executable, "-c", REFERENCE_CODE], cwd=cwd, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        return float(proc.stdout)
    except (subprocess.TimeoutExpired, ValueError) as exc:
        raise BenchError(f"reference run failed: {exc!r}") from None


def run_setup_step(argv, cwd: Path, deadline: float, what: str):
    proc = run_proc(argv, cwd, deadline)
    if proc.exit_code != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no diagnostic)"]
        raise BenchError(f"{what} failed with exit code {proc.exit_code}: {tail[0]}")


# ----------------------------------------------------------------------
# artifacts
# ----------------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """A soilptf CSV artifact as (header, rows); '#' comment lines skipped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _rmse(pred, obs) -> float:
    return math.sqrt(sum((p - o) ** 2 for p, o in zip(pred, obs)) / len(obs))


def vg_theta(theta_r, theta_s, alpha, n, h) -> float:
    """The van Genuchten retention curve (stdlib twin of soilptf.vg_theta)."""
    if h <= 0:
        return theta_s
    return theta_r + (theta_s - theta_r) * (1.0 + (alpha * h) ** n) ** (-(1.0 - 1.0 / n))


@dataclass
class Outcome:
    """What one run's artifacts say, as far as the benchmark checks them."""

    attempted: int           # operations: CV iterations, curve fits, predicted samples
    failed: int              # degraded iterations, failed fits
    items: int               # work units behind items_per_s
    rmse: float
    rmse_ref: float
    problems: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    name = ""
    seeds: dict  # set by prepare(): the seed behind each generated input

    def prepare(self, inputs: Path, seed: int, deadline: float):
        """Generate the inputs under `inputs` (untimed)."""

    def argv(self, inputs: Path, out: Path) -> list[str]:
        """soilptf arguments of one timed run, writing its artifacts to `out`."""
        raise NotImplementedError

    def inspect(self, out: Path) -> Outcome:
        raise NotImplementedError

    def describe(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


def synth(inputs: Path, sub: str, n: int, seed: int, deadline: float, retention=False):
    argv = soilptf_argv("synth", "--out-dir", inputs / sub, "--kind", "two-regime",
                        "--n", n, "--seed", seed)
    if retention:
        argv.append("--retention")
    run_setup_step(argv, inputs, deadline, f"synth n={n} seed={seed}")


class Evaluate(Workload):
    def __init__(self, name, config, n, reps, k):
        self.name, self.config, self.n, self.reps, self.k = name, config, n, reps, k
        self.kind = "two_regime"

    def prepare(self, inputs, seed, deadline):
        self.seeds = {"data": DATA_SEED, "folds": seed << FOLD_SEED_SHIFT}
        synth(inputs, "data", self.n, DATA_SEED, deadline)

    def argv(self, inputs, out):
        return ["evaluate", "--features", inputs / "data" / "dataset.csv", "--config", self.config,
                "--methods", "cpxr,mlr", "--reps", self.reps, "--k", self.k, "--seed", self.seeds["folds"],
                "--jobs", 1, "--out-dir", out]

    def inspect(self, out):
        problems = []
        iterations = degraded = 0
        targets = None
        for method in ("cpxr", "mlr"):
            report = json.loads((out / f"report_{self.config}_{method}.json").read_text())["report"]
            records = report["records"]
            if len(records) != self.reps * self.k:
                problems.append(f"{method}: {len(records)} iterations, expected {self.reps * self.k}")
            iterations += len(records)
            degraded += sum(1 for r in records if r["degraded"])
            if targets not in (None, report["target_names"]):
                problems.append("cpxr and mlr reports cover different targets")
            targets = report["target_names"]
        # The program's own figure: the per-target mean test RMSE over the CV
        # iterations from summary_*.csv, averaged over the targets.
        header, rows = read_csv(out / f"summary_{self.config}.csv")
        col = {c: j for j, c in enumerate(header)}
        rmse = {(r[col["method"]], r[col["target"]]): float(r[col["rmse"]]) for r in rows}
        per_method = {}
        for method in ("cpxr", "mlr"):
            values = [rmse.get((method, t), math.nan) for t in targets]
            if not _finite(values) or min(values) <= 0:
                problems.append(f"{method}: missing or non-finite test RMSE in summary")
            per_method[method] = statistics.fmean(values)
        if not (out / f"comparison_{self.config}.csv").is_file():
            problems.append("comparison table missing")
        return Outcome(
            attempted=iterations,
            failed=degraded,
            items=iterations * len(targets),
            rmse=per_method["cpxr"],
            rmse_ref=per_method["mlr"],
            problems=problems,
        )


class FitVg(Workload):
    def __init__(self, name, n):
        self.name, self.n = name, n
        self.kind = "two_regime"
        self._floor = math.nan
        self._ids = []

    def prepare(self, inputs, seed, deadline):
        self.seeds = {"data": seed}
        synth(inputs, "data", self.n, seed, deadline, retention=True)
        # Noise floor: how well the generating curve itself fits the points.
        header, rows = read_csv(inputs / "data" / "dataset.csv")
        col = {c: j for j, c in enumerate(header)}
        truth = {
            r[0]: [float(r[col[c]]) for c in ("theta_r", "theta_s", "alpha", "n")] for r in rows
        }
        points: dict[str, list] = {}
        for sid, h, theta in read_csv(inputs / "data" / "retention.csv")[1]:
            points.setdefault(sid, []).append((float(h), float(theta)))
        self._ids = list(points)
        self._floor = statistics.median(
            _rmse([vg_theta(*truth[sid], h) for h, _ in pts], [t for _, t in pts])
            for sid, pts in points.items()
        )

    def argv(self, inputs, out):
        return ["fit-vg", "--input", inputs / "data" / "retention.csv", "--out", out / "vg.csv",
                "--seed", self.seeds["data"], "--jobs", 1]

    def inspect(self, out):
        problems = []
        header, rows = read_csv(out / "vg.csv")
        if header != ["id", "theta_r", "theta_s", "alpha_per_cm", "n", "fit_rmse"]:
            problems.append(f"unexpected vg.csv header {header}")
        fitted = {r[0]: [float(v) for v in r[1:]] for r in rows}
        if not set(fitted) <= set(self._ids):
            problems.append("vg.csv holds unknown sample ids")
        for sid, (theta_r, theta_s, alpha, n, fit_rmse) in fitted.items():
            if not (0 <= theta_r < theta_s <= 1 and alpha > 0 and n > 1 and fit_rmse >= 0):
                problems.append(f"{sid}: infeasible parameters")
                break
        median_fit = statistics.median(v[4] for v in fitted.values()) if fitted else math.nan
        # A least-squares optimum is never worse than the generating curve.
        if not median_fit <= self._floor * (1 + 1e-9):
            problems.append(f"median fit RMSE {median_fit} above the noise floor {self._floor}")
        return Outcome(
            attempted=len(self._ids),
            failed=len(self._ids) - len(fitted),
            items=len(self._ids),
            rmse=median_fit,
            rmse_ref=self._floor,
            problems=problems,
        )


class Predict(Workload):
    def __init__(self, name, config, n_train, n_predict):
        self.name, self.config, self.n_train, self.n_predict = name, config, n_train, n_predict
        self.kind = "two_regime"
        self._truth: dict[str, list[float]] = {}
        self._ids: list[str] = []
        self._ref = math.nan

    def prepare(self, inputs, seed, deadline):
        self.seeds = {"train": DATA_SEED, "table": seed + TABLE_SEED_OFFSET}
        synth(inputs, "train", self.n_train, DATA_SEED, deadline)
        run_setup_step(
            soilptf_argv("train", "--features", inputs / "train" / "dataset.csv", "--config",
                         self.config, "--method", "cpxr", "--seed", DATA_SEED, "--out-dir",
                         inputs / "models"),
            inputs, deadline, "train",
        )
        synth(inputs, "table", self.n_predict, self.seeds["table"], deadline)
        header, rows = read_csv(inputs / "table" / "dataset.csv")
        col = {c: j for j, c in enumerate(header)}
        self._ids = [r[0] for r in rows]
        baselines = {}
        for path in sorted((inputs / "models").glob(f"{self.config}_cpxr_*.json")):
            doc = json.loads(path.read_text())
            if "target" in doc:
                baselines[doc["target"]] = doc["model"]["baseline"]
        self._truth = {t: [float(r[col[t]]) for r in rows] for t in baselines}
        # rmse_ref: the models' own MLR baselines on the same table
        errors = []
        for target, base in baselines.items():
            coefs = [(col[f], c) for f, c in base["coefficients"].items()]
            pred = [base["intercept"] + sum(float(r[j]) * c for j, c in coefs) for r in rows]
            errors.append(_rmse(pred, self._truth[target]))
        self._ref = statistics.fmean(errors)

    def argv(self, inputs, out):
        return ["predict", "--model", inputs / "models", "--features",
                inputs / "table" / "dataset.csv", "--out", out / "pred.csv",
                "--seed", self.seeds["table"]]

    def inspect(self, out):
        problems = []
        header, rows = read_csv(out / "pred.csv")
        if [r[0] for r in rows] != self._ids:
            problems.append("pred.csv rows do not follow the input table")
        if sorted(header[1:]) != sorted(self._truth):
            problems.append(f"pred.csv targets {header[1:]} differ from the models'")
        errors = []
        for j, target in enumerate(header[1:], start=1):
            pred = [float(r[j]) for r in rows]
            obs = self._truth.get(target)
            if obs is None or len(pred) != len(obs) or not _finite(pred):
                problems.append(f"{target}: predictions missing or non-finite")
                continue
            err = _rmse(pred, obs)
            # better than predicting the mean: R^2 > 0
            if not err < statistics.pstdev(obs):
                problems.append(f"{target}: RMSE {err} no better than the mean")
            errors.append(err)
        return Outcome(
            attempted=len(self._ids),
            failed=0,
            items=len(rows) * len(header[1:]),
            rmse=statistics.fmean(errors) if errors else math.nan,
            rmse_ref=self._ref,
            problems=problems,
        )


def workloads(smoke: bool) -> dict[str, Workload]:
    if smoke:
        wls = [
            Evaluate("cv-swrc2", "SWRC2", n=60, reps=1, k=5),
            Evaluate("cv-shc2-large", "SHC2", n=80, reps=1, k=5),
            FitVg("fit-vg", n=8),
            Predict("predict", "SWRC2", n_train=60, n_predict=40),
        ]
    else:
        wls = [
            Evaluate("cv-swrc2", "SWRC2", n=300, reps=2, k=10),
            Evaluate("cv-shc2-large", "SHC2", n=3000, reps=1, k=10),
            FitVg("fit-vg", n=300),
            Predict("predict", "SWRC2", n_train=300, n_predict=10000),
        ]
    return {w.name: w for w in wls}


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------


@dataclass
class Run:
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    digests: dict
    outcome: Outcome | None
    problems: list[str]
    layers: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    ref_s: float = math.nan  # mean reference time just before and after the run


class Session:
    """All runs of one workload in one invocation, with their checks."""

    def __init__(self, wl: Workload, work: Path, deadline: float):
        self.wl, self.work, self.deadline = wl, work, deadline
        self.inputs = work / "inputs"
        self.runs: list[Run] = []
        self.reference: Run | None = None  # first run that passed its checks

    def run_once(self, traced: bool) -> Run:
        out = self.work / f"run{len(self.runs)}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cmd = [str(a) for a in self.wl.argv(self.inputs, out)]
        trace_path = self.work / "trace.json"
        if traced:
            argv = [sys.executable, str(TRACE_CHILD), str(trace_path), "--", *cmd]
        else:
            argv = soilptf_argv(*cmd)
        proc = run_proc(argv, self.work, self.deadline)
        run = Run(traced, proc.wall_s, proc.cpu_s, proc.rss_mb, proc.exit_code, digests(out), None, [])
        if proc.exit_code != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no diagnostic)"]
            run.problems.append(f"exit code {proc.exit_code}: {tail[0]}")
        ref = self.reference
        if run.exit_code == 0 and ref is not None and run.digests == ref.digests:
            run.outcome = ref.outcome  # identical bytes, identical contents
        elif run.exit_code == 0:
            try:
                run.outcome = self.wl.inspect(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                run.problems.append(f"unreadable artifacts: {exc!r}")
            if run.outcome:
                run.problems.extend(run.outcome.problems)
            if ref is not None:
                changed = sorted(k for k in set(run.digests) | set(ref.digests)
                                 if run.digests.get(k) != ref.digests.get(k))
                run.problems.append(f"artifacts differ from the reference run: {changed}")
                if run.outcome and (run.outcome.rmse, run.outcome.rmse_ref) != (
                        ref.outcome.rmse, ref.outcome.rmse_ref):
                    run.problems.append("rmse differs from the reference run")
        if traced and trace_path.is_file():
            doc = json.loads(trace_path.read_text())
            run.layers, run.missing = doc["metrics"], doc["missing"]
            trace_path.unlink()
        elif traced:
            run.problems.append("traced run wrote no trace")
        if self.reference is None and not run.problems:
            self.reference = run
        shutil.rmtree(out)
        self.runs.append(run)
        return run

    def measure(self, seconds: float, min_rounds: int, modes: tuple[bool, ...]):
        start = time.monotonic()
        rounds = 0
        before = reference_time(self.work, self.deadline)
        while True:
            t0 = time.monotonic()
            runs = [self.run_once(traced) for traced in modes]
            after = reference_time(self.work, self.deadline)
            for r in runs:
                r.ref_s = (before + after) / 2
            before = after
            rounds += 1
            now = time.monotonic()
            last = now - t0
            if now + last > self.deadline:
                break
            if rounds >= min_rounds and now - start + last > seconds:
                break

    def check_all(self) -> list[str]:
        problems = [f"run {i}: {p}" for i, r in enumerate(self.runs) for p in r.problems]
        if self.reference is None:
            problems.append("no run passed its checks")
        return problems

    def counts(self) -> tuple[int, int]:
        """(attempted, failed) operations over all runs; a run that failed a
        check counts every operation as failed."""
        per_run = self.reference.outcome.attempted if self.reference else 1
        attempted = failed = 0
        for r in self.runs:
            n = r.outcome.attempted if r.outcome else per_run
            attempted += n
            failed += n if r.problems else r.outcome.failed
        return attempted, failed


def setup_time(work: Path, deadline: float, runs: int) -> tuple[float, list[float]]:
    """Median wall time of a fresh `soilptf --version` (interpreter start,
    imports, parser), after one untimed warm-up that fills bytecode caches."""
    probe = subprocess.run(soilptf_argv("--version"), cwd=work, env=_child_env(),
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or not probe.stdout.startswith("soilptf "):
        raise BenchError(f"soilptf --version failed: {probe.stderr.strip()[-300:]}")
    times = []
    for _ in range(runs):
        proc = run_proc(soilptf_argv("--version"), work, deadline)
        if proc.exit_code != 0:
            raise BenchError("soilptf --version failed")
        times.append(proc.wall_s)
    return statistics.median(times), times


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "child_env": CHILD_ENV,
    }


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 setup_runs: int = SETUP_RUNS, min_runs: int = MIN_RUNS) -> dict:
    """Prepare the inputs, then run the workload for `seconds`.

    Untraced: `setup_runs` timed `--version` launches, then at least
    `min_runs` runs. Traced: pairs of an untraced and a traced run, at least
    one pair. End-to-end metrics come from the untraced runs, per-layer
    metrics from the traced ones.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    session = Session(wl, work, deadline)

    setup = setup_time(work, deadline, setup_runs) if setup_runs else None
    wl.prepare(session.inputs, seed, deadline)
    prepared_s = time.monotonic() - start
    if trace:
        session.measure(seconds, 1, (False, True))
    else:
        session.measure(seconds, min_runs, (False,))

    problems = session.check_all()
    attempted, failed = session.counts()
    ref = session.reference
    plain = [r for r in session.runs if not r.traced]
    traced = [r for r in session.runs if r.traced]
    wall = statistics.median(r.wall_s * REFERENCE_NOMINAL_S / r.ref_s for r in plain)
    metrics: dict[str, float] = {
        "wall_s": wall,
        "wall_raw_s": statistics.median(r.wall_s for r in plain),
        "reference_s": statistics.median(r.ref_s for r in plain),
        "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        "success_rate": 1.0 - failed / attempted,
    }
    if setup:
        # at nominal speed, like wall_s
        metrics["setup_s"] = setup[0] * REFERENCE_NOMINAL_S / metrics["reference_s"]
        metrics["setup_raw_s"] = setup[0]
    if ref is not None:
        metrics["items_per_s"] = ref.outcome.items / wall
        metrics["rmse"] = ref.outcome.rmse
        metrics["rmse_ref"] = ref.outcome.rmse_ref
    if traced:
        for name in sorted(set.intersection(*(set(r.layers) for r in traced))):
            metrics[name] = statistics.median(r.layers[name] for r in traced)
        metrics["trace.wall_s"] = statistics.median(r.wall_s for r in traced)
        # runs alternate, so compare each traced run with the untraced one before it
        metrics["trace.overhead_s"] = statistics.median(
            t.wall_s - u.wall_s for u, t in zip(plain, traced))

    return {
        "workload": wl.name,
        "input": wl.describe(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_s_runs": setup[1] if setup else [],
        "prepare_s": prepared_s,
        "missing_names": sorted({m for r in session.runs for m in r.missing}),
        "runs": [
            {"traced": r.traced, "wall_s": r.wall_s, "ref_s": r.ref_s, "cpu_s": r.cpu_s,
             "rss_mb": r.rss_mb,
             "exit_code": r.exit_code, "problems": r.problems, "digests": r.digests}
            for r in session.runs
        ],
        "environment": environment(),
    }


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def result_line(result: dict, units: dict, prefix: str = "") -> dict:
    """The declared metrics of a result, with their units; absent ones are
    left out (and named on stderr)."""
    absent = [n for n in units if n not in result["metrics"]]
    if absent:
        print(f"{result['workload']}: metrics absent: {', '.join(absent)}", file=sys.stderr)
    return {
        prefix + name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
        if name in result["metrics"]
    }


def print_table(result: dict, line: dict):
    mode = "traced" if result["trace"] else "untraced"
    n_runs = len(result["runs"])
    print(f"== {result['workload']} seed={result['seed']} ({mode}, {n_runs} runs, "
          f"correct={result['correct']}, failed {result['failed']} of {result['attempted']})")
    env = result["environment"]
    print(f"   {env['cpu_count']} cores, Python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, commit {env['commit']}, src sha256 {env['source_sha256'][:12]}")
    m = result["metrics"]
    print(f"   raw wall time {m['wall_raw_s']:.6g} s, raw set-up {m.get('setup_raw_s', math.nan):.6g} s, "
          f"reference {m['reference_s']:.6g} s (nominal {REFERENCE_NOMINAL_S} s)")
    for p in result["problems"]:
        print(f"   problem: {p}")
    for name, m in line.items():
        print(f"   {name:<40} {m['value']:>14.6g} {m['unit']}")
    if result["missing_names"]:
        print(f"   names not found (their metrics are absent): {', '.join(result['missing_names'])}")


def write_result(result: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def smoke(seed: int) -> int:
    """Every workload on tiny inputs, untraced and traced; checks that each
    declared metric is emitted with its unit."""
    e2e, layers = declared_metrics()
    bad = []
    for wl in workloads(smoke=True).values():
        result = run_workload(wl, seed, 0.0, trace=True, setup_runs=1, min_runs=1)
        line = {**result_line(result, e2e), **result_line(result, layers)}
        print_table(result, line)
        missing = sorted((set(e2e) | set(layers)) - set(line))
        if missing:
            bad.append(f"{wl.name}: metrics not emitted: {missing}")
        if not result["correct"]:
            bad.append(f"{wl.name}: incorrect: {result['problems']}")
    for b in bad:
        print(f"smoke: {b}", file=sys.stderr)
    print("smoke: ok" if not bad else "smoke: FAILED")
    return 1 if bad else 0


def main(argv=None) -> int:
    names = list(workloads(smoke=False))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; check every metric is emitted")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")

    try:
        if not (ROOT / "src" / "soilptf" / "__main__.py").is_file():
            raise BenchError(f"no soilptf sources under {ROOT / 'src'}")
        if args.smoke:
            return smoke(args.seed)
        e2e, layers = declared_metrics()
        if args.workload != "all":
            wl = workloads(smoke=False)[args.workload]
            result = run_workload(wl, args.seed, args.seconds, bool(args.trace),
                                  setup_runs=0 if args.trace else SETUP_RUNS)
            line = result_line(result, layers if args.trace else e2e)
            write_result(result, WORK / wl.name / "result.json")
            print_table(result, line)
            summary = {"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": line}
        else:
            # Every workload, untraced then traced; metric names get the
            # workload as prefix.
            results, line = [], {}
            for wl in workloads(smoke=False).values():
                for trace, units in ((False, e2e), (True, layers)):
                    result = run_workload(wl, args.seed, args.seconds, trace,
                                          setup_runs=0 if trace else SETUP_RUNS)
                    part = result_line(result, units, prefix=f"{wl.name}.")
                    print_table(result, part)
                    results.append(result)
                    line.update(part)
            write_result({"results": results}, WORK / "results.json")
            summary = {"correct": all(r["correct"] for r in results),
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results),
                       "metrics": line}
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
