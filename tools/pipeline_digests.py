"""Run the standard seed-7 soilptf pipeline and print the sha256 of every artifact.

Usage:
    python3 tools/pipeline_digests.py [--src DIR] > digests.json
    python3 tools/pipeline_digests.py [--src DIR] --against digests.json

The pipeline runs `python -m soilptf` from DIR (default: the `src` directory
of the checkout holding this script) in a fresh temporary directory:

    synth two-regime n=300 --retention, synth default n=120 --noise-sd 0
    (the scale rule without jitter), fit-vg, derive-features,
    train SWRC2, SWRC4 and SHC2 cpxr and SWRC3 mlr,
    evaluate SWRC2 cpxr,mlr --reps 1 --k 5, the same evaluate with --methods
    cpxr alone and with --methods mlr alone (steps evaluate-cpxr and
    evaluate-mlr: each method's report must not depend on the other method
    sharing its splits), predict SWRC4 --curve, report,
    fit-vg on a mixed retention table the script writes itself
    (MIXED_SAMPLES: 9-, 13- and 15-point samples and a minority that
    fails, so the grouping by point count and the fail lines are hashed),
    fit-vg on the same rows shuffled by random.Random(7) (step
    fit-vg-interleaved: the samples' rows interleaved, so the grouping of
    rows by sample is hashed) and fit-vg on the mixed table with --jobs 2
    (step fit-vg-mixed-jobs2: the samples fitted in two ranges),
    fit-vg on the mixed table rewritten with CRLF line ends, two "#"
    comment lines and every cell padded with spaces (step fit-vg-crlf:
    its vg.csv and vg.log must equal those of step fit-vg-mixed, and the
    run stops if they differ),
    and derive-features on a basic and a vg table the script writes itself
    (edge_tables: ksat_cm_day with empty cells, so log_ksat from measured
    conductivity is hashed, parameters at their bounds, texture sums off
    100 by up to 0.4, and one sample without parameters),
    evaluate SWRC2 cpxr,mlr again with --dump-predictions, so the
    prediction tables are hashed, and derive-features then predict SWRC4
    --curve on a basic and a vg table the script writes itself
    (quoted_tables: ids holding commas, quotes, "#" and non-ASCII text, so
    the quoting of every table those commands write is hashed),
    evaluate SWRC2 cpxr,mlr --reps 2 --k 5 --jobs 2 (the process-pool
    route), evaluate SWRC2 cpxr,mlr with --set min_train=1000, above
    the table's 300 samples, so every cpxr iteration falls back to the
    baseline regression and is flagged degraded, and train SWRC2 cpxr with
    the same setting, which must exit 1 and write nothing, train SWRC2
    cpxr with --set jaccard_max=1.0 --set min_growth=1.0 (step
    train-swrc2-all-candidates: no pattern is filtered out as similar, so
    the miner's whole scan order reaches the optimizer's tie-breaks), and last
    synth two-regime n=700 --seed 11 --retention (step synth-700) and
    fit-vg on that table (step fit-vg-700): 3,500 lanes of one point
    count, about 11 times the lanes a fit keeps in flight, so the fits of
    lanes admitted into freed slots are hashed

Every step runs with --seed 7 unless it names its own. It prints one JSON
object mapping each artifact's path (relative to the run directory) to its
sha256; each step's exit code, stdout and stderr count as
one more artifact, `<step>.out`. A step exiting with another code than it
expects (0 unless EXIT_CODES says otherwise), or a failing step that leaves
files behind, stops the run. Equal objects from two checkouts run on one
machine mean byte-identical artifacts: with --against FILE, the digests
another run printed, it prints one line per artifact path whose digest
differs, is missing or is new, and exits 1 if there is one; it exits 0 when
every digest matches. Uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "7"

STEPS = [
    ("synth", ["synth", "--out-dir", "data", "--kind", "two-regime", "--n", "300",
               "--retention"]),
    ("synth-default-noise0", ["synth", "--out-dir", "default0", "--kind", "default",
                              "--noise-sd", "0", "--n", "120"]),
    ("fit-vg", ["fit-vg", "--input", "data/retention.csv", "--out", "vg.csv",
                "--jobs", "1"]),
    ("derive", ["derive-features", "--basic", "data/dataset.csv", "--vg", "vg.csv",
                "--out", "features.csv"]),
    ("train-SWRC2-cpxr", ["train", "--features", "features.csv", "--config", "SWRC2",
                          "--method", "cpxr", "--out-dir", "models/SWRC2_cpxr"]),
    ("train-SWRC4-cpxr", ["train", "--features", "features.csv", "--config", "SWRC4",
                          "--method", "cpxr", "--out-dir", "models/SWRC4_cpxr"]),
    ("train-SHC2-cpxr", ["train", "--features", "data/dataset.csv", "--config", "SHC2",
                         "--method", "cpxr", "--out-dir", "models/SHC2_cpxr"]),
    ("train-SWRC3-mlr", ["train", "--features", "features.csv", "--config", "SWRC3",
                         "--method", "mlr", "--out-dir", "models/SWRC3_mlr"]),
    ("evaluate", ["evaluate", "--features", "features.csv", "--config", "SWRC2",
                  "--methods", "cpxr,mlr", "--reps", "1", "--k", "5", "--jobs", "1",
                  "--out-dir", "eval"]),
    ("evaluate-cpxr", ["evaluate", "--features", "features.csv", "--config", "SWRC2",
                       "--methods", "cpxr", "--reps", "1", "--k", "5", "--jobs", "1",
                       "--out-dir", "eval-cpxr"]),
    ("evaluate-mlr", ["evaluate", "--features", "features.csv", "--config", "SWRC2",
                      "--methods", "mlr", "--reps", "1", "--k", "5", "--jobs", "1",
                      "--out-dir", "eval-mlr"]),
    ("predict", ["predict", "--model", "models/SWRC4_cpxr", "--features", "features.csv",
                 "--out", "pred.csv", "--curve", "curve.csv"]),
    ("report", ["report", "--a", "eval/report_SWRC2_cpxr.json",
                "--b", "eval/report_SWRC2_mlr.json", "--split", "test",
                "--out", "comparison.csv"]),
    ("fit-vg-mixed", ["fit-vg", "--input", "mixed/retention.csv", "--out", "mixed/vg.csv",
                      "--jobs", "1"]),
    ("fit-vg-interleaved", ["fit-vg", "--input", "mixed/interleaved.csv",
                            "--out", "mixed/vg-interleaved.csv", "--jobs", "1"]),
    ("fit-vg-mixed-jobs2", ["fit-vg", "--input", "mixed/retention.csv",
                            "--out", "mixed/vg-jobs2.csv", "--jobs", "2"]),
    ("fit-vg-crlf", ["fit-vg", "--input", "mixed/crlf.csv", "--out", "mixed/vg-crlf.csv",
                     "--jobs", "1"]),
    ("derive-edges", ["derive-features", "--basic", "edges/basic.csv", "--vg", "edges/vg.csv",
                      "--out", "edges/features.csv"]),
    ("evaluate-dump", ["evaluate", "--features", "features.csv", "--config", "SWRC2",
                       "--methods", "cpxr,mlr", "--reps", "1", "--k", "5", "--jobs", "1",
                       "--dump-predictions", "--out-dir", "eval-dump"]),
    ("derive-quoted", ["derive-features", "--basic", "quoted/basic.csv", "--vg", "quoted/vg.csv",
                       "--out", "quoted/features.csv"]),
    ("predict-quoted", ["predict", "--model", "models/SWRC4_cpxr",
                        "--features", "quoted/features.csv", "--out", "quoted/pred.csv",
                        "--curve", "quoted/curve.csv"]),
    ("evaluate-jobs2", ["evaluate", "--features", "features.csv", "--config", "SWRC2",
                        "--methods", "cpxr,mlr", "--reps", "2", "--k", "5", "--jobs", "2",
                        "--out-dir", "eval-jobs2"]),
    ("evaluate-degraded", ["evaluate", "--features", "features.csv", "--config", "SWRC2",
                           "--methods", "cpxr,mlr", "--reps", "1", "--k", "5", "--jobs", "1",
                           "--set", "min_train=1000", "--out-dir", "eval-degraded"]),
    ("train-too-few", ["train", "--features", "features.csv", "--config", "SWRC2",
                       "--method", "cpxr", "--set", "min_train=1000",
                       "--out-dir", "models/too_few"]),
    ("train-swrc2-all-candidates", ["train", "--features", "features.csv", "--config", "SWRC2",
                                    "--method", "cpxr", "--set", "jaccard_max=1.0",
                                    "--set", "min_growth=1.0",
                                    "--out-dir", "models/SWRC2_all"]),
    ("synth-700", ["synth", "--out-dir", "data700", "--kind", "two-regime", "--n", "700",
                   "--retention", "--seed", "11"]),
    ("fit-vg-700", ["fit-vg", "--input", "data700/retention.csv", "--out", "vg700.csv",
                    "--jobs", "1"]),
]

# The exit code of each step expected to fail; every other step must exit 0.
EXIT_CODES = {"train-too-few": 1}

# The mixed table: (id, points, fault) per sample, in row order. A fault
# makes the sample fail: a negative tension, a theta above 1, only 4
# points, or tensions spanning less than a decade.
MIXED_SAMPLES = [
    ("m00", 13, None), ("m01", 9, None), ("m02", 15, None), ("m03", 13, "negative"),
    ("m04", 9, None), ("m05", 15, None), ("m06", 4, "few"), ("m07", 13, None),
    ("m08", 15, "theta"), ("m09", 9, None), ("m10", 13, "narrow"), ("m11", 15, None),
    ("m12", 9, None), ("m13", 13, None),
]


def mixed_retention_csv() -> str:
    """The mixed retention table's CSV text: each sample a van Genuchten
    curve (theta_r, theta_s, alpha, n drawn from random.Random(7)) at
    saturation and geometrically spaced tensions up to 15000 cm, with
    N(0, 0.003) noise, clipped to [0, 1]; then its fault applied."""
    rng = random.Random(7)
    lines = ["id,tension_cm,theta"]
    for sid, points, fault in MIXED_SAMPLES:
        theta_r, theta_s = rng.uniform(0.0, 0.15), rng.uniform(0.35, 0.55)
        alpha, n = 10 ** rng.uniform(-2.5, -1.0), rng.uniform(1.2, 3.0)
        top, low = (95.0, 10.0) if fault == "narrow" else (15000.0, 1.0)
        tensions = [0.0] + [low * (top / low) ** (k / (points - 2)) for k in range(points - 1)]
        rows = []
        for h in tensions:
            curve = theta_r + (theta_s - theta_r) * (1.0 + (alpha * h) ** n) ** (1.0 / n - 1.0)
            rows.append([h, min(max(curve + rng.gauss(0.0, 0.003), 0.0), 1.0)])
        if fault == "negative":
            rows[3][0] = -5.0
        elif fault == "theta":
            rows[5][1] = 1.2
        lines.extend(f"{sid},{h!r},{t!r}" for h, t in rows)
    return "\n".join(lines) + "\n"


# (theta_r, theta_s, alpha, n) at the bounds of VgParameters, given to the
# first samples of the edge tables; the others draw theirs.
EDGE_PARAMETERS = [
    (0.0, 1.0, 0.02, 1.5),
    (0.1, 0.45, 1e-6, 1.0000000000000002),
    (0.0, 0.3, 50.0, 20.0),
    (0.2999999999999999, 0.3, 0.5, 1.0001),
]


def edge_tables() -> tuple[str, str]:
    """The CSV texts of the edge tables' basic and vg tables: 16 samples
    drawn from random.Random(11), texture summing to 100 + a fixed offset
    of at most 0.4, every third ksat_cm_day empty; the last sample has no
    row in the vg table."""
    rng = random.Random(11)
    basic = ["id,sand,silt,clay,bulk_density,internal_diameter_cm,length_cm,ksat_cm_day"]
    vg = ["id,theta_r,theta_s,alpha_per_cm,n,fit_rmse"]
    for k in range(16):
        sid = f"e{k:02d}"
        sand = round(rng.uniform(0.0, 100.0), 2)
        silt = round(rng.uniform(0.0, 100.0 - sand), 2)
        clay = round(100.0 - sand - silt + (-0.4, -0.2, 0.0, 0.2, 0.4)[k % 5], 2)
        ksat = "" if k % 3 == 0 else repr(10 ** rng.uniform(-2.0, 3.0))
        basic.append(f"{sid},{sand!r},{silt!r},{max(clay, 0.0)!r},{rng.uniform(1.1, 1.7)!r},"
                     f"{rng.choice((5.0, 8.0, 10.0))!r},{rng.choice((1.0, 5.0, 20.0))!r},{ksat}")
        if k < len(EDGE_PARAMETERS):
            params = EDGE_PARAMETERS[k]
        else:
            theta_r = rng.uniform(0.0, 0.15)
            params = (theta_r, rng.uniform(0.35, 0.55), 10 ** rng.uniform(-3.0, 0.0),
                      rng.uniform(1.05, 4.0))
        if k < 15:
            vg.append(f"{sid}," + ",".join(repr(p) for p in params) + ",0.001")
    return "\n".join(basic) + "\n", "\n".join(vg) + "\n"


# Sample ids of the quoted tables: each needs quoting in a CSV cell, or
# starts with "#", or is not ASCII.
QUOTED_IDS = ["a,b", 'say "hi"', "#3", "Bodenprobe \u00fc", '\u540d,"x"', "e#5"]


def quoted_tables() -> tuple[str, str]:
    """The CSV texts of the quoted tables' basic and vg tables: one sample
    per QUOTED_IDS entry, every id quoted, properties and parameters drawn
    from random.Random(13)."""
    rng = random.Random(13)
    basic = ["id,sand,silt,clay,bulk_density,internal_diameter_cm,length_cm,ksat_cm_day"]
    vg = ["id,theta_r,theta_s,alpha_per_cm,n,fit_rmse"]
    for sid in QUOTED_IDS:
        cell = '"' + sid.replace('"', '""') + '"'
        sand = round(rng.uniform(5.0, 90.0), 2)
        silt = round(rng.uniform(0.0, 100.0 - sand), 2)
        clay = round(100.0 - sand - silt, 2)
        basic.append(f"{cell},{sand!r},{silt!r},{clay!r},{rng.uniform(1.1, 1.7)!r},"
                     f"{rng.choice((5.0, 8.0, 10.0))!r},{rng.choice((1.0, 5.0, 20.0))!r},"
                     f"{10 ** rng.uniform(-2.0, 3.0)!r}")
        params = (rng.uniform(0.0, 0.15), rng.uniform(0.35, 0.55), 10 ** rng.uniform(-3.0, 0.0),
                  rng.uniform(1.05, 4.0))
        vg.append(f"{cell}," + ",".join(repr(p) for p in params) + ",0.001")
    return "\n".join(basic) + "\n", "\n".join(vg) + "\n"


def run_pipeline(src: Path, work: Path) -> dict[str, str]:
    """Run every step in work with soilptf imported from src; return the
    {relative path: sha256} of every file left in work."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("CPXR_PTF_SEED", None)
    (work / "mixed").mkdir()
    header, *rows = mixed_retention_csv().splitlines(keepends=True)
    (work / "mixed" / "retention.csv").write_text(header + "".join(rows), encoding="utf-8")
    padded = [",".join(f" {cell} " for cell in line.rstrip("\n").split(",")) + "\r\n"
              for line in [header, *rows]]
    crlf = "# the mixed table, CRLF line ends\r\n# every cell padded\r\n" + "".join(padded)
    (work / "mixed" / "crlf.csv").write_bytes(crlf.encode("utf-8"))
    random.Random(7).shuffle(rows)
    (work / "mixed" / "interleaved.csv").write_text(header + "".join(rows), encoding="utf-8")
    (work / "edges").mkdir()
    basic, vg = edge_tables()
    (work / "edges" / "basic.csv").write_text(basic, encoding="utf-8")
    (work / "edges" / "vg.csv").write_text(vg, encoding="utf-8")
    (work / "quoted").mkdir()
    basic, vg = quoted_tables()
    (work / "quoted" / "basic.csv").write_text(basic, encoding="utf-8")
    (work / "quoted" / "vg.csv").write_text(vg, encoding="utf-8")
    for name, args in STEPS:
        before = set(work.rglob("*"))
        seed = [] if "--seed" in args else ["--seed", SEED]
        done = subprocess.run(
            [sys.executable, "-m", "soilptf", *args, *seed],
            cwd=work, env=env, capture_output=True, text=True,
        )
        left = sorted(str(path.relative_to(work)) for path in set(work.rglob("*")) - before)
        record = f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
        (work / f"{name}.out").write_text(record, encoding="utf-8")
        expected = EXIT_CODES.get(name, 0)
        if done.returncode != expected:
            sys.exit(f"step {name} exited {done.returncode}, expected {expected}:\n{done.stderr}")
        if expected and left:
            sys.exit(f"step {name} failed but left {left}")
    digests = {
        path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.rglob("*"))
        if path.is_file()
    }
    for suffix in (".csv", ".log"):
        if digests[f"mixed/vg-crlf{suffix}"] != digests[f"mixed/vg{suffix}"]:
            sys.exit(f"step fit-vg-crlf wrote another mixed/vg-crlf{suffix} than mixed/vg{suffix}")
    return digests


def differences(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """One line per artifact path, in path order, whose digest in got
    differs from expected, is missing from got or is new in it."""
    lines = []
    for path in sorted(expected.keys() | got.keys()):
        if path not in got:
            lines.append(f"missing: {path}")
        elif path not in expected:
            lines.append(f"new: {path}")
        elif got[path] != expected[path]:
            lines.append(f"differs: {path}")
    return lines


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=here / "src",
                        help="directory holding the soilptf package (default: %(default)s)")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="digests printed by an earlier run: name each artifact that "
                             "differs, is missing or is new, and exit 1 if there is one")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "soilptf" / "__init__.py").is_file():
        parser.error(f"{src} holds no soilptf package")
    expected = json.loads(args.against.read_text(encoding="utf-8")) if args.against else None
    with tempfile.TemporaryDirectory(prefix="soilptf-digests-") as tmp:
        digests = run_pipeline(src, Path(tmp))
    if expected is None:
        json.dump(digests, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    lines = differences(expected, digests)
    print("\n".join(lines) if lines else f"all {len(digests)} digests match")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
