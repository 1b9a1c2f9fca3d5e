"""Run one soilptf command with spans around its layer boundaries.

Usage (PYTHONPATH must point at the soilptf sources under test):

    python trace_child.py TRACE_OUT.json -- <soilptf arguments>

The program itself carries no timers. This script replaces the names one
soilptf module calls in another (for example ``soilptf.cpxr.build_scheme``)
with wrappers that time each call and count what went in and out, runs
``soilptf.cli.main`` on the given arguments, and writes the per-layer
numbers to TRACE_OUT.json. A layer's self time is its total duration minus
the time its child spans cover and minus the measured cost of the wrappers
called directly inside it (``trace.correction_s`` in total, over
``trace.wrapped_calls`` calls). A wrapped name that does not exist at the
commit under test is listed under "missing" and the metrics that depend on
it are left out; the command still runs.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (layer, module, attribute) — each attribute is a name the module looks up
# at call time, so replacing it there puts a span on every call through it.
SPANS = [
    ("discretize", "soilptf.cpxr", "build_scheme"),
    ("patterns.mine", "soilptf.cpxr", "_mine_masks"),
    ("patterns.filter", "soilptf.cpxr", "filter_similar_masks"),
    ("cpxr.optimize", "soilptf.cpxr", "_optimize"),
    ("cpxr.split", "soilptf.cpxr", "split_le_se"),
    ("linreg.fit", "soilptf.cpxr", "fit_local"),
    ("linreg.fit", "soilptf.evaluation", "fit_local"),
    ("linreg.fit", "soilptf.cli", "fit_local"),
    ("cpxr.train", "soilptf.evaluation", "train_cpxr"),
    ("cpxr.train", "soilptf.cli", "train_cpxr"),
    ("cpxr.predict", "soilptf.cpxr", "PxrModel.predict"),
    ("cpxr.predict", "soilptf.cpxr", "PxrModel.predict_matrix"),
    ("linreg.predict", "soilptf.linreg", "LinearModel.predict"),
    ("linreg.predict", "soilptf.linreg", "LinearModel.predict_matrix"),
    ("data.load", "soilptf.cli", "load_dataset"),
    ("data.select", "soilptf.cli", "select_columns"),
    ("data.select", "soilptf.evaluation", "select_columns"),
    ("hydrology.fit", "soilptf.cli", "fit_vg"),
    ("evaluation.cv", "soilptf.cli", "cross_validate"),
    ("evaluation.metrics", "soilptf.evaluation", "metrics"),
]

# Names that are only counted: a span per call would cost more than the
# call itself, and their time belongs to the enclosing layer.
COUNTERS = [
    ("hydrology.start", "soilptf.hydrology", "_fit_from_start"),
    ("hydrology.residual", "soilptf.hydrology", "_curve_residuals"),
]

# layer -> (count names, function of (args, result) giving their increments)
ON_RESULT = {
    "discretize": (("discretize.cuts",), lambda a, s: (sum(len(c) for c in s.cuts.values()),)),
    "patterns.mine": (("patterns.mined",), lambda a, r: (len(r),)),
    "patterns.filter": (("patterns.kept",), lambda a, r: (len(r),)),
    "cpxr.optimize": (("cpxr.candidates",), lambda a, r: (len(a[0]),)),
    "cpxr.split": (
        ("cpxr.le_rows", "cpxr.split_rows"),
        lambda a, s: (len(s.le_ids), len(s.le_ids) + len(s.se_ids)),
    ),
    "cpxr.train": (("cpxr.k_total", "cpxr.baseline_only"), lambda a, m: (m.k, int(m.k == 0))),
    "data.load": (("data.load.rows",), lambda a, d: (len(d),)),
    "evaluation.cv": (
        ("evaluation.iterations", "evaluation.degraded"),
        lambda a, r: (len(r.records), sum(1 for rec in r.records if rec.degraded)),
    ),
    "hydrology.start": (
        ("hydrology.starts", "hydrology.starts_converged"),
        lambda a, r: (1, int(bool(r[2]))),
    ),
    "hydrology.residual": (("hydrology.residual_evals",), lambda a, r: (1,)),
}

# layer -> count name incremented when a call raises
ON_ERROR = {"hydrology.fit": "hydrology.fit.failed"}


def _ratio(num, den):
    return num / den if den else 0.0


# Metrics computed from others; left out when a source is absent.
DERIVED = {
    "patterns.kept_ratio": lambda m: _ratio(m["patterns.kept"], m["patterns.mined"]),
    "cpxr.le_share": lambda m: _ratio(m["cpxr.le_rows"], m["cpxr.split_rows"]),
    "cpxr.k_mean": lambda m: _ratio(m["cpxr.k_total"], m["cpxr.train.calls"]),
    "cpxr.baseline_only_share": lambda m: _ratio(m["cpxr.baseline_only"], m["cpxr.train.calls"]),
    "hydrology.starts_converged_ratio": lambda m: _ratio(
        m["hydrology.starts_converged"], m["hydrology.starts"]
    ),
}


class Tracer:
    """Aggregates spans in memory: self time and call count per layer,
    plus the counts recorded at the same boundaries.

    A wrapper's own bookkeeping runs outside the callee's span, so it lands
    in the self time of the span around the call. Each open span therefore
    counts the wrapped calls made directly inside it, and metrics() takes
    their calibrated cost (see calibrate()) off that span's self time.
    """

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.broken: set[str] = set()
        self.missing: list[str] = []
        # wrapped calls made directly inside each layer: [spans, counters]
        self.inner: dict[str, list[int]] = {}
        # one frame per open span: [child time, inner spans, inner counters]
        self._stack = [[0.0, 0, 0]]
        self.cost_s = {"span": 0.0, "counter": 0.0}  # per wrapped call

    def _count(self, layer, args, result):
        keys, fn = ON_RESULT[layer]
        if keys[0] in self.broken:
            return
        try:
            incs = fn(args, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            # the program changed shape under this counter: drop it
            self.broken.update(keys)
            return
        for key, inc in zip(keys, incs):
            self.counts[key] += inc

    def span(self, layer, fn):
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        self.inner.setdefault(layer, [0, 0])
        for key in ON_RESULT.get(layer, ((), None))[0]:
            self.counts.setdefault(key, 0)
        if layer in ON_ERROR:
            self.counts.setdefault(ON_ERROR[layer], 0)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            parent[1] += 1
            frame = [0.0, 0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if layer in ON_ERROR:
                    self.counts[ON_ERROR[layer]] += 1
                raise
            finally:
                duration = clock() - t0
                stack.pop()
                self.self_s[layer] += duration - frame[0]
                self.calls[layer] += 1
                inner = self.inner[layer]
                inner[0] += frame[1]
                inner[1] += frame[2]
                parent[0] += duration
            if layer in ON_RESULT:
                self._count(layer, args, result)
            return result

        return wrapper

    def counter(self, layer, fn):
        for key in ON_RESULT[layer][0]:
            self.counts.setdefault(key, 0)
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack[-1][2] += 1
            result = fn(*args, **kwargs)
            self._count(layer, args, result)
            return result

        return wrapper

    def install(self, entries, make):
        for layer, module, dotted in entries:
            owner = _owner(module, dotted)
            attr = dotted.rsplit(".", 1)[-1]
            if owner is None or not callable(getattr(owner, attr, None)):
                self.missing.append(f"{module}.{dotted}")
                continue
            setattr(owner, attr, make(layer, getattr(owner, attr)))

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        correction = 0.0
        for layer in self.self_s:
            spans, counters = self.inner[layer]
            cost = spans * self.cost_s["span"] + counters * self.cost_s["counter"]
            correction += cost
            out[f"{layer}.self_s"] = self.self_s[layer] - cost
            out[f"{layer}.calls"] = self.calls[layer]
        out["trace.wrapped_calls"] = sum(s + c for s, c in self.inner.values())
        out["trace.correction_s"] = correction
        out.update((k, v) for k, v in self.counts.items() if k not in self.broken)
        for name, fn in DERIVED.items():
            try:
                out[name] = fn(out)
            except KeyError:
                pass
        return out


def _loop(fn, n):
    for _ in range(n):
        fn()


def _noop():
    return None


def calibrate(n=10000, batches=5) -> dict[str, float]:
    """Self time one wrapped call adds to the span around it, per kind of
    wrapper: the median over batches of (a span's self time over a loop of
    wrapped no-op calls - the same loop unwrapped) / n."""
    cost = {}
    for kind in ("span", "counter"):
        extra = []
        for _ in range(batches):
            cal = Tracer()
            if kind == "span":
                child = cal.span("calibrate.child", _noop)
            else:
                child = cal.counter("hydrology.residual", _noop)
            t0 = time.perf_counter()
            _loop(_noop, n)
            bare = time.perf_counter() - t0
            cal.span("calibrate", _loop)(child, n)
            extra.append((cal.self_s["calibrate"] - bare) / n)
        extra.sort()
        cost[kind] = max(extra[len(extra) // 2], 0.0)
    return cost


def _owner(module, dotted):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    for part in dotted.split(".")[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_child.py TRACE_OUT.json -- <soilptf arguments>", file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    import soilptf.cli

    tracer = Tracer()
    tracer.cost_s = calibrate()
    tracer.install(SPANS, tracer.span)
    tracer.install(COUNTERS, tracer.counter)
    try:
        rc = tracer.span("cli", soilptf.cli.main)(command)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"metrics": tracer.metrics(), "missing": tracer.missing,
                       "wrapper_cost_s": tracer.cost_s}, fh, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
