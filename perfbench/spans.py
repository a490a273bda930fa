"""Outside-in tracing: timing wrappers installed on rmencca module attributes.

Each wrapped call records a span (name, layer, start, end, parent span,
operation id).  Spans stay in memory; `summary()` reduces them to sums per
span name, self times and counts, which `layer_metrics()` turns into the
per-layer metrics.  Nothing under src/ is changed: the wrappers replace the
names that callers look up at call time.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (module, attribute names) pairs.  Solver internals are looked up in the
# solver module's globals; kernel holds its own bindings of the Gram functions
# and of fit_full, data_io of the Gram functions (for load_model); cli holds
# bindings of every public call it makes; the remaining entries are the names
# the benchmark's own passes call.
TARGETS = (
    ("rmencca.solver", (
        "build_context", "grad_u", "grad_v", "momentum_step", "normalize",
        "objective", "build_s_inverse", "apply_s_inverse", "hq_diagonal",
        "l21_norm", "nuclear_norm", "validate_dataset",
        "fit_full", "fit_stochastic", "project",
    )),
    ("rmencca.kernel", (
        "fit_full", "gram_gaussian", "gram_linear", "cross_gram",
        "fit_kernel", "project_kernel",
    )),
    ("rmencca.data_io", (
        "gram_gaussian", "gram_linear", "synth_two_view",
        "split_train_validation", "load_dsv", "save_dsv", "save_model",
        "load_model",
    )),
    ("rmencca.core", ("center", "center_with_means")),
    ("rmencca.baselines", ("cca_closed_form",)),
    ("rmencca.metrics", ("pcc", "constraint_residual")),
    ("rmencca.cli", (
        "load_dsv", "save_dsv", "load_model", "save_model", "synth_two_view",
        "split_train_validation", "center", "center_with_means", "fit_full",
        "fit_stochastic", "fit_kernel", "project", "project_kernel", "pcc",
        "constraint_residual", "cca_closed_form",
    )),
)

FIT_NAMES = ("fit_full", "fit_stochastic")
_MIB = float(1 << 20)


class Tracer:
    def __init__(self) -> None:
        # span: [name, layer, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = 0
        self.iteration_intervals: list[float] = []
        self.counts = {
            "iterations": 0, "normalize_calls": 0, "fields_parsed": 0,
            "dsv_bytes_read": 0, "dsv_bytes_written": 0, "gram_bytes": 0,
        }
        self.rank_min: int | None = None
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for mod_name, names in TARGETS:
            mod = importlib.import_module(mod_name)
            for name in names:
                orig = getattr(mod, name)
                self._saved.append((mod, name, orig))
                setattr(mod, name, self._wrap(orig, mod_name))

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()

    def _wrap(self, fn, site: str):
        name = fn.__name__
        layer = fn.__module__.rsplit(".", 1)[-1]
        hook = getattr(self, "_after_" + name, None)
        is_fit = name in FIT_NAMES
        is_kernel_gram = site == "rmencca.kernel" and name.startswith("gram_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marks = None
            if is_fit and len(args) < 3 and kwargs.get("on_iteration") is None:
                marks = []
                kwargs["on_iteration"] = lambda i, pair: marks.append(time.perf_counter())
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, layer, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if marks is not None:
                self._record_iterations(span[2], marks)
            if hook is not None:
                hook(result, args, kwargs)
            if is_kernel_gram:
                self.counts["gram_bytes"] += result.values.nbytes
            return result

        return wrapper

    def _record_iterations(self, start: float, marks: list[float]) -> None:
        prev = start
        for t in marks:
            self.iteration_intervals.append(t - prev)
            prev = t
        self.counts["iterations"] += len(marks)

    def _after_build_s_inverse(self, op, args, kwargs) -> None:
        width = op.basis.shape[1]
        self.rank_min = width if self.rank_min is None else min(self.rank_min, width)

    def _after_normalize(self, result, args, kwargs) -> None:
        self.counts["normalize_calls"] += 1

    def _after_load_dsv(self, view, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self.counts["fields_parsed"] += view.data.size
        self.counts["dsv_bytes_read"] += os.path.getsize(path)

    def _after_save_dsv(self, result, args, kwargs) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["dsv_bytes_written"] += os.path.getsize(path)

    # --------------------------------------------------------- operations

    def begin_op(self) -> None:
        self.op_id += 1

    # ------------------------------------------------------------ output

    def summary(self) -> dict:
        """Durations and self times summed per layer.name, plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for i, (name, layer, start, end, parent, op) in enumerate(self.spans):
            key = layer + "." + name
            total[key] = total.get(key, 0.0) + (end - start)
            self_time[key] = self_time.get(key, 0.0) + (end - start - child_time[i])
        return {
            "total": total,
            "self": self_time,
            "counts": dict(self.counts),
            "rank_min": self.rank_min,
            "iteration_intervals": list(self.iteration_intervals),
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def merge(summaries: list[dict]) -> dict:
    out = {"total": {}, "self": {}, "counts": {}, "rank_min": None,
           "iteration_intervals": []}
    for s in summaries:
        for part in ("total", "self", "counts"):
            for key, val in s[part].items():
                out[part][key] = out[part].get(key, 0) + val
        if s["rank_min"] is not None:
            out["rank_min"] = s["rank_min"] if out["rank_min"] is None else min(out["rank_min"], s["rank_min"])
        out["iteration_intervals"].extend(s["iteration_intervals"])
    return out


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return None


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def layer_metrics(s: dict) -> tuple[dict, dict]:
    """(metrics reported on every workload, workload-specific extras)."""
    tot, slf, counts = s["total"], s["self"], s["counts"]

    def t(*keys):
        return sum(tot.get(k, 0.0) for k in keys)

    def st(*keys):
        return sum(slf.get(k, 0.0) for k in keys)

    fits = ("solver.fit_full", "solver.fit_stochastic")
    iters = s["iteration_intervals"]
    tail_pct = tail_percentile(len(iters))
    m = {
        "solver.fit_s": t(*fits),
        "solver.iterations": counts["iterations"],
        "solver.iter_ms_p50": 1e3 * percentile(iters, 50.0) if iters else 0.0,
        "solver.iter_ms_tail": 1e3 * percentile(iters, tail_pct) if tail_pct else 0.0,
        "solver.build_context_self_s": st("solver.build_context"),
        "solver.grad_self_s": st("solver.grad_u", "solver.grad_v"),
        "solver.objective_self_s": st("solver.objective"),
        "solver.normalize_s": t("solver.normalize"),
        "solver.normalize_calls": counts["normalize_calls"],
        "solver.loop_self_s": st(*fits),
        "solver.project_s": t("solver.project"),
        "regularizers.build_s_inverse_s": t("regularizers.build_s_inverse"),
        "regularizers.nuclear_norm_s": t("regularizers.nuclear_norm"),
        "regularizers.apply_s_inverse_s": t("regularizers.apply_s_inverse"),
        "regularizers.row_penalty_s": t("regularizers.hq_diagonal", "regularizers.l21_norm"),
        "regularizers.sinv_rank_min": s["rank_min"] if s["rank_min"] is not None else 0,
        "core.center_s": t("core.center", "core.center_with_means"),
        "core.validate_dataset_s": t("core.validate_dataset"),
        "data_io.split_s": t("data_io.split_train_validation"),
        "data_io.save_model_s": t("data_io.save_model"),
        "data_io.load_model_s": t("data_io.load_model"),
        "data_io.fields_parsed": counts["fields_parsed"],
        "kernel.gram_mb_computed": counts["gram_bytes"] / _MIB,
        "baselines.cca_closed_form_s": t("baselines.cca_closed_form"),
        "metrics.pcc_s": t("metrics.pcc"),
        "metrics.constraint_residual_s": t("metrics.constraint_residual"),
    }
    load_s, save_s = t("data_io.load_dsv"), t("data_io.save_dsv")
    extra = {
        "solver.iter_tail_pct": tail_pct,
        "solver.iter_samples": len(iters),
        "data_io.load_dsv_s": load_s,
        "data_io.load_dsv_mb_per_s": counts["dsv_bytes_read"] / _MIB / load_s if load_s else None,
        "data_io.save_dsv_s": save_s,
        "data_io.save_dsv_mb_per_s": counts["dsv_bytes_written"] / _MIB / save_s if save_s else None,
        "data_io.synth_two_view_s": t("data_io.synth_two_view"),
        "kernel.gram_s": t("kernel.gram_gaussian", "kernel.gram_linear"),
        "kernel.cross_gram_s": t("kernel.cross_gram"),
        "fit_self_share": _fit_breakdown(s),
    }
    return m, extra


def _fit_breakdown(s: dict) -> dict:
    """Share of solver.fit_s spent as self time in each span name inside the
    fits, the fits' own loop included; the shares add up to 1."""
    fit_s = sum(s["total"].get(k, 0.0) for k in ("solver.fit_full", "solver.fit_stochastic"))
    inside = ("solver.", "regularizers.", "core.validate_dataset")
    return {
        key: val / fit_s for key, val in sorted(s["self"].items())
        if fit_s and key.startswith(inside) and key != "solver.project"
    }
