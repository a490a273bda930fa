"""rmencca benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

  cli-files        synth, train, eval and compare as `python -m rmencca.cli`
                   child processes on DSV files
  fit-full         split, center, fit_full, cca_closed_form, project + pcc,
                   constraint_residual and a model-file round trip, in memory
  fit-minibatch    the same pass with fit_stochastic at a fixed iteration count
  kernel-gaussian  fit_kernel with Gaussian kernels on a sinusoidal link, its
                   projections, and a model-file round trip that rebuilds both
                   Grams

Each pass runs in a fresh interpreter (perfbench/worker.py) with one BLAS
thread, one operation at a time, closed loop.  Passes repeat until --seconds
is used up.  Each pass generates its inputs from (seed, draw): the first two
passes share draw 0, so their objective traces must match bit for bit, and
every later pass takes a new draw, so the medians reported span several
generated datasets.  The first pass is a warm-up: checked, not timed.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 passes alternate untraced and traced on the same draw (again
checked for identical objective traces); the traced
ones install timing wrappers on rmencca's module attributes
(perfbench/spans.py) and the last line holds the per-layer metrics, with
tracing_overhead_s the median traced-minus-untraced wall time of a pair.
The two lines before it hold the run environment and figures that exist on
only some workloads.

Exit status is 0 whenever a result is printed; "correct" is false when any
operation or check failed.  Without the rmencca sources next to perfbench/
the benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

import common
import spans

WORKER = os.path.join(common.HERE, "worker.py")
WORKLOADS = ("cli-files", "fit-full", "fit-minibatch", "kernel-gaussian")
MIN_PASSES = 4


class BenchError(Exception):
    pass


def run_pass(args, draw: int, traced: bool, workdir: str) -> dict:
    argv = common.python(
        WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--draw", str(draw), "--trace", str(int(traced)), "--workdir", workdir,
    )
    child = common.run_child(argv, cwd=common.ROOT)
    lines = child["stdout"].strip().splitlines()
    if child["code"] != 0 or not lines:
        raise BenchError(f"worker for {args.workload} exited with code {child['code']}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - child["spawn"]
    # library workloads: the worker itself did the pass; cli-files reports
    # the largest of its commands
    result.setdefault("peak_rss_mb", child["peak_rss_mb"])
    result["draw"], result["traced"], result["pass_s"] = draw, traced, child["wall_s"]
    return result


def run_passes(args, workdir: str) -> list[dict]:
    """Closed loop: the next pass starts when the previous one has ended,
    until another one would overrun --seconds (at least MIN_PASSES)."""
    start = time.monotonic()
    results: list[dict] = []
    p = 0
    while True:
        if args.trace:
            draw, traced = p // 2, p % 2 == 1
        else:
            draw, traced = max(p - 1, 0), False
        results.append(run_pass(args, draw, traced, workdir))
        p += 1
        if p < MIN_PASSES or (args.trace and not traced):
            continue
        step = statistics.median(r["pass_s"] for r in results) * (2 if args.trace else 1)
        if time.monotonic() - start + step > args.seconds:
            return results


def determinism_failures(results: list[dict]) -> int:
    """Passes on the same draw must produce identical objective traces."""
    first: dict[int, dict] = {}
    failures = 0
    for r in results:
        if r["failed"]:
            continue
        ref = first.setdefault(r["draw"], r["digests"])
        if ref != r["digests"]:
            failures += 1
            print(f"objective traces differ between passes on draw {r['draw']}: "
                  f"{ref} vs {r['digests']}", file=sys.stderr)
    return failures


def median_of(results: list[dict], key) -> float:
    values = [key(r) for r in results]
    return statistics.median(values) if values else 0.0


def end_to_end(ok: list[dict]) -> dict:
    return {
        "wall_s": median_of(ok, lambda r: r["wall_s"]),
        "setup_s": median_of(ok, lambda r: r["setup_s"]),
        "peak_rss_mb": median_of(ok, lambda r: r["peak_rss_mb"]),
        "heldout_pcc_pct": median_of(ok, lambda r: r["heldout_pcc_pct"]),
    }


def per_layer(results: list[dict], ok: list[dict], count_units: set) -> tuple[dict, dict]:
    traced = [r for r in ok if r["traced"]]
    if not traced:
        return {}, {}
    layer = [spans.layer_metrics(r["layers"]) for r in traced]
    metrics = {}
    for name in layer[0][0]:
        if name in count_units:
            # counts come from the first draw, so they repeat exactly
            metrics[name] = layer[0][0][name]
        else:
            metrics[name] = statistics.median(m[name] for m, _ in layer)
    pairs = [
        (a, b) for a, b in zip(results[0::2], results[1::2])
        if not a["failed"] and not b["failed"]
    ]
    metrics["tracing_overhead_s"] = median_of(pairs, lambda ab: ab[1]["wall_s"] - ab[0]["wall_s"])
    # figures that exist on only some workloads; the tail's percentile and
    # sample count and the fit breakdown describe the first traced pass
    extra = {}
    for name, value in layer[0][1].items():
        if not value:
            continue
        if name.endswith("_s"):
            value = statistics.median(e[name] for _, e in layer)
        extra[name] = value
    startup = [s for r in traced for s in r.get("startup_s", [])]
    if startup:
        extra["cli.startup_s"] = statistics.median(startup)
    return metrics, extra


def untraced_detail(ok: list[dict]) -> dict:
    detail = {
        "op_s": {
            name: median_of(ok, lambda r, n=name: r["op_s"][n]) for name in (ok[0]["op_s"] if ok else {})
        },
    }
    detail["pass_wall_s"] = [r["wall_s"] for r in ok]
    detail["iterations"] = [r["iterations"] for r in ok]
    if ok and "command_rss_mb" in ok[0]:
        # cli-files: each operation is one command
        for name in ok[0]["command_rss_mb"]:
            detail[f"{name}_s"] = detail["op_s"][name]
            detail[f"{name}_rss_mb"] = median_of(ok, lambda r, n=name: r["command_rss_mb"][n])
    return detail


def environment(args, results: list[dict]) -> dict:
    import numpy

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "data_seeds": sorted({r["data_seed"] for r in results}),
        "passes": len(results),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": common.BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(common.SRC, "rmencca", "__init__.py")):
        print(f"error: rmencca sources not found under {common.SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workdir = os.path.join(common.WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        results = run_passes(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results) + determinism_failures(results)
    ok = [r for r in results if not r["failed"]]
    if args.trace:
        values, detail = per_layer(results, ok, {n for n, u in units.items() if u == "count"})
    else:
        # the first pass warms the file cache and is checked but not timed;
        # the second runs on the same draw, so every draw is still measured
        timed = [r for r in results[1:] if not r["failed"]]
        values, detail = end_to_end(timed), untraced_detail(timed)
    missing = sorted(set(units) - set(values))
    if missing and failed:
        # no pass completed: report zeros beside the failure counts
        values.update((name, 0.0) for name in missing)
    elif missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 3

    print(json.dumps({"env": environment(args, results)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
