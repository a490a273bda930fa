"""One pass of one workload, run in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --draw J
                                   --trace 0|1 --workdir DIR

The worker imports rmencca, generates the workload's inputs from the seed
(set-up), then runs the pass's operations one at a time, timing each call and
checking its output.  Its last stdout line is a JSON object with the
operation counts, timings, the headline held-out PCC, digests of every
objective trace, and, with --trace 1, the per-layer span summary.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from rmencca import baselines, core, data_io, kernel, metrics, solver
from rmencca.core import Hyperparams, TwoViewDataset

import common
import spans

# both whitening residuals must stay within this budget per canonical
# dimension, as in tests/test_acceptance.py
RESIDUAL_BUDGET = 1e-8
# rmen's held-out PCC may differ from the closed-form oracle's by this much
PCC_GAP_PP = 1.0
# the Gaussian-kernel fit must beat linear CCA by this much, as in the kernel
# unit test
KERNEL_MARGIN_PP = 40.0
# eval's reported PCC must equal the benchmark's own recomputation
EVAL_MATCH_PP = 1e-9

# fit-full and fit-minibatch: n-length work dominates each iteration
LIB_N, LIB_D1, LIB_D2 = 25_000, 50, 40
LIB_CORRELATIONS = (0.9, 0.8, 0.7, 0.6, 0.5)
LIB_K = 5
MINIBATCH_SIZE = 1024
MINIBATCH_ITERS = 500

# kernel-gaussian: the sinusoidal link of the kernel unit test.  eta is the
# test's 0.0065 scaled by 400/n.  At the default momentum 0.9 the fit stalls
# on a plateau for a seed-dependent number of iterations (3 of 8 draws under
# linear + 40 pp after 1500 iterations at n=1000).  With momentum 0.99 some
# draws swing away from the solution and back before iteration 1000; all 32
# draws tried were past linear + 40 pp by iteration 1500.
KERNEL_N = 800
KERNEL_WIDTHS = (0.7, 0.15)
KERNEL_HP = dict(k=1, eta=0.0065 * 400 / KERNEL_N, gamma=0.99, tol=0.0, max_iters=1500)

# cli-files: one synth file, cut into training rows and held-out rows
CLI_ROWS, CLI_HELD_OUT = 7_500, 1_500
CLI_D1, CLI_D2 = 50, 40
CLI_CORRELATIONS = "0.9,0.7,0.5"
CLI_K = 3


class CheckFailed(Exception):
    pass


class Pass:
    """Runs a pass's operations in order.  An operation is one library call
    or CLI command together with its checks; the first failure ends the pass
    and every operation not completed counts as failed."""

    def __init__(self, planned: int, tracer: spans.Tracer | None) -> None:
        self.planned = planned
        self.ok = 0
        self.wall_s = 0.0
        self.op_s: dict[str, float] = {}
        self.tracer = tracer

    def op(self, name: str, call, *checks):
        if self.tracer is not None:
            self.tracer.begin_op()
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        self.wall_s += elapsed
        self.op_s[name] = self.op_s.get(name, 0.0) + elapsed
        for check in checks:
            check(result)
        self.ok += 1
        return result


# ------------------------------------------------------------------- checks

def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_residuals(k: int):
    def check(res):
        res_u, res_v = res
        budget = RESIDUAL_BUDGET * k
        require(res_u <= budget and res_v <= budget,
                f"constraint residuals {res_u:.3e}/{res_v:.3e} exceed {budget:.1e}")
    return check


def check_report(k: int):
    def check(report):
        check_residuals(k)((report.final_constraint_residual_u,
                            report.final_constraint_residual_v))
    return check


def check_gap(pccs):
    rmen, oracle = pccs
    require(abs(rmen - oracle) <= PCC_GAP_PP,
            f"held-out PCC {rmen:.4f} vs closed form {oracle:.4f}: gap over {PCC_GAP_PP} pp")


def same_array(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_same_model(orig: data_io.ModelFile):
    def check(loaded: data_io.ModelFile):
        require(loaded.hp == orig.hp, "hyperparameters changed on round trip")
        require(same_array(loaded.means_x, orig.means_x) and same_array(loaded.means_y, orig.means_y),
                "feature means changed on round trip")
        if orig.pair is not None:
            require(loaded.pair is not None and same_array(loaded.pair.u, orig.pair.u)
                    and same_array(loaded.pair.v, orig.pair.v), "U/V changed on round trip")
            return
        a, b = orig.kernel, loaded.kernel
        require(b is not None, "kernel model lost on round trip")
        require(same_array(a.w_x, b.w_x) and same_array(a.w_y, b.w_y), "W_X/W_Y changed on round trip")
        for ga, gb in ((a.gram_x, b.gram_x), (a.gram_y, b.gram_y)):
            require(ga.spec == gb.spec, "kernel spec changed on round trip")
            require(same_array(ga.train_points.data, gb.train_points.data),
                    "training points changed on round trip")
            require(same_array(ga.values, gb.values), "rebuilt Gram differs from the fitted one")
    return check


def check_exit(name: str):
    def check(child):
        require(child["code"] == 0, f"{name} exited with code {child['code']}")
    return check


def digest(trace) -> str:
    return hashlib.sha256(json.dumps([float(v) for v in trace]).encode()).hexdigest()[:16]


# ------------------------------------------------------------ shared steps

def split_center(p: Pass, ds: TwoViewDataset, fraction: float, seed: int):
    train_raw, val_raw = p.op(
        "split_train_validation",
        lambda: data_io.split_train_validation(ds, fraction, seed))

    def center_both():
        tx, ty = core.center(train_raw.x), core.center(train_raw.y)
        val = TwoViewDataset(
            x=core.center_with_means(val_raw.x, tx.feature_means),
            y=core.center_with_means(val_raw.y, ty.feature_means),
        )
        return TwoViewDataset(x=tx, y=ty), val

    return p.op("center", center_both)


def heldout_pcc(pair, val: TwoViewDataset) -> float:
    return metrics.pcc(*solver.project(pair, val)).mean_pcc_percent


def roundtrip(model: data_io.ModelFile, path: str) -> data_io.ModelFile:
    data_io.save_model(model, path)
    return data_io.load_model(path)


def model_file(hp, train: TwoViewDataset, **payload) -> data_io.ModelFile:
    return data_io.ModelFile(version=1, hp=hp, means_x=train.x.feature_means,
                             means_y=train.y.feature_means, **payload)


# --------------------------------------------------------------- workloads

def lib_inputs(seed: int) -> TwoViewDataset:
    spec = data_io.SyntheticSpec(
        n=LIB_N, d1=LIB_D1, d2=LIB_D2, k_true=len(LIB_CORRELATIONS),
        correlations=LIB_CORRELATIONS, noise_scale=0.5, seed=seed,
    )
    return data_io.synth_two_view(spec)[0]


def linear_pass(p: Pass, ds, seed: int, workdir: str, hp: Hyperparams, fit_name: str):
    train, val = split_center(p, ds, 0.2, seed)
    fit = getattr(solver, fit_name)
    report = p.op(fit_name, lambda: fit(train, hp), check_report(hp.k))
    oracle = p.op("cca_closed_form", lambda: baselines.cca_closed_form(train, hp.k))
    rmen_pcc, _ = p.op("project+pcc",
                       lambda: (heldout_pcc(report.pair, val), heldout_pcc(oracle.pair, val)),
                       check_gap)
    p.op("constraint_residual", lambda: metrics.constraint_residual(report.pair, train),
         check_residuals(hp.k))
    model = model_file(hp, train, pair=report.pair)
    p.op("save_model+load_model", lambda: roundtrip(model, os.path.join(workdir, "model.bin")),
         check_same_model(model))
    return rmen_pcc, {fit_name: digest(report.objective_trace)}, {
        "iterations": {fit_name: report.iterations_run}}


def fit_full_pass(p, ds, seed, workdir):
    return linear_pass(p, ds, seed, workdir, Hyperparams(k=LIB_K, seed=seed), "fit_full")


def fit_minibatch_pass(p, ds, seed, workdir):
    hp = Hyperparams(k=LIB_K, seed=seed, batch_size=MINIBATCH_SIZE, max_iters=MINIBATCH_ITERS)
    return linear_pass(p, ds, seed, workdir, hp, "fit_stochastic")


def kernel_inputs(seed: int) -> TwoViewDataset:
    rng = np.random.default_rng(seed)
    n = 2 * KERNEL_N
    z = rng.uniform(-1.0, 1.0, size=n)
    x = np.vstack([np.sin(3 * np.pi * z), 0.3 * rng.standard_normal(n)])
    y = np.vstack([z, 0.3 * rng.standard_normal(n)])
    return TwoViewDataset(x=core.ViewMatrix.of(x), y=core.ViewMatrix.of(y))


def kernel_pass(p: Pass, ds, seed: int, workdir: str):
    train, val = split_center(p, ds, 0.5, seed)
    hp = Hyperparams(seed=seed, **KERNEL_HP)
    linear = p.op("cca_closed_form", lambda: baselines.cca_closed_form(train, hp.k))
    linear_pcc = p.op("project+pcc", lambda: heldout_pcc(linear.pair, val))
    p.op("constraint_residual", lambda: metrics.constraint_residual(linear.pair, train),
         check_residuals(hp.k))
    spec_x, spec_y = (kernel.KernelSpec(kind=kernel.KernelKind.GAUSSIAN, width=w)
                      for w in KERNEL_WIDTHS)
    km = p.op("fit_kernel", lambda: kernel.fit_kernel(train, spec_x, spec_y, hp),
              lambda m: check_report(hp.k)(m.report))

    def beats_linear(kernel_pcc):
        require(kernel_pcc >= linear_pcc + KERNEL_MARGIN_PP,
                f"kernel held-out PCC {kernel_pcc:.2f} is not {KERNEL_MARGIN_PP} pp "
                f"above linear {linear_pcc:.2f}")

    kernel_pcc = p.op("project_kernel+pcc",
                      lambda: metrics.pcc(*kernel.project_kernel(km, val.x, val.y)).mean_pcc_percent,
                      beats_linear)
    model = model_file(hp, train, kernel=km)
    p.op("save_model+load_model", lambda: roundtrip(model, os.path.join(workdir, "model.bin")),
         check_same_model(model))
    return kernel_pcc, {"fit_kernel": digest(km.report.objective_trace)}, {
        "iterations": {"fit_kernel": km.report.iterations_run}}


LIBRARY = {
    # name: (inputs, pass, planned operations)
    "fit-full": (lib_inputs, fit_full_pass, 7),
    "fit-minibatch": (lib_inputs, fit_minibatch_pass, 7),
    "kernel-gaussian": (kernel_inputs, kernel_pass, 8),
}


# ---------------------------------------------------------------- cli-files

def cut_rows(src: str, head: str, tail: str, n_head: int) -> None:
    with open(src, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(head, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:n_head])
    with open(tail, "w", encoding="utf-8") as fh:
        fh.writelines(lines[n_head:])


def read_dsv(path: str) -> core.ViewMatrix:
    """Independent parse of a DSV file, for checking eval's figure."""
    return core.ViewMatrix.of(np.loadtxt(path, delimiter=",", ndmin=2).T)


def check_eval_pcc(reported: float, model: data_io.ModelFile, x_path: str, y_path: str) -> None:
    """eval's PCC must equal load_model -> project -> pcc on the same files."""
    held = TwoViewDataset(
        x=core.center_with_means(read_dsv(x_path), model.means_x),
        y=core.center_with_means(read_dsv(y_path), model.means_y),
    )
    own = heldout_pcc(model.pair, held)
    require(abs(reported - own) <= EVAL_MATCH_PP,
            f"eval reported PCC {reported!r}, load_model -> project -> pcc gives {own!r}")


def cli_pass(p: Pass, seed: int, workdir: str, traced: bool):
    """synth, then train, eval and compare as successive child processes."""
    f = {name: os.path.join(workdir, name) for name in (
        "x.csv", "y.csv", "train_x.csv", "train_y.csv", "held_x.csv", "held_y.csv",
        "model.bin", "model_copy.bin", "train.json", "eval.json", "compare.json")}
    children: dict[str, dict] = {}
    summaries: list[dict] = []

    def report(path: str) -> dict:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def command(name: str, args: tuple, *checks):
        def call():
            if traced:
                span_file = os.path.join(workdir, f"spans-{name}.json")
                argv = common.python(os.path.join(common.HERE, "cli_traced.py"), span_file, name, *args)
            else:
                argv = common.python("-m", "rmencca.cli", name, *args)
            child = common.run_child(argv, cwd=workdir)
            children[name] = child
            if traced and child["code"] == 0:
                with open(span_file, encoding="utf-8") as fh:
                    summary = json.load(fh)
                summary["startup_s"] = summary.pop("ready") - child["spawn"]
                summaries.append(summary)
            return child
        return p.op(name, call, check_exit(name), *checks)

    command("synth", ("--n", str(CLI_ROWS), "--d1", str(CLI_D1), "--d2", str(CLI_D2),
                      "--correlations", CLI_CORRELATIONS, "--noise", "0.5", "--seed", str(seed),
                      "--x-out", f["x.csv"], "--y-out", f["y.csv"]))
    n_train = CLI_ROWS - CLI_HELD_OUT
    cut_rows(f["x.csv"], f["train_x.csv"], f["held_x.csv"], n_train)
    cut_rows(f["y.csv"], f["train_y.csv"], f["held_y.csv"], n_train)
    out: dict = {}

    def check_train(_):
        out["train"] = trained = report(f["train.json"])
        check_residuals(CLI_K)((trained["constraint_residual_u"], trained["constraint_residual_v"]))
        out["model"] = model = data_io.load_model(f["model.bin"])
        data_io.save_model(model, f["model_copy.bin"])
        with open(f["model.bin"], "rb") as a, open(f["model_copy.bin"], "rb") as b:
            require(a.read() == b.read(), "model file changed on load_model -> save_model")

    def check_eval(_):
        out["eval"] = report(f["eval.json"])["mean_pcc_percent"]
        check_eval_pcc(out["eval"], out["model"], f["held_x.csv"], f["held_y.csv"])

    def check_compare(_):
        out["rows"] = rows = {row["variant"]: row for row in report(f["compare.json"])["rows"]}
        for row in rows.values():
            check_residuals(CLI_K)((row["constraint_residual_u"], row["constraint_residual_v"]))
        check_gap((rows["rmen"]["mean_pcc_percent"], rows["closed-form"]["mean_pcc_percent"]))

    train_args = ("--x", f["train_x.csv"], "--y", f["train_y.csv"], "--k", str(CLI_K),
                  "--seed", str(seed))
    command("train", train_args + ("--model-out", f["model.bin"], "--out", f["train.json"]),
            check_train)
    command("eval", ("--model", f["model.bin"], "--x", f["held_x.csv"], "--y", f["held_y.csv"],
                     "--out", f["eval.json"]), check_eval)
    command("compare", train_args + ("--variants", "rmen,appgrad,closed-form",
                                     "--out", f["compare.json"]), check_compare)

    digests = {"train": digest(out["train"]["objective_trace"])}
    for variant in ("rmen", "appgrad"):
        digests["compare:" + variant] = digest(out["rows"][variant]["objective_trace"])
    extra = {
        "iterations": {
            "train": out["train"]["iterations_run"],
            **{"compare:" + v: out["rows"][v]["iterations_run"] for v in ("rmen", "appgrad")},
        },
        "command_rss_mb": {name: c["peak_rss_mb"] for name, c in children.items()},
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children.values()),
    }
    if traced:
        extra["startup_s"] = [s["startup_s"] for s in summaries]
        extra["layers"] = spans.merge(summaries)
    return out["eval"], digests, extra


# --------------------------------------------------------------------- main

def execute(run):
    """(run's result, None), or (None, error text) when an operation raised or
    a check failed; Pass then counts every operation not completed."""
    try:
        return run(), None
    except Exception as exc:  # any failure of the program under test
        error = f"{type(exc).__name__}: {exc}"
        print(f"pass failed: {error}", file=sys.stderr)
        return None, error


def derived_seed(seed: int, draw: int) -> int:
    return int(np.random.SeedSequence([seed, draw]).generate_state(1)[0])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--draw", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    args.workdir = os.path.abspath(args.workdir)
    seed = derived_seed(args.seed, args.draw)
    traced = bool(args.trace)

    if args.workload == "cli-files":
        import rmencca.cli  # noqa: F401  (part of set-up: what every command imports)
        ready = time.monotonic()
        p = Pass(4, None)
        run = lambda: cli_pass(p, seed, args.workdir, traced)  # noqa: E731
    else:
        make_inputs, body, planned = LIBRARY[args.workload]
        tracer = spans.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        inputs = make_inputs(seed)
        ready = time.monotonic()
        p = Pass(planned, tracer)
        run = lambda: body(p, inputs, seed, args.workdir)  # noqa: E731

    outcome, error = execute(run)
    headline, digests, extra = outcome or (None, {}, {})

    if args.workload != "cli-files" and traced:
        tracer.uninstall()
        tracer.dump(os.path.join(common.WORK, f"spans-{args.workload}.jsonl"))
        extra["layers"] = tracer.summary()
    print(json.dumps({
        "ready": ready,
        "data_seed": seed,
        "attempted": p.planned,
        "failed": p.planned - p.ok,
        "error": error,
        "wall_s": p.wall_s,
        "op_s": p.op_s,
        "heldout_pcc_pct": headline,
        "digests": digests,
        **extra,
    }))


if __name__ == "__main__":
    main()
