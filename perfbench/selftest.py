"""Shows that each correctness check of the benchmark can fire.

Usage (from the repository root): python3 perfbench/selftest.py

Feeds deliberately broken outputs through the benchmark's own operation and
check code, at small sizes, and confirms that each is counted as a failed
operation:

  * a perturbed U fails the whitening-residual check;
  * eval run on a truncated held-out file disagrees with the benchmark's own
    load_model -> project -> pcc on the intact file;
  * a CLI command that exits non-zero;
  * a held-out PCC more than 1 pp from the closed form;
  * a kernel fit that does not beat linear CCA by 40 pp;
  * a model file changed between save_model and load_model;
  * differing objective traces on one draw.

Prints one line per case and exits 0 when every check fired, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import common

sys.path.insert(0, common.SRC)

import numpy as np  # noqa: E402

from rmencca import baselines, core, data_io, metrics, solver  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402

K = 2


def failed_ops(planned: int, body) -> int:
    """Run body(p) the way a worker runs a pass; return the failed count."""
    p = worker.Pass(planned, None)
    worker.execute(lambda: body(p))
    return p.planned - p.ok


def small_fit():
    """A fit on 2000 samples, plus 400 held-out samples from the same draw."""
    spec = data_io.SyntheticSpec(n=2400, d1=10, d2=8, k_true=K, correlations=(0.9, 0.6),
                                 noise_scale=0.3, seed=3)
    ds, _ = data_io.synth_two_view(spec)
    train = core.TwoViewDataset(x=core.center(core.ViewMatrix.of(ds.x.data[:, :2000])),
                                y=core.center(core.ViewMatrix.of(ds.y.data[:, :2000])))
    held = core.TwoViewDataset(x=core.ViewMatrix.of(ds.x.data[:, 2000:]),
                               y=core.ViewMatrix.of(ds.y.data[:, 2000:]))
    return train, held, solver.fit_full(train, core.Hyperparams(k=K))


def perturbed_u(train, report) -> int:
    bad = core.CanonicalPair(u=report.pair.u * (1 + 1e-3), v=report.pair.v)
    return failed_ops(1, lambda p: p.op(
        "constraint_residual", lambda: metrics.constraint_residual(bad, train),
        worker.check_residuals(K)))


def truncated_eval_file(train, held, report, workdir: str) -> int:
    def view_file(view, name):
        path = os.path.join(workdir, name)
        data_io.save_dsv(view, path)
        return path

    model_path = os.path.join(workdir, "model.bin")
    data_io.save_model(worker.model_file(core.Hyperparams(k=K), train, pair=report.pair), model_path)
    x_path, y_path = view_file(held.x, "held_x.csv"), view_file(held.y, "held_y.csv")
    cut = {}
    for path in (x_path, y_path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        cut[path] = path.replace(".csv", "_cut.csv")
        with open(cut[path], "w", encoding="utf-8") as fh:
            fh.writelines(lines[: len(lines) // 2])
    eval_out = os.path.join(workdir, "eval.json")

    def body(p):
        argv = common.python("-m", "rmencca.cli", "eval", "--model", model_path,
                                  "--x", cut[x_path], "--y", cut[y_path], "--out", eval_out)
        p.op("eval", lambda: common.run_child(argv), worker.check_exit("eval"),
             lambda _: worker.check_eval_pcc(_read_pcc(eval_out), data_io.load_model(model_path),
                                            x_path, y_path))
    return failed_ops(1, body)


def _read_pcc(path: str) -> float:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["mean_pcc_percent"]


def nonzero_exit(workdir: str) -> int:
    argv = common.python("-m", "rmencca.cli", "train", "--x", os.path.join(workdir, "missing.csv"),
                              "--y", os.path.join(workdir, "missing.csv"), "--k", str(K))
    # the failing command ends the pass, so the command after it fails too
    return failed_ops(2, lambda p: (
        p.op("train", lambda: common.run_child(argv), worker.check_exit("train")),
        p.op("eval", lambda: None),
    ))


def pcc_gap(train, report) -> int:
    oracle = baselines.cca_closed_form(train, K)
    rival = core.CanonicalPair(u=oracle.pair.u[:, ::-1].copy(), v=oracle.pair.v)
    return failed_ops(1, lambda p: p.op(
        "project+pcc",
        lambda: (worker.heldout_pcc(rival, train), worker.heldout_pcc(oracle.pair, train)),
        worker.check_gap))


def kernel_margin() -> int:
    def body(p):
        linear_pcc = 50.0
        p.op("project_kernel+pcc", lambda: linear_pcc + worker.KERNEL_MARGIN_PP - 1.0,
             lambda kpcc: worker.require(kpcc >= linear_pcc + worker.KERNEL_MARGIN_PP, "margin"))
    return failed_ops(1, body)


def changed_model_file(train, report, workdir: str) -> int:
    model = worker.model_file(core.Hyperparams(k=K), train, pair=report.pair)
    path = os.path.join(workdir, "flipped.bin")

    def save_flip_load():
        data_io.save_model(model, path)
        with open(path, "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            last = fh.read(8)
            fh.seek(-8, os.SEEK_END)
            fh.write(np.float64(np.frombuffer(last, "<f8")[0] * 2.0).tobytes())
        return data_io.load_model(path)

    return failed_ops(1, lambda p: p.op("save_model+load_model", save_flip_load,
                                        worker.check_same_model(model)))


def differing_traces() -> int:
    results = [
        {"draw": 0, "failed": 0, "digests": {"fit_full": "a"}},
        {"draw": 0, "failed": 0, "digests": {"fit_full": "b"}},
    ]
    return run.determinism_failures(results)


def main() -> int:
    workdir = os.path.join(common.WORK, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.environ.update(common.child_env())
    try:
        train, held, report = small_fit()
        cases = [
            ("perturbed U fails the residual check", perturbed_u(train, report), 1),
            ("eval on a truncated held-out file disagrees with load_model -> project -> pcc",
             truncated_eval_file(train, held, report, workdir), 1),
            ("a non-zero exit fails its command and the rest of the pass",
             nonzero_exit(workdir), 2),
            ("held-out PCC more than 1 pp from the closed form", pcc_gap(train, report), 1),
            ("kernel PCC under linear + 40 pp", kernel_margin(), 1),
            ("model file changed between save and load", changed_model_file(train, report, workdir), 1),
            ("differing objective traces on one draw", differing_traces(), 1),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = True
    for name, got, want in cases:
        fired = got == want
        ok &= fired
        print(f"{'fired' if fired else 'MISSED'}: {name} ({got} failed, expected {want})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
