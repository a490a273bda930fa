"""Digests of every file the CLI writes on one fixed-seed run.

Usage: python tools/output_digests.py [--src DIR]

In a temporary directory, runs `synth`, then `train` and `eval` for every
variant (kernel-rmen with a full-rank Gaussian and a low-rank linear
kernel, rmen also minibatch and with each penalty off in turn, so that every
branch of the gradient runs), the rmen `train` again with its fit flags in a
`--config` file, whose report and model should equal the flag run's, and one
`compare` over all variants, each command in a fresh interpreter with one
BLAS thread and rmencca imported from DIR (default: the src/ beside this
script).  Prints one "sha256  name" line per output file.
JSON reports are hashed without their wall_seconds fields, which change
from run to run; every other file is hashed as written.  Then runs each of
FAILURES, commands that must fail, on inputs made from those files, and
prints one "sha256  fail-name" line per command, the digest of its exit code
and stderr, in which DIR reads "<src>".  Running it against two source trees
shows which outputs and which error behaviours a change moved.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

SYNTH = ["--n", "600", "--d1", "8", "--d2", "6", "--correlations", "0.9,0.6",
         "--noise", "0.3", "--seed", "3"]
FIT_CONFIG = {"k": 2, "iters": 150, "tol": 0, "seed": 4}
FIT = [arg for key, value in FIT_CONFIG.items() for arg in (f"--{key}", str(value))]
# on this data the Gaussian Grams have full rank and the linear ones rank
# d1 and d2; the linear dual needs a small step (its largest statistic
# eigenvalue is near 7000, so at eta = 0.0005 the objective already climbs)
KERNELS = {"gaussian": ["--kernel", "gaussian", "--kernel-width", "2.0"],
           "linear": ["--kernel", "linear", "--eta", "0.0001"]}
RUNS = {  # name: train flags beyond the inputs and FIT
    "rmen": ["--variant", "rmen"],
    "rmen-minibatch": ["--variant", "rmen", "--batch-size", "64"],
    "rmen-lambda1-only": ["--variant", "rmen", "--lambda2", "0"],
    "rmen-lambda2-only": ["--variant", "rmen", "--lambda1", "0"],
    "men": ["--variant", "men"],
    "appgrad": ["--variant", "appgrad"],
    "closed-form": ["--variant", "closed-form"],
    **{f"kernel-rmen-{kind}": ["--variant", "kernel-rmen", *flags]
       for kind, flags in KERNELS.items()},
}

# name: argv.  x480.csv and y480.csv hold the first 480 of the 600 rows of
# x.csv and y.csv, xnan.csv is x.csv with its first field 'nan', ragged.csv
# is x.csv with one field cut from its second row, x1e307.csv is x.csv times
# 1e307, xhuge.csv is x.csv with its first column 1.5e308, nan-u.rmen is
# rmen.rmen with a NaN over U's first entry, kind7.rmen is
# kernel-rmen-gaussian.rmen with its first kernel kind byte 7, and absent.csv
# does not exist
FAILURES = {
    "ragged": ["train", "--x", "ragged.csv", "--y", "y.csv", *FIT],
    "y-shorter": ["train", "--x", "x.csv", "--y", "y480.csv", *FIT],
    "x-shorter": ["train", "--x", "x480.csv", "--y", "y.csv", *FIT],
    "closed-form-nan": ["train", "--x", "xnan.csv", "--y", "y.csv", *FIT,
                        "--variant", "closed-form"],
    "eval-nan": ["eval", "--x", "xnan.csv", "--y", "y.csv", "--model", "rmen.rmen"],
    "missing-input": ["train", "--x", "absent.csv", "--y", "y.csv", *FIT],
    "nan-model": ["eval", "--x", "x.csv", "--y", "y.csv", "--model", "nan-u.rmen"],
    "kernel-kind-7": ["eval", "--x", "x.csv", "--y", "y.csv", "--model", "kind7.rmen"],
    "eval-overflow": ["eval", "--x", "x1e307.csv", "--y", "y.csv", "--model", "rmen.rmen"],
    "mean-overflow": ["train", "--x", "xhuge.csv", "--y", "y.csv", *FIT],
}
# a model file's magic, version, kind byte and hyperparameter block
MODEL_HEADER = 8 + 4 + 1 + struct.calcsize("<IdddddIdqqB")


def _run(src: str, cwd: str, *argv: str, check: bool = True) -> subprocess.CompletedProcess:
    """One CLI command; a command run with check=False has its stderr
    captured and its stdout discarded."""
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    code = "import sys; from rmencca.cli import main; sys.exit(main(sys.argv[1:]))"
    capture = {} if check else {"stdout": subprocess.DEVNULL, "stderr": subprocess.PIPE}
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          check=check, text=True, **capture)


def _failure_inputs(tmp: str) -> None:
    """The inputs FAILURES names, made from x.csv and y.csv."""
    lines = {}
    for name in ("x", "y"):
        with open(os.path.join(tmp, f"{name}.csv"), encoding="utf-8") as fh:
            lines[name] = fh.readlines()
    made = {
        "x480.csv": lines["x"][:480],
        "y480.csv": lines["y"][:480],
        "xnan.csv": ["nan" + lines["x"][0][lines["x"][0].index(","):], *lines["x"][1:]],
        "ragged.csv": [lines["x"][0], lines["x"][1].split(",", 1)[1], *lines["x"][2:]],
        "x1e307.csv": [",".join(repr(1e307 * float(v)) for v in row.split(",")) + "\n"
                       for row in lines["x"]],
        "xhuge.csv": ["1.5e308" + row[row.index(","):] for row in lines["x"]],
    }
    for name, rows in made.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.writelines(rows)
    # U's entries start after its 16-byte shape; the kernel specs (kind byte
    # and width) right after means_y
    for name, model, skip, patch in (
        ("nan-u.rmen", "rmen.rmen", 16, struct.pack("<d", float("nan"))),
        ("kind7.rmen", "kernel-rmen-gaussian.rmen", 0, b"\x07"),
    ):
        with open(os.path.join(tmp, model), "rb") as fh:
            raw = fh.read()
        at = _after_means(raw) + skip
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(raw[:at] + patch + raw[at + len(patch):])


def _after_means(raw: bytes) -> int:
    """The offset just past a model file's means_x and means_y matrices."""
    at = MODEL_HEADER
    for _ in range(2):
        rows, cols = struct.unpack_from("<QQ", raw, at)
        at += 16 + 8 * rows * cols
    return at


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.endswith(".json"):
        report = json.loads(raw)
        for row in [report, *report.get("rows", [])]:
            row.pop("wall_seconds", None)
        raw = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    src = os.path.abspath(ap.parse_args().src)
    with tempfile.TemporaryDirectory() as tmp:
        # relative names, so that reports naming their files do not differ
        # with the temporary directory
        views = ["--x", "x.csv", "--y", "y.csv"]
        _run(src, tmp, "synth", *SYNTH, "--x-out", "x.csv", "--y-out", "y.csv",
             "--out", "synth.json")
        for name, flags in RUNS.items():
            _run(src, tmp, "train", *views, *FIT, *flags, "--out", f"train-{name}.json",
                 "--model-out", f"{name}.rmen")
            _run(src, tmp, "eval", *views, "--model", f"{name}.rmen",
                 "--out", f"eval-{name}.json")
        with open(os.path.join(tmp, "rmen-config.json"), "w", encoding="utf-8") as fh:
            json.dump({**FIT_CONFIG, "variant": "rmen"}, fh)
        _run(src, tmp, "train", *views, "--config", "rmen-config.json",
             "--out", "train-rmen-config.json", "--model-out", "rmen-config.rmen")
        _run(src, tmp, "compare", *views, *FIT, *KERNELS["gaussian"],
             "--variants", "rmen,men,appgrad,closed-form,kernel-rmen",
             "--out", "compare.json")
        for name in sorted(os.listdir(tmp)):
            print(f"{_digest(os.path.join(tmp, name))}  {name}")
        _failure_inputs(tmp)
        for name, argv in FAILURES.items():
            done = _run(src, tmp, *argv, check=False)
            outcome = f"{done.returncode}\n{done.stderr.replace(src, '<src>')}"
            print(f"{hashlib.sha256(outcome.encode()).hexdigest()}  fail-{name}")

if __name__ == "__main__":
    main()
