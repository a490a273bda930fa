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
from run to run; every other file is hashed as written.  Running it against
two source trees shows which outputs a change moved.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
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


def _run(src: str, cwd: str, *argv: str) -> None:
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    code = "import sys; from rmencca.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env, check=True)


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

if __name__ == "__main__":
    main()
