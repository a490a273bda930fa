"""Batch command-line front end.

Subcommands:

  synth    generate planted-correlation two-view data as DSV files
  train    fit one solver variant, evaluate on a held-out split, report
  eval     evaluate a saved model on new data
  compare  fit several variants on the same split, one report row each

Flags may also come from a JSON config file (--config); explicit flags
override file values.  Reports are deterministic for a fixed config and
seed except the wall-time fields.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .baselines import appgrad_config, cca_closed_form, men_cca_mode
from .core import (
    Hyperparams,
    TwoViewDataset,
    center,
    center_with_means,
)
from .data_io import (
    ModelFile,
    SyntheticSpec,
    load_dsv,
    load_mnist_halves,
    load_model,
    save_dsv,
    save_model,
    split_train_validation,
    synth_two_view,
)
from .errors import (
    AllZeroInput,
    BadMagic,
    BatchTooLarge,
    ConfigError,
    CorruptFile,
    DegenerateInput,
    DimensionMismatch,
    EmptyInput,
    InvalidKernelParam,
    InvalidSmoothing,
    NonFiniteEntry,
    NonFiniteIterate,
    NonNumericField,
    RaggedRows,
    RankBudgetTooLarge,
    RankDeficientBasis,
    RmenccaError,
    SampleCountMismatch,
    SingularCovariance,
    TooLargeForKernel,
    TruncatedFile,
    VersionMismatch,
)
from .kernel import KernelKind, KernelModel, KernelSpec, fit_kernel, project_kernel
from .metrics import constraint_residual, pcc
from .solver import fit_full, fit_stochastic, project

VARIANTS = ("rmen", "men", "appgrad", "closed-form", "kernel-rmen")

EXIT_CODES: dict[type, int] = {
    ConfigError: 2,
    FileNotFoundError: 3,
    RaggedRows: 4,
    NonNumericField: 5,
    EmptyInput: 6,
    BadMagic: 7,
    TruncatedFile: 8,
    VersionMismatch: 9,
    CorruptFile: 10,
    SampleCountMismatch: 11,
    NonFiniteEntry: 12,
    RankBudgetTooLarge: 13,
    BatchTooLarge: 14,
    DimensionMismatch: 15,
    InvalidSmoothing: 16,
    AllZeroInput: 17,
    NonFiniteIterate: 18,
    SingularCovariance: 19,
    RankDeficientBasis: 20,
    InvalidKernelParam: 21,
    TooLargeForKernel: 22,
    DegenerateInput: 23,
}

_HP_KEYS = (
    "k", "lambda1", "lambda2", "eta", "gamma", "zeta",
    "iters", "tol", "batch_size", "seed",
)
_COMMON_KEYS = _HP_KEYS + (
    "x", "y", "mnist", "variant", "variants", "kernel", "kernel_width",
    "val_fraction", "split_seed", "out", "format", "model_out", "model",
    "delimiter",
)
_SYNTH_KEYS = (
    "n", "d1", "d2", "correlations", "noise", "seed",
    "x_out", "y_out", "delimiter", "out", "format",
)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully merged and validated invocation."""

    command: str
    hp: Hyperparams | None = None
    x_path: str | None = None
    y_path: str | None = None
    mnist_path: str | None = None
    variant: str = "rmen"
    variants: tuple[str, ...] = ()
    kernel: KernelSpec | None = None
    val_fraction: float = 0.2
    split_seed: int = 0
    out: str | None = None
    format: str = "json"
    model_out: str | None = None
    model_path: str | None = None
    delimiter: str = ","
    synth: SyntheticSpec | None = None
    x_out: str | None = None
    y_out: str | None = None


# ----------------------------------------------------------- flag plumbing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmencca",
        description="Multi-view CCA solvers with robust matrix-elastic-net regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_variant: bool) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--x", help="view X as DSV, one sample per row")
        p.add_argument("--y", help="view Y as DSV, one sample per row")
        p.add_argument("--mnist", help="IDX image file; views are the left/right halves")
        if with_variant:
            p.add_argument("--variant", choices=VARIANTS)
        p.add_argument("--k", type=int)
        p.add_argument("--lambda1", type=float)
        p.add_argument("--lambda2", type=float)
        p.add_argument("--eta", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--zeta", type=float)
        p.add_argument("--iters", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--batch-size", type=int, dest="batch_size")
        p.add_argument("--kernel", choices=("gaussian", "linear"))
        p.add_argument("--kernel-width", type=float, dest="kernel_width")
        p.add_argument("--seed", type=int)
        p.add_argument("--val-fraction", type=float, dest="val_fraction")
        p.add_argument("--split-seed", type=int, dest="split_seed")
        p.add_argument("--delimiter")
        p.add_argument("--out")
        p.add_argument("--format", choices=("json", "tsv"))

    p_synth = sub.add_parser("synth", help="generate planted two-view data")
    p_synth.add_argument("--config")
    p_synth.add_argument("--n", type=int)
    p_synth.add_argument("--d1", type=int)
    p_synth.add_argument("--d2", type=int)
    p_synth.add_argument("--correlations", help="comma-separated, descending, in (0,1]")
    p_synth.add_argument("--noise", type=float)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--x-out", dest="x_out")
    p_synth.add_argument("--y-out", dest="y_out")
    p_synth.add_argument("--delimiter")
    p_synth.add_argument("--out")
    p_synth.add_argument("--format", choices=("json", "tsv"))

    p_train = sub.add_parser("train", help="fit one variant and evaluate held out")
    add_common(p_train, with_variant=True)
    p_train.add_argument("--model-out", dest="model_out")

    p_eval = sub.add_parser("eval", help="evaluate a saved model on new data")
    p_eval.add_argument("--config")
    p_eval.add_argument("--model")
    p_eval.add_argument("--x")
    p_eval.add_argument("--y")
    p_eval.add_argument("--mnist")
    p_eval.add_argument("--delimiter")
    p_eval.add_argument("--out")
    p_eval.add_argument("--format", choices=("json", "tsv"))

    p_cmp = sub.add_parser("compare", help="fit several variants on one split")
    add_common(p_cmp, with_variant=False)
    p_cmp.add_argument("--variants", help="comma-separated subset of: " + ",".join(VARIANTS))

    return parser


def _merge(args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    """Config-file values overridden by explicitly passed flags."""
    file_vals: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        if not os.path.isfile(config_path):
            raise FileNotFoundError(f"config file not found: {config_path}")
        with open(config_path, encoding="utf-8") as fh:
            try:
                file_vals = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_vals, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_vals) - set(keys))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for key in keys:
        flag = getattr(args, key, None)
        merged[key] = flag if flag is not None else file_vals.get(key)
    return merged


def _pick(vals: dict, key: str, default):
    v = vals.get(key)
    return default if v is None else v


def _hyperparams(vals: dict) -> Hyperparams:
    try:
        return Hyperparams(
            k=int(_pick(vals, "k", 2)),
            lambda1=float(_pick(vals, "lambda1", 0.01)),
            lambda2=float(_pick(vals, "lambda2", 0.001)),
            eta=float(_pick(vals, "eta", 0.005)),
            gamma=float(_pick(vals, "gamma", 0.9)),
            zeta=float(_pick(vals, "zeta", 1e-8)),
            max_iters=int(_pick(vals, "iters", 500)),
            tol=float(_pick(vals, "tol", 1e-6)),
            batch_size=None if vals.get("batch_size") is None else int(vals["batch_size"]),
            seed=int(_pick(vals, "seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _kernel_spec(vals: dict, variants: tuple[str, ...]) -> KernelSpec | None:
    kind = vals.get("kernel")
    width = vals.get("kernel_width")
    uses_kernel = "kernel-rmen" in variants
    if not uses_kernel:
        if kind is not None or width is not None:
            raise ConfigError("--kernel/--kernel-width require the kernel-rmen variant")
        return None
    kind = kind or "gaussian"
    if kind == "linear":
        if width is not None:
            raise ConfigError("--kernel-width does not apply to the linear kernel")
        return KernelSpec(kind=KernelKind.LINEAR)
    if width is None:
        raise ConfigError("the Gaussian kernel requires --kernel-width")
    try:
        return KernelSpec(kind=KernelKind.GAUSSIAN, width=float(width))
    except InvalidKernelParam:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _require_file(path: str | None, what: str) -> str:
    if not path:
        raise ConfigError(f"missing required input: {what}")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _check_out_dir(path: str | None) -> None:
    if path:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"output directory does not exist: {parent}")


def parse_config(argv: list[str] | None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    command = args.command

    if command == "synth":
        vals = _merge(args, _SYNTH_KEYS)
        corr_raw = vals.get("correlations")
        if corr_raw is None:
            raise ConfigError("synth requires --correlations")
        if isinstance(corr_raw, str):
            try:
                corr = tuple(float(tok) for tok in corr_raw.split(","))
            except ValueError:
                raise ConfigError(f"bad --correlations value: {corr_raw!r}") from None
        else:
            corr = tuple(float(c) for c in corr_raw)
        try:
            spec = SyntheticSpec(
                n=int(_pick(vals, "n", 1000)),
                d1=int(_pick(vals, "d1", 10)),
                d2=int(_pick(vals, "d2", 8)),
                k_true=len(corr),
                correlations=corr,
                noise_scale=float(_pick(vals, "noise", 0.0)),
                seed=int(_pick(vals, "seed", 0)),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        x_out, y_out = vals.get("x_out"), vals.get("y_out")
        if not x_out or not y_out:
            raise ConfigError("synth requires --x-out and --y-out")
        for p in (x_out, y_out, vals.get("out")):
            _check_out_dir(p)
        return RunConfig(
            command="synth",
            synth=spec,
            x_out=x_out,
            y_out=y_out,
            delimiter=str(_pick(vals, "delimiter", ",")),
            out=vals.get("out"),
            format=str(_pick(vals, "format", "json")),
        )

    if command == "eval":
        vals = _merge(args, ("model", "x", "y", "mnist", "delimiter", "out", "format"))
        model_path = _require_file(vals.get("model"), "--model")
        mnist = vals.get("mnist")
        x_path = y_path = None
        if mnist is not None:
            _require_file(mnist, "--mnist")
        else:
            x_path = _require_file(vals.get("x"), "--x")
            y_path = _require_file(vals.get("y"), "--y")
        _check_out_dir(vals.get("out"))
        return RunConfig(
            command="eval",
            model_path=model_path,
            x_path=x_path,
            y_path=y_path,
            mnist_path=mnist,
            delimiter=str(_pick(vals, "delimiter", ",")),
            out=vals.get("out"),
            format=str(_pick(vals, "format", "json")),
        )

    vals = _merge(args, _COMMON_KEYS)
    if command == "train":
        variant = str(_pick(vals, "variant", "rmen"))
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; choose from {', '.join(VARIANTS)}")
        variants = (variant,)
    else:
        raw = vals.get("variants")
        if raw is None:
            raise ConfigError("compare requires --variants")
        parts = tuple(tok.strip() for tok in (raw if isinstance(raw, str) else ",".join(raw)).split(","))
        bad = [p for p in parts if p not in VARIANTS]
        if bad:
            raise ConfigError(f"unknown variants: {', '.join(bad)}")
        if len(parts) != len(set(parts)):
            raise ConfigError("duplicate variants requested")
        variants = parts

    hp = _hyperparams(vals)
    kernel = _kernel_spec(vals, variants)
    mnist = vals.get("mnist")
    x_path = y_path = None
    if mnist is not None:
        _require_file(mnist, "--mnist")
    else:
        x_path = _require_file(vals.get("x"), "--x")
        y_path = _require_file(vals.get("y"), "--y")
    val_fraction = float(_pick(vals, "val_fraction", 0.2))
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"--val-fraction must lie in (0, 1), got {val_fraction}")
    _check_out_dir(vals.get("out"))
    _check_out_dir(vals.get("model_out"))
    if vals.get("model_out") and command == "compare":
        raise ConfigError("--model-out applies to train only")
    return RunConfig(
        command=command,
        hp=hp,
        x_path=x_path,
        y_path=y_path,
        mnist_path=mnist,
        variant=variants[0],
        variants=variants,
        kernel=kernel,
        val_fraction=val_fraction,
        split_seed=int(_pick(vals, "split_seed", hp.seed)),
        out=vals.get("out"),
        format=str(_pick(vals, "format", "json")),
        model_out=vals.get("model_out"),
        delimiter=str(_pick(vals, "delimiter", ",")),
    )


# -------------------------------------------------------------- the pipeline

def _load_views(cfg: RunConfig) -> TwoViewDataset:
    if cfg.mnist_path is not None:
        return load_mnist_halves(cfg.mnist_path)
    x = load_dsv(cfg.x_path, cfg.delimiter)
    y = load_dsv(cfg.y_path, cfg.delimiter)
    return TwoViewDataset(x=x, y=y)


def _fit_variant(variant, train_ds, cfg: RunConfig):
    """Returns (row dict, ModelFile, linear pair or None, kernel model or None)."""
    hp = cfg.hp
    started = time.perf_counter()
    if variant == "closed-form":
        sol = cca_closed_form(train_ds, hp.k)
        wall = time.perf_counter() - started
        res_u, res_v = constraint_residual(sol.pair, train_ds)
        row = {
            "variant": variant,
            "iterations_run": 0,
            "termination": "closed_form",
            "objective_trace": [],
            "constraint_residual_u": res_u,
            "constraint_residual_v": res_v,
            "canonical_correlations": list(sol.correlations),
            "wall_seconds": wall,
        }
        model = ModelFile(
            version=1, hp=hp,
            means_x=train_ds.x.feature_means, means_y=train_ds.y.feature_means,
            pair=sol.pair,
        )
        return row, model, sol.pair, None

    if variant == "kernel-rmen":
        km = fit_kernel(train_ds, cfg.kernel, cfg.kernel, hp)
        report = km.report
        row = _report_row(variant, report)
        model = ModelFile(
            version=1, hp=hp,
            means_x=train_ds.x.feature_means, means_y=train_ds.y.feature_means,
            kernel=km,
        )
        return row, model, None, km

    if variant == "men":
        hp = men_cca_mode(hp)
    elif variant == "appgrad":
        hp = appgrad_config(hp)
    fit = fit_stochastic if hp.batch_size is not None else fit_full
    report = fit(train_ds, hp)
    row = _report_row(variant, report)
    model = ModelFile(
        version=1, hp=hp,
        means_x=train_ds.x.feature_means, means_y=train_ds.y.feature_means,
        pair=report.pair,
    )
    return row, model, report.pair, None


def _report_row(variant, report) -> dict:
    return {
        "variant": variant,
        "iterations_run": report.iterations_run,
        "termination": report.termination.value,
        "objective_trace": list(report.objective_trace),
        "constraint_residual_u": report.final_constraint_residual_u,
        "constraint_residual_v": report.final_constraint_residual_v,
        "wall_seconds": report.wall_seconds,
    }


def _evaluate(row: dict, pair, km: KernelModel | None, val_ds: TwoViewDataset) -> dict:
    if km is not None:
        a, b = project_kernel(km, val_ds.x, val_ds.y)
    else:
        a, b = project(pair, val_ds)
    report = pcc(a, b)
    row["pcc_per_dimension"] = list(report.per_dimension)
    row["mean_pcc_percent"] = report.mean_pcc_percent
    row["pcc_zero_variance"] = list(report.zero_variance)
    return row


def _run_train_like(cfg: RunConfig) -> dict:
    ds = _load_views(cfg)
    train_raw, val_raw = split_train_validation(ds, cfg.val_fraction, cfg.split_seed)
    train_x = center(train_raw.x)
    train_y = center(train_raw.y)
    train_ds = TwoViewDataset(x=train_x, y=train_y)
    val_ds = TwoViewDataset(
        x=center_with_means(val_raw.x, train_x.feature_means),
        y=center_with_means(val_raw.y, train_y.feature_means),
    )
    rows = []
    for variant in cfg.variants:
        row, model, pair, km = _fit_variant(variant, train_ds, cfg)
        row = _evaluate(row, pair, km, val_ds)
        rows.append(row)
        if cfg.command == "train" and cfg.model_out:
            save_model(model, cfg.model_out)
    base = {
        "command": cfg.command,
        "k": cfg.hp.k,
        "n_train": train_ds.n,
        "n_validation": val_ds.n,
    }
    if cfg.command == "train":
        return {**base, **rows[0]}
    return {**base, "rows": rows}


def _run_eval(cfg: RunConfig) -> dict:
    mf = load_model(cfg.model_path)
    ds = _load_views(cfg)
    val_ds = TwoViewDataset(
        x=center_with_means(ds.x, mf.means_x),
        y=center_with_means(ds.y, mf.means_y),
    )
    if mf.kernel is not None:
        row = _evaluate({"variant": "kernel-rmen"}, None, mf.kernel, val_ds)
    else:
        row = _evaluate({"variant": "linear"}, mf.pair, None, val_ds)
    return {"command": "eval", "k": mf.hp.k, "n_samples": val_ds.n, **row}


def _run_synth(cfg: RunConfig) -> dict:
    ds, truth = synth_two_view(cfg.synth)
    save_dsv(ds.x, cfg.x_out, cfg.delimiter)
    save_dsv(ds.y, cfg.y_out, cfg.delimiter)
    return {
        "command": "synth",
        "n": cfg.synth.n,
        "d1": cfg.synth.d1,
        "d2": cfg.synth.d2,
        "planted_correlations": list(cfg.synth.correlations),
        "noise_scale": cfg.synth.noise_scale,
        "seed": cfg.synth.seed,
        "x_out": cfg.x_out,
        "y_out": cfg.y_out,
    }


# ------------------------------------------------------------------ reports

def _to_tsv(report: dict) -> str:
    rows = report.get("rows")
    if rows is None:
        rows = [{k: v for k, v in report.items()}]
        scalar_keys = [k for k in report if k != "rows"]
    else:
        common = {k: v for k, v in report.items() if k != "rows"}
        rows = [{**common, **r} for r in rows]
        scalar_keys = list(rows[0].keys())
    lines = ["\t".join(scalar_keys)]
    for row in rows:
        cells = []
        for key in scalar_keys:
            val = row.get(key, "")
            if isinstance(val, (list, tuple)):
                val = ",".join(_fmt(v) for v in val)
            else:
                val = _fmt(val)
            cells.append(val)
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(report: dict, cfg: RunConfig) -> None:
    if cfg.format == "tsv":
        text = _to_tsv(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(cfg: RunConfig) -> int:
    if cfg.command == "synth":
        report = _run_synth(cfg)
    elif cfg.command == "eval":
        report = _run_eval(cfg)
    else:
        report = _run_train_like(cfg)
    _emit(report, cfg)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(argv)
        return run(cfg)
    except SystemExit:
        raise
    except RmenccaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 1)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[FileNotFoundError]
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numeric failure, not bad configuration
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_CODES[NonFiniteIterate]
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[ConfigError]


if __name__ == "__main__":
    sys.exit(main())
