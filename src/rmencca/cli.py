"""Batch command-line front end.

Subcommands:

  synth    generate planted-correlation two-view data as DSV files
  train    fit one solver variant, evaluate on a held-out split, report
  eval     evaluate a saved model on new data
  compare  fit several variants on the same split, one report row each

Flags may also come from a JSON config file (--config); explicit flags
override file values.  Reports are deterministic for a fixed config,
seed and BLAS thread count except the wall-time fields.
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
    MODEL_VERSION,
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
from .errors import ConfigError, DimensionMismatch, NonFiniteIterate, RmenccaError
from .kernel import KernelKind, KernelSpec, fit_kernel, project_kernel
from .metrics import constraint_residual, pcc
from .solver import fit_full, fit_stochastic, project

VARIANTS = ("rmen", "men", "appgrad", "closed-form", "kernel-rmen")
DEFAULT_VARIANT = "rmen"
KERNELS = tuple(kind.value for kind in KernelKind)
FORMATS = ("json", "tsv")
# keys whose flags take `choices`; config-file values are checked against the
# same tuples
_CHOICES = {"variant": VARIANTS, "kernel": KERNELS, "format": FORMATS}


def _delimiter(value) -> str:
    """The DSV field delimiter, from a flag or a config file: one character
    that cannot occur in a number float() accepts (so never a letter, digit,
    '.', '+', '-' or '_'), and not a line break, which ends a row first."""
    if (not isinstance(value, str) or len(value) != 1 or value.isalnum()
            or value in ".+-_\r\n"):
        raise ConfigError(
            f"bad --delimiter value: {value!r}; use one character that cannot "
            "occur in a number, such as ',', ';' or a tab"
        )
    return value


# CLI key -> (dataclass field, type); a key left unset takes the field's default
_HP_FIELDS = {
    "k": ("k", int),
    "lambda1": ("lambda1", float),
    "lambda2": ("lambda2", float),
    "eta": ("eta", float),
    "gamma": ("gamma", float),
    "zeta": ("zeta", float),
    "iters": ("max_iters", int),
    "tol": ("tol", float),
    "batch_size": ("batch_size", int),
    "seed": ("seed", int),
}
_SYNTH_FIELDS = {
    "n": ("n", int),
    "d1": ("d1", int),
    "d2": ("d2", int),
    "noise": ("noise_scale", float),
    "seed": ("seed", int),
}
_OUTPUT_FIELDS = {
    "delimiter": ("delimiter", _delimiter),
    "out": ("out", str),
    "format": ("format", str),
}
_COMMON_KEYS = tuple(_HP_FIELDS) + tuple(_OUTPUT_FIELDS) + (
    "x", "y", "mnist", "variant", "variants", "kernel", "kernel_width",
    "val_fraction", "split_seed", "model_out", "model",
)
_SYNTH_KEYS = tuple(_SYNTH_FIELDS) + tuple(_OUTPUT_FIELDS) + ("correlations", "x_out", "y_out")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully merged and validated invocation."""

    command: str
    hp: Hyperparams | None = None
    x_path: str | None = None
    y_path: str | None = None
    mnist_path: str | None = None
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
        p.add_argument("--kernel", choices=KERNELS)
        p.add_argument("--kernel-width", type=float, dest="kernel_width")
        p.add_argument("--seed", type=int)
        p.add_argument("--val-fraction", type=float, dest="val_fraction")
        p.add_argument("--split-seed", type=int, dest="split_seed")
        p.add_argument("--delimiter")
        p.add_argument("--out")
        p.add_argument("--format", choices=FORMATS)

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
    p_synth.add_argument("--format", choices=FORMATS)

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
    p_eval.add_argument("--format", choices=FORMATS)

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
        allowed = _CHOICES.get(key)
        if allowed and merged[key] is not None and merged[key] not in allowed:
            raise ConfigError(
                f"unknown {key} {merged[key]!r}; choose from {', '.join(allowed)}"
            )
    return merged


def _pick(vals: dict, key: str, default):
    v = vals.get(key)
    return default if v is None else v


def _cast(key: str, value, cast):
    """cast(value); a value of the wrong type or form is a ConfigError."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad --{key.replace('_', '-')} value: {value!r}") from None


def _floats(raw) -> tuple[float, ...]:
    """A comma-separated string, or a list of numbers, as floats."""
    return tuple(float(c) for c in (raw.split(",") if isinstance(raw, str) else raw))


def _given(vals: dict, fields: dict) -> dict:
    """Keyword arguments for the keys that were set, each converted to its
    field's type; a key left unset keeps the dataclass default."""
    return {
        name: _cast(key, vals[key], cast)
        for key, (name, cast) in fields.items()
        if vals.get(key) is not None
    }


def _hyperparams(vals: dict) -> Hyperparams:
    try:
        return Hyperparams(**{"k": 2, **_given(vals, _HP_FIELDS)})
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
    width = _cast("kernel_width", width, float)
    try:
        return KernelSpec(kind=KernelKind.GAUSSIAN, width=width)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _require_file(path: str | None, what: str) -> str:
    if not path:
        raise ConfigError(f"missing required input: {what}")
    if not isinstance(path, str):
        raise ConfigError(f"bad {what} value: {path!r}")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _check_out_dir(path: str | None) -> None:
    if path:
        if not isinstance(path, str):
            raise ConfigError(f"bad output path: {path!r}")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"output directory does not exist: {parent}")


def _inputs(vals: dict) -> dict:
    """The input files as RunConfig fields: mnist_path, or x_path and y_path."""
    mnist = vals.get("mnist")
    if mnist is not None:
        return {"mnist_path": _require_file(mnist, "--mnist")}
    return {
        "x_path": _require_file(vals.get("x"), "--x"),
        "y_path": _require_file(vals.get("y"), "--y"),
    }


def parse_config(argv: list[str] | None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    command = args.command

    if command == "synth":
        vals = _merge(args, _SYNTH_KEYS)
        corr_raw = vals.get("correlations")
        if corr_raw is None:
            raise ConfigError("synth requires --correlations")
        corr = _cast("correlations", corr_raw, _floats)
        try:
            # the sizes are the CLI's own defaults; noise and seed are the spec's
            spec = SyntheticSpec(
                **{"n": 1000, "d1": 10, "d2": 8, **_given(vals, _SYNTH_FIELDS)},
                k_true=len(corr),
                correlations=corr,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        x_out, y_out = vals.get("x_out"), vals.get("y_out")
        if not x_out or not y_out:
            raise ConfigError("synth requires --x-out and --y-out")
        for p in (x_out, y_out, vals.get("out")):
            _check_out_dir(p)
        return RunConfig(
            command="synth", synth=spec, x_out=x_out, y_out=y_out,
            **_given(vals, _OUTPUT_FIELDS),
        )

    if command == "eval":
        vals = _merge(args, ("model", "x", "y", "mnist") + tuple(_OUTPUT_FIELDS))
        model_path = _require_file(vals.get("model"), "--model")
        inputs = _inputs(vals)
        _check_out_dir(vals.get("out"))
        return RunConfig(
            command="eval", model_path=model_path, **inputs,
            **_given(vals, _OUTPUT_FIELDS),
        )

    vals = _merge(args, _COMMON_KEYS)
    if command == "train":
        variants = (_pick(vals, "variant", DEFAULT_VARIANT),)
    else:
        raw = vals.get("variants")
        if raw is None:
            raise ConfigError("compare requires --variants")
        if not isinstance(raw, str):
            raw = _cast("variants", raw, ",".join)
        parts = tuple(tok.strip() for tok in raw.split(","))
        bad = [p for p in parts if p not in VARIANTS]
        if bad:
            raise ConfigError(f"unknown variants: {', '.join(bad)}")
        if len(parts) != len(set(parts)):
            raise ConfigError("duplicate variants requested")
        variants = parts

    hp = _hyperparams(vals)
    kernel = _kernel_spec(vals, variants)
    inputs = _inputs(vals)
    val_fraction = _cast("val_fraction", _pick(vals, "val_fraction", RunConfig.val_fraction), float)
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"--val-fraction must lie in (0, 1), got {val_fraction}")
    _check_out_dir(vals.get("out"))
    _check_out_dir(vals.get("model_out"))
    if vals.get("model_out") and command == "compare":
        raise ConfigError("--model-out applies to train only")
    return RunConfig(
        command=command,
        hp=hp,
        **inputs,
        variants=variants,
        kernel=kernel,
        val_fraction=val_fraction,
        split_seed=_cast("split_seed", _pick(vals, "split_seed", hp.seed), int),
        model_out=vals.get("model_out"),
        **_given(vals, _OUTPUT_FIELDS),
    )


# -------------------------------------------------------------- the pipeline

def _load_views(cfg: RunConfig) -> TwoViewDataset:
    if cfg.mnist_path is not None:
        return load_mnist_halves(cfg.mnist_path)
    x = load_dsv(cfg.x_path, cfg.delimiter)
    y = load_dsv(cfg.y_path, cfg.delimiter)
    return TwoViewDataset(x=x, y=y)


def _fit_variant(variant: str, train_ds: TwoViewDataset, cfg: RunConfig) -> tuple[dict, ModelFile]:
    """Fit one variant; returns its report row, before evaluation, and its
    model."""
    hp = cfg.hp
    pair = km = None
    extra = {}
    if variant == "closed-form":
        started = time.perf_counter()
        sol = cca_closed_form(train_ds, hp.k)
        wall = time.perf_counter() - started
        pair = sol.pair
        iterations, termination, trace = 0, "closed_form", ()
        res_u, res_v = constraint_residual(pair, train_ds)
        extra = {"canonical_correlations": list(sol.correlations)}
    else:
        if variant == "kernel-rmen":
            km = fit_kernel(train_ds, cfg.kernel, cfg.kernel, hp)
            report = km.report
        else:
            if variant == "men":
                hp = men_cca_mode(hp)
            elif variant == "appgrad":
                hp = appgrad_config(hp)
            fit = fit_stochastic if hp.batch_size is not None else fit_full
            report = fit(train_ds, hp)
            pair = report.pair
        iterations, termination = report.iterations_run, report.termination.value
        trace = report.objective_trace
        res_u, res_v = report.final_constraint_residual_u, report.final_constraint_residual_v
        wall = report.wall_seconds
    row = {
        "variant": variant,
        "iterations_run": iterations,
        "termination": termination,
        "objective_trace": list(trace),
        "constraint_residual_u": res_u,
        "constraint_residual_v": res_v,
        **extra,
        "wall_seconds": wall,
    }
    model = ModelFile(
        version=MODEL_VERSION, hp=hp,
        means_x=train_ds.x.feature_means, means_y=train_ds.y.feature_means,
        pair=pair, kernel=km,
    )
    return row, model


def _evaluate(row: dict, model: ModelFile, val_ds: TwoViewDataset) -> dict:
    if model.kernel is not None:
        a, b = project_kernel(model.kernel, val_ds.x, val_ds.y)
    else:
        a, b = project(model.pair, val_ds)
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
        row, model = _fit_variant(variant, train_ds, cfg)
        rows.append(_evaluate(row, model, val_ds))
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
    trained = (mf.means_x.size, mf.means_y.size)
    if (ds.x.d, ds.y.d) != trained:
        raise DimensionMismatch(
            f"the model was trained on views of {trained[0]} and {trained[1]} "
            f"features, the data has {ds.x.d} and {ds.y.d}"
        )
    val_ds = TwoViewDataset(
        x=center_with_means(ds.x, mf.means_x),
        y=center_with_means(ds.y, mf.means_y),
    )
    variant = "linear" if mf.kernel is None else "kernel-rmen"
    row = _evaluate({"variant": variant}, mf, val_ds)
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
    """One line per row under a header of every row's keys, in first-seen
    order; a row lacking a key gets an empty cell."""
    common = {k: v for k, v in report.items() if k != "rows"}
    rows = [{**common, **r} for r in report.get("rows", [{}])]
    header = list(dict.fromkeys(key for row in rows for key in row))
    lines = ["\t".join(header)]
    for row in rows:
        cells = []
        for key in header:
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
        return run(parse_config(argv))
    except RmenccaError as exc:
        code, message = exc.exit_code, str(exc)
    except FileNotFoundError as exc:
        code, message = 3, str(exc)
    except MemoryError as exc:
        code, message = 24, f"out of memory: {exc}" if str(exc) else "out of memory"
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numeric failure, not bad configuration
        code, message = NonFiniteIterate.exit_code, f"numeric failure: {exc}"
    except (ValueError, OSError) as exc:
        code, message = ConfigError.exit_code, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
