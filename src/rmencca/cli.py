"""Batch command-line front end.

Subcommands:

  synth    generate planted-correlation two-view data as DSV files
  train    fit one solver variant, evaluate on a held-out split, report
  eval     evaluate a saved model on new data
  compare  fit several variants on the same split, one report row each

FLAGS is the one place a flag is declared: each command's table of
key -> kind builds its parser, lists the keys a JSON config file (--config)
may hold, and checks every value, and a key named like a Hyperparams,
SyntheticSpec or RunConfig field sets that field.  Explicit flags override
file values; both pass the same check.  Reports are deterministic for a
fixed config, seed and BLAS thread count except the wall-time fields.
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
# fit_stochastic is fit_full; it stays bound because tracing tools such as
# perfbench/spans.py wrap this module's fit_stochastic binding by name
from .solver import fit_full, fit_stochastic, project  # noqa: F401

VARIANTS = ("rmen", "men", "appgrad", "closed-form", "kernel-rmen")
DEFAULT_VARIANT = "rmen"
KERNELS = tuple(kind.value for kind in KernelKind)
FORMATS = ("json", "tsv")


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


def _floats(raw) -> tuple[float, ...]:
    """--correlations: comma-separated text, or a JSON list of numbers."""
    parts = raw.split(",") if isinstance(raw, str) else raw
    return tuple(_checked("correlations", float, part) for part in parts)


def _variants(raw) -> tuple[str, ...]:
    """--variants: comma-separated text, or a JSON list of names; each a
    known variant, none twice."""
    parts = raw.split(",") if isinstance(raw, str) else raw
    names = tuple(_checked("variants", str, part).strip() for part in parts)
    bad = [name for name in names if name not in VARIANTS]
    if bad:
        raise ConfigError(f"unknown variants: {', '.join(bad)}")
    if len(names) != len(set(names)):
        raise ConfigError("duplicate variants requested")
    return names


# key -> kind.  A key is a flag (--key, with '-' for '_') and a config-file
# key.  A kind is int, float or str, a tuple of choices, or a converter of the
# flag's text or a JSON value.
_OUTPUT = {"delimiter": _delimiter, "out": str, "format": FORMATS}
_INPUTS = {"x": str, "y": str, "mnist": str}
_FITTING = {
    "k": int, "lambda1": float, "lambda2": float, "eta": float, "gamma": float,
    "zeta": float, "iters": int, "tol": float, "batch_size": int,
    "kernel": KERNELS, "kernel_width": float, "seed": int,
    "val_fraction": float, "split_seed": int,
}
FLAGS = {  # command: (summary, its flags in --help order)
    "synth": ("generate planted two-view data", {
        **_OUTPUT, "n": int, "d1": int, "d2": int, "correlations": _floats,
        "noise": float, "seed": int, "x_out": str, "y_out": str,
    }),
    "train": ("fit one variant and evaluate held out", {
        **_OUTPUT, **_INPUTS, **_FITTING, "variant": VARIANTS, "model_out": str,
    }),
    "eval": ("evaluate a saved model on new data", {**_OUTPUT, **_INPUTS, "model": str}),
    "compare": ("fit several variants on one split", {
        **_OUTPUT, **_INPUTS, **_FITTING, "variants": _variants,
    }),
}
_HELP = {
    "x": "view X as DSV, one sample per row",
    "y": "view Y as DSV, one sample per row",
    "mnist": "IDX image file; views are the left/right halves",
    "correlations": "comma-separated, descending, in (0,1]",
    "variants": "comma-separated subset of: " + ",".join(VARIANTS),
}
# keys whose library field has another name
_FIELD_NAMES = {"iters": "max_iters", "noise": "noise_scale"}
# the JSON types a value of a scalar kind may have; text is parsed as the
# flag parses it
_JSON_TYPES = {int: (str, int), float: (str, int, float), str: (str,)}


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
    for command, (summary, table) in FLAGS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key, kind in table.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key),
                           type=kind if kind in (int, float) else None,
                           choices=kind if isinstance(kind, tuple) else None)
    return parser


def _checked(key: str, kind, value):
    """value, from a flag or a config file, as its flag's kind.  A boolean, a
    JSON number not of the flag's type (int flags take integers only), a
    list for a scalar flag or a value outside the choices is a ConfigError."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"unknown {key} {value!r}; choose from {', '.join(kind)}")
        return value
    try:
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES.get(kind, object)):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad --{key.replace('_', '-')} value: {value!r}") from None


def _merge(args: argparse.Namespace) -> dict:
    """Each of the command's keys -> its flag's value, else its config-file
    value, checked; None when neither is given."""
    table = FLAGS[args.command][1]
    file_vals: dict = {}
    if args.config:
        if not os.path.isfile(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        with open(args.config, encoding="utf-8") as fh:
            try:
                file_vals = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_vals, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_vals) - set(table))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged = {}
    for key, kind in table.items():
        value = getattr(args, key)
        if value is None:
            value = file_vals.get(key)
        merged[key] = None if value is None else _checked(key, kind, value)
    return merged


def _fields(cls, vals: dict) -> dict:
    """Keyword arguments of dataclass cls from the keys that were set and
    name one of its fields; a field left unset keeps its default."""
    names = {field.name for field in dataclasses.fields(cls)}
    given = {_FIELD_NAMES.get(key, key): value for key, value in vals.items()
             if value is not None}
    return {name: value for name, value in given.items() if name in names}


def _kernel_spec(vals: dict, variants: tuple[str, ...]) -> KernelSpec | None:
    kind, width = vals["kernel"], vals["kernel_width"]
    if "kernel-rmen" not in variants:
        if kind is not None or width is not None:
            raise ConfigError("--kernel/--kernel-width require the kernel-rmen variant")
        return None
    if vals["batch_size"] is not None:
        raise ConfigError("--batch-size does not apply to kernel-rmen: kernel fits are full-batch")
    if kind == "linear":
        if width is not None:
            raise ConfigError("--kernel-width does not apply to the linear kernel")
        return KernelSpec(kind=KernelKind.LINEAR)
    if width is None:
        raise ConfigError("the Gaussian kernel requires --kernel-width")
    return KernelSpec(kind=KernelKind.GAUSSIAN, width=width)


def _require_file(path: str | None, what: str) -> str:
    if not path:
        raise ConfigError(f"missing required input: {what}")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _inputs(vals: dict) -> dict:
    """The input files as RunConfig fields: mnist_path, or x_path and y_path."""
    if vals["mnist"] is not None:
        if vals["x"] is not None or vals["y"] is not None:
            raise ConfigError("--mnist replaces --x and --y; give one or the other")
        return {"mnist_path": _require_file(vals["mnist"], "--mnist")}
    return {
        "x_path": _require_file(vals["x"], "--x"),
        "y_path": _require_file(vals["y"], "--y"),
    }


def parse_config(argv: list[str] | None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    command = args.command
    vals = _merge(args)
    # out, format, delimiter and the command's other RunConfig-named keys
    given = _fields(RunConfig, vals)
    for key in filter(given.get, ("out", "model_out", "x_out", "y_out")):
        path = given[key]
        if os.path.isdir(path):
            raise ConfigError(f"--{key.replace('_', '-')} names a directory: {path}")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"output directory does not exist: {parent}")

    if command == "synth":
        if vals["correlations"] is None:
            raise ConfigError("synth requires --correlations")
        # the sizes are the CLI's own defaults; noise and seed are the spec's
        spec = SyntheticSpec(**{"n": 1000, "d1": 10, "d2": 8, **_fields(SyntheticSpec, vals)},
                             k_true=len(vals["correlations"]))
        if not vals["x_out"] or not vals["y_out"]:
            raise ConfigError("synth requires --x-out and --y-out")
        return RunConfig(command="synth", synth=spec, **given)

    if command == "eval":
        # inputs first: a config error in them outranks a missing model file
        return RunConfig(command="eval", **_inputs(vals),
                         model_path=_require_file(vals["model"], "--model"), **given)

    variants = (vals["variant"] or DEFAULT_VARIANT,) if command == "train" else vals["variants"]
    if variants is None:
        raise ConfigError("compare requires --variants")
    hp = Hyperparams(**{"k": 2, **_fields(Hyperparams, vals)})
    kernel = _kernel_spec(vals, variants)
    inputs = _inputs(vals)
    val_fraction = given.get("val_fraction", RunConfig.val_fraction)
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"--val-fraction must lie in (0, 1), got {val_fraction}")
    split_seed = given.get("split_seed", hp.seed)
    if split_seed < 0:
        raise ConfigError(f"--split-seed must be nonnegative, got {split_seed}")
    # the kernel key's text becomes its KernelSpec
    return RunConfig(**{**given, "command": command, "hp": hp, **inputs,
                        "variants": variants, "kernel": kernel, "split_seed": split_seed})


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
            report = fit_full(train_ds, hp)
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


def _centered_split(cfg: RunConfig) -> tuple[TwoViewDataset, TwoViewDataset]:
    """The loaded views split for training and validation, the training
    split centered on its own means and the validation split on the
    training means.  The loaded views are only split_train_validation's
    argument, freed when it returns, and the raw split is freed when this
    returns, so the peak is two copies of the data: the loaded views and the
    split, then the split and its centered copy."""
    train_raw, val_raw = split_train_validation(_load_views(cfg), cfg.val_fraction,
                                                cfg.split_seed)
    train_x = center(train_raw.x)
    train_y = center(train_raw.y)
    train_ds = TwoViewDataset(x=train_x, y=train_y)
    val_ds = TwoViewDataset(
        x=center_with_means(val_raw.x, train_x.feature_means),
        y=center_with_means(val_raw.y, train_y.feature_means),
    )
    return train_ds, val_ds


def _run_train_like(cfg: RunConfig) -> dict:
    """Fit each variant on the centered training split and evaluate it on
    the validation split, holding the data at most twice (see
    _centered_split): train and compare peak at about 2x the loaded
    values' bytes, plus what the fits allocate."""
    train_ds, val_ds = _centered_split(cfg)
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
