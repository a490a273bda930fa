import json
import struct

import numpy as np
import pytest

import rmencca as r
from rmencca import errors
from rmencca.cli import FLAGS, main, parse_config


def _synth_files(tmp_path, n=400, corr="0.9,0.6", noise="0.2", seed="1"):
    x_path = str(tmp_path / "x.csv")
    y_path = str(tmp_path / "y.csv")
    code = main([
        "synth", "--n", str(n), "--d1", "6", "--d2", "5",
        "--correlations", corr, "--noise", noise, "--seed", seed,
        "--x-out", x_path, "--y-out", y_path,
        "--out", str(tmp_path / "synth_report.json"),
    ])
    assert code == 0
    return x_path, y_path


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_synth_writes_loadable_deterministic_views(tmp_path):
    x_path, y_path = _synth_files(tmp_path)
    x = r.load_dsv(x_path)
    y = r.load_dsv(y_path)
    assert x.data.shape == (6, 400)
    assert y.data.shape == (5, 400)
    report = _read_json(tmp_path / "synth_report.json")
    assert report["planted_correlations"] == [0.9, 0.6]
    again = tmp_path / "again"
    again.mkdir()
    x2_path, _ = _synth_files(again)
    assert np.array_equal(x.data, r.load_dsv(x2_path).data)


def test_synth_requires_correlations_and_outputs(tmp_path):
    assert main(["synth", "--n", "50", "--x-out", str(tmp_path / "a.csv"),
                 "--y-out", str(tmp_path / "b.csv")]) == 2
    assert main(["synth", "--correlations", "0.9"]) == 2
    assert main(["synth", "--correlations", "0.9,0.95",
                 "--x-out", str(tmp_path / "a.csv"),
                 "--y-out", str(tmp_path / "b.csv")]) == 2


def test_train_report_shape_and_determinism(tmp_path):
    x_path, y_path = _synth_files(tmp_path)
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    argv = ["train", "--x", x_path, "--y", y_path, "--k", "2",
            "--iters", "80", "--tol", "0", "--seed", "3", "--eta", "0.01"]
    assert main(argv + ["--out", out_a]) == 0
    assert main(argv + ["--out", out_b]) == 0
    a = _read_json(out_a)
    b = _read_json(out_b)
    for key in ("command", "variant", "k", "n_train", "n_validation",
                "iterations_run", "termination", "objective_trace",
                "constraint_residual_u", "constraint_residual_v",
                "pcc_per_dimension", "mean_pcc_percent", "pcc_zero_variance",
                "wall_seconds"):
        assert key in a
    assert a["command"] == "train"
    assert a["variant"] == "rmen"
    assert a["n_train"] == 320 and a["n_validation"] == 80
    assert a["iterations_run"] == 80
    assert len(a["objective_trace"]) == 80
    assert a["constraint_residual_u"] < 1e-8 * 2
    assert 0.0 < a["mean_pcc_percent"] <= 100.0
    a.pop("wall_seconds")
    b.pop("wall_seconds")
    assert a == b


def test_train_saves_model_and_eval_reproduces_pcc(tmp_path):
    x_path, y_path = _synth_files(tmp_path)
    report_path = str(tmp_path / "train.json")
    model_path = str(tmp_path / "model.rmen")
    assert main(["train", "--x", x_path, "--y", y_path, "--k", "2",
                 "--iters", "60", "--tol", "0", "--seed", "0",
                 "--model-out", model_path, "--out", report_path]) == 0
    trained = _read_json(report_path)
    eval_path = str(tmp_path / "eval.json")
    assert main(["eval", "--model", model_path, "--x", x_path, "--y", y_path,
                 "--out", eval_path]) == 0
    evaluated = _read_json(eval_path)
    assert evaluated["command"] == "eval"
    assert evaluated["variant"] == "linear"
    assert evaluated["n_samples"] == 400
    # training evaluated a held-out fifth; eval sees all 400 samples, so the
    # numbers agree only loosely
    assert evaluated["mean_pcc_percent"] == pytest.approx(
        trained["mean_pcc_percent"], abs=15.0)


def test_train_stochastic_path(tmp_path):
    x_path, y_path = _synth_files(tmp_path)
    out = str(tmp_path / "sto.json")
    assert main(["train", "--x", x_path, "--y", y_path, "--k", "2",
                 "--iters", "60", "--tol", "0", "--batch-size", "64",
                 "--out", out]) == 0
    report = _read_json(out)
    assert report["constraint_residual_u"] < 2e-8
    # an oversize batch is rejected by the minibatch path specifically
    assert main(["train", "--x", x_path, "--y", y_path, "--k", "2",
                 "--batch-size", "9999"]) == 14


def test_kernel_variant_round_trip(tmp_path):
    x_path, y_path = _synth_files(tmp_path, n=200)
    model_path = str(tmp_path / "kernel.rmen")
    out = str(tmp_path / "kernel.json")
    assert main(["train", "--x", x_path, "--y", y_path, "--variant", "kernel-rmen",
                 "--kernel", "gaussian", "--kernel-width", "3.0",
                 "--k", "1", "--iters", "50", "--tol", "0",
                 "--model-out", model_path, "--out", out]) == 0
    report = _read_json(out)
    assert report["variant"] == "kernel-rmen"
    eval_out = str(tmp_path / "kernel_eval.json")
    assert main(["eval", "--model", model_path, "--x", x_path, "--y", y_path,
                 "--out", eval_out]) == 0
    assert _read_json(eval_out)["variant"] == "kernel-rmen"


def test_kernel_flags_require_kernel_variant(tmp_path, capsys):
    x_path, y_path = _synth_files(tmp_path, n=100)
    out = tmp_path / "never.json"
    code = main(["train", "--x", x_path, "--y", y_path,
                 "--kernel-width", "2.0", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert main(["train", "--x", x_path, "--y", y_path, "--variant", "kernel-rmen",
                 "--kernel", "linear", "--kernel-width", "2.0"]) == 2
    assert main(["train", "--x", x_path, "--y", y_path, "--variant", "kernel-rmen",
                 "--kernel", "gaussian"]) == 2
    # kernel fits are full-batch: refused before any data is read or fitted
    for argv in (["train", "--variant", "kernel-rmen", "--kernel-width", "1",
                  "--batch-size", "32"],
                 ["compare", "--variants", "rmen,kernel-rmen", "--kernel-width", "1",
                  "--batch-size", "64"]):
        capsys.readouterr()
        assert main(argv + ["--x", x_path, "--y", y_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--batch-size" in err[0]
        assert not out.exists()


def test_compare_emits_one_row_per_variant(tmp_path):
    x_path, y_path = _synth_files(tmp_path)
    out = str(tmp_path / "cmp.json")
    assert main(["compare", "--x", x_path, "--y", y_path,
                 "--variants", "rmen,men,appgrad,closed-form",
                 "--k", "2", "--iters", "40", "--tol", "0", "--out", out]) == 0
    report = _read_json(out)
    assert [row["variant"] for row in report["rows"]] == [
        "rmen", "men", "appgrad", "closed-form"]
    closed = report["rows"][3]
    assert closed["termination"] == "closed_form"
    assert "canonical_correlations" in closed
    for row in report["rows"]:
        assert "mean_pcc_percent" in row
    assert main(["compare", "--x", x_path, "--y", y_path]) == 2
    assert main(["compare", "--x", x_path, "--y", y_path,
                 "--variants", "rmen,bogus"]) == 2
    assert main(["compare", "--x", x_path, "--y", y_path,
                 "--variants", "rmen,rmen"]) == 2


def test_tsv_format_parses_strictly(tmp_path):
    x_path, y_path = _synth_files(tmp_path)
    out = str(tmp_path / "cmp.tsv")
    assert main(["compare", "--x", x_path, "--y", y_path,
                 "--variants", "rmen,closed-form", "--k", "2",
                 "--iters", "30", "--tol", "0",
                 "--format", "tsv", "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3
    header = lines[0].split("\t")
    assert len(set(header)) == len(header)
    for line in lines[1:]:
        cells = line.split("\t")
        assert len(cells) == len(header)
    first = dict(zip(header, lines[1].split("\t")))
    assert first["variant"] == "rmen"
    assert float(first["mean_pcc_percent"]) == pytest.approx(
        float(first["mean_pcc_percent"]))
    # the header covers every row's keys, not only the first row's
    closed = dict(zip(header, lines[2].split("\t")))
    assert closed["variant"] == "closed-form"
    assert first["canonical_correlations"] == ""
    correlations = [float(c) for c in closed["canonical_correlations"].split(",")]
    assert len(correlations) == 2 and 0.0 < correlations[1] <= correlations[0] <= 1.0


def test_config_file_merging_and_overrides(tmp_path):
    x_path, y_path = _synth_files(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "x": x_path, "y": y_path, "k": 1, "iters": 40, "tol": 0.0,
        "eta": 0.01, "seed": 5,
    }))
    out = str(tmp_path / "from_config.json")
    assert main(["train", "--config", str(config), "--out", out]) == 0
    report = _read_json(out)
    assert report["k"] == 1
    assert report["iterations_run"] == 40
    out2 = str(tmp_path / "overridden.json")
    assert main(["train", "--config", str(config), "--k", "2", "--out", out2]) == 0
    assert _read_json(out2)["k"] == 2


def test_config_file_error_cases(tmp_path):
    x_path, y_path = _synth_files(tmp_path, n=100)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"x": x_path, "y": y_path, "bogus_key": 1}))
    assert main(["train", "--config", str(unknown)]) == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert main(["train", "--config", str(not_json)]) == 2
    not_dict = tmp_path / "list.json"
    not_dict.write_text("[1, 2]")
    assert main(["train", "--config", str(not_dict)]) == 2
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 3


@pytest.mark.parametrize("command, values", [
    ("train", {"k": [1]}),
    ("train", {"iters": {"n": 3}}),
    ("train", {"val_fraction": [0.2]}),
    ("train", {"split_seed": "first"}),
    ("train", {"variant": "kernel-rmen", "kernel": "gaussian", "kernel_width": [3]}),
    ("train", {"variant": "kernel-rmen", "kernel": "bogus", "kernel_width": 3}),
    ("train", {"variant": "bogus"}),
    ("train", {"format": "xml"}),
    ("train", {"model_out": 5}),
    ("train", {"x": 5}),
    ("compare", {"variants": 5}),
    ("compare", {"variants": ["rmen", 1]}),
    ("synth", {"correlations": 5}),
    ("synth", {"correlations": "0.9,high"}),
    ("synth", {"correlations": "0.9", "n": [100]}),
    ("synth", {"correlations": "0.9", "format": "xml"}),
    ("train", {"delimiter": 5}),
    ("train", {"delimiter": ",,"}),
    ("compare", {"delimiter": "e"}),
    ("synth", {"correlations": "0.9", "delimiter": "-"}),
    ("train", {"variants": "rmen,appgrad"}),
    ("train", {"model": "m.bin"}),
    ("compare", {"variant": "men"}),
    ("train", {"lambda1": float("nan")}),
    ("train", {"zeta": float("inf")}),
    ("train", {"tol": float("nan")}),
    ("compare", {"lambda2": float("inf")}),
    ("train", {"k": 2.5}),
    ("train", {"k": True}),
    ("train", {"tol": True}),
    ("train", {"seed": 1.5}),
])
def test_config_file_values_are_typed_and_checked(tmp_path, capsys, command, values):
    """A config-file key that is not one of the command's flags, or a value of
    the wrong type, outside its flag's choices or not finite, is a
    configuration error: exit 2 and one error line, no traceback."""
    if command == "synth":
        base = {"x_out": str(tmp_path / "x.csv"), "y_out": str(tmp_path / "y.csv")}
    else:
        x_path, y_path = _synth_files(tmp_path, n=60)
        base = {"x": x_path, "y": y_path, "iters": 5}
        if command == "compare":
            base["variants"] = "rmen"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**base, **values}))
    capsys.readouterr()
    assert main([command, "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "r.json").exists()


# one value per key of every command: (flag text, the same value as JSON)
_FLAG_VALUES = {
    "delimiter": (";", ";"), "format": ("tsv", "tsv"), "k": ("1", 1),
    "lambda1": ("0.5", 0.5), "lambda2": ("0", 0), "eta": ("0.01", 0.01),
    "gamma": ("0.5", 0.5), "zeta": ("1e-6", 1e-6), "iters": ("7", 7), "tol": ("0", 0.0),
    "batch_size": ("8", 8), "kernel": ("linear", "linear"),
    "kernel_width": ("2.5", 2.5), "seed": ("3", 3), "val_fraction": ("0.3", 0.3),
    "split_seed": ("4", 4), "variant": ("men", "men"),
    "variants": ("rmen, closed-form", ["rmen", "closed-form"]),
    "n": ("50", 50), "d1": ("4", 4), "d2": ("3", 3),
    "correlations": ("0.9,0.5", [0.9, 0.5]), "noise": ("0.1", 0.1),
}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, table) in FLAGS.items() for key in table])
def test_flag_and_config_file_give_the_same_run(tmp_path, command, key):
    """--key V, a config file holding V as text and one holding V as a JSON
    value of the flag's type all parse to the same RunConfig."""
    paths = {k: str(tmp_path / k) for k in
             ("x", "y", "mnist", "model", "out", "model_out", "x_out", "y_out")}
    for k in ("x", "y", "mnist", "model"):  # inputs need only exist here
        (tmp_path / k).write_text("")
    values = {**_FLAG_VALUES, **{k: (p, p) for k, p in paths.items()}}
    base = {
        "synth": {"correlations": "0.9", "x_out": paths["x_out"], "y_out": paths["y_out"]},
        "eval": {"model": paths["model"], "x": paths["x"], "y": paths["y"]},
        "train": {"x": paths["x"], "y": paths["y"]},
        "compare": {"x": paths["x"], "y": paths["y"], "variants": "rmen"},
    }[command]
    if key in ("kernel", "kernel_width"):
        base["variant" if command == "train" else "variants"] = "kernel-rmen"
    if key == "mnist":  # --mnist replaces --x and --y
        base.pop("x"), base.pop("y")
    base.pop(key, None)
    flags = [tok for k, v in base.items() for tok in ("--" + k.replace("_", "-"), v)]
    text, typed = values[key]
    expected = parse_config([command, *flags, "--" + key.replace("_", "-"), text])
    for value in (text, typed):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        assert parse_config([command, *flags, "--config", str(config)]) == expected


def test_negative_seeds_name_their_flag(tmp_path, capsys):
    x_path, y_path = _synth_files(tmp_path, n=60)
    new_x, new_y = str(tmp_path / "new_x.csv"), str(tmp_path / "new_y.csv")
    for argv, flag in (
        (["synth", "--correlations", "0.9", "--seed", "-1",
          "--x-out", new_x, "--y-out", new_y], "seed"),
        (["train", "--x", x_path, "--y", y_path, "--seed", "-1"], "seed"),
        (["train", "--x", x_path, "--y", y_path, "--split-seed", "-1"], "--split-seed"),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and flag in err[0]
    assert not (tmp_path / "new_x.csv").exists()


def test_delimiter_is_one_character_outside_numbers(tmp_path, capsys):
    """--delimiter is one character that no number float() accepts can hold
    (tab included); any other value is a configuration error, exit 2 with one
    error line, before a file is read or written."""
    x_path, y_path = str(tmp_path / "x.tsv"), str(tmp_path / "y.tsv")
    model = str(tmp_path / "model.rmen")
    synth = ["synth", "--correlations", "0.9", "--n", "60", "--d1", "3", "--d2", "2"]
    assert main(synth + ["--x-out", x_path, "--y-out", y_path, "--delimiter=\t",
                         "--out", str(tmp_path / "s.json")]) == 0
    train = ["train", "--x", x_path, "--y", y_path, "--k", "1", "--iters", "5"]
    assert main(train + ["--delimiter=\t", "--model-out", model,
                         "--out", str(tmp_path / "t.json")]) == 0
    evaluate = ["eval", "--model", model, "--x", x_path, "--y", y_path]
    assert main(evaluate + ["--delimiter=\t", "--out", str(tmp_path / "e.json")]) == 0
    assert main(train + ["--delimiter=;", "--out", str(tmp_path / "t2.json")]) == 5

    new_x, new_y = str(tmp_path / "new_x.tsv"), str(tmp_path / "new_y.tsv")
    for bad in (",,", "", ".", "+", "-", "_", "e", "7", "\n"):
        for argv in (synth + ["--x-out", new_x, "--y-out", new_y], train, evaluate):
            capsys.readouterr()
            assert main(argv + [f"--delimiter={bad}"]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: bad --delimiter value")
    assert not (tmp_path / "new_x.tsv").exists()


def test_mnist_input_path(tmp_path):
    rng = np.random.default_rng(20)
    images = rng.integers(0, 256, size=(60, 4, 6), dtype=np.uint8)
    idx = tmp_path / "images.idx"
    with open(idx, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, 60, 4, 6))
        fh.write(images.tobytes())
    out = str(tmp_path / "mnist_train.json")
    assert main(["train", "--mnist", str(idx), "--k", "2", "--iters", "30",
                 "--tol", "0", "--eta", "0.05", "--out", out]) == 0
    report = _read_json(out)
    assert report["n_train"] == 48 and report["n_validation"] == 12


def test_output_path_naming_a_directory_is_refused_first(tmp_path, capsys):
    """An output flag naming an existing directory is a configuration error
    raised before any input is read: exit 2, not the 3 of the missing --x."""
    missing = str(tmp_path / "missing.csv")
    inputs = ["--x", missing, "--y", missing]
    for argv, flag in (
        (["train", *inputs, "--out", str(tmp_path)], "--out"),
        (["train", *inputs, "--model-out", str(tmp_path)], "--model-out"),
        (["compare", *inputs, "--variants", "rmen", "--out", str(tmp_path)], "--out"),
        (["eval", *inputs, "--model", missing, "--out", str(tmp_path)], "--out"),
        (["synth", "--correlations", "0.9", "--x-out", str(tmp_path),
          "--y-out", str(tmp_path / "y.csv")], "--x-out"),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + flag + " ")
    assert not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval", "compare"])
@pytest.mark.parametrize("extra", [["--x", "nonexistent.csv"], ["--y", "nonexistent.csv"]])
def test_mnist_with_dsv_inputs_is_a_config_error(tmp_path, capsys, command, extra):
    """--mnist replaces --x and --y; giving both is refused by name, before
    the missing DSV file is looked for."""
    idx = tmp_path / "m.idx"
    idx.write_bytes(struct.pack(">IIII", 0x00000803, 4, 2, 2) + bytes(16))
    # eval's model file is missing too: the config error is named first
    missing_model = str(tmp_path / "missing.rmen")
    argv = {"train": [], "eval": ["--model", missing_model], "compare": ["--variants", "rmen"]}
    assert main([command, "--mnist", str(idx), *extra, *argv[command]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --mnist ")


def test_distinct_exit_codes(tmp_path):
    x_path, y_path = _synth_files(tmp_path, n=100)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    assert main(["train", "--x", str(ragged), "--y", y_path]) == 4

    truncated = tmp_path / "short.idx"
    truncated.write_bytes(struct.pack(">IIII", 0x00000803, 5, 4, 6) + b"\x00" * 10)
    assert main(["train", "--mnist", str(truncated)]) == 8

    model = tmp_path / "model.rmen"
    assert main(["train", "--x", x_path, "--y", y_path, "--k", "1",
                 "--iters", "20", "--tol", "0",
                 "--model-out", str(model)]) == 0
    corrupt = tmp_path / "corrupt.rmen"
    corrupt.write_bytes(model.read_bytes() + b"\xff")
    assert main(["eval", "--model", str(corrupt), "--x", x_path, "--y", y_path]) == 10
    # U's row count rewritten to ask for 64 GiB: a corrupt file, not an
    # allocation; U's header follows the magic, version, kind, hyperparameter
    # block and the two 6- and 5-row mean columns
    u_shape_at = 8 + 4 + 1 + struct.calcsize("<IdddddIdqqB") + (16 + 8 * 6) + (16 + 8 * 5)
    raw = model.read_bytes()
    assert struct.unpack("<QQ", raw[u_shape_at:u_shape_at + 16]) == (6, 1)
    oversized = tmp_path / "oversized.rmen"
    oversized.write_bytes(raw[:u_shape_at] + struct.pack("<Q", 1 << 33) + raw[u_shape_at + 8:])
    assert main(["eval", "--model", str(oversized), "--x", x_path, "--y", y_path]) == 10
    # the stored k rewritten to 0: the hyperparameter block is corrupt, not
    # a bad flag; k is the block's first field, after magic, version and kind
    zero_k = tmp_path / "zero_k.rmen"
    zero_k.write_bytes(raw[:13] + struct.pack("<I", 0) + raw[17:])
    assert main(["eval", "--model", str(zero_k), "--x", x_path, "--y", y_path]) == 10

    assert main(["train", "--x", str(tmp_path / "nope.csv"), "--y", y_path]) == 3
    assert main(["train", "--x", x_path, "--y", y_path, "--k", "0"]) == 2
    assert main(["train", "--x", x_path, "--y", y_path, "--eta", "nan"]) == 2
    assert main(["train", "--x", x_path, "--y", y_path, "--k", "99"]) == 13

    # a model of 6 and 5 features evaluated on views of 4 and 5 features
    narrow = tmp_path / "narrow.csv"
    with open(x_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    narrow.write_text("\n".join(",".join(line.split(",")[:4]) for line in lines))
    assert main(["eval", "--model", str(model), "--x", str(narrow), "--y", y_path]) == 15

    # an IDX file with no images, and one whose images are one pixel wide
    for count, cols in ((0, 6), (5, 1)):
        empty = tmp_path / f"empty_{count}_{cols}.idx"
        empty.write_bytes(struct.pack(">IIII", 0x00000803, count, 4, cols)
                          + b"\x00" * (count * 4 * cols))
        assert main(["train", "--mnist", str(empty)]) == 6

    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("1,2\n3,4\xe9\n".encode("latin-1"))
    assert main(["train", "--x", str(latin1), "--y", y_path]) == 5


_Y_SHORT = "view x has 100 samples but view y has 80"
_X_SHORT = "view x has 80 samples but view y has 100"
_NAN = "view x contains non-finite entries"
_MEAN_OVERFLOW = "feature means overflowed double precision; rescale the inputs"
_PCC_OVERFLOW = ("Pearson correlation overflowed double precision or met a non-finite "
                 "projection; rescale the inputs")
_INPUT_FAULTS = {
    # name: (argv, exit code, error message); x.csv and y.csv have 100 rows,
    # x80.csv and y80.csv their first 80, xnan.csv one 'nan' field
    "train-y-shorter": (["train", "--x", "x.csv", "--y", "y80.csv"], 11, _Y_SHORT),
    "compare-y-shorter": (["compare", "--variants", "rmen,closed-form",
                           "--x", "x.csv", "--y", "y80.csv"], 11, _Y_SHORT),
    "train-x-shorter": (["train", "--x", "x80.csv", "--y", "y.csv"], 11, _X_SHORT),
    "compare-x-shorter": (["compare", "--variants", "rmen,closed-form",
                           "--x", "x80.csv", "--y", "y.csv"], 11, _X_SHORT),
    "closed-form-nan": (["train", "--variant", "closed-form",
                         "--x", "xnan.csv", "--y", "y.csv"], 12, _NAN),
    "eval-nan": (["eval", "--model", "model.rmen", "--x", "xnan.csv", "--y", "y.csv"],
                 12, _NAN),
    "eval-y-shorter": (["eval", "--model", "model.rmen", "--x", "x.csv", "--y", "y80.csv"],
                       11, _Y_SHORT),
    # xbig.csv is x.csv times 1e307: finite, but its projections overflow
    "eval-overflow": (["eval", "--model", "model.rmen", "--x", "xbig.csv", "--y", "y.csv"],
                      18, _PCC_OVERFLOW),
    "eval-overflow-kernel": (["eval", "--model", "kernel.rmen", "--x", "xbig.csv",
                              "--y", "y.csv"], 18, _PCC_OVERFLOW),
    # xhuge.csv is x.csv with its first column 1.5e308: finite, but its mean
    # overflows where the training half is centered
    "train-mean-overflow": (["train", "--x", "xhuge.csv", "--y", "y.csv"], 18, _MEAN_OVERFLOW),
    "closed-form-mean-overflow": (["train", "--variant", "closed-form",
                                   "--x", "xhuge.csv", "--y", "y.csv"], 18, _MEAN_OVERFLOW),
}


@pytest.mark.parametrize("case", list(_INPUT_FAULTS))
def test_unpaired_or_non_finite_views_exit_typed(tmp_path, monkeypatch, capsys, case):
    """Views of different row counts (exit 11) and a NaN in a view a command
    fits or evaluates (exit 12) are refused where the two views become one
    dataset, in every command and variant, and finite values that overflow
    (exit 18) where the training means or the held-out correlations are
    formed: one error line, no report, no traceback."""
    monkeypatch.chdir(tmp_path)
    _synth_files(tmp_path, n=100)
    lines = {}
    for name in ("x", "y"):
        lines[name] = (tmp_path / f"{name}.csv").read_text().splitlines(keepends=True)
        (tmp_path / f"{name}80.csv").write_text("".join(lines[name][:80]))
    first = lines["x"][0]
    (tmp_path / "xnan.csv").write_text("nan" + first[first.index(","):] + "".join(lines["x"][1:]))
    (tmp_path / "xbig.csv").write_text("".join(
        ",".join(repr(1e307 * float(v)) for v in line.split(",")) + "\n" for line in lines["x"]))
    (tmp_path / "xhuge.csv").write_text("".join(
        "1.5e308" + line[line.index(","):] for line in lines["x"]))
    assert main(["train", "--x", "x.csv", "--y", "y.csv", "--k", "1", "--iters", "20",
                 "--model-out", "model.rmen", "--out", "trained.json"]) == 0
    assert main(["train", "--x", "x.csv", "--y", "y.csv", "--k", "1", "--iters", "20",
                 "--variant", "kernel-rmen", "--kernel", "gaussian", "--kernel-width", "2",
                 "--model-out", "kernel.rmen", "--out", "trained.json"]) == 0
    capsys.readouterr()
    argv, code, message = _INPUT_FAULTS[case]
    assert main([*argv, "--out", "report.json"]) == code
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and out.out == ""
    assert not (tmp_path / "report.json").exists()


def test_stdout_report_when_no_out(tmp_path, capsys):
    x_path, y_path = _synth_files(tmp_path, n=100)
    assert main(["train", "--x", x_path, "--y", y_path, "--k", "1",
                 "--iters", "20", "--tol", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "train"


def test_linear_algebra_failure_is_a_numeric_exit(tmp_path, monkeypatch):
    """np.linalg.LinAlgError subclasses ValueError; it must leave with the
    numeric-failure code 18, not the bad-configuration code 2."""
    x_path, y_path = _synth_files(tmp_path, n=100)

    def failing_fit(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("rmencca.cli.fit_full", failing_fit)
    assert main(["train", "--x", x_path, "--y", y_path, "--k", "1",
                 "--iters", "20", "--tol", "0"]) == 18


def test_out_of_memory_is_a_typed_exit(tmp_path, monkeypatch, capsys):
    x_path, y_path = _synth_files(tmp_path, n=100)

    def failing_fit(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.9 GiB")

    monkeypatch.setattr("rmencca.cli.fit_full", failing_fit)
    assert main(["train", "--x", x_path, "--y", y_path, "--k", "1",
                 "--iters", "20", "--tol", "0"]) == 24
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 14.9 GiB\n"


def test_exit_codes_live_on_the_error_classes():
    documented = {
        "ConfigError": 2, "RaggedRows": 4, "NonNumericField": 5,
        "EmptyInput": 6, "BadMagic": 7, "TruncatedFile": 8,
        "VersionMismatch": 9, "CorruptFile": 10, "SampleCountMismatch": 11,
        "NonFiniteEntry": 12, "RankBudgetTooLarge": 13, "BatchTooLarge": 14,
        "DimensionMismatch": 15, "AllZeroInput": 17, "NonFiniteIterate": 18,
        "RankDeficientBasis": 20, "InvalidKernelParam": 21,
        "TooLargeForKernel": 22, "DegenerateInput": 23,
    }
    codes = {c.__name__: c.exit_code for c in errors.RmenccaError.__subclasses__()}
    assert codes == documented
    assert len(set(codes.values())) == len(codes)
    # 0 success, 1 the base class, 3 a missing file, 24 out of memory
    assert not set(codes.values()) & {0, 1, 3, 24}


def test_cli_defaults_come_from_the_dataclasses(tmp_path):
    x_path, y_path = _synth_files(tmp_path, n=50)
    cfg = parse_config(["train", "--x", x_path, "--y", y_path])
    assert cfg.hp == r.Hyperparams(k=2)
    assert (cfg.delimiter, cfg.format, cfg.val_fraction) == (",", "json", 0.2)
    assert cfg.variants == ("rmen",)
    assert cfg.split_seed == cfg.hp.seed
