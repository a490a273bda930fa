import hashlib
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmencca as r
from rmencca import data_io, kernel
from rmencca.cli import _delimiter, main
from rmencca.errors import (
    BadMagic,
    ConfigError,
    CorruptFile,
    EmptyInput,
    NonNumericField,
    RaggedRows,
    RmenccaError,
    TruncatedFile,
    VersionMismatch,
)

from _helpers import centered, planted, traced_peak


# ------------------------------------------------------------ synthetic data

@pytest.mark.parametrize("kwargs", [
    dict(n=0, d1=3, d2=3, k_true=1, correlations=(0.5,)),
    dict(n=10, d1=0, d2=3, k_true=1, correlations=(0.5,)),
    dict(n=10, d1=3, d2=3, k_true=0, correlations=()),
    dict(n=10, d1=3, d2=2, k_true=3, correlations=(0.9, 0.8, 0.7)),
    dict(n=10, d1=3, d2=3, k_true=2, correlations=(0.5,)),
    dict(n=10, d1=3, d2=3, k_true=1, correlations=(0.0,)),
    dict(n=10, d1=3, d2=3, k_true=1, correlations=(1.2,)),
    dict(n=10, d1=3, d2=3, k_true=2, correlations=(0.5, 0.9)),
    dict(n=10, d1=3, d2=3, k_true=1, correlations=(0.5,), noise_scale=-0.1),
    dict(n=10, d1=3, d2=3, k_true=1, correlations=(0.5,), noise_scale=float("inf")),
])
def test_synthetic_spec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        r.SyntheticSpec(**kwargs)


def test_synth_is_deterministic():
    spec = r.SyntheticSpec(n=200, d1=6, d2=5, k_true=2,
                           correlations=(0.8, 0.4), noise_scale=0.3, seed=7)
    a, _ = r.synth_two_view(spec)
    b, _ = r.synth_two_view(spec)
    assert np.array_equal(a.x.data, b.x.data)
    assert np.array_equal(a.y.data, b.y.data)


@pytest.mark.parametrize("spec, digest", [
    (r.SyntheticSpec(n=257, d1=20, d2=16, k_true=2, correlations=(0.9, 0.5),
                     noise_scale=0.0, seed=3),
     "4d0c0985d168ff959d65b07ef0f031cef17e7b3a492ddda30ebd692910391a71"),
    (r.SyntheticSpec(n=301, d1=24, d2=18, k_true=3, correlations=(0.9, 0.7, 0.5),
                     noise_scale=0.3, seed=11),
     "b8b312f2ca8333e12b6101e24b0feefc82159bafedb9ff49dd62d496ecaf5ee7"),
])
def test_synth_numbers_are_pinned(spec, digest):
    """The generated numbers are pinned: both views hash, in logical d x n
    order, to fixed digests.  Mixing sample-major, (fx^T a^T)^T, rounds
    differently from a fx on the first spec, so this pins the order of the
    arithmetic as well as the random draws.  (A BLAS whose kernels round the
    mixing product differently would give other digests.)"""
    ds, _ = r.synth_two_view(spec)
    got = hashlib.sha256(ds.x.data.tobytes() + ds.y.data.tobytes()).hexdigest()
    assert got == digest


def test_synth_numbers_keep_their_digests_at_one_feature_row_per_noise_block(monkeypatch):
    """The noise is drawn a block of feature rows at a time from one stream,
    so a noise block of one feature row gives the pinned numbers too."""
    monkeypatch.setattr(data_io, "_NOISE_BLOCK_BYTES", 1)
    (pinned,) = test_synth_numbers_are_pinned.pytestmark
    for spec, digest in pinned.args[1]:
        test_synth_numbers_are_pinned(spec, digest)


def test_synth_perfect_correlation_is_observable():
    ds, _ = planted(5000, 4, 3, (1.0,), 0.0, seed=8)
    sol = r.cca_closed_form(centered(ds), k=1)
    assert sol.correlations[0] > 0.999


def test_synth_planted_correlations_are_observable():
    ds, truth = planted(5000, 8, 6, (0.9, 0.5), 0.0, seed=9)
    sol = r.cca_closed_form(centered(ds), k=2)
    for got, want in zip(sol.correlations, truth.correlations):
        assert got == pytest.approx(want, abs=0.05)


def test_synth_noise_shrinks_correlations():
    clean, _ = planted(4000, 5, 4, (0.9,), 0.0, seed=10)
    noisy, _ = planted(4000, 5, 4, (0.9,), 1.0, seed=10)
    top_clean = r.cca_closed_form(centered(clean), k=1).correlations[0]
    top_noisy = r.cca_closed_form(centered(noisy), k=1).correlations[0]
    assert top_noisy < top_clean - 0.1


# -------------------------------------------------------------------- splits

def _indexed_dataset(n):
    x = np.vstack([np.arange(n, dtype=np.float64), np.ones(n)])
    y = np.vstack([np.arange(n, dtype=np.float64)])
    return r.TwoViewDataset(x=r.ViewMatrix.of(x), y=r.ViewMatrix.of(y))


def test_split_sizes_and_disjointness():
    ds = _indexed_dataset(100)
    train, val = r.split_train_validation(ds, 0.2, seed=0)
    assert train.n == 80 and val.n == 20
    got = np.concatenate([train.x.data[0], val.x.data[0]])
    assert sorted(got.tolist()) == list(range(100))
    assert set(train.x.data[0]).isdisjoint(val.x.data[0])
    # both views pick the same columns
    assert np.array_equal(train.x.data[0], train.y.data[0])
    assert np.array_equal(val.x.data[0], val.y.data[0])


def test_split_is_seeded():
    ds = _indexed_dataset(60)
    a_train, a_val = r.split_train_validation(ds, 0.25, seed=3)
    b_train, b_val = r.split_train_validation(ds, 0.25, seed=3)
    assert np.array_equal(a_val.x.data, b_val.x.data)
    c_train, c_val = r.split_train_validation(ds, 0.25, seed=4)
    assert not np.array_equal(a_val.x.data, c_val.x.data)


def test_split_extreme_sizes():
    ds = _indexed_dataset(2)
    train, val = r.split_train_validation(ds, 0.5, seed=0)
    assert train.n == 1 and val.n == 1
    tiny_val = r.split_train_validation(_indexed_dataset(50), 0.001, seed=0)[1]
    assert tiny_val.n == 1
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            r.split_train_validation(ds, bad, seed=0)


# ----------------------------------------------------------------- DSV files

def test_load_dsv_hand_case(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("1,2\n\n3,4\n")
    view = r.load_dsv(str(p))
    # two samples (rows) with two features each; blank lines are skipped
    assert view.data.shape == (2, 2)
    assert np.array_equal(view.data, np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_dsv_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    view = r.ViewMatrix.of(rng.standard_normal((50, 100)) * 10.0 ** rng.integers(-8, 8, (50, 100)))
    p = tmp_path / "round.csv"
    r.save_dsv(view, str(p))
    back = r.load_dsv(str(p))
    assert np.array_equal(back.data, view.data)


def test_dsv_tab_delimiter(tmp_path):
    p = tmp_path / "tabs.tsv"
    p.write_text("1.5\t-2\n0\t3e4\n")
    view = r.load_dsv(str(p), delimiter="\t")
    assert np.array_equal(view.data, np.array([[1.5, 0.0], [-2.0, 3e4]]))
    out = tmp_path / "tabs_out.tsv"
    r.save_dsv(view, str(out), delimiter="\t")
    assert np.array_equal(r.load_dsv(str(out), delimiter="\t").data, view.data)


def test_dsv_error_reporting(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3,4\n5,6,7\n")
    with pytest.raises(RaggedRows, match="line 3"):
        r.load_dsv(str(ragged))
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    with pytest.raises(NonNumericField, match="line 2"):
        r.load_dsv(str(bad))
    empty = tmp_path / "empty.csv"
    empty.write_text("\n  \n")
    with pytest.raises(EmptyInput):
        r.load_dsv(str(empty))
    with pytest.raises(FileNotFoundError):
        r.load_dsv(str(tmp_path / "missing.csv"))


def _parse_outcome(parse, path, delimiter):
    """What a DSV parser makes of a file: the shape and bytes of the values,
    or the error class and message."""
    try:
        data = parse(path, delimiter).data
    except RmenccaError as exc:
        return type(exc), str(exc)
    assert data.flags.f_contiguous
    return data.shape, data.tobytes()


def _accepted_delimiter(ch):
    try:
        _delimiter(ch)
    except ConfigError:
        return False
    return True


_NUMBERS = st.sampled_from(["0", "1", "-2.5", "3e4", "1.25e-7", "nan", "-inf", "42",
                            "5e-324", "1e500", "-0", "+.5", "Infinity"])
# whitespace around a field; float() keeps the ASCII separators \x1c-\x1f
_PADS = st.sampled_from(["", "", "", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u3000"])
_FIELDS = st.one_of(
    st.builds("".join, st.tuples(_PADS, _NUMBERS, _PADS)),
    st.lists(st.sampled_from([
        "0", "7", "12", ".", "-", "+", "e", "E", "e-3", "nan", "inf", "_", "1_0",
        "#", '"', " ", "\t", "\x1c", "\xa0", "\u0661", "\ufeff", "\x00", "0x1",
    ]), max_size=3).map("".join),
)
_DELIMITERS = st.one_of(
    st.sampled_from([",", ";", "\t", " ", "|", ":", "%", "\x1f"]),
    st.characters(codec="utf-8").filter(_accepted_delimiter),
)


@settings(max_examples=300, deadline=None)
@given(
    delimiter=_DELIMITERS,
    rows=st.lists(st.lists(_FIELDS, min_size=1, max_size=4), max_size=4),
    breaks=st.lists(st.sampled_from(["\n", "\r", "\r\n", "\n\n", "\n \n", "\n\t\n"]),
                    min_size=4, max_size=4),
    head=st.sampled_from(["", "", " ", "\n", "\t", "\ufeff"]),
)
def test_load_dsv_agrees_with_the_line_parser(delimiter, rows, breaks, head):
    """The C reader's result, whenever load_dsv keeps it, is what the line
    parser gives: the same values bit for bit, or the same error."""
    text = head + "".join(delimiter.join(fields) + end for fields, end in zip(rows, breaks))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert (_parse_outcome(r.load_dsv, path, delimiter)
                == _parse_outcome(data_io._load_dsv_lines, path, delimiter))


@pytest.mark.parametrize("text, delimiter, want, fallback", [
    # float() reads these fields, numpy's C reader does not
    ("1_0,2\n", ",", [[10.0, 2.0]], True),
    ("\u0661,2\n", ",", [[1.0, 2.0]], True),
    # a whitespace-only line is skipped
    ("1,2\n \t\n3,4\n", ",", [[1.0, 2.0], [3.0, 4.0]], True),
    # a row that starts with the tab delimiter
    ("\t1\t2\n3\t4\n", "\t", [[1.0, 2.0], [3.0, 4.0]], True),
    # an ASCII separator around a field: numpy strips it, float() does not
    ("1\x1c,2\n", ",", NonNumericField, True),
    ("1,2\x1c\n", ",", [[1.0, 2.0]], True),
    ("1\x1f2\n", "\x1f", [[1.0, 2.0]], False),
    ("1,2\n\ufeff3,4\n", ",", NonNumericField, True),
    ("\ufeff1,2\n", ",", NonNumericField, True),
    ("1,2\n3,4,5\n", ",", RaggedRows, True),
    ("", ",", EmptyInput, True),
    ("\n  \n\t\n", ",", EmptyInput, True),
    # lone carriage returns end lines for both readers
    ("1,2\r3,4\r", ",", [[1.0, 2.0], [3.0, 4.0]], False),
    (" 1 ; -inf \n\n3e4;nan\n", ";", [[1.0, -np.inf], [3e4, np.nan]], False),
])
def test_load_dsv_falls_back_to_the_line_parser(tmp_path, monkeypatch, text, delimiter,
                                                want, fallback):
    calls = []
    line_parser = data_io._load_dsv_lines

    def spy(path, delim):
        calls.append(path)
        return line_parser(path, delim)

    monkeypatch.setattr(data_io, "_load_dsv_lines", spy)
    p = tmp_path / "table.txt"
    p.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if isinstance(want, type):
            with pytest.raises(want):
                r.load_dsv(str(p), delimiter)
        else:
            got = r.load_dsv(str(p), delimiter).data
            assert np.array_equal(got, np.array(want).T, equal_nan=True)
            assert got.flags.f_contiguous
    assert caught == []
    assert len(calls) == int(fallback)
    assert (_parse_outcome(r.load_dsv, str(p), delimiter)
            == _parse_outcome(line_parser, str(p), delimiter))


def test_load_dsv_refuses_text_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("1,2\n3,4\xe9\n".encode("latin-1"))
    with pytest.raises(NonNumericField, match="not UTF-8"):
        r.load_dsv(str(p))
    assert (_parse_outcome(r.load_dsv, str(p), ",")
            == _parse_outcome(data_io._load_dsv_lines, str(p), ","))


@pytest.mark.parametrize("delimiter, digests", [
    (",", ("2688587464bf09239e95db0b13d672061e5a122652728d5db89a6c11f166598d",
           "674ee9dd1d8dff72caab95c8cc42f29463678fe0a49b454795847c23078e1084")),
    ("\t", ("9db097efa081a60328a30501957dd49389117306626cbdc6f924c8002691f9c4",
            "273a10be676ad247fb1af194ce16a4a079685eb1f236c9dd1fc5587e43cb0536")),
])
def test_synth_files_are_pinned(tmp_path, delimiter, digests):
    """The bytes synth writes are pinned, for 2100 rows: five full blocks of
    save_dsv's row formatting and a partial one for x's 20 features, four
    and a partial one for y's 16.  The digests were taken with blocks of
    1024 rows."""
    x_path, y_path = tmp_path / "x.txt", tmp_path / "y.txt"
    assert main(["synth", "--n", "2100", "--d1", "20", "--d2", "16",
                 "--correlations", "0.9,0.5", "--noise", "0.3", "--seed", "3",
                 f"--delimiter={delimiter}", "--x-out", str(x_path),
                 "--y-out", str(y_path), "--out", str(tmp_path / "s.json")]) == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (x_path, y_path))
    assert got == digests


@pytest.mark.parametrize("n", [1, 1025])
def test_save_dsv_writes_every_value_at_17_digits(tmp_path, n):
    specials = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308]
    rng = np.random.default_rng(n)
    data_shape = (len(specials), n)
    data = rng.standard_normal(data_shape) * 10.0 ** rng.integers(-300, 300, data_shape)
    data[:, 0] = specials
    data[:, -1] = specials[::-1]
    view = r.ViewMatrix.of(data)
    for delimiter in (",", "\t", "%", ";", "|"):
        p = tmp_path / "specials.txt"
        r.save_dsv(view, str(p), delimiter)
        want = "".join(delimiter.join("%.17g" % v for v in row) + "\n" for row in data.T)
        assert p.read_bytes() == want.encode("utf-8")
        assert r.load_dsv(str(p), delimiter).data.tobytes() == view.data.tobytes()


@pytest.mark.parametrize("budget", [1, 3 * 6 * 8, 3 * 6 * 8 + 47])
def test_save_dsv_block_boundaries_keep_the_bytes(tmp_path, monkeypatch, budget):
    """A write block below one row's bytes (one row a block) and of three
    rows, over 1025 rows of 6 values that end in a partial block, writes the
    per-value join and loads back bit for bit."""
    monkeypatch.setattr(data_io, "_SAVE_BLOCK_BYTES", budget)
    test_save_dsv_writes_every_value_at_17_digits(tmp_path, 1025)


def test_save_dsv_formats_a_fixed_size_block(tmp_path):
    """save_dsv of 60 samples of 20000 features (9.6 MB of values) peaks at
    0.13 of them: one row, as its Python floats and text, in flight.
    Blocks of 1024 rows formatted the whole view at once: 7.6."""
    view = r.ViewMatrix.of(np.random.default_rng(5).standard_normal((20000, 60)))
    _, peak = traced_peak(lambda: r.save_dsv(view, str(tmp_path / "wide.csv")))
    assert peak / view.data.nbytes < 0.25


@pytest.mark.parametrize("parse", [r.load_dsv, data_io._load_dsv_lines],
                         ids=["numpy", "lines"])
def test_dsv_parsers_hold_about_one_table(tmp_path, parse):
    """Either parser's peak, in units of the table's float64 bytes, on 6000
    rows of 50 values: numpy's reader 1.23, the line parser 1.03 (its
    array('d') and growth slack).  A list of Python floats per row, then
    the array, peaked at 5.28."""
    table = np.random.default_rng(6).standard_normal((50, 6000))
    path = str(tmp_path / "table.csv")
    r.save_dsv(r.ViewMatrix.of(table), path)
    _, peak = traced_peak(lambda: parse(path, ","))
    assert peak / table.nbytes < 1.5


@settings(max_examples=200, deadline=None)
@given(
    delimiter=_DELIMITERS,
    data=st.integers(1, 4).flatmap(lambda d: st.lists(
        # text keeps no NaN payload, so the one NaN drawn is the default one
        st.lists(st.floats(allow_nan=False) | st.just(float("nan")), min_size=d, max_size=d),
        min_size=1, max_size=3)),
)
def test_save_dsv_writes_the_per_value_join_for_every_delimiter(delimiter, data):
    """Whatever delimiter the CLI accepts, save_dsv writes each value with
    its own "%.17g", and the file loads back bit for bit."""
    table = np.array(data, dtype=np.float64)
    view = r.ViewMatrix.of(table.T)
    want = "".join(delimiter.join("%.17g" % v for v in row) + "\n" for row in table)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        r.save_dsv(view, path, delimiter)
        with open(path, "rb") as fh:
            assert fh.read() == want.encode("utf-8")
        assert r.load_dsv(path, delimiter).data.tobytes() == view.data.tobytes()


def test_synth_writes_percent_delimited_files(tmp_path):
    """'%' is literal text in a row, not part of the number format."""
    paths = {}
    for delimiter in (",", "%"):
        paths[delimiter] = (tmp_path / f"x{ord(delimiter)}.txt", tmp_path / f"y{ord(delimiter)}.txt")
        assert main(["synth", "--n", "30", "--d1", "4", "--d2", "3",
                     "--correlations", "0.9", "--seed", "1", f"--delimiter={delimiter}",
                     "--x-out", str(paths[delimiter][0]), "--y-out", str(paths[delimiter][1]),
                     "--out", str(tmp_path / "s.json")]) == 0
    for comma_path, percent_path in zip(paths[","], paths["%"]):
        assert percent_path.read_bytes() == comma_path.read_bytes().replace(b",", b"%")
        assert (r.load_dsv(str(percent_path), "%").data.tobytes()
                == r.load_dsv(str(comma_path)).data.tobytes())


# -------------------------------------------------------------- MNIST halves

def _write_idx(path, images, magic=0x00000803):
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", magic, count, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def test_mnist_halves_split_and_scaling(tmp_path):
    rng = np.random.default_rng(12)
    images = rng.integers(0, 256, size=(3, 4, 6), dtype=np.uint8)
    images[2] = 0
    p = tmp_path / "images.idx"
    _write_idx(str(p), images)
    ds = r.load_mnist_halves(str(p))
    assert ds.x.data.shape == (12, 3)
    assert ds.y.data.shape == (12, 3)
    # sample 1, pixel row 2, column 4 lands in the right half at row-major
    # position 2 * 3 + (4 - 3)
    assert ds.y.data[2 * 3 + 1, 1] == images[1, 2, 4] / 255.0
    assert ds.x.data[2 * 3 + 1, 1] == images[1, 2, 1] / 255.0
    want_left = images[:, :, :3].reshape(3, 12).T / 255.0
    assert np.allclose(ds.x.data, want_left)
    assert np.all(ds.x.data[:, 2] == 0.0)
    assert ds.x.data.max() <= 1.0 and ds.x.data.min() >= 0.0


def test_mnist_odd_width_gives_bigger_right_half(tmp_path):
    images = np.zeros((2, 3, 5), dtype=np.uint8)
    p = tmp_path / "odd.idx"
    _write_idx(str(p), images)
    ds = r.load_mnist_halves(str(p))
    assert ds.x.data.shape == (6, 2)
    assert ds.y.data.shape == (9, 2)


def test_mnist_error_cases(tmp_path):
    images = np.zeros((2, 3, 4), dtype=np.uint8)
    wrong = tmp_path / "wrong.idx"
    _write_idx(str(wrong), images, magic=0x00000801)
    with pytest.raises(BadMagic):
        r.load_mnist_halves(str(wrong))
    short_header = tmp_path / "short_header.idx"
    short_header.write_bytes(b"\x00\x00\x08\x03\x00\x00")
    with pytest.raises(TruncatedFile):
        r.load_mnist_halves(str(short_header))
    short_payload = tmp_path / "short_payload.idx"
    full = struct.pack(">IIII", 0x00000803, 2, 3, 4) + bytes(range(20))
    short_payload.write_bytes(full)
    with pytest.raises(TruncatedFile):
        r.load_mnist_halves(str(short_payload))


# ------------------------------------------------------------------- layout

def test_every_producer_stores_views_sample_major(tmp_path):
    """Whatever produced a view, its d x n data is F-contiguous: the
    transpose of a C-contiguous n x d array, one contiguous run per sample."""
    ds, _ = planted(90, 5, 4, (0.8,), 0.2, seed=16)
    train, val = r.split_train_validation(ds, 0.3, seed=1)
    tx = r.center(train.x)
    c_order = np.arange(12.0).reshape(3, 4)
    of_c = r.ViewMatrix.of(c_order)
    assert np.array_equal(of_c.data, c_order)
    # sample-major float64 data is taken as it is, without a copy
    assert r.ViewMatrix.of(ds.x.data).data is ds.x.data
    views = {
        "synth_two_view": (ds.x, ds.y),
        "split_train_validation": (train.x, train.y, val.x, val.y),
        "center": (tx,),
        "center_with_means": (r.center_with_means(val.x, tx.feature_means),),
        "ViewMatrix.of(C-order)": (of_c,),
    }
    dsv = tmp_path / "x.csv"
    r.save_dsv(ds.x, str(dsv))
    views["load_dsv"] = (r.load_dsv(str(dsv)),)
    idx = tmp_path / "images.idx"
    _write_idx(str(idx), np.random.default_rng(17).integers(0, 256, size=(3, 4, 6)))
    mnist = r.load_mnist_halves(str(idx))
    views["load_mnist_halves"] = (mnist.x, mnist.y)

    train = centered(train)
    hp = r.Hyperparams(k=1, max_iters=5, tol=0.0, seed=0)
    km = r.fit_kernel(train, r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=2.0),
                      r.KernelSpec(kind=r.KernelKind.LINEAR), hp)
    model = r.ModelFile(version=r.MODEL_VERSION, hp=hp, means_x=train.x.feature_means,
                        means_y=train.y.feature_means, kernel=km)
    path = tmp_path / "kernel.rmen"
    r.save_model(model, str(path))
    back = r.load_model(str(path)).kernel
    views["load_model"] = (back.gram_x.train_points, back.gram_y.train_points)
    # the Grams rebuilt from the loaded points are those the fit used
    assert np.array_equal(back.gram_x.values, km.gram_x.values)
    assert np.array_equal(back.gram_y.values, km.gram_y.values)

    for producer, produced in views.items():
        for view in produced:
            assert view.data.flags.f_contiguous, producer
            assert view.data.dtype == np.float64, producer


# --------------------------------------------------------------- model files

def _linear_model(batch_size=None, penalty=r.Penalty.L21):
    rng = np.random.default_rng(13)
    hp = r.Hyperparams(k=2, lambda1=0.02, lambda2=0.003, eta=0.007, gamma=0.85,
                       zeta=1e-7, max_iters=321, tol=1e-5, batch_size=batch_size,
                       seed=99, penalty=penalty)
    return r.ModelFile(
        version=r.MODEL_VERSION,
        hp=hp,
        means_x=rng.standard_normal(5),
        means_y=rng.standard_normal(4),
        pair=r.CanonicalPair(u=rng.standard_normal((5, 2)), v=rng.standard_normal((4, 2))),
    )


@pytest.mark.parametrize("batch_size,penalty", [
    (None, r.Penalty.L21),
    (64, r.Penalty.FROBENIUS),
])
def test_linear_model_round_trip(tmp_path, batch_size, penalty):
    model = _linear_model(batch_size=batch_size, penalty=penalty)
    p = tmp_path / "model.rmen"
    r.save_model(model, str(p))
    back = r.load_model(str(p))
    assert back.version == r.MODEL_VERSION
    assert back.hp == model.hp
    assert np.array_equal(back.means_x, model.means_x)
    assert np.array_equal(back.means_y, model.means_y)
    assert np.array_equal(back.pair.u, model.pair.u)
    assert np.array_equal(back.pair.v, model.pair.v)
    assert back.kernel is None


def test_kernel_model_round_trip(tmp_path):
    ds, _ = planted(60, 5, 4, (0.8,), 0.2, seed=14)
    ds = centered(ds)
    gauss = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=2.5)
    lin = r.KernelSpec(kind=r.KernelKind.LINEAR)
    hp = r.Hyperparams(k=1, max_iters=20, tol=0.0, seed=0)
    km = r.fit_kernel(ds, gauss, lin, hp)
    model = r.ModelFile(
        version=r.MODEL_VERSION, hp=hp,
        means_x=ds.x.feature_means, means_y=ds.y.feature_means,
        kernel=km,
    )
    p = tmp_path / "kernel.rmen"
    r.save_model(model, str(p))
    back = r.load_model(str(p))
    assert back.pair is None
    assert back.kernel.report is None
    assert back.kernel.gram_x.spec.kind is r.KernelKind.GAUSSIAN
    assert back.kernel.gram_x.spec.width == 2.5
    assert back.kernel.gram_y.spec.kind is r.KernelKind.LINEAR
    rng = np.random.default_rng(15)
    probe_x = r.ViewMatrix.of(rng.standard_normal((5, 9)))
    probe_y = r.ViewMatrix.of(rng.standard_normal((4, 9)))
    a0, b0 = r.project_kernel(km, probe_x, probe_y)
    a1, b1 = r.project_kernel(back.kernel, probe_x, probe_y)
    assert np.array_equal(a0, a1)
    assert np.array_equal(b0, b1)


_OVERSIZED_KERNEL_SCRIPT = """
import resource
import sys

# an address-space cap below one 20000 x 20000 Gram (3.2 GB): a loader that
# tried to build it fails at once instead of paging
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))

import rmencca as r
from rmencca.cli import main

model, x_path, y_path = sys.argv[1:]
try:
    r.load_model(model)
    print("loaded")
except r.errors.TooLargeForKernel:
    print("refused")
print(main(["eval", "--model", model, "--x", x_path, "--y", y_path]))
"""


def test_load_model_refuses_more_kernel_samples_than_a_fit_allows(tmp_path):
    """A kernel model file of 20000 or 20001 one-feature training points is
    small, but its Grams would not be.  load_model forms no Gram, so under an
    address-space cap the 20000-point model loads and eval exits 0, and it
    applies fit_kernel's sample limit to the 20001-point one
    (TooLargeForKernel, eval exit 22).  The checks run in a child process."""
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    x_path.write_text("0\n1\n2\n")
    y_path.write_text("1\n0\n2\n")

    package_root = os.path.dirname(os.path.dirname(r.__file__))
    # one BLAS thread, so the BLAS buffers' address space stays within the cap
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    for n, want in ((20000, ["loaded", "0"]), (20001, ["refused", "22"])):
        points = r.ViewMatrix.of(np.linspace(-1.0, 1.0, n)[None, :])
        # stand-ins with what save_model reads: no GramMatrix of 20001 points exists
        grams = [SimpleNamespace(spec=spec, train_points=points)
                 for spec in (r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=1.0),
                              r.KernelSpec(kind=r.KernelKind.LINEAR))]
        km = r.KernelModel(w_x=np.ones((n, 1)), w_y=np.ones((n, 1)),
                           gram_x=grams[0], gram_y=grams[1], report=None)
        model = tmp_path / f"kernel_{n}.rmen"
        r.save_model(r.ModelFile(version=r.MODEL_VERSION, hp=r.Hyperparams(k=1),
                                 means_x=np.zeros(1), means_y=np.zeros(1), kernel=km),
                     str(model))
        assert model.stat().st_size < 700_000
        out = subprocess.run(
            [sys.executable, "-c", _OVERSIZED_KERNEL_SCRIPT, str(model), str(x_path),
             str(y_path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        words = out.stdout.split()  # eval's report, if any, comes in between
        assert words[:1] + words[-1:] == want, (n, out.stderr)


_LARGE_EVAL_SCRIPT = """
import resource
import sys

# an address-space cap below one 10000 x 10000 cross-Gram per view (763 MiB
# each): an eval that formed it whole fails at once instead of paging
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

from rmencca.cli import main

model, x_path, y_path = sys.argv[1:]
print(main(["eval", "--model", model, "--x", x_path, "--y", y_path]))
"""


def test_eval_forms_a_kernel_cross_gram_in_row_blocks(tmp_path):
    """eval of 10000 test rows against a kernel model of 10000 one-feature
    training points runs under a 1 GiB address-space cap, which a whole
    10000 x 10000 cross-Gram per view would not fit; the blocked projection
    equals the whole one.  The eval runs in a child process."""
    n = 10000
    rng = np.random.default_rng(4)
    points = r.ViewMatrix.of(np.linspace(-1.0, 1.0, n)[None, :])
    km = r.KernelModel(w_x=rng.standard_normal((n, 1)), w_y=rng.standard_normal((n, 1)),
                       gram_x=r.GramMatrix(r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=0.5),
                                           points),
                       gram_y=r.GramMatrix(r.KernelSpec(kind=r.KernelKind.LINEAR), points),
                       report=None)
    model = tmp_path / "kernel.rmen"
    r.save_model(r.ModelFile(version=r.MODEL_VERSION, hp=r.Hyperparams(k=1),
                             means_x=np.zeros(1), means_y=np.zeros(1), kernel=km),
                 str(model))
    assert model.stat().st_size < 400_000
    z = rng.uniform(-1.0, 1.0, n)
    x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
    x_path.write_text("".join(f"{v:.6f}\n" for v in np.sin(3.0 * z)))
    y_path.write_text("".join(f"{v:.6f}\n" for v in z))
    assert x_path.stat().st_size < 200_000

    package_root = os.path.dirname(os.path.dirname(r.__file__))
    # one BLAS thread, so the BLAS buffers' address space stays within the cap
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _LARGE_EVAL_SCRIPT, str(model), str(x_path), str(y_path)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert out.stdout.split()[-1:] == ["0"], out.stderr

    test = r.ViewMatrix.of(np.linspace(-1.0, 1.0, 700)[None, :])
    blocked = r.project_kernel(km, test, test)
    for got, gram, w in zip(blocked, (km.gram_x, km.gram_y), (km.w_x, km.w_y)):
        assert np.allclose(got, kernel.cross_gram(gram, test) @ w, rtol=1e-12, atol=1e-9)


def test_save_model_requires_exactly_one_payload(tmp_path):
    model = _linear_model()
    p = tmp_path / "x.rmen"
    with pytest.raises(ValueError):
        r.save_model(r.ModelFile(version=1, hp=model.hp, means_x=model.means_x,
                                 means_y=model.means_y), str(p))


def test_model_file_corruption_detection(tmp_path):
    model = _linear_model()
    p = tmp_path / "model.rmen"
    r.save_model(model, str(p))
    raw = p.read_bytes()

    bad_magic = tmp_path / "bad_magic.rmen"
    bad_magic.write_bytes(b"NOTMODEL" + raw[8:])
    with pytest.raises(CorruptFile):
        r.load_model(str(bad_magic))

    future = tmp_path / "future.rmen"
    future.write_bytes(raw[:8] + struct.pack("<I", 2) + raw[12:])
    with pytest.raises(VersionMismatch):
        r.load_model(str(future))

    bad_kind = tmp_path / "bad_kind.rmen"
    bad_kind.write_bytes(raw[:12] + struct.pack("<B", 7) + raw[13:])
    with pytest.raises(CorruptFile):
        r.load_model(str(bad_kind))

    truncated = tmp_path / "truncated.rmen"
    truncated.write_bytes(raw[:len(raw) - 11])
    with pytest.raises(CorruptFile):
        r.load_model(str(truncated))

    trailing = tmp_path / "trailing.rmen"
    trailing.write_bytes(raw + b"\x00")
    with pytest.raises(CorruptFile):
        r.load_model(str(trailing))

    # first matrix header starts right after magic, version, kind, and the
    # fixed-width hyperparameter block
    shape_at = 8 + 4 + 1 + struct.calcsize("<IdddddIdqqB")
    cut_header = tmp_path / "cut_header.rmen"
    cut_header.write_bytes(raw[:shape_at + 8])
    with pytest.raises(CorruptFile, match="unexpected end of file"):
        r.load_model(str(cut_header))
    implausible = tmp_path / "implausible.rmen"
    implausible.write_bytes(
        raw[:shape_at] + struct.pack("<QQ", 1 << 41, 1) + raw[shape_at + 16:])
    with pytest.raises(CorruptFile):
        r.load_model(str(implausible))

    # U's row count rewritten to one the 2^40 plausibility bound admits but
    # the file cannot back (64 GiB): rejected before anything is allocated
    u_shape_at = shape_at + (16 + 8 * 5) + (16 + 8 * 4)
    assert struct.unpack("<QQ", raw[u_shape_at:u_shape_at + 16]) == (5, 2)
    oversized = tmp_path / "oversized.rmen"
    oversized.write_bytes(
        raw[:u_shape_at] + struct.pack("<Q", 1 << 32) + raw[u_shape_at + 8:])
    with pytest.raises(CorruptFile):
        r.load_model(str(oversized))

    # numbers no fit writes: a NaN over U's or means_x' first entry, and a
    # penalty mode byte (the last hyperparameter) other than 0 and 1
    nan = struct.pack("<d", float("nan"))
    kernel = _shape_case_models(tmp_path)[3]
    r.save_model(kernel, str(p))
    kraw = p.read_bytes()
    # the two kernel specs (kind byte, width) follow the two 2-entry means
    spec_at = shape_at + 2 * (16 + 8 * 2)
    assert struct.unpack("<Bd", kraw[spec_at:spec_at + 9]) == (1, 2.0)
    for name, base, at, patch, message in (
        ("nan_u", raw, u_shape_at + 16, nan, "U holds non-finite entries"),
        ("nan_means", raw, shape_at + 16, nan, "means_x holds non-finite entries"),
        ("penalty_7", raw, shape_at - 1, b"\x07", "unknown penalty mode 7"),
        ("kind_7", kraw, spec_at, b"\x07", "unknown kernel kind 7"),
        ("nan_width", kraw, spec_at + 1, nan, "invalid kernel spec: .* got nan"),
        ("negative_width", kraw, spec_at + 1, struct.pack("<d", -1.0),
         "invalid kernel spec: .* got -1.0"),
    ):
        bad = tmp_path / f"{name}.rmen"
        bad.write_bytes(base[:at] + patch + base[at + len(patch):])
        with pytest.raises(CorruptFile, match=f"^{re.escape(str(bad))}: {message}"):
            r.load_model(str(bad))


def test_model_matrices_must_fit_their_means_and_training_points(tmp_path, capsys):
    """A canonical matrix whose row count does not match its means (linear)
    or its training points (kernel) makes a corrupt file: eval exits 10 and
    names the matrix, instead of failing in a product."""
    ds, _ = planted(30, 2, 2, (0.8,), 0.2, seed=16)
    ds = centered(ds)
    x_path, y_path = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    r.save_dsv(ds.x, x_path)
    r.save_dsv(ds.y, y_path)
    hp = r.Hyperparams(k=1, max_iters=20, tol=0.0, seed=0)
    rng = np.random.default_rng(17)
    pair = r.CanonicalPair(u=rng.standard_normal((2, 1)), v=rng.standard_normal((2, 1)))
    linear = r.ModelFile(version=r.MODEL_VERSION, hp=hp, means_x=ds.x.feature_means,
                         means_y=ds.y.feature_means, pair=pair)
    gauss = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=2.0)
    km = r.fit_kernel(ds, gauss, gauss, hp)
    kernel = replace(linear, pair=None, kernel=km)
    extra = rng.standard_normal((3, 1))
    cases = {
        "U": replace(linear, pair=replace(pair, u=np.vstack([pair.u, extra[:1]]))),
        "V": replace(linear, pair=replace(pair, v=pair.v[:1])),
        "W_X": replace(kernel, kernel=replace(km, w_x=np.vstack([km.w_x, extra]))),
        "W_Y": replace(kernel, kernel=replace(km, w_y=km.w_y[:29])),
    }
    good = tmp_path / "good.rmen"
    r.save_model(kernel, str(good))
    assert main(["eval", "--model", str(good), "--x", x_path, "--y", y_path,
                 "--out", str(tmp_path / "good.json")]) == 0
    for name, model in cases.items():
        p = tmp_path / f"{name}.rmen"
        r.save_model(model, str(p))
        with pytest.raises(CorruptFile, match=f"{name} has"):
            r.load_model(str(p))
        capsys.readouterr()
        assert main(["eval", "--model", str(p), "--x", x_path, "--y", y_path]) == 10
        assert f"{name} has" in capsys.readouterr().err


def _shape_case_models(tmp_path):
    """Paths of the DSV views and a linear and a kernel model fitted on them."""
    ds = centered(planted(30, 2, 2, (0.8,), 0.2, seed=16)[0])
    x_path, y_path = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
    r.save_dsv(ds.x, x_path)
    r.save_dsv(ds.y, y_path)
    hp = r.Hyperparams(k=1, max_iters=20, tol=0.0, seed=0)
    rng = np.random.default_rng(17)
    pair = r.CanonicalPair(u=rng.standard_normal((2, 1)), v=rng.standard_normal((2, 1)))
    linear = r.ModelFile(version=r.MODEL_VERSION, hp=hp, means_x=ds.x.feature_means,
                         means_y=ds.y.feature_means, pair=pair)
    gauss = r.KernelSpec(kind=r.KernelKind.GAUSSIAN, width=2.0)
    kernel = replace(linear, pair=None, kernel=r.fit_kernel(ds, gauss, gauss, hp))
    return x_path, y_path, linear, kernel


def _two_columns(m):
    return np.hstack([m, m[:, ::-1] + 1.0])


def _points(view, data):
    return replace(view, train_points=r.ViewMatrix.of(data))


def _no_points(km):
    """km with zero training points; ViewMatrix.of refuses such a view, the
    constructor does not."""
    empty = r.ViewMatrix(np.zeros((2, 0)), np.zeros(2))
    return replace(km, w_x=km.w_x[:0], w_y=km.w_y[:0],
                   gram_x=replace(km.gram_x, train_points=empty),
                   gram_y=replace(km.gram_y, train_points=empty))


_SHAPE_CASES = {
    # (matrix named in the error, model built from the fitted ones)
    "U and V column counts differ": ("U has 2 columns", lambda lin, km: replace(
        lin, pair=replace(lin.pair, u=_two_columns(lin.pair.u)))),
    "U and V columns differ from k": ("U has 2 columns", lambda lin, km: replace(
        lin, pair=r.CanonicalPair(u=_two_columns(lin.pair.u), v=_two_columns(lin.pair.v)))),
    "W_X and W_Y column counts differ": ("W_Y has 2 columns", lambda lin, km: replace(
        km, kernel=replace(km.kernel, w_y=_two_columns(km.kernel.w_y)))),
    "W_X and W_Y columns differ from k": ("W_X has 2 columns", lambda lin, km: replace(
        km, kernel=replace(km.kernel, w_x=_two_columns(km.kernel.w_x),
                           w_y=_two_columns(km.kernel.w_y)))),
    "training points have more features than means": (
        "train_x has 3 features", lambda lin, km: replace(km, kernel=replace(
            km.kernel, gram_x=_points(km.kernel.gram_x, np.vstack(
                [km.kernel.gram_x.train_points.data, np.ones(30)]))))),
    "training sample counts differ": ("train_y has 29 samples", lambda lin, km: replace(
        km, kernel=replace(
            km.kernel, w_y=km.kernel.w_y[:29],
            gram_y=_points(km.kernel.gram_y, km.kernel.gram_y.train_points.data[:, :29])))),
    "training points are empty": ("train_x is an empty 2 x 0 matrix", lambda lin, km: replace(
        km, kernel=_no_points(km.kernel))),
}


def _forbid_grams(monkeypatch):
    def no_gram(self):
        raise AssertionError("a Gram was formed")

    monkeypatch.setattr(r.GramMatrix, "values", property(no_gram))


@pytest.mark.parametrize("case", sorted(_SHAPE_CASES))
def test_model_shapes_must_agree_before_any_gram_is_built(tmp_path, capsys, monkeypatch, case):
    """A model file whose canonical matrices disagree with each other or
    with the stored k, or whose kernel training points disagree with the
    means or with each other, is corrupt: load_model raises CorruptFile
    before building a Gram, and eval exits 10 naming the matrix instead of
    failing in a product or reporting extra PCCs."""
    x_path, y_path, linear, kernel = _shape_case_models(tmp_path)
    message, build = _SHAPE_CASES[case]
    p = tmp_path / "model.rmen"
    r.save_model(build(linear, kernel), str(p))

    _forbid_grams(monkeypatch)
    with pytest.raises(CorruptFile, match=message):
        r.load_model(str(p))
    capsys.readouterr()
    assert main(["eval", "--model", str(p), "--x", x_path, "--y", y_path]) == 10
    assert message in capsys.readouterr().err


def test_kernel_model_loads_and_evaluates_without_forming_a_gram(tmp_path, monkeypatch):
    """Projection reads a kernel model's specs, training points and duals:
    a valid model loads and eval succeeds with every Gram read failing."""
    x_path, y_path, _, kernel = _shape_case_models(tmp_path)
    p = tmp_path / "model.rmen"
    r.save_model(kernel, str(p))
    _forbid_grams(monkeypatch)
    assert r.load_model(str(p)).kernel.w_x.shape == kernel.kernel.w_x.shape
    assert main(["eval", "--model", str(p), "--x", x_path, "--y", y_path]) == 0
