"""Dataset ingestion, synthetic generation, splitting, and model files.

External formats:

  * delimiter-separated matrices, one sample per row (read as the logical
    features x samples view, which is stored sample-major: the file's rows
    are the view's contiguous samples)
  * MNIST IDX image files (big-endian, magic 0x00000803), split into left
    and right image halves as the two views
  * a binary model container, documented in the README: 8-byte magic,
    little-endian version word, then length-prefixed float64 matrices
"""
from __future__ import annotations

import os
import struct
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .baselines import CCASolution
from .core import CanonicalPair, Hyperparams, Penalty, TwoViewDataset, ViewMatrix
from .errors import (
    BadMagic,
    CorruptFile,
    EmptyInput,
    InvalidKernelParam,
    NonNumericField,
    RaggedRows,
    TruncatedFile,
    VersionMismatch,
)
from .kernel import GramMatrix, KernelKind, KernelModel, KernelSpec
from .kernel import gram_gaussian, gram_linear  # noqa: F401  see below

# gram_gaussian and gram_linear are not called here (load_model forms no
# Gram); they stay bound because tracing tools such as perfbench/spans.py wrap
# this module's Gram bindings by name.

MODEL_MAGIC = b"RMENCCA\x00"
MODEL_VERSION = 1

_KIND_LINEAR = 0
_KIND_KERNEL = 1

# synth_two_view draws and adds its noise in blocks of feature rows of at
# most this many bytes, and save_dsv formats blocks of rows holding at most
# this many bytes of values (a row more than that is one block)
_NOISE_BLOCK_BYTES = 1 << 20
_SAVE_BLOCK_BYTES = 1 << 16


# ----------------------------------------------------------- synthetic data

@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-correlation synthetic problem description.

    correlations are the population canonical correlations of the noise-free
    views, sorted descending in (0, 1].  noise_scale adds isotropic Gaussian
    noise after mixing, which shrinks the observable correlations below the
    planted values.
    """

    n: int
    d1: int
    d2: int
    k_true: int
    correlations: tuple[float, ...]
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        corr = tuple(float(c) for c in self.correlations)
        object.__setattr__(self, "correlations", corr)
        if self.n < 1 or self.d1 < 1 or self.d2 < 1:
            raise ValueError(f"sizes must be positive: n={self.n}, d1={self.d1}, d2={self.d2}")
        if not 1 <= self.k_true <= min(self.d1, self.d2):
            raise ValueError(f"k_true={self.k_true} must lie in [1, min(d1, d2)]")
        if len(corr) != self.k_true:
            raise ValueError(f"need {self.k_true} correlations, got {len(corr)}")
        if any(not 0.0 < c <= 1.0 for c in corr):
            raise ValueError(f"correlations must lie in (0, 1]: {corr}")
        if any(a < b for a, b in zip(corr, corr[1:])):
            raise ValueError(f"correlations must be sorted descending: {corr}")
        if self.noise_scale < 0.0 or not np.isfinite(self.noise_scale):
            raise ValueError(f"noise_scale must be finite and nonnegative: {self.noise_scale}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def _well_conditioned(rng: np.random.Generator, d: int) -> np.ndarray:
    # random mixing with singular values in [1, 2] so the planted structure
    # is never near-degenerate
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    s = rng.uniform(1.0, 2.0, size=d)
    return (q1 * s) @ q2.T


def _mixed(mix: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """mix @ factors, stored sample-major in the factor buffer, which the
    product no longer needs.  The product is taken features-major and copied:
    (factors^T mix^T)^T would come out sample-major without the copy, but the
    BLAS rounds it differently, so the generated numbers would change."""
    out = factors.reshape(factors.shape[1], factors.shape[0]).T
    out[...] = mix @ factors
    return out


def synth_two_view(spec: SyntheticSpec):
    """Generate paired views with known population canonical structure.

    Shared latent factors z feed the first k_true factor rows of each view
    with per-factor weights chosen so corr(factor_x_i, factor_y_i) equals
    spec.correlations[i]; the remaining factors are independent.  Returns
    the dataset and the noise-free population optimum (pair, correlations)
    as baselines.CCASolution.

    Factor buffers are reused in place and the noise is added a block of
    feature rows at a time, so the peak is the two views and one mixing
    product of the wider view: 1 + max(d1, d2) / (d1 + d2) times the views'
    bytes (about 1.6 for d1 = 50, d2 = 40), the noise blocks aside.
    """
    rng = np.random.default_rng(spec.seed)
    n, d1, d2, k = spec.n, spec.d1, spec.d2, spec.k_true
    alpha = np.sqrt(np.asarray(spec.correlations))
    beta = np.sqrt(1.0 - alpha**2)

    z = rng.standard_normal((k, n))
    fx = rng.standard_normal((d1, n))
    fy = rng.standard_normal((d2, n))
    fx[:k] = alpha[:, None] * z + beta[:, None] * fx[:k]
    fy[:k] = alpha[:, None] * z + beta[:, None] * fy[:k]
    del z
    a = _well_conditioned(rng, d1)
    b = _well_conditioned(rng, d2)
    x = _mixed(a, fx)
    del fx
    y = _mixed(b, fy)
    del fy
    if spec.noise_scale > 0:
        _add_noise(rng, x, spec.noise_scale)
        _add_noise(rng, y, spec.noise_scale)

    u_true = np.linalg.inv(a).T[:, :k]
    v_true = np.linalg.inv(b).T[:, :k]
    ds = TwoViewDataset(x=ViewMatrix.of(x), y=ViewMatrix.of(y))
    truth = CCASolution(
        pair=CanonicalPair(u=u_true, v=v_true),
        correlations=spec.correlations,
    )
    return ds, truth


def _add_noise(rng: np.random.Generator, view: np.ndarray, scale: float) -> None:
    """view += scale * rng.standard_normal(view.shape), drawn and added a
    block of feature rows at a time.  The draws come from the stream in the
    same order as one whole draw, so the numbers do not depend on the
    block size."""
    d, n = view.shape
    rows = max(1, _NOISE_BLOCK_BYTES // (8 * n))
    for start in range(0, d, rows):
        noise = rng.standard_normal((min(rows, d - start), n))
        noise *= scale
        view[start:start + rows] += noise


def split_train_validation(
    ds: TwoViewDataset, fraction: float, seed: int
) -> tuple[TwoViewDataset, TwoViewDataset]:
    """Disjoint seeded split; fraction is the validation share."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie strictly between 0 and 1, got {fraction}")
    n = ds.n
    n_val = int(round(n * fraction))
    n_val = min(max(n_val, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return _take(ds, train_idx), _take(ds, val_idx)


def _take(ds: TwoViewDataset, idx: np.ndarray) -> TwoViewDataset:
    return TwoViewDataset(
        x=ViewMatrix(ds.x.data[:, idx], ds.x.feature_means),
        y=ViewMatrix(ds.y.data[:, idx], ds.y.feature_means),
    )


# ---------------------------------------------------------------- DSV files

# ASCII separators that numpy strips from the ends of a field as whitespace
# but float() does not
_SEPARATORS_FLOAT_KEEPS = "\x1c\x1d\x1e\x1f"


def load_dsv(path: str, delimiter: str = ",") -> ViewMatrix:
    """Parse a delimiter-separated numeric table, one sample per row, into
    a features x samples view whose samples are the file's rows.

    numpy's C reader parses the file first.  What it accepts, the line parser
    accepts with the same values: both convert the same ASCII text with the
    same strtod.  A file it refuses or warns about (blank-only lines, a field
    float() reads but it does not, such as '1_0' or non-ASCII digits, an
    empty file, bytes that are not UTF-8), or one with a line it would read
    differently, is parsed again line by line, which gives the values or the
    error with its line number."""
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            # an open handle, not the path: numpy would decompress a '.gz'
            # path or fetch a URL-like one
            table = np.loadtxt(_lines_float_agrees_on(fh, delimiter), delimiter=delimiter,
                               ndmin=2, comments=None, dtype=np.float64)
    except (ValueError, Warning):
        return _load_dsv_lines(path, delimiter)
    return ViewMatrix.of(table.T)


def _lines_float_agrees_on(fh, delimiter: str):
    """fh's lines, stopping with ValueError at one that holds a separator
    numpy and float() would read differently."""
    kept = [ch for ch in _SEPARATORS_FLOAT_KEEPS if ch != delimiter]
    for line in fh:
        if any(ch in line for ch in kept):
            raise ValueError("a field may end in an ASCII separator")
        yield line


def _load_dsv_lines(path: str, delimiter: str = ",") -> ViewMatrix:
    """The line parser: blank lines are skipped, and a ragged row, a field
    float() refuses or text that is not UTF-8 raises with its line number.
    The values go straight into one array('d') that the view reads in
    place, so the peak is the table's float64 bytes and the array's growth
    slack (at most about 1.07x), not a Python float per value."""
    values = array("d")
    width = -1
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(delimiter)
                if width == -1:
                    width = len(fields)
                elif len(fields) != width:
                    raise RaggedRows(
                        f"{path}: line {lineno} has {len(fields)} fields, expected {width}"
                    )
                try:
                    values.extend(map(float, fields))
                except ValueError as exc:
                    raise NonNumericField(f"{path}: line {lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise NonNumericField(f"{path}: not UTF-8 text: {exc}") from None
    if not values:
        raise EmptyInput(f"{path}: no data rows")
    return ViewMatrix.of(np.frombuffer(values, dtype=np.float64).reshape(-1, width).T)


def save_dsv(view: ViewMatrix, path: str, delimiter: str = ",") -> None:
    """Write samples as rows at 17 significant digits (lossless for
    float64).  Each "%" operation formats a block of rows holding at most
    _SAVE_BLOCK_BYTES of values (one row, if a row holds more), so the text
    and Python floats in flight stay a fixed size, not a multiple of the
    view."""
    data = view.data.T
    # the delimiter is literal text in the template, so a '%' is doubled
    row = delimiter.replace("%", "%%").join(["%.17g"] * data.shape[1]) + "\n"
    rows = max(1, _SAVE_BLOCK_BYTES // (8 * data.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, data.shape[0], rows):
            block = data[start:start + rows]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


# -------------------------------------------------------------- MNIST halves

def load_mnist_halves(images_path: str) -> TwoViewDataset:
    """Split IDX-format images into left and right halves as the two views,
    with pixels scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise TruncatedFile(f"{images_path}: header is {len(header)} bytes, need 16")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != 0x00000803:
            raise BadMagic(f"{images_path}: magic 0x{magic:08x}, expected 0x00000803")
        if count == 0 or rows * (cols // 2) == 0:
            raise EmptyInput(
                f"{images_path}: {count} images of {rows} x {cols} pixels leave a view empty"
            )
        payload = fh.read(count * rows * cols)
    if len(payload) < count * rows * cols:
        raise TruncatedFile(
            f"{images_path}: {len(payload)} pixel bytes, need {count * rows * cols}"
        )
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows, cols)
    images = images.astype(np.float64) / 255.0
    half = cols // 2
    left = images[:, :, :half].reshape(count, rows * half).T
    right = images[:, :, half:].reshape(count, rows * (cols - half)).T
    return TwoViewDataset(
        x=ViewMatrix.of(left),
        y=ViewMatrix.of(right),
    )


# --------------------------------------------------------------- model files

@dataclass(frozen=True, eq=False)
class ModelFile:
    """Everything needed to project new data: hyperparameters, the training
    feature means for centering, and either a linear pair or a kernel
    model."""

    version: int
    hp: Hyperparams
    means_x: np.ndarray
    means_y: np.ndarray
    pair: CanonicalPair | None = None
    kernel: KernelModel | None = None


def _write_matrix(fh, m: np.ndarray) -> None:
    m = np.ascontiguousarray(m, dtype="<f8")
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
    fh.write(m.tobytes())


def _read_exact(fh, size: int, what: str) -> bytes:
    buf = fh.read(size)
    if len(buf) != size:
        raise CorruptFile(f"{fh.name}: unexpected end of file while reading {what}")
    return buf


def _read_matrix(fh, what: str) -> np.ndarray:
    r, c = struct.unpack("<QQ", _read_exact(fh, 16, what + " shape"))
    if r * c == 0:  # no matrix of a valid model is empty
        raise CorruptFile(f"{fh.name}: {what} is an empty {r} x {c} matrix")
    # a declared shape is trusted only as far as the file can back it, so a
    # corrupted header cannot make the reader allocate beyond the file size
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if 8 * r * c > left:
        raise CorruptFile(
            f"{fh.name}: implausible {what} shape {r} x {c}: needs {8 * r * c} bytes, "
            f"{left} left in the file"
        )
    m = np.frombuffer(_read_exact(fh, 8 * r * c, what), dtype="<f8").reshape(r, c).copy()
    if not np.isfinite(m).all():  # nor does any fit produce a NaN or inf
        raise CorruptFile(f"{fh.name}: {what} holds non-finite entries")
    return m


_HP_STRUCT = "<IdddddIdqqB"


def _write_hp(fh, hp: Hyperparams) -> None:
    batch = -1 if hp.batch_size is None else hp.batch_size
    pen = 0 if hp.penalty is Penalty.L21 else 1
    fh.write(struct.pack(
        _HP_STRUCT,
        hp.k, hp.lambda1, hp.lambda2, hp.eta, hp.gamma, hp.zeta,
        hp.max_iters, hp.tol, batch, hp.seed, pen,
    ))


def _read_hp(fh) -> Hyperparams:
    raw = _read_exact(fh, struct.calcsize(_HP_STRUCT), "hyperparameters")
    k, l1, l2, eta, gamma, zeta, iters, tol, batch, seed, pen = struct.unpack(_HP_STRUCT, raw)
    if pen not in (0, 1):
        raise CorruptFile(f"{fh.name}: unknown penalty mode {pen}")
    try:
        return Hyperparams(
            k=k, lambda1=l1, lambda2=l2, eta=eta, gamma=gamma, zeta=zeta,
            max_iters=iters, tol=tol,
            batch_size=None if batch < 0 else batch,
            seed=seed,
            penalty=Penalty.L21 if pen == 0 else Penalty.FROBENIUS,
        )
    except ValueError as exc:
        raise CorruptFile(f"{fh.name}: invalid hyperparameters: {exc}") from None


def _write_kernel_spec(fh, spec: KernelSpec) -> None:
    kind = 1 if spec.kind is KernelKind.GAUSSIAN else 0
    width = spec.width if spec.width is not None else float("nan")
    fh.write(struct.pack("<Bd", kind, width))


def _read_kernel_spec(fh) -> KernelSpec:
    kind, width = struct.unpack("<Bd", _read_exact(fh, 9, "kernel spec"))
    if kind == 0:
        return KernelSpec(kind=KernelKind.LINEAR)
    if kind != 1:
        raise CorruptFile(f"{fh.name}: unknown kernel kind {kind}")
    try:
        return KernelSpec(kind=KernelKind.GAUSSIAN, width=width)
    except InvalidKernelParam as exc:
        raise CorruptFile(f"{fh.name}: invalid kernel spec: {exc}") from None


def save_model(model: ModelFile, path: str) -> None:
    if (model.pair is None) == (model.kernel is None):
        raise ValueError("exactly one of pair or kernel must be set")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        kind = _KIND_LINEAR if model.pair is not None else _KIND_KERNEL
        fh.write(struct.pack("<B", kind))
        _write_hp(fh, model.hp)
        _write_matrix(fh, model.means_x)
        _write_matrix(fh, model.means_y)
        if model.pair is not None:
            _write_matrix(fh, model.pair.u)
            _write_matrix(fh, model.pair.v)
        else:
            km = model.kernel
            _write_kernel_spec(fh, km.gram_x.spec)
            _write_kernel_spec(fh, km.gram_y.spec)
            _write_matrix(fh, km.gram_x.train_points.data)
            _write_matrix(fh, km.gram_y.train_points.data)
            _write_matrix(fh, km.w_x)
            _write_matrix(fh, km.w_y)


def load_model(path: str) -> ModelFile:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, "magic")
        if magic != MODEL_MAGIC:
            raise CorruptFile(f"{path}: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != MODEL_VERSION:
            raise VersionMismatch(f"{path}: version {version}, supported {MODEL_VERSION}")
        (kind,) = struct.unpack("<B", _read_exact(fh, 1, "model kind"))
        hp = _read_hp(fh)
        means_x = _read_matrix(fh, "means_x").ravel()
        means_y = _read_matrix(fh, "means_y").ravel()
        if kind == _KIND_LINEAR:
            u = _read_matrix(fh, "U")
            v = _read_matrix(fh, "V")
            _expect_eof(fh, path)
            _expect_count(path, "U", u.shape[0], "rows", len(means_x), "means_x entries")
            _expect_count(path, "V", v.shape[0], "rows", len(means_y), "means_y entries")
            _expect_columns(path, hp.k, ("U", u), ("V", v))
            return ModelFile(
                version=version, hp=hp, means_x=means_x, means_y=means_y,
                pair=CanonicalPair(u=u, v=v),
            )
        if kind != _KIND_KERNEL:
            raise CorruptFile(f"{path}: unknown model kind {kind}")
        spec_x = _read_kernel_spec(fh)
        spec_y = _read_kernel_spec(fh)
        train_x = ViewMatrix.of(_read_matrix(fh, "train_x"))
        train_y = ViewMatrix.of(_read_matrix(fh, "train_y"))
        w_x = _read_matrix(fh, "W_X")
        w_y = _read_matrix(fh, "W_Y")
        _expect_eof(fh, path)
    _expect_count(path, "train_x", train_x.d, "features", len(means_x), "means_x entries")
    _expect_count(path, "train_y", train_y.d, "features", len(means_y), "means_y entries")
    _expect_count(path, "train_y", train_y.n, "samples", train_x.n, "train_x samples")
    _expect_count(path, "W_X", w_x.shape[0], "rows", train_x.n, "training points")
    _expect_count(path, "W_Y", w_y.shape[0], "rows", train_y.n, "training points")
    _expect_columns(path, hp.k, ("W_X", w_x), ("W_Y", w_y))
    km = KernelModel(
        w_x=w_x, w_y=w_y,
        gram_x=GramMatrix(spec_x, train_x),
        gram_y=GramMatrix(spec_y, train_y),
        report=None,
    )
    return ModelFile(
        version=version, hp=hp, means_x=means_x, means_y=means_y, kernel=km,
    )


def _expect_eof(fh, path: str) -> None:
    if fh.read(1):
        raise CorruptFile(f"{path}: trailing bytes after model payload")


def _expect_count(path: str, what: str, got: int, unit: str, want: int, of: str) -> None:
    if got != want:
        raise CorruptFile(f"{path}: {what} has {got} {unit} for {want} {of}")


def _expect_columns(path: str, k: int, *named: tuple[str, np.ndarray]) -> None:
    for what, m in named:
        _expect_count(path, what, m.shape[1], "columns", k, "canonical dimensions (k)")
