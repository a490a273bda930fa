"""Exception hierarchy.

Every error raised by this package derives from RmenccaError so callers can
catch the whole family at once.  Each class states its own CLI exit code as a
class keyword (`exit_code`), and the CLI exits with it.  The codes are
distinct and stable; the code of a deleted class is retired, not reused, so
16 and 19 belong to no class.  The base class's code is 1.  The CLI adds two
codes for builtin errors, 3 for a missing file and 24 for running out of
memory, and exits with NonFiniteIterate's code on a numpy LinAlgError and
with ConfigError's on any other ValueError or OSError.
"""
from __future__ import annotations


class RmenccaError(Exception):
    """Base class for all package errors."""

    exit_code = 1

    def __init_subclass__(cls, *, exit_code: int, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.exit_code = exit_code


# dataset / shape problems
class DegenerateInput(RmenccaError, exit_code=23):
    """Too few samples for the requested operation."""


class SampleCountMismatch(RmenccaError, exit_code=11):
    """The two views disagree on the number of samples."""


class NonFiniteEntry(RmenccaError, exit_code=12):
    """A view contains NaN or infinity."""


class RankBudgetTooLarge(RmenccaError, exit_code=13):
    """k exceeds min(d1, d2, n)."""


class BatchTooLarge(RmenccaError, exit_code=14):
    """batch_size exceeds the sample count."""


class DimensionMismatch(RmenccaError, exit_code=15):
    """Matrix shapes are incompatible."""


# numerics
class AllZeroInput(RmenccaError, exit_code=17):
    """Whitening impossible: the projected Gram is numerically zero."""


class NonFiniteIterate(RmenccaError, exit_code=18):
    """A result overflowed or became NaN/inf: a step whose whitening Gram
    overflows or a diverging objective (try a smaller eta), or a statistic
    of inputs too large for doubles (feature means, covariances, correlations)."""


class RankDeficientBasis(RmenccaError, exit_code=20):
    """A subspace basis does not have full column rank."""


# kernel
class InvalidKernelParam(RmenccaError, exit_code=21):
    """Kernel parameter out of range (e.g. nonpositive width)."""


class TooLargeForKernel(RmenccaError, exit_code=22):
    """Sample count too large to materialize an n x n Gram matrix."""


# file I/O
class RaggedRows(RmenccaError, exit_code=4):
    """Rows of a delimited file have inconsistent widths."""


class NonNumericField(RmenccaError, exit_code=5):
    """A delimited file field failed to parse as a float."""


class EmptyInput(RmenccaError, exit_code=6):
    """No data rows found."""


class BadMagic(RmenccaError, exit_code=7):
    """File does not start with the expected magic bytes."""


class TruncatedFile(RmenccaError, exit_code=8):
    """File ended before the declared payload was read."""


class VersionMismatch(RmenccaError, exit_code=9):
    """Model file written by an unsupported format version."""


class CorruptFile(RmenccaError, exit_code=10):
    """Model file structure is inconsistent."""


class ConfigError(RmenccaError, exit_code=2):
    """Invalid CLI configuration or flag combination."""
