"""Shared data model for the toolkit.

Everything downstream works with finite function classes: an m-by-n table
whose rows are functions on the n-point uniform probability space, plus
coordinate subsets that select columns.  Norms on this space are always
normalized by n, so constants stay dimension-free.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np


class CoordprojError(Exception):
    """Base class for errors carrying a machine-readable code."""

    code = "ERROR"


class InputError(CoordprojError, ValueError):
    """Invalid argument; `code` names the violated contract."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class SizeCapError(CoordprojError, RuntimeError):
    """An exact routine was asked to exceed its combinatorial budget."""

    code = "SIZE_CAP"

    def __init__(self, message: str, cost_estimate: float | None = None):
        super().__init__(message)
        self.cost_estimate = cost_estimate


class CertificateError(CoordprojError, RuntimeError):
    """A computed certificate failed its independent check."""

    code = "CERTIFICATE"


def check_positive(x, name: str, code: str = "BAD_INPUT") -> float:
    """x as a float when it is positive and finite; InputError(code) otherwise."""
    if not 0.0 < x < math.inf:  # false for nan as well
        raise InputError(code, f"{name} must be positive and finite, got {x}")
    return float(x)


def check_eps(eps: float) -> float:
    """eps as a float when it lies in (0, 1); InputError(BAD_EPSILON) otherwise."""
    if not (0.0 < eps < 1.0):
        raise InputError("BAD_EPSILON", f"eps must lie in (0, 1), got {eps}")
    return float(eps)


def check_in_unit_ball(rows: np.ndarray, norm, name: str) -> None:
    """InputError(BAD_INPUT) when some row has norm above 1 + 1e-9, the one unit-ball rule."""
    with np.errstate(over="ignore"):  # an overflowed norm is inf and fails the check
        outside = np.flatnonzero(banach_norm(rows, norm) > 1.0 + 1e-9)
    if outside.size:
        raise InputError("BAD_INPUT", f"{name} {outside[0] + 1} lies outside the unit ball")


def check_count(x, name: str, minimum: int, code: str = "BAD_INPUT") -> int:
    """x as an int when it is an integer >= minimum; InputError(code) otherwise."""
    try:
        ok = int(x) == x and x >= minimum
    except (ValueError, OverflowError):  # nan, inf
        ok = False
    if not ok:
        raise InputError(code, f"{name} must be an integer >= {minimum}, got {x}")
    return int(x)


def check_bounded_by_one(values: np.ndarray, name: str) -> None:
    """InputError(BAD_INPUT) when some |value| exceeds 1, the one rule for bounded classes."""
    if np.abs(values).max() > 1.0:
        raise InputError("BAD_INPUT", f"{name} must be bounded by 1")


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InputError("DIMENSION", f"expected a 1-d vector, got shape {v.shape}")
    if v.size and not np.all(np.isfinite(v)):
        raise InputError("BAD_INPUT", "vector entries must be finite")
    return v


def as_table(x, name: str, promote: bool = False) -> np.ndarray:
    """Coerce to a finite 2-d float array with at least one row and one column.

    The one table rule: ragged or non-numeric input gives DIMENSION, no
    rows EMPTY_INPUT, a shape other than rows by columns DIMENSION, and a
    non-finite entry BAD_INPUT. With promote, a 1-d x is one row.
    """
    try:
        t = np.asarray(x, dtype=float)
    except (TypeError, ValueError):  # ragged rows or non-numeric entries
        raise InputError("DIMENSION", f"{name} must be numeric rows of one length") from None
    if t.ndim >= 1 and t.shape[0] == 0:
        raise InputError("EMPTY_INPUT", f"{name} must have at least one row")
    if promote and t.ndim == 1:
        t = t[None, :]
    if t.ndim != 2 or t.shape[1] == 0:
        raise InputError("DIMENSION", f"{name} must be a 2-d table with columns, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise InputError("BAD_INPUT", f"{name} entries must be finite")
    return t


@dataclass(frozen=True)
class CoordinateSubset:
    """Strictly increasing subset of {1..ambient_n}; indices are 1-based.

    May be empty: random selector draws legitimately produce empty subsets,
    and downstream operations decide whether that is an error.
    """

    indices: tuple[int, ...]
    ambient_n: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if self.ambient_n < 1:
            raise InputError("DIMENSION", "ambient_n must be at least 1")
        prev = 0
        for i in idx:
            if i <= prev:
                raise InputError("BAD_INPUT", "indices must be strictly increasing and >= 1")
            prev = i
        if idx and idx[-1] > self.ambient_n:
            raise InputError(
                "DIMENSION", f"index {idx[-1]} outside [1, {self.ambient_n}]"
            )

    @property
    def size(self) -> int:
        return len(self.indices)

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp) - 1

    @classmethod
    def full(cls, n: int) -> "CoordinateSubset":
        return cls(tuple(range(1, n + 1)), n)

    @classmethod
    def from_mask(cls, mask) -> "CoordinateSubset":
        mask = np.asarray(mask, dtype=bool)
        return cls(tuple(int(i) + 1 for i in np.flatnonzero(mask)), int(mask.size))


# substream labels must stay below this span so derived ids never collide
_SUBSTREAM_SPAN = 1_000_003


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: the pair (seed, stream_id) pins every draw.

    Distinct stream_ids give statistically independent generators (numpy
    SeedSequence hashing).  Each call to generator() restarts the stream,
    so two operations handed the *same* RngStream see identical bits;
    callers wanting independence derive substreams.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        mask = (1 << 64) - 1
        return np.random.default_rng((self.seed & mask, self.stream_id & mask))

    def substream(self, k: int) -> "RngStream":
        if not 0 <= k < _SUBSTREAM_SPAN:
            raise InputError("BAD_INPUT", f"substream label must lie in [0, {_SUBSTREAM_SPAN})")
        return RngStream(self.seed, self.stream_id * _SUBSTREAM_SPAN + k + 1)


def check_substreams(count: int, what: str) -> None:
    """SizeCapError, raised before the work, when labels 0..count-1 do not all fit the span."""
    if count > _SUBSTREAM_SPAN:
        raise SizeCapError(f"{what} need substream labels up to {count - 1},"
                           f" past the cap {_SUBSTREAM_SPAN - 1}", cost_estimate=float(count))


@dataclass(frozen=True)
class FunctionClass:
    """m functions on {1..n} under the uniform measure, as an m-by-n table.

    Rows are functions, columns are points.  Duplicate rows are retained:
    the class is a multiset.  The table is checked by as_table and stored
    as a read-only copy.
    """

    values: np.ndarray

    def __post_init__(self):
        v = as_table(self.values, "values").copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def banach_norm(v, norm="sup"):
    """Unnormalized norm over the last axis: "sup" or a p-norm exponent >= 1.

    A vector gives a float; a stack of vectors gives an array of norms,
    each with the same bits as the float of that vector alone.
    """
    # numpy sums a contiguous row pairwise and a strided one in sequence, so
    # every stack is laid out in C order, whatever the layout it came in
    w = np.abs(np.asarray(v, dtype=float), order="C")
    if w.ndim == 0 or w.shape[-1] == 0:
        raise InputError("DIMENSION", "a norm needs a nonempty vector")
    if norm == "sup":
        out = w.max(axis=-1)
    else:
        p = float(norm)
        if not 1.0 <= p < math.inf:  # also rejects nan; inf would collapse every norm to 1
            raise InputError("BAD_EXPONENT", f"exponent must be finite and >= 1, got {p}")
        # the root is always taken on an array: numpy's vectorized power can
        # differ from its scalar power in the last bit
        out = (np.sum(w**p, axis=-1, keepdims=True) ** (1.0 / p))[..., 0]
    return float(out) if np.ndim(out) == 0 else out


def unit_peak(values) -> tuple[np.ndarray, int]:
    """values times 2^-e, with e chosen so the peak |value| lies in [1/2, 1).

    A power of two rounds nothing, so a homogeneous quantity computed on
    the result is an exact multiple of the original's, while squares and
    sums stay inside the float range. A zero table keeps e = 0.
    """
    e = math.frexp(float(np.abs(values).max(initial=0.0)))[1]
    return np.ldexp(values, -e), e


def sign_patterns(k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 of the 2^k sign patterns, as a +-1 int8 table.

    Entry b of row i is +1 where bit b of i is set and -1 where it is
    clear. Every exact enumeration of signs uses it.
    """
    ids = np.arange(start, 1 << k if stop is None else stop, dtype="<u8")
    # little-endian bytes unpacked low bit first: column b is bit b
    bits = np.unpackbits(ids.view(np.uint8).reshape(-1, 8), axis=1, count=k, bitorder="little")
    return 2 * bits.view(np.int8) - 1


# trials per Monte-Carlo block are _BLOCK_SCALARS // width, a fixed function
# of the shape, so reruns at one seed cut the same blocks
_BLOCK_SCALARS = 2_000_000


def monte_carlo(trials: int, width: int, block):
    """Sums and sums of squares of per-trial statistics over `trials` trials.

    `block(rows)` runs `rows` fresh trials and returns their statistics:
    one per trial, which gives two floats, or a (rows, c) table of c
    statistics, which gives two lists of c sums, taken column by column.
    It is called in order on blocks of at most _BLOCK_SCALARS // width
    rows, `width` being the scalars one trial holds in memory; a block
    that draws from one sequential generator therefore sees the same
    stream as a single unblocked draw.
    """
    rows = max(1, _BLOCK_SCALARS // max(1, width))
    total = total_sq = np.float64(0.0)
    for start in range(0, trials, rows):
        stats = block(min(rows, trials - start))
        total = total + stats.sum(axis=0)
        total_sq = total_sq + (stats * stats).sum(axis=0)
    return total.tolist(), total_sq.tolist()


def mean_and_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    """Sample mean and its standard error from a sum and a sum of squares."""
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return mean, math.sqrt(var / n)


@dataclass(frozen=True)
class FittedConstant:
    """An absolute constant estimated from data.

    `protocol` documents exactly how the value was produced; `inputs_digest`
    fingerprints the fitting inputs so reruns can be checked.
    """

    name: str
    value: float
    protocol: str
    inputs_digest: str


def digest_inputs(*parts) -> str:
    """SHA-256 fingerprint of arrays and plain values, order-sensitive."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
            h.update(repr(p.shape).encode())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()
