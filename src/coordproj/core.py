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


def check_count(x, name: str, minimum: int, code: str = "BAD_INPUT") -> int:
    """x as an int when it is an integer >= minimum; InputError(code) otherwise."""
    try:
        ok = int(x) == x and x >= minimum
    except (ValueError, OverflowError):  # nan, inf
        ok = False
    if not ok:
        raise InputError(code, f"{name} must be an integer >= {minimum}, got {x}")
    return int(x)


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InputError("DIMENSION", f"expected a 1-d vector, got shape {v.shape}")
    if v.size and not np.all(np.isfinite(v)):
        raise InputError("BAD_INPUT", "vector entries must be finite")
    return v


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


@dataclass(frozen=True)
class FunctionClass:
    """m functions on {1..n} under the uniform measure, as an m-by-n table.

    Rows are functions, columns are points.  Duplicate rows are retained:
    the class is a multiset.  `bounded_by_one` asserts sup |f| <= 1 and is
    checked at construction.
    """

    values: np.ndarray
    bounded_by_one: bool = False

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise InputError("DIMENSION", f"values must be a nonempty 2-d table, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InputError("BAD_INPUT", "table entries must be finite")
        if self.bounded_by_one and np.abs(v).max() > 1.0:
            raise InputError("BAD_INPUT", "bounded_by_one is set but max |value| exceeds 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def project(f, sigma: CoordinateSubset) -> np.ndarray:
    """Restrict a vector to the coordinates in sigma (order preserved)."""
    v = as_vector(f)
    if sigma.size == 0:
        raise InputError("EMPTY_SUBSET", "cannot project onto an empty subset")
    if sigma.ambient_n != v.size:
        raise InputError(
            "DIMENSION", f"subset lives on {sigma.ambient_n} points, vector has {v.size}"
        )
    return v[sigma.zero_based()]


def normalized_lp(f, p: float) -> float:
    """L_p norm under the uniform probability measure: (mean |f|^p)^(1/p)."""
    v = as_vector(f)
    if v.size == 0:
        raise InputError("DIMENSION", "empty vector has no normalized L_p norm")
    _check_exponent(p)
    return float(np.mean(np.abs(v) ** p) ** (1.0 / p))


def _check_exponent(p: float) -> None:
    # also rejects nan; inf would collapse every norm to 1
    if not 1.0 <= p < math.inf:
        raise InputError("BAD_EXPONENT", f"exponent must be finite and >= 1, got {p}")


def banach_norm(v, norm="sup"):
    """Unnormalized norm over the last axis: "sup" or a p-norm exponent >= 1.

    A vector gives a float; a stack of vectors gives an array of norms,
    each with the same bits as the float of that vector alone.
    """
    w = np.abs(np.asarray(v, dtype=float))
    if w.ndim == 0 or w.shape[-1] == 0:
        raise InputError("DIMENSION", "a norm needs a nonempty vector")
    if norm == "sup":
        out = w.max(axis=-1)
    else:
        p = float(norm)
        _check_exponent(p)
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


def project_class(F: FunctionClass, sigma: CoordinateSubset) -> FunctionClass:
    """Project every row of F onto sigma; duplicates created by projection stay."""
    if sigma.size == 0:
        raise InputError("EMPTY_SUBSET", "cannot project a class onto an empty subset")
    if sigma.ambient_n != F.n:
        raise InputError(
            "DIMENSION", f"subset lives on {sigma.ambient_n} points, class has {F.n}"
        )
    return FunctionClass(F.values[:, sigma.zero_based()], bounded_by_one=F.bounded_by_one)


def sign_patterns(k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows start..stop-1 of the 2^k sign patterns, as a +-1 int8 table.

    Entry b of row i is +1 where bit b of i is set and -1 where it is
    clear. Every exact enumeration of signs or selector subsets uses it.
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
