"""Haar-random rotations and coordinate compression.

A Haar orthogonal rotation flattens any fixed unit vector so its psi_2
norm drops to the generic-sphere level, after which a random coordinate
subset of size about (C M / eps)^2 log n preserves the normalized L_2
norms of a whole family of vectors up to 1 +/- eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CertificateError,
    CoordinateSubset,
    FittedConstant,
    InputError,
    RngStream,
    as_table,
    check_count,
    check_eps,
    check_positive,
    digest_inputs,
)
from .orlicz import psi_norms
from .selector import draw_selectors

# Default compression constant, fitted by fit_jl_constant() with its
# documented protocol: smallest C on a 0.025 grid reaching >= 1/2 success
# at n = 128, eps = 0.25 over 200 seeds, rounded up to one decimal.
DEFAULT_JL_CONSTANT = 0.5


def haar_frame(n: int, k: int, rng: RngStream) -> np.ndarray:
    """Uniform random k-frame in R^n: an n-by-k matrix with orthonormal columns.

    Thin QR of an n-by-k standard Gaussian with column signs corrected so
    the triangular factor has positive diagonal, which makes the law
    invariant under every rotation of R^n (Mezzadri 2007).  Orthogonality
    is verified on the k-by-k product W^T W to 1e-10 per entry before
    returning, and CertificateError is raised when eight draws all fail
    that check.  Costs O(n k^2); k = n is a Haar orthogonal matrix.
    """
    n = check_count(n, "n", 1, "DIMENSION")
    k = check_count(k, "k", 1, "DIMENSION")
    if k > n:
        raise InputError("DIMENSION", f"a frame in R^{n} has at most {n} columns, got {k}")
    gen = rng.generator()
    for _ in range(8):
        g = gen.standard_normal((n, k))
        q, r = np.linalg.qr(g)
        d = np.sign(np.diag(r))
        if np.any(d == 0):
            continue
        q = q * d
        if np.abs(q.T @ q - np.eye(k)).max() <= 1e-10:
            return q
    raise CertificateError("could not draw a numerically orthogonal frame in 8 attempts")


@dataclass(frozen=True)
class DistortionReport:
    """Per-vector norm ratios of a rotated-then-projected family."""

    per_vector_ratio: np.ndarray
    max_deviation: float
    sigma: CoordinateSubset
    psi2_max: float
    delta: float | None = None
    target_cardinality: int | None = None
    flags: tuple[str, ...] = ()


def _report(v: np.ndarray, rotated: np.ndarray, subset: CoordinateSubset, psi2_max: float,
            **extra) -> DistortionReport:
    """Ratios |P_sigma O f| / |f| from the rows f of v and their rotations O f."""
    norms_in = np.sqrt(np.mean(v**2, axis=1))
    if np.any(norms_in == 0):
        raise InputError("BAD_INPUT", "vectors must be nonzero")
    if subset.size > 0:
        sel = rotated[:, subset.zero_based()]
        norms_out = np.sqrt(np.mean(sel**2, axis=1))
    else:
        norms_out = np.zeros(v.shape[0])
    ratios = norms_out / norms_in
    return DistortionReport(
        per_vector_ratio=ratios,
        max_deviation=float(np.abs(ratios - 1.0).max()),
        sigma=subset,
        psi2_max=psi2_max,
        **extra,
    )


def coordinate_jl(vectors, eps: float, rng: RngStream,
                  c_fit: float = DEFAULT_JL_CONSTANT) -> DistortionReport:
    """Rotate a family of unit vectors and keep a random coordinate subset.

    Pipeline: draw a Haar rotation O, measure M = max_i psi_2(O f_i),
    target |sigma| = ceil((c_fit M / eps)^2 log n) capped at n, draw mean-
    |sigma|/n selectors, and report the norm distortions.

    Vectors must be unit-normalized in L_2^n, i.e. mean f(i)^2 = 1.
    """
    v = _unit_family(vectors, eps)
    c_fit = check_positive(c_fit, "c_fit", "BAD_CONSTANT")
    rotated, m_psi = _rotate(v, rng)
    return _compress(v, rotated, m_psi, eps, c_fit, rng)


def _unit_family(vectors, eps: float) -> np.ndarray:
    """The rows as a 2-d float array, checked unit-normalized, with eps checked in (0, 1)."""
    v = as_table(vectors, "vectors", promote=True)
    if v.shape[1] < 2:
        raise InputError("DIMENSION", "need vectors on at least 2 coordinates")
    check_eps(eps)
    with np.errstate(over="ignore"):  # an overflowed norm is inf and fails the check
        norms = np.sqrt(np.mean(v**2, axis=1))
    if np.abs(norms - 1.0).max() > 1e-9:
        raise InputError("BAD_INPUT", "vectors must be unit-normalized in L_2^n")
    return v


def _rotate(v: np.ndarray, rng: RngStream) -> tuple[np.ndarray, float]:
    """The rotated rows V O^T and M = max_i psi_2(O f_i).

    For k < n rows, V^T = Q_V C (reduced QR) gives V O^T = C^T (O Q_V)^T,
    and O Q_V is a uniform k-frame for Haar O, so only that frame is drawn:
    O(n k^2) work in place of O(n^3). For k >= n, C = V^T and the frame is O.
    """
    count, n = v.shape
    c = np.linalg.qr(v.T, mode="r") if count < n else v.T
    rotated = c.T @ haar_frame(n, min(count, n), rng.substream(0)).T
    return rotated, float(psi_norms(rotated, 2.0).values.max())


def _compress(v: np.ndarray, rotated: np.ndarray, m_psi: float, eps: float, c_fit: float,
              rng: RngStream) -> DistortionReport:
    """Target cardinality, selector draw and norm ratios of one rotated family."""
    count, n = v.shape
    flags = ["MANY_VECTORS"] if count > n else []
    # past n the bound exceeds n whatever the log, and the square stays finite
    target = math.ceil(min(c_fit * m_psi / eps, n) ** 2 * math.log(n))
    if target >= n:
        target = n
        flags.append("NO_COMPRESSION")
    delta = target / n

    draw = draw_selectors(n, delta, rng.substream(1))
    if draw.subset.size == 0:
        flags.append("EMPTY_SUBSET")
    return _report(v, rotated, draw.subset, m_psi, delta=delta, target_cardinality=target,
                   flags=tuple(flags))


def scaled_basis(n: int) -> np.ndarray:
    """The n coordinate basis vectors scaled to unit normalized L_2 norm."""
    return math.sqrt(n) * np.eye(n)


def fit_jl_constant(
    n: int = 128,
    eps: float = 0.25,
    seeds: int = 200,
    grid_step: float = 0.025,
    grid_max: float = 2.0,
) -> FittedConstant:
    """Pilot fit of the compression constant.

    Protocol: for C running over a grid of spacing `grid_step`, run
    coordinate_jl on the scaled coordinate basis of R^n at the given eps
    with RngStream(seed) for seed in range(seeds); the fitted constant is
    the smallest C whose success fraction (max deviation <= eps) reaches
    1/2, rounded up to one decimal.
    """
    seeds = check_count(seeds, "seeds", 1)
    grid = _c_grid(check_positive(grid_step, "grid_step", "BAD_GRID"), grid_max)
    hits = _jl_hits(n, eps, seeds, grid)
    chosen = next((c for c, h in zip(grid, hits) if h / seeds >= 0.5), None)
    if chosen is None:
        raise InputError("BAD_GRID", f"no constant on the grid up to {grid_max} reached 1/2 success")
    value = math.ceil(chosen * 10.0 - 1e-9) / 10.0
    protocol = (
        f"smallest C on a {grid_step}-step grid whose success fraction over "
        f"seeds 0..{seeds - 1} reaches 1/2 for the scaled coordinate basis "
        f"(n={n}, eps={eps}), rounded up to one decimal"
    )
    return FittedConstant(
        name="C_jl",
        value=value,
        protocol=protocol,
        inputs_digest=digest_inputs(n, eps, seeds, grid_step, grid_max),
    )


def _c_grid(grid_step: float, grid_max: float) -> list[float]:
    """The constants grid_step, 2 grid_step, ... up to grid_max, accumulated by addition."""
    grid = []
    c = grid_step
    while c <= grid_max + 1e-12:
        grid.append(c)
        c += grid_step
    return grid


def _jl_hits(n: int, eps: float, seeds: int, grid: list[float]) -> list[int]:
    """Per constant in `grid`, how many seeds keep coordinate_jl on scaled_basis(n) within eps.

    Only the target and the selector draw depend on the constant, so each
    seed's rotation and psi_2 norms are computed once for the whole grid.
    """
    basis = _unit_family(scaled_basis(n), eps)
    hits = [0] * len(grid)
    for seed in range(seeds):
        rng = RngStream(seed)
        rotated, m_psi = _rotate(basis, rng)
        for j, c in enumerate(grid):
            hits[j] += _compress(basis, rotated, m_psi, eps, c, rng).max_deviation <= eps
    return hits
