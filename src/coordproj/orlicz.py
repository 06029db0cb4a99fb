"""Exponential-moment (psi_p) norms on the uniform finite space.

The psi_p norm of f is the smallest lam > 0 with

    (1/n) sum_i exp(|f(i)|^p / lam^p) <= e.

The left side is continuous and strictly decreasing in lam (for f != 0),
so the norm is the unique root of mean-exp = e and bisection is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InputError, as_table, as_vector, check_positive


@dataclass(frozen=True)
class PsiNormResult:
    value: float
    p: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class PsiNormBatch:
    """psi_p norms of the rows of a matrix, with one bisection for all rows."""

    values: np.ndarray
    residuals: np.ndarray
    iterations: int


def psi_norms(rows, p: float, tol: float = 1e-10) -> PsiNormBatch:
    """psi_p norm of every row of a 2-d array, by one batched bisection.

    psi(c f) = c psi(f), so each row is divided by its peak.  The root on the
    normalized row lies in [ln(n(e-1)+1)^(-1/p), 1]: the lower end is the
    one-spike closed form, and at the upper end every term is at most e.
    No exponent exceeds ln(n(e-1)+1), so nothing overflows at any scale.

    Args:
        rows: m-by-n array, one function per row.
        p: Orlicz exponent, finite and p >= 1.
        tol: final bracket width relative to the psi value, floored at the
            machine epsilon, below which the bracket cannot shrink.

    Returns:
        PsiNormBatch with the norms, the residuals |mean exp(|f|^p/lam^p) - e|
        at the returned values, and the bisection steps.  Every row takes the
        same steps, so its value does not depend on the other rows.
    """
    a = np.abs(as_table(rows, "rows"))
    if not 1.0 <= p < math.inf:
        raise InputError("BAD_EXPONENT", f"exponent must be finite with p >= 1, got {p}")
    tol = check_positive(tol, "tolerance")

    peak = a.max(axis=1)
    live = peak > 0.0
    y = (a[live] / peak[live, None]) ** p
    bottom = min(1.0, math.log1p(a.shape[1] * (math.e - 1.0)) ** (-1.0 / p))
    lo = np.full(y.shape[0], bottom)
    width, goal = 1.0 - bottom, max(tol, np.finfo(float).eps) * bottom
    iterations = 0
    while width > goal and y.shape[0]:
        width *= 0.5
        mid = lo + width
        lo = np.where(np.exp(y / (mid**p)[:, None]).mean(axis=1) > math.e, mid, lo)
        iterations += 1

    lam = lo + 0.5 * width
    values, residuals = np.zeros((2, a.shape[0]))
    values[live] = peak[live] * lam
    residuals[live] = np.abs(np.exp(y / (lam**p)[:, None]).mean(axis=1) - math.e)
    return PsiNormBatch(values, residuals, iterations)


def psi_norm(f, p: float, tol: float = 1e-10) -> PsiNormResult:
    """psi_p norm of one vector: the one-row case of psi_norms.

    Returns:
        PsiNormResult with the norm, iteration count, and the residual
        |mean exp(|f|^p/lam^p) - e| at the returned value.
    """
    batch = psi_norms(as_vector(f)[None, :], p, tol)
    return PsiNormResult(float(batch.values[0]), float(p), batch.iterations,
                         float(batch.residuals[0]))

