"""Packing and covering numbers in the normalized L_2 metric.

Separated means pairwise distance strictly above t; covering uses closed
balls of radius t centered at class members (internal covering).  With
these conventions the sandwich P(2t) <= N(t) <= P(t) is exact, where P is
the maximum packing and N the minimum internal covering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (FittedConstant, FunctionClass, InputError, check_bounded_by_one, check_positive,
                   digest_inputs)
from .shatter import vc_dimensions

_EXACT_PACKING_MAX = 30
_EXACT_COVERING_MAX = 25


def pairwise_l2_distances(F: FunctionClass) -> np.ndarray:
    """Symmetric m-by-m table of normalized L_2 distances between rows."""
    v = F.values
    sq = np.sum(v**2, axis=1)
    g = v @ v.T
    d2 = (sq[:, None] + sq[None, :] - 2.0 * g) / F.n
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.clip(d2, 0.0, None))


@dataclass(frozen=True)
class CoveringEstimate:
    """Bounds on packing/covering at one scale.

    packing_lower is the size of a maximal separated set found greedily (a
    lower bound on the maximum packing); covering_upper the greedy internal
    cover size.  The exact_* fields are filled when the branch-and-bound
    routines ran within their caps.
    """

    t: float
    packing_lower: int | None = None
    covering_upper: int | None = None
    exact_packing: int | None = None
    exact_covering: int | None = None

    @property
    def exact(self) -> bool:
        return self.exact_packing is not None and self.exact_covering is not None


def _greedy_packing(dist: np.ndarray, t: float) -> list[int]:
    # farthest-point traversal from the lowest row index; maximal separated
    chosen = [0]
    min_d = dist[0].copy()
    while True:
        far = int(np.argmax(min_d))
        if min_d[far] <= t:
            break
        chosen.append(far)
        min_d = np.minimum(min_d, dist[far])
    return chosen


def _greedy_covering(dist: np.ndarray, t: float) -> list[int]:
    m = dist.shape[0]
    within = dist <= t
    uncovered = np.ones(m, dtype=bool)
    centers: list[int] = []
    while uncovered.any():
        gains = within[:, uncovered].sum(axis=1)
        gains[~uncovered] = -1  # centers come from uncovered points
        c = int(np.argmax(gains))  # argmax takes the lowest index on ties
        centers.append(c)
        uncovered &= ~within[c]
    return centers


def _ball_masks(dist: np.ndarray, t: float) -> list[int]:
    # bit j of mask i is set where dist[i, j] <= t
    packed = np.packbits(dist <= t, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _exact_packing(dist: np.ndarray, t: float) -> int:
    # maximum separated set = maximum independent set of the conflict graph
    m = dist.shape[0]
    conflict = [ball & ~(1 << i) for i, ball in enumerate(_ball_masks(dist, t))]
    best = 0

    def rec(allowed: int, size: int) -> None:
        nonlocal best
        if allowed == 0:
            if size > best:
                best = size
            return
        if size + bin(allowed).count("1") <= best:
            return
        # branch on the most conflicted remaining vertex
        v, deg = -1, -1
        a = allowed
        while a:
            low = a & -a
            i = low.bit_length() - 1
            d = bin(conflict[i] & allowed).count("1")
            if d > deg:
                v, deg = i, d
            a ^= low
        bit = 1 << v
        rec(allowed & ~bit & ~conflict[v], size + 1)
        rec(allowed & ~bit, size)

    rec((1 << m) - 1, 0)
    return best


def _exact_covering(dist: np.ndarray, t: float, incumbent: int) -> int:
    m = dist.shape[0]
    balls = _ball_masks(dist, t)
    max_ball = max(bin(b).count("1") for b in balls)
    best = incumbent

    def rec(uncovered: int, used: int) -> None:
        nonlocal best
        if uncovered == 0:
            if used < best:
                best = used
            return
        need = bin(uncovered).count("1")
        if used + math.ceil(need / max_ball) >= best:
            return
        # branch on the uncovered point with the fewest covering balls
        p, options = -1, m + 1
        u = uncovered
        while u:
            low = u & -u
            i = low.bit_length() - 1
            cnt = sum(1 for b in balls if b & low)
            if cnt < options:
                p, options = i, cnt
            u ^= low
        cands = [i for i in range(m) if balls[i] & (1 << p)]
        cands.sort(key=lambda i: -bin(balls[i] & uncovered).count("1"))
        for i in cands:
            rec(uncovered & ~balls[i], used + 1)

    rec((1 << m) - 1, 0)
    return best


def covering_estimate(F: FunctionClass, t: float) -> CoveringEstimate:
    """Packing and covering bounds at scale t, exact where the caps allow:
    packing for m <= _EXACT_PACKING_MAX, covering for m <= _EXACT_COVERING_MAX."""
    t = check_positive(t, "scale t")
    dist = pairwise_l2_distances(F)
    greedy_pack = len(_greedy_packing(dist, t))
    greedy_cover = len(_greedy_covering(dist, t))
    exact_pack = _exact_packing(dist, t) if F.m <= _EXACT_PACKING_MAX else None
    exact_cover = _exact_covering(dist, t, greedy_cover) if F.m <= _EXACT_COVERING_MAX else None
    return CoveringEstimate(
        t=t,
        packing_lower=greedy_pack,
        covering_upper=greedy_cover,
        exact_packing=exact_pack,
        exact_covering=exact_cover,
    )


@dataclass(frozen=True)
class EntropyAuditRow:
    t: float
    log_covering: float
    covering: int
    covering_is_exact: bool
    vc: int
    term: float | None


@dataclass(frozen=True)
class EntropyAudit:
    constant: FittedConstant
    rows: tuple[EntropyAuditRow, ...]
    c_assumed: float
    flags: tuple[str, ...]


def entropy_inequality_audit(F: FunctionClass, t_grid, c_assumed: float = 0.25) -> EntropyAudit:
    """Fit K in  log N(F, t) <= K * vc(F, c t) * log(2/t)  over a t grid.

    Uses the exact covering number when the class has at most
    _EXACT_COVERING_MAX functions, otherwise the greedy upper bound.  Scales with vc = 0 must have a
    single-ball cover (N = 1); anything else is flagged VC_ZERO_ANOMALY
    and skipped.
    """
    grid = [float(t) for t in np.atleast_1d(np.asarray(t_grid, dtype=float))]
    if not grid:
        raise InputError("BAD_INPUT", "t grid must be nonempty")
    for t in grid:
        if not (0.0 < t < 1.0):
            raise InputError("BAD_INPUT", f"grid scales must lie in (0, 1), got {t}")
    c_assumed = check_positive(c_assumed, "c_assumed", "BAD_CONSTANT")
    check_bounded_by_one(F.values, "the audited class")

    rows: list[EntropyAuditRow] = []
    flags: set[str] = set()
    k_fit = 0.0
    dist = pairwise_l2_distances(F)
    is_exact = F.m <= _EXACT_COVERING_MAX
    for t, res in zip(grid, vc_dimensions(F, [c_assumed * t for t in grid])):
        n_cover = len(_greedy_covering(dist, t))
        if is_exact:
            n_cover = _exact_covering(dist, t, n_cover)
        vc = res.dimension
        log_n = math.log(n_cover)
        if vc == 0:
            term = None
            if n_cover > 1:
                flags.add("VC_ZERO_ANOMALY")
        else:
            term = log_n / (vc * math.log(2.0 / t))
            k_fit = max(k_fit, term)
        rows.append(EntropyAuditRow(t, log_n, n_cover, is_exact, vc, term))

    exact_note = "exact" if all(r.covering_is_exact for r in rows) else "greedily bounded"
    protocol = (
        f"max over t in {grid} of log N(F, t) / (vc(F, {c_assumed} t) log(2/t)); "
        f"covering numbers {exact_note}"
    )
    constant = FittedConstant(
        name="K_entropy",
        value=k_fit,
        protocol=protocol,
        inputs_digest=digest_inputs(F.values, np.asarray(grid), c_assumed),
    )
    return EntropyAudit(constant=constant, rows=tuple(rows), c_assumed=c_assumed,
                        flags=tuple(sorted(flags)))
