"""Constant-coefficient cohomological equation on the torus.

Solves d_omega phi = g - <g> mode by mode: phi_hat(k) = g_hat(k) / (2 pi i
k . omega), phi_hat(0) = 0.  The zero mode of g is the obstruction; it is
returned alongside so callers can deal with it (Newton steps cancel it
through the counterterm in the tangent direction).

omega is a FrequencyVector, certified |k . omega| >= gamma |k|_1^-sigma
for 0 < |k|_1 <= horizon on the same floating-point k . omega.  The solve
checks that every retained mode lies inside the horizon and trusts the
bound there; it keeps the resonance guard |k . omega| >= RESONANCE_TOL
for a certified but near-resonant omega, and reports the divisors met.

The solve works on the stored k_n >= 0 half of the map.  Everything that
depends only on (n, M, omega) is one read-only table, cached per those
three (_DivisorTable).  A call takes the live modes (nonzero, k != 0)
and reads its checks off the table: the largest live |k|_1 is one
masked maximum and the least divisor the first live mode in the table's
fixed divisor order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diophantine import FrequencyVector
from .fourier import FourierMap, _grid_major, _range_first, canonical, half_wavevectors

__all__ = ["CohomologySolution", "DivisorReport", "solve_cohomological"]

RESONANCE_TOL = 1e-14


@dataclass(frozen=True)
class DivisorReport:
    """Small divisors met while solving: the honest conditioning record."""

    min_divisor: float
    worst_k: tuple
    max_amplification: float
    max_order: int


@dataclass(frozen=True)
class CohomologySolution:
    solution: FourierMap
    average: np.ndarray
    report: DivisorReport


@dataclass(frozen=True)
class _DivisorTable:
    """Per-mode data of the solve over the stored half, every array read-only.

    order is |k|_1 and adiv |k . omega|.  canonical_k is the canonical
    member of each mode's conjugate pair, the k that messages and reports
    name, and rank its position in the full centered grid, so the first
    offending pair in k order is the one with the least rank.  The named
    modes are those with k != 0 that stand for one pair each (k_n > 0, and
    the canonical member on the k_n = 0 plane); div_rank is the position of
    each named mode in the fixed order by (|k . omega|, rank), and the size
    of the half for the rest.  resonant marks the named modes that fail
    the resonance guard.  divisor is 2 pi i k . omega, 1 where
    k . omega = 0.
    """

    order: np.ndarray
    adiv: np.ndarray
    canonical_k: np.ndarray
    rank: np.ndarray
    div_rank: np.ndarray
    resonant: np.ndarray
    divisor: np.ndarray


@lru_cache(maxsize=32)
def _divisor_table(dim_domain: int, trunc_order: int, omega: tuple) -> _DivisorTable:
    """The solve's table, cached per (n, M, omega)."""
    m = trunc_order
    ks = half_wavevectors(dim_domain, m)
    order = np.abs(ks).sum(axis=-1)
    div = ks @ np.array(omega, dtype=float)
    adiv = np.abs(div)
    is_canonical = canonical(ks)
    # |div| is even in k, so one member of each pair names it
    named = (is_canonical | (ks[..., -1] > 0)) & (order > 0)
    canonical_k = np.where(is_canonical[..., None], ks, -ks)
    rank = np.ravel_multi_index(tuple(np.moveaxis(canonical_k + m, -1, 0)),
                                (2 * m + 1,) * dim_domain)
    by_div = np.lexsort((rank.ravel(), adiv.ravel(), ~named.ravel()))
    div_rank = np.empty(order.shape, dtype=np.intp)
    div_rank.flat[by_div] = np.arange(div_rank.size)
    div_rank[~named] = div_rank.size
    divisor = np.where(div != 0, 2j * np.pi * div, 1.0)
    table = _DivisorTable(order, adiv, canonical_k, rank, div_rank,
                          named & (adiv < RESONANCE_TOL), divisor)
    for value in table.__dict__.values():
        value.flags.writeable = False
    return table


def solve_cohomological(g: FourierMap, omega: FrequencyVector) -> CohomologySolution:
    """Solve d_omega phi = g - <g> with <phi> = 0.

    omega's Diophantine horizon must cover every retained mode; within
    it its certificate bounds each divisor below by gamma |k|_1^-sigma.
    """
    if not isinstance(omega, FrequencyVector):
        raise TypeError(f"omega must be a FrequencyVector, got {type(omega).__name__}")
    n = g.dim_domain
    if omega.omega.size != n:
        raise ValueError(f"frequency has {omega.omega.size} components, "
                         f"map domain is T^{n}")
    table = _divisor_table(n, g.trunc_order, tuple(omega.omega.tolist()))
    # the live modes: nonzero amplitude and k != 0
    half = _range_first(g.half, len(g.range_shape))
    live = np.logical_or.reduce(half.reshape((-1,) + table.order.shape) != 0, 0)
    live[g._zero_mode()] = False
    max_order = int(np.maximum.reduce(table.order, None, where=live, initial=0))
    if max_order > omega.horizon:
        raise ValueError(
            f"retained modes reach |k|_1 = {max_order} but the Diophantine "
            f"certificate only covers |k|_1 <= {omega.horizon}"
        )
    adiv = table.adiv
    # the first live named mode in the divisor order has the least |k.omega|
    worst = int(np.where(live, table.div_rank, table.div_rank.size).argmin())
    named = table.div_rank.flat[worst] < table.div_rank.size
    min_div = float(adiv.flat[worst]) if named else np.inf
    if min_div < RESONANCE_TOL:
        # the first resonant pair in k order
        bad = live & table.resonant
        rank = np.where(bad, table.rank, np.iinfo(table.rank.dtype).max)
        i = np.unravel_index(np.argmin(rank), bad.shape)
        raise ValueError(
            f"resonant mode k = {tuple(table.canonical_k[i].tolist())}: "
            f"|k.omega| = {adiv[i]:.3e} below {RESONANCE_TOL:.0e}, "
            "equation is not solvable"
        )
    worst_k = tuple(table.canonical_k.reshape(-1, n)[worst].tolist()) if named else ()
    max_amp = 1.0 / (2 * np.pi * min_div) if named else 0.0
    phi = np.zeros(half.shape, dtype=complex)
    np.divide(half, table.divisor, out=phi, where=live)
    return CohomologySolution(
        solution=FourierMap._wrap(n, _grid_major(phi, len(g.range_shape))),
        average=g.average(),
        report=DivisorReport(min_div, worst_k, max_amp, max_order),
    )
