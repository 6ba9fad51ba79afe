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
depends only on (n, M, omega) is one read-only table of three arrays,
cached per those three (_divisor_table): |k|_1, |k . omega| and the
divisor 2 pi i k . omega.  A call takes the live modes (nonzero, k != 0)
and reads its checks off the table: the largest live |k|_1 and the least
live |k . omega| are one masked maximum and one masked minimum.  Only a
solve that trips the resonance guard looks for the mode to name, the
first resonant pair in k order by its canonical member; it raises
HypothesisError, status "resonant_divisor", which solve_torus ends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diophantine import FrequencyVector
from .fourier import FourierMap, _grid_major, _range_first, canonical, half_wavevectors

__all__ = ["CohomologySolution", "DivisorReport", "solve_cohomological"]

RESONANCE_TOL = 1e-14


class HypothesisError(ValueError):
    """A hypothesis of the Newton step fails at an iterate.  status names
    the failure and the message gives the number that failed; the solver
    lists every status (solver.HYPOTHESIS_STATUSES)."""

    def __init__(self, status: str, message: str):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class DivisorReport:
    """Small divisors met while solving: the least |k . omega| over the
    live modes (inf with none) and their largest |k|_1."""

    min_divisor: float
    max_order: int


@dataclass(frozen=True)
class CohomologySolution:
    solution: FourierMap
    average: np.ndarray
    report: DivisorReport


@lru_cache(maxsize=32)
def _divisor_table(dim_domain: int, trunc_order: int, omega: tuple) -> tuple:
    """(|k|_1, |k . omega|, 2 pi i k . omega) over the stored half, cached
    per (n, M, omega) and read-only; the divisor is 1 where k . omega = 0."""
    ks = half_wavevectors(dim_domain, trunc_order)
    div = ks @ np.array(omega, dtype=float)
    table = (np.abs(ks).sum(axis=-1), np.abs(div),
             np.where(div != 0, 2j * np.pi * div, 1.0))
    for value in table:
        value.flags.writeable = False
    return table


def solve_cohomological(g: FourierMap, omega: FrequencyVector) -> CohomologySolution:
    """Solve d_omega phi = g - <g> with <phi> = 0.

    omega's Diophantine horizon must cover every retained mode; within
    it its certificate bounds each divisor below by gamma |k|_1^-sigma.
    """
    if not isinstance(omega, FrequencyVector):
        raise TypeError(f"omega must be a FrequencyVector, got {type(omega).__name__}")
    n, m = g.dim_domain, g.trunc_order
    if omega.omega.size != n:
        raise ValueError(f"frequency has {omega.omega.size} components, "
                         f"map domain is T^{n}")
    order, adiv, divisor = _divisor_table(n, m, tuple(omega.omega.tolist()))
    # the live modes: nonzero amplitude and k != 0
    half = _range_first(g.half, len(g.range_shape))
    live = np.logical_or.reduce(half.reshape((-1,) + order.shape) != 0, 0)
    live[g._zero_mode()] = False
    max_order = int(np.maximum.reduce(order, None, where=live, initial=0))
    if max_order > omega.horizon:
        raise ValueError(
            f"retained modes reach |k|_1 = {max_order} but the Diophantine "
            f"certificate only covers |k|_1 <= {omega.horizon}"
        )
    # |k.omega| is even in k, so either member of a pair gives its divisor
    min_div = float(np.minimum.reduce(adiv, None, where=live, initial=np.inf))
    if min_div < RESONANCE_TOL:
        # the first resonant pair in k order, named by its canonical member
        bad = live & (adiv < RESONANCE_TOL)
        ks = half_wavevectors(n, m)[bad]
        named = np.where(canonical(ks)[:, None], ks, -ks)
        k, a = min(zip(map(tuple, named.tolist()), adiv[bad].tolist()))
        raise HypothesisError(
            "resonant_divisor",
            f"resonant mode k = {k}: |k.omega| = {a:.3e} below "
            f"{RESONANCE_TOL:.0e}, equation is not solvable",
        )
    phi = np.zeros(half.shape, dtype=complex)
    np.divide(half, divisor, out=phi, where=live)
    return CohomologySolution(
        solution=FourierMap._wrap(n, _grid_major(phi, len(g.range_shape))),
        average=g.average(),
        report=DivisorReport(min_div, max_order),
    )
