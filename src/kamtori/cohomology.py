"""Constant-coefficient cohomological equation on the torus.

Solves d_omega phi = g - <g> mode by mode: phi_hat(k) = g_hat(k) / (2 pi i
k . omega), phi_hat(0) = 0.  The zero mode of g is the obstruction; it is
returned alongside so callers can deal with it (Newton steps cancel it
through the counterterm in the tangent direction).

Every retained mode must sit inside the horizon of a verified Diophantine
certificate for the small-divisor bound to mean anything; this module
enforces that and reports the divisors actually encountered.

The solve works on the stored k_n >= 0 half of the map.  Everything that
depends only on (n, M, omega, gamma, sigma) is one read-only table, cached
per those five: the half's wavevectors, |k|_1, k . omega, which half modes
name a conjugate pair and by which canonical k, the certified floor
gamma |k|_1^-sigma and the divisors 2 pi i k . omega.  Each call takes the
live modes from the map's support and runs its checks over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diophantine import FrequencyVector
from .fourier import FourierMap, canonical, half_wavevectors

__all__ = ["CohomologySolution", "DivisorReport", "solve_cohomological"]

RESONANCE_TOL = 1e-14


@dataclass(frozen=True)
class DivisorReport:
    """Small divisors met while solving: the honest conditioning record."""

    min_divisor: float
    worst_k: tuple
    max_amplification: float
    max_order: int
    certified: bool

    def __str__(self):
        tag = "certified" if self.certified else "uncertified"
        return (
            f"min |k.omega| = {self.min_divisor:.3e} at k = {self.worst_k}, "
            f"amplification <= {self.max_amplification:.3e} ({tag})"
        )


@dataclass(frozen=True)
class CohomologySolution:
    solution: FourierMap
    average: np.ndarray
    report: DivisorReport


@dataclass(frozen=True)
class _DivisorTable:
    """Per-mode data of the solve over the stored half, every array read-only.

    order is |k|_1 and adiv |k . omega|.  named marks the half modes that
    stand for one conjugate pair each (k_n > 0, and the canonical member of
    each pair on the k_n = 0 plane); canonical_k is the canonical member of
    each mode's pair, the k that messages and reports name, and rank its
    position in the full centered grid, so the first offending pair in k
    order is the one with the least rank.  floor is gamma |k|_1^-sigma
    (None without a certificate), resonant and low the modes that fail the
    resonance guard and that floor, and divisor is 2 pi i k . omega, 1
    where k . omega = 0.
    """

    order: np.ndarray
    adiv: np.ndarray
    named: np.ndarray
    canonical_k: np.ndarray
    rank: np.ndarray
    floor: np.ndarray | None
    resonant: np.ndarray
    low: np.ndarray | None
    divisor: np.ndarray


@lru_cache(maxsize=32)
def _divisor_table(dim_domain: int, trunc_order: int, omega: tuple,
                   gamma: float | None, sigma: float | None) -> _DivisorTable:
    """The solve's table, cached per (n, M, omega, gamma, sigma)."""
    m = trunc_order
    ks = half_wavevectors(dim_domain, m)
    order = np.abs(ks).sum(axis=-1)
    div = ks @ np.array(omega, dtype=float)
    adiv = np.abs(div)
    is_canonical = canonical(ks)
    named = is_canonical | (ks[..., -1] > 0)
    canonical_k = np.where(is_canonical[..., None], ks, -ks)
    rank = np.ravel_multi_index(tuple(np.moveaxis(canonical_k + m, -1, 0)),
                                (2 * m + 1,) * dim_domain)
    floor = low = None
    if gamma is not None:
        floor = gamma * np.where(order > 0, order, 1.0) ** (-sigma)
        low = adiv < floor * (1 - 1e-12)
    divisor = np.where(div != 0, 2j * np.pi * div, 1.0)
    table = _DivisorTable(order, adiv, named, canonical_k, rank, floor,
                          adiv < RESONANCE_TOL, low, divisor)
    for value in table.__dict__.values():
        if value is not None:
            value.flags.writeable = False
    return table


def solve_cohomological(
    g: FourierMap, omega: FrequencyVector | np.ndarray
) -> CohomologySolution:
    """Solve d_omega phi = g - <g> with <phi> = 0.

    Accepts either a verified FrequencyVector (preferred: its scan horizon
    must cover every retained mode, and the gamma |k|^-sigma lower bound is
    checked against the divisors actually used) or a bare frequency array,
    in which case only the resonance guard applies.
    """
    cert = isinstance(omega, FrequencyVector)
    om = np.asarray(omega.omega if cert else omega, dtype=float)
    if om.size != g.dim_domain:
        raise ValueError(
            f"frequency has {om.size} components, map domain is T^{g.dim_domain}"
        )
    table = _divisor_table(
        g.dim_domain, g.trunc_order, tuple(om.tolist()),
        omega.gamma if cert else None, omega.sigma if cert else None,
    )
    live = g.support() & (table.order > 0)
    max_order = int(table.order[live].max(initial=0))
    if cert and max_order > omega.horizon:
        raise ValueError(
            f"retained modes reach |k|_1 = {max_order} but the Diophantine "
            f"certificate only covers |k|_1 <= {omega.horizon}"
        )
    # |div| is even in k, so one member of each live pair names it
    named = live & table.named
    adiv = table.adiv

    def first(bad):
        """The canonical k of the first offending pair in k order."""
        rank = np.where(bad, table.rank, np.iinfo(table.rank.dtype).max)
        i = np.unravel_index(np.argmin(rank), bad.shape)
        return tuple(table.canonical_k[i].tolist()), i

    resonant = named & table.resonant
    if resonant.any():
        k, i = first(resonant)
        raise ValueError(
            f"resonant mode k = {k}: |k.omega| = {adiv[i]:.3e} below "
            f"{RESONANCE_TOL:.0e}, equation is not solvable"
        )
    if cert:
        low = named & table.low
        if low.any():
            k, i = first(low)
            raise ValueError(
                f"divisor |k.omega| = {adiv[i]:.3e} at k = {k} violates the "
                f"certified bound gamma |k|^-sigma = {table.floor[i]:.3e}"
            )
    if named.any():
        live_div = np.where(named, adiv, np.inf)
        min_div = float(live_div.min())
        worst_k, _ = first(live_div == min_div)
        max_amp = 1.0 / (2 * np.pi * min_div)
    else:
        min_div, worst_k, max_amp = np.inf, (), 0.0
    report = DivisorReport(
        min_divisor=min_div,
        worst_k=worst_k,
        max_amplification=max_amp,
        max_order=max_order,
        certified=cert,
    )
    per_mode = (...,) + (None,) * len(g.range_shape)
    phi = np.where(live[per_mode], g.half / table.divisor[per_mode], 0.0)
    return CohomologySolution(
        solution=FourierMap._wrap(g.dim_domain, phi),
        average=g.average(),
        report=report,
    )
