"""Constant-coefficient cohomological equation on the torus.

Solves d_omega phi = g - <g> mode by mode: phi_hat(k) = g_hat(k) / (2 pi i
k . omega), phi_hat(0) = 0.  The zero mode of g is the obstruction; it is
returned alongside so callers can deal with it (Newton steps cancel it
through the counterterm in the tangent direction).

Every retained mode must sit inside the horizon of a verified Diophantine
certificate for the small-divisor bound to mean anything; this module
enforces that and reports the divisors actually encountered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diophantine import FrequencyVector
from .fourier import FourierMap, canonical, wavevectors

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
    ks = wavevectors(g.dim_domain, g.trunc_order)
    order = np.abs(ks).sum(axis=-1)
    live = g.support() & (order > 0)
    max_order = int(order[live].max(initial=0))
    if cert and max_order > omega.horizon:
        raise ValueError(
            f"retained modes reach |k|_1 = {max_order} but the Diophantine "
            f"certificate only covers |k|_1 <= {omega.horizon}"
        )
    div = ks @ om
    adiv = np.abs(div)
    # |div| is even in k, so the canonical half names every offending mode
    named = live & canonical(ks)

    def first(bad):
        i = np.unravel_index(np.argmax(bad), bad.shape)  # first in k order
        return tuple(ks[i].tolist()), i

    resonant = named & (adiv < RESONANCE_TOL)
    if resonant.any():
        k, i = first(resonant)
        raise ValueError(
            f"resonant mode k = {k}: |k.omega| = {adiv[i]:.3e} below "
            f"{RESONANCE_TOL:.0e}, equation is not solvable"
        )
    if cert:
        floor = omega.gamma * np.where(live, order, 1.0) ** (-omega.sigma)
        low = named & (adiv < floor * (1 - 1e-12))
        if low.any():
            k, i = first(low)
            raise ValueError(
                f"divisor |k.omega| = {adiv[i]:.3e} at k = {k} violates the "
                f"certified bound gamma |k|^-sigma = {floor[i]:.3e}"
            )
    if named.any():
        worst = np.argmin(np.where(named, adiv, np.inf))
        min_div = float(adiv.flat[worst])
        worst_k = tuple(ks.reshape(-1, g.dim_domain)[worst].tolist())
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
    divisor = np.where(live, 2j * np.pi * div, 1.0)[per_mode]
    phi = np.where(live[per_mode], g.coeffs / divisor, 0.0)
    return CohomologySolution(
        solution=FourierMap._wrap(g.dim_domain, phi),
        average=g.average(),
        report=report,
    )
