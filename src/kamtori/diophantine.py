"""Finite-horizon Diophantine verification of frequency vectors.

A frequency vector omega passes at (gamma, sigma) up to horizon K when
every wavevector k with 0 < |k|_1 <= K satisfies

    margin(k) := divisor(k) * |k|_1^sigma >= gamma.

For n >= 2 the divisor is |k . omega|.  For n = 1 a single flow frequency
has no small divisors, so the scan measures |k omega - nearest integer|
instead (the frequency relative to the unit base frequency); that margin
is a lower bound for |k omega| as well, so certificates remain valid for
the cohomological equation.  The scan is exhaustive and deterministic:
shells of constant |k|_1 in increasing order, lexicographic within a
shell, one representative per conjugate pair (first nonzero component
positive).

For n >= 2 the scan runs over prefixes.  Write k = (p, t), p the first
n - 1 components (canonical or zero) and t the last, and let
t* = -(p . omega') / omega_n (t* = 0 when omega_n = 0).  Then
f(t) = |p . omega' + t omega_n| (|p|_1 + |t|)^sigma is nondecreasing for
t >= max(0, t*) and nonincreasing for t <= min(0, t*); in between it is
the product of a nonnegative affine function and the sigma-th power of
another, so log-concave, and its least value there is at an end.  Hence
the least margin over |t| <= K - |p|_1 lies among floor(t*) - 1 ..
floor(t*) + 2 and -1, 0, 1, clipped to that range; the outer two
neighbours of t* absorb its rounding.  For p = 0 only t = 1 is canonical
and least.  At n = 2 the prefixes are one array; at n >= 3 each first
component is a block.  The winner is the smallest margin, ties going to
the smallest shell and then to the lexicographically first k, the least
(margin, shell, k) over the blocks.  k . omega is the matrix product
ks @ omega that the cohomology's divisor table takes too, so a certified
margin and a divisor are the same floating-point number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fourier import canonical

__all__ = [
    "DiophantineReport",
    "FrequencyVector",
    "check_diophantine",
    "estimate_gamma",
]

_TINY_GAMMA = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class DiophantineReport:
    passed: bool
    gamma: float
    sigma: float
    horizon: int
    worst_k: tuple[int, ...]
    worst_margin: float
    resonant: bool

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return (
            f"diophantine {verdict}: worst k={self.worst_k} "
            f"margin={self.worst_margin:.6e} (gamma={self.gamma:.6e}, "
            f"sigma={self.sigma}, horizon={self.horizon})"
        )


def _validate(omega: np.ndarray, sigma: float, horizon: int) -> None:
    n = omega.size
    if n < 1:
        raise ValueError("omega must have at least one component")
    if not np.all(np.isfinite(omega)) or np.all(omega == 0):
        raise ValueError("omega must be a finite nonzero vector")
    if sigma <= n - 1:
        raise ValueError(f"sigma must exceed n - 1 = {n - 1}, got {sigma}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")


def _margins_1d(omega: float, horizon: int, sigma: float) -> np.ndarray:
    k = np.arange(1, horizon + 1, dtype=float)
    frac = k * omega
    divisor = np.abs(frac - np.round(frac))
    return divisor * k**sigma


def _ball(d: int, radius: int) -> np.ndarray:
    """Every integer d-vector v with |v|_1 <= radius, one per row."""
    ball = np.zeros((1, 0), dtype=np.int64)
    budget = np.array([radius])
    # each row's next component runs over -budget..budget, the budget it has left
    for _ in range(d):
        width = 2 * budget + 1
        rows = np.repeat(np.arange(len(ball)), width)
        v = np.arange(rows.size) - np.repeat(np.cumsum(width) - width + budget, width)
        ball = np.column_stack([ball[rows], v])
        budget = budget[rows] - np.abs(v)
    return ball


def _prefix_blocks(n: int, horizon: int):
    """The (n-1)-prefixes p, canonical or zero, with |p|_1 <= horizon, in blocks."""
    if n == 2:
        yield np.arange(horizon + 1)[:, None]
        return
    for first in range(horizon + 1):
        rest = _ball(n - 2, horizon - first)
        if first == 0:
            rest = rest[canonical(rest)]
        yield np.column_stack([np.full(len(rest), first), rest])


def _scan(omega: np.ndarray, sigma: float, horizon: int):
    """Exhaustive margin scan; returns (worst_margin, worst_k).

    For n >= 2, each block of prefixes p offers the few last components t
    that can minimise the margin of k = (p, t) (module docstring); the
    least (margin, shell, k) over the blocks wins.
    """
    n = omega.size
    if n == 1:
        margins = _margins_1d(float(omega[0]), horizon, sigma)
        idx = int(np.argmin(margins))
        return float(margins[idx]), (idx + 1,)
    weight = np.array([float(s) ** sigma for s in range(horizon + 1)])
    last = float(omega[-1])
    best: tuple = (np.inf, 0, (0,) * n)
    for prefix in _prefix_blocks(n, horizon):
        size = np.abs(prefix).sum(axis=1)
        reach = (horizon - size)[:, None]
        t_star = np.zeros(len(prefix))
        if last:
            # a t* that overflows is beyond every reach, as the clip takes it
            with np.errstate(over="ignore"):
                t_star = -(prefix.astype(float) @ omega[:-1]) / last
        # t* rounded with a neighbour either side, and -1, 0, 1; |t| <= reach
        around = np.floor(t_star)[:, None] + np.arange(-1, 3)
        ts = np.column_stack([around, np.tile(np.arange(-1, 2), (len(prefix), 1))])
        ts = np.clip(ts, -reach, reach).astype(np.int64)
        ts[size == 0] = 1  # k = (0, ..., 0, t) is canonical for t > 0 only
        ks = np.column_stack([np.repeat(prefix, ts.shape[1], axis=0), ts.ravel()])
        shell = np.repeat(size, ts.shape[1]) + np.abs(ts.ravel())
        margins = np.abs(ks.astype(float) @ omega) * weight[shell]
        tied = np.flatnonzero(margins == margins.min())
        j = tied[np.lexsort((*ks[tied].T[::-1], shell[tied]))[0]]
        best = min(best, (float(margins[j]), int(shell[j]), tuple(int(v) for v in ks[j])))
    return best[0], best[2]


def check_diophantine(
    omega, gamma: float, sigma: float, horizon: int
) -> DiophantineReport:
    """Exhaustively verify the Diophantine bound up to the horizon."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    _validate(omega, sigma, horizon)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    worst, worst_k = _scan(omega, sigma, horizon)
    return DiophantineReport(
        passed=bool(worst >= gamma),
        gamma=float(gamma),
        sigma=float(sigma),
        horizon=int(horizon),
        worst_k=worst_k,
        worst_margin=worst,
        resonant=bool(worst == 0.0),
    )


def estimate_gamma(omega, sigma: float, horizon: int) -> float:
    """Largest gamma the finite scan can certify (the minimal margin)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    _validate(omega, sigma, horizon)
    worst, _ = _scan(omega, sigma, horizon)
    return worst


@dataclass(frozen=True)
class FrequencyVector:
    """A frequency vector with a finite-horizon Diophantine certificate.

    Construction verifies the bound by exhaustive scan and raises on
    failure, so holding a FrequencyVector means the certificate was
    checked.  ``unchecked`` skips the scan for expert use (for instance
    to demonstrate resonant failure modes downstream).
    """

    omega: np.ndarray
    gamma: float
    sigma: float
    horizon: int
    verified: bool = True

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float)).copy()
        omega.flags.writeable = False
        object.__setattr__(self, "omega", omega)
        _validate(omega, self.sigma, self.horizon)
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.verified:
            _require(check_diophantine(omega, self.gamma, self.sigma, self.horizon))

    @property
    def dim(self) -> int:
        return int(self.omega.size)

    @classmethod
    def unchecked(cls, omega, gamma: float, sigma: float, horizon: int):
        return cls(omega, gamma, sigma, horizon, verified=False)

    @classmethod
    def estimated(cls, omega, sigma: float, horizon: int, safety: float = 1.0):
        """Build with gamma set to the scan minimum (scaled by safety).

        One scan both estimates and verifies: checked at the smallest
        positive gamma, the report's worst margin is the estimate, and
        gamma = safety * margin passes iff it does not exceed the margin.
        """
        scan = check_diophantine(omega, _TINY_GAMMA, sigma, horizon)
        gamma = scan.worst_margin * safety
        if gamma <= 0:
            raise ValueError("omega is resonant within the horizon")
        _require(replace(scan, gamma=gamma, passed=bool(scan.worst_margin >= gamma)))
        freq = cls.unchecked(omega, gamma, sigma, horizon)
        object.__setattr__(freq, "verified", True)  # the scan above checked it
        return freq


def _require(report: DiophantineReport) -> None:
    """Raise the named failure of a report that did not pass."""
    if not report.passed:
        raise ValueError(
            f"omega fails the Diophantine bound: worst k={report.worst_k} "
            f"margin={report.worst_margin:.3e} < gamma={report.gamma:.3e}"
        )
