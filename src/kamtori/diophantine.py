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

For n >= 2 each shell |k|_1 = s is one integer array, built in one numpy
pass: the first n - 1 components range over every choice within the
budget s, the last takes the remainder with either sign, the rows are
sorted lexicographically, and only the canonical rows are kept.  The scan
holds one shell at a time and keeps the first strict minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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


def _shell_vectors(n: int, shell: int) -> np.ndarray:
    """Canonical wavevectors with |k|_1 == shell (n >= 2), one row each."""
    heads = np.zeros((1, 0), dtype=np.int64)
    budget = np.array([shell])
    # heads: the first n - 1 components; each row's next component runs
    # over -budget..budget, the budget that row has left
    for _ in range(n - 1):
        width = 2 * budget + 1
        rows = np.repeat(np.arange(len(heads)), width)
        v = np.arange(rows.size) - np.repeat(np.cumsum(width) - width + budget, width)
        heads = np.column_stack([heads[rows], v])
        budget = budget[rows] - np.abs(v)
    # the last component takes the remainder, with either sign when nonzero
    pos = budget > 0
    ks = np.vstack([
        np.column_stack([heads, budget]),
        np.column_stack([heads[pos], -budget[pos]]),
    ])
    ks = ks[np.lexsort(ks.T[::-1])]
    # the shell is closed under k -> -k and holds no zero row, so the
    # canonical rows (first nonzero component positive) are the upper half
    return ks[len(ks) // 2 :]


def _scan(omega: np.ndarray, sigma: float, horizon: int):
    """Exhaustive margin scan; returns (worst_margin, worst_k).

    Shells are scanned in increasing |k|_1 and the first strict minimum
    is kept, so ties resolve to the smallest shell, then lexicographically.
    """
    n = omega.size
    if n == 1:
        margins = _margins_1d(float(omega[0]), horizon, sigma)
        idx = int(np.argmin(margins))
        return float(margins[idx]), (idx + 1,)
    worst = np.inf
    worst_k: tuple[int, ...] = (0,) * n
    for shell in range(1, horizon + 1):
        ks = _shell_vectors(n, shell)
        margins = np.abs(ks.astype(float) @ omega) * float(shell) ** sigma
        j = int(np.argmin(margins))
        if margins[j] < worst:
            worst, worst_k = float(margins[j]), tuple(int(v) for v in ks[j])
    return worst, worst_k


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
