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

For n >= 2 the scan runs over blocks of consecutive wavevectors in that
order, at most _BLOCK of them each, one margin pass per block.  A block
is a run of heads (shell s, first component k_0 >= 0), so a large shell
is cut between first components; each head expands in one numpy pass to
every k with that shell and first component, and a row that is not
canonical (possible only at k_0 = 0) gets an infinite margin.  The
winner is the smallest margin, ties going to the smallest shell and then
to the lexicographically first k; only the tied rows are sorted.
k . omega is the matrix product ks @ omega that the cohomology's divisor
table takes too, so a certified margin and a divisor are the same
floating-point number.
"""

from __future__ import annotations

import math
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


# wavevectors per scan block (one head may hold more)
_BLOCK = 1 << 16


def _completions(m: int, t: int) -> int:
    """Integer vectors of m components with |v|_1 == t."""
    if t == 0:
        return 1
    return sum(2**j * math.comb(m, j) * math.comb(t - 1, j - 1)
               for j in range(1, min(m, t) + 1))


def _head_blocks(n: int, horizon: int):
    """The scan's blocks as (shell, first) head arrays, in scan order.

    A head (s, k_0) stands for every k with |k|_1 = s and first component
    k_0 >= 0; a block takes consecutive heads while they stand for at most
    _BLOCK vectors, and a head that alone stands for more is a block.  A
    block of one vector is the head (s, s), k = (s, 0, ..., 0), whose dot
    with omega rounds the same on every path.
    """
    per_first = np.array([_completions(n - 1, t) for t in range(horizon + 1)])
    ranges, size = [], 0
    for s in range(1, horizon + 1):
        # cum[v]: the vectors of heads k_0 = 0..v-1 of shell s
        cum = np.concatenate([[0], np.cumsum(per_first[s::-1])])
        start = 0
        while start <= s:
            # heads start..stop-1 fill what the block has left; a block that
            # fills before the shell ends is complete
            stop = int(np.searchsorted(cum, cum[start] + _BLOCK - size, side="right")) - 1
            if stop == start and not size:
                stop += 1
            if stop > start:
                ranges.append((s, start, stop))
                size += cum[stop] - cum[start]
                start = stop
            if start <= s:
                yield _heads(ranges)
                ranges, size = [], 0
    if ranges:
        yield _heads(ranges)


def _heads(ranges):
    """(shell, first) arrays of (s, lo, hi) ranges, first running over lo..hi-1."""
    s, lo, hi = np.array(ranges).T
    count = hi - lo
    starts = np.cumsum(count) - count
    return np.repeat(s, count), np.arange(count.sum()) - np.repeat(starts - lo, count)


def _expand(n: int, shells: np.ndarray, firsts: np.ndarray):
    """(ks, shell per row): every k of each head, canonical or not."""
    heads = firsts[:, None]
    budget = shells - firsts
    # each row's next component runs over -budget..budget, the budget that
    # row has left; the last component takes the remainder with either sign
    for _ in range(n - 2):
        width = 2 * budget + 1
        rows = np.repeat(np.arange(len(heads)), width)
        v = np.arange(rows.size) - np.repeat(np.cumsum(width) - width + budget, width)
        heads = np.column_stack([heads[rows], v])
        budget = budget[rows] - np.abs(v)
        shells = shells[rows]
    pos = budget > 0
    m = len(heads)
    ks = np.empty((m + np.count_nonzero(pos), n), dtype=np.int64)
    ks[:m, :-1] = heads
    ks[:m, -1] = budget
    ks[m:, :-1] = heads[pos]
    ks[m:, -1] = -budget[pos]
    return ks, np.concatenate([shells, shells[pos]])


def _shell_vectors(n: int, shell: int) -> np.ndarray:
    """Canonical wavevectors with |k|_1 == shell (n >= 2), in scan order."""
    ks, _ = _expand(n, np.full(shell + 1, shell), np.arange(shell + 1))
    ks = ks[canonical(ks)]
    return ks[np.lexsort(ks.T[::-1])]


def _scan(omega: np.ndarray, sigma: float, horizon: int):
    """Exhaustive margin scan; returns (worst_margin, worst_k).

    Within a block the tied rows are sorted by shell, then
    lexicographically; blocks come in scan order, and a later block
    replaces the winner only with a strictly smaller margin.
    """
    n = omega.size
    if n == 1:
        margins = _margins_1d(float(omega[0]), horizon, sigma)
        idx = int(np.argmin(margins))
        return float(margins[idx]), (idx + 1,)
    worst = np.inf
    worst_k: tuple[int, ...] = (0,) * n
    for shells, firsts in _head_blocks(n, horizon):
        ks, shell = _expand(n, shells, firsts)
        lo = int(shells[0])
        weight = np.array([float(s) ** sigma for s in range(lo, int(shells[-1]) + 1)])
        margins = np.abs(ks.astype(float) @ omega) * weight[shell - lo]
        zero = np.flatnonzero(ks[:, 0] == 0)  # the only rows that can be non-canonical
        margins[zero[~canonical(ks[zero])]] = np.inf
        best = margins.min()
        if best < worst:
            tied = np.flatnonzero(margins == best)
            j = tied[np.lexsort((*ks[tied].T[::-1], shell[tied]))[0]]
            worst, worst_k = float(best), tuple(int(v) for v in ks[j])
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
