"""Rank certificates from Hankel bounds and finite-rank detection.

A certificate records a threshold t for a state and an integer r with the
guarantee: any eps < t implies the eps-approximate coherent state rank
exceeds r.  Finite coherent rank shows up numerically as saturation of the
Hankel rank when the truncation parameter N grows; states whose rescaled
amplitudes obey no linear recurrence (e.g. squeezed vacua) stay full rank
for every N.
"""

import math
from dataclasses import dataclass, field

from scipy.special import gammaln

from . import __version__
from .fock import FockVector
from .hankel import (
    DEFAULT_RANK_TOL,
    SearchConfig,
    hankel_matrix,
    numerical_rank,
    optimized_bound,
)

STATEMENT = "any eps < epsilon_threshold implies kappa_eps(state) > r"


@dataclass(frozen=True)
class BoundCertificate:
    """Machine-checkable record of a certified rank lower bound."""

    state_descriptor: dict | None
    r: int
    epsilon_threshold: float
    method: str  # "plain" | "optimized" | "analytic_fock"
    N: int | None
    b: float | None
    statement: str = STATEMENT
    version: str = field(default=__version__)

    def __post_init__(self):
        if self.epsilon_threshold < 0:
            raise ValueError("epsilon_threshold must be non-negative")
        if self.r < 0:
            raise ValueError("r must be non-negative")
        if self.method not in ("plain", "optimized", "analytic_fock"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "analytic_fock":
            d = self.state_descriptor
            if not (isinstance(d, dict) and d.get("type") == "fock"):
                raise ValueError("analytic_fock applies to Fock-state descriptors only")

    def to_dict(self) -> dict:
        return {
            "state_descriptor": self.state_descriptor,
            "r": self.r,
            "epsilon_threshold": self.epsilon_threshold,
            "method": self.method,
            "parameters": {"N": self.N, "b": self.b},
            "statement": self.statement,
            "version": self.version,
        }


@dataclass(frozen=True)
class RecurrenceReport:
    """Numerical-rank trace of H_N for N = 1..N_max."""

    detected_order: int | None
    ranks_by_N: tuple
    saturated: bool


def fock_analytic_threshold(n: int) -> float:
    """n! / (2 (n+1) (2n)!), evaluated in the log domain."""
    if n < 0:
        raise ValueError("Fock number must be non-negative")
    return math.exp(
        float(gammaln(n + 1)) - math.log(2.0) - math.log(n + 1) - float(gammaln(2 * n + 1))
    )


def certify_rank(
    psi: FockVector,
    epsilon: float,
    cfg: SearchConfig | None = None,
    state_descriptor: dict | None = None,
) -> BoundCertificate:
    """Largest r whose optimized bound exceeds epsilon, i.e. kappa_eps >= r+1.

    The bound is non-increasing in r (the singular-value tail shrinks), so
    the upward search stops at the first failure.  Returns r = 0 with a zero
    threshold when not even r = 1 is certified.
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    if cfg is None:
        cfg = SearchConfig()
    n_max = cfg.resolve_n_max(psi.cutoff)

    best = None
    for r in range(1, n_max + 1):
        res = optimized_bound(psi, r, cfg)
        if res.value > epsilon:
            best = (r, res)
        else:
            break
    if best is None:
        return BoundCertificate(state_descriptor, 0, 0.0, "optimized", None, None)
    r, res = best
    return BoundCertificate(state_descriptor, r, res.value, "optimized", res.N_star, res.b_star)


def recurrence_order(
    psi: FockVector, N_max: int, rel_tol: float = DEFAULT_RANK_TOL
) -> RecurrenceReport:
    """Detect a finite linear-recurrence order from Hankel rank saturation.

    The rank of H_N (b = 1) is recorded for N = 1..N_max.  Saturation is
    declared when the last three ranks coincide and sit strictly below full
    rank; a single coincidence can be accidental at tight tolerances.  A
    full-rank value at N_max means no finite order is certified (squeezed
    states behave this way for every N).

    ``rel_tol`` trades false saturation against false full-rank calls:
    superpositions with nearly coincident displacements push sigma_k toward
    the threshold from above, while graded full-rank states (squeezed vacua)
    push sigma_{N+1} toward it from below (about 2e-8 relative at N = 10 for
    squeezing 0.5).  The 1e-10 default sits well clear of both at desk scale,
    but near-degenerate inputs warrant a sweep over rel_tol.
    """
    if N_max < 1:
        raise ValueError("N_max must be at least 1")
    if psi.cutoff < 2 * N_max:
        raise ValueError(f"cutoff {psi.cutoff} < 2 N_max = {2 * N_max}")
    ranks = tuple(
        (N, numerical_rank(hankel_matrix(psi, N, 1.0), rel_tol))
        for N in range(1, N_max + 1)
    )
    tail = [rank for _, rank in ranks[-3:]]
    saturated = (
        len(ranks) >= 3
        and tail[0] == tail[1] == tail[2]
        and tail[-1] < N_max + 1
    )
    return RecurrenceReport(tail[-1] if saturated else None, ranks, saturated)


def analytic_fock_certificate(n: int, r: int | None = None) -> BoundCertificate:
    """Analytic certificate for |n>: kappa_eps = n+1 below the threshold."""
    if r is None:
        r = n
    if r != n:
        raise ValueError("the analytic Fock threshold is stated at r = n")
    return BoundCertificate(
        {"type": "fock", "n": n}, n, fock_analytic_threshold(n), "analytic_fock", n, 1.0
    )
