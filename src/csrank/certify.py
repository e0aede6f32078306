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

from . import __version__
from .fock import FockVector, int_field, log_factorial, object_field, real_field
from .hankel import (
    DEFAULT_RANK_TOL,
    SearchConfig,
    check_hankel_size,
    hankel_matrix,
    numerical_rank,
    optimized_bounds,
    plain_bound,
    rescaled_bound,
)

STATEMENT = "any eps < epsilon_threshold implies kappa_eps(state) > r"

METHODS = ("plain", "optimized", "analytic_fock")


@dataclass(frozen=True)
class BoundCertificate:
    """Machine-checkable record of a certified rank lower bound.

    ``to_dict`` writes the certificate format and ``from_dict`` reads it back;
    construction validates it either way, and ``recompute`` re-derives the
    threshold from the stored method and parameters alone.
    """

    state_descriptor: dict | None
    r: int
    epsilon_threshold: float
    method: str  # one of METHODS
    N: int | None
    b: float | None
    statement: str = STATEMENT
    version: str = field(default=__version__)

    def __post_init__(self):
        if not 0 <= self.epsilon_threshold < math.inf:
            raise ValueError("epsilon_threshold must be finite and non-negative")
        if self.r < 0:
            raise ValueError("r must be non-negative")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.r > 0 and self.N is None:
            raise ValueError("a certificate with r > 0 needs N")
        if self.method == "optimized" and self.N is not None and self.b is None:
            raise ValueError("an optimized certificate needs b")
        if self.method == "analytic_fock":
            d = self.state_descriptor
            if not (isinstance(d, dict) and d.get("type") == "fock"):
                raise ValueError("analytic_fock applies to Fock-state descriptors only")
            if int_field(d.get("n"), "n") != self.r:
                raise ValueError("the analytic Fock threshold is stated at r = n")
            # the analytic certificate names its state by type and n alone
            object.__setattr__(self, "state_descriptor", {"type": "fock", "n": self.r})

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

    @classmethod
    def from_dict(cls, stored) -> "BoundCertificate":
        """Read a ``to_dict`` certificate; keys it does not write are ignored."""
        stored = object_field(stored, "certificate")
        params = object_field(stored.get("parameters") or {}, "parameters")
        n, b = params.get("N"), params.get("b")
        return cls(
            object_field(stored["state_descriptor"], "state_descriptor"),
            int_field(stored["r"], "r"),
            real_field(stored["epsilon_threshold"], "epsilon_threshold"),
            stored["method"],
            None if n is None else int_field(n, "N"),
            None if b is None else real_field(b, "b"),
            **{key: stored[key] for key in ("statement", "version") if key in stored},
        )

    def recompute(self, load_state) -> float:
        """The threshold re-derived from the method and parameters alone;
        ``load_state(descriptor, N)`` builds the state that H_N needs."""
        if self.N is None:  # r = 0: nothing certified
            return 0.0
        if self.method == "analytic_fock":
            return fock_analytic_threshold(self.r)
        psi = load_state(self.state_descriptor, self.N)
        if self.method == "plain":
            return plain_bound(psi, self.r, self.N)
        return rescaled_bound(psi, self.r, self.N, self.b)


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
    if n >= 200:  # n! / (2n)! < (n + 1)^-n < 1e-460, below the smallest positive double
        return 0.0
    return math.exp(
        log_factorial(n) - math.log(2.0) - math.log(n + 1) - log_factorial(2 * n)
    )


def certify_rank(
    psi: FockVector,
    epsilon: float,
    cfg: SearchConfig | None = None,
    state_descriptor: dict | None = None,
) -> BoundCertificate:
    """Largest r whose optimized bound exceeds epsilon, i.e. kappa_eps >= r+1.

    One search gives the bound for every r = 1..N_max.  The bound is
    non-increasing in r (the singular-value tail shrinks), so the upward
    selection stops at the first failure.  Returns r = 0 with a zero
    threshold when not even r = 1 is certified.
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    if cfg is None:
        cfg = SearchConfig()
    n_max = cfg.resolve_n_max(psi.cutoff)
    bounds = optimized_bounds(psi, range(1, n_max + 1), cfg)

    r = 0
    while r < n_max and bounds[r + 1].value > epsilon:
        r += 1
    if r == 0:
        return BoundCertificate(state_descriptor, 0, 0.0, "optimized", None, None)
    res = bounds[r]
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
    check_hankel_size(N_max)
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


def analytic_fock_certificate(n: int) -> BoundCertificate:
    """Analytic certificate for |n>: kappa_eps = n+1 below the threshold (r = n)."""
    return BoundCertificate(
        {"type": "fock", "n": n}, n, fock_analytic_threshold(n), "analytic_fock", n, 1.0
    )
