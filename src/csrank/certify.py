"""Rank certificates, every one issued here, and finite-rank detection.

A certificate records a threshold t for a state and an integer r with the
guarantee: any eps < t implies the eps-approximate coherent state rank
exceeds r.  Finite coherent rank shows up numerically as saturation of the
Hankel rank when the truncation parameter N grows; states whose rescaled
amplitudes obey no linear recurrence (e.g. squeezed vacua) stay full rank
for every N.  No function here defaults the truncation N_max: ``certify_rank``
takes a ``SearchConfig`` and ``bound_certificate`` an int, which the CLI's
``--n-max`` supplies (10 for ``certify``, max(r, 10) for ``bound``).
"""

import math
from dataclasses import dataclass, field

from . import __version__
from .fock import FockVector, int_field, log_factorial, object_field, real_field
from .hankel import (
    SearchConfig,
    check_hankel_size,
    check_searchable,
    hankel_matrix,
    numerical_rank,
    optimized_bound,
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
    construction refuses, either way, what no method writes, and ``recompute``
    re-derives the threshold from the stored method and parameters alone.
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
        if (self.N is None) != (self.b is None) or (self.r > 0 and self.N is None):
            raise ValueError("N and b are stored together, and r > 0 needs them")
        if self.method != "optimized" and self.b != 1.0:
            raise ValueError(f"method {self.method} stores b = 1")
        if self.statement != STATEMENT or not isinstance(self.version, str):
            raise ValueError(f"statement must read {STATEMENT!r} and version be a string")
        if self.method == "analytic_fock":
            d = self.state_descriptor
            if not (isinstance(d, dict) and d.get("type") == "fock"):
                raise ValueError("analytic_fock applies to Fock-state descriptors only")
            if int_field(d.get("n"), "n") != self.r or self.N != self.r:
                raise ValueError("the analytic Fock threshold is stated at r = n = N")
            if d.get("cutoff") is not None and int_field(d["cutoff"], "cutoff") < self.r:
                raise ValueError(f"n={self.r} exceeds cutoff={d['cutoff']}")
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


def check_epsilon(epsilon: float) -> None:
    """Refuse an epsilon outside (0, 1): NaN too, which no comparison passes."""
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")


def certify_rank(
    psi: FockVector, epsilon: float, cfg: SearchConfig, state_descriptor: dict | None = None
) -> BoundCertificate:
    """Largest r whose optimized bound exceeds epsilon, i.e. kappa_eps >= r+1.

    One search gives the bound for every r = 1..cfg.N_max.  The bound is
    non-increasing in r (the singular-value tail shrinks), so the upward
    selection stops at the first failure.  Returns r = 0 with a zero
    threshold when not even r = 1 is certified.
    """
    check_epsilon(epsilon)
    n_max = cfg.resolve_n_max(psi.cutoff)
    bounds = optimized_bounds(psi, range(1, n_max + 1), cfg)

    r = 0
    while r < n_max and bounds[r + 1].value > epsilon:
        r += 1
    return _optimized_certificate(state_descriptor, r, bounds.get(r))


def _optimized_certificate(descriptor, r: int, res) -> BoundCertificate:
    """r's certificate from its optimized search; none (certify_rank's r = 0) stores no N, b."""
    value, b, N = res or (0.0, None, None)  # an OptimizedBound: (value, b_star, N_star)
    return BoundCertificate(descriptor, r, value, "optimized", N, b)


def bound_certificate(descriptor, r: int, method: str, n_max: int, load_state) -> BoundCertificate:
    """The certificate ``bound --method`` writes for kappa_eps > r: ``analytic``
    by the closed form at r = n, building no state; ``plain`` (b = 1, ties to
    the smallest N) and ``optimized`` by the search of N = max(r, 1)..n_max on
    ``load_state(descriptor, n_max)``.  Every method refuses a negative r
    first, then an n_max below max(r, 1)."""
    if r < 0:
        raise ValueError("r must be non-negative")
    check_searchable(r, n_max)
    if method == "analytic":
        return BoundCertificate(descriptor, r, fock_analytic_threshold(r), "analytic_fock", r, 1.0)
    psi = load_state(descriptor, n_max)
    if method == "optimized":
        res = optimized_bound(psi, r, SearchConfig(N_max=n_max))
        return _optimized_certificate(descriptor, r, res)
    values = {N: plain_bound(psi, r, N) for N in range(max(r, 1), n_max + 1)}
    n_star = max(values, key=values.get)  # the smallest N wins ties
    return BoundCertificate(descriptor, r, values[n_star], "plain", n_star, 1.0)


def recurrence_order(psi: FockVector, N_max: int) -> RecurrenceReport:
    """Detect a finite linear-recurrence order from Hankel rank saturation.

    The rank of H_N (b = 1) is recorded for N = 1..N_max.  Saturation is
    declared when the last three ranks coincide and sit strictly below full
    rank; a single coincidence can be accidental at tight tolerances.  A
    full-rank value at N_max means no finite order is certified (squeezed
    states behave this way for every N).

    The rank tolerance DEFAULT_RANK_TOL = 1e-10 (relative to sigma_1) trades
    false saturation against false full-rank calls: superpositions with
    nearly coincident displacements push sigma_k toward it from above, while
    graded full-rank states (squeezed vacua) push sigma_{N+1} toward it from
    below (about 2e-8 relative at N = 10 for squeezing 0.5).  1e-10 sits well
    clear of both at desk scale.
    """
    if N_max < 1:
        raise ValueError("N_max must be at least 1")
    if psi.cutoff < 2 * N_max:
        raise ValueError(f"cutoff {psi.cutoff} < 2 N_max = {2 * N_max}")
    check_hankel_size(N_max)
    ranks = tuple(
        (N, numerical_rank(hankel_matrix(psi, N, 1.0)[1])) for N in range(1, N_max + 1)
    )
    tail = [rank for _, rank in ranks[-3:]]
    saturated = (
        len(ranks) >= 3
        and tail[0] == tail[1] == tail[2]
        and tail[-1] < N_max + 1
    )
    return RecurrenceReport(tail[-1] if saturated else None, ranks, saturated)
