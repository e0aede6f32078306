"""Rank certificates, each loaded, issued and re-checked here, and finite-rank detection.

A certificate records a threshold t for a state and an integer r with the
guarantee: any eps < t implies the eps-approximate coherent state rank
exceeds r.  Finite coherent rank shows up numerically as saturation of the
Hankel rank when the truncation parameter N grows; states whose rescaled
amplitudes obey no linear recurrence (e.g. squeezed vacua) stay full rank
for every N.  No function here defaults the truncation n_max: ``load_state``,
``certify_rank`` and ``bound_certificate`` take an int, which the CLI's
``--n-max`` supplies (10 for ``certify``, max(r, 10) for ``bound``).
``certify_rank`` and ``bound_certificate`` issue from a descriptor alone and
build its state with ``load_state``, as ``recompute`` does; a ``FockVector``
gets thresholds, not certificates, from ``hankel.optimized_bounds``.
"""

import math
from dataclasses import dataclass, field

from . import __version__
from .fock import FockVector, int_field, log_factorials, object_field, real_field
from .fock import state_from_descriptor
from .hankel import (
    SearchConfig,
    check_hankel_size,
    check_searchable,
    hankel_matrices,
    optimized_bound,
    optimized_bounds,
    plain_bound,
    plain_bounds,
    rescaled_bound,
)

STATEMENT = "any eps < epsilon_threshold implies kappa_eps(state) > r"

METHODS = ("plain", "optimized", "analytic_fock")

CHECK_REL_TOL = 1e-12  # a stored threshold re-checks within this relative distance

_FORMAT_RULE = f"statement must read {STATEMENT!r} and version be a string"


@dataclass(frozen=True)
class BoundCertificate:
    """Machine-checkable record of a certified rank lower bound.

    ``to_dict`` writes the certificate format, whose statement is always
    STATEMENT, and ``from_dict`` reads it back, refusing any other statement;
    construction refuses, either way, what no method writes.  ``check``
    re-derives the threshold (``recompute``) and compares it with the stored one.
    """

    state_descriptor: dict
    r: int
    epsilon_threshold: float
    method: str  # one of METHODS
    N: int | None
    b: float | None
    version: str = field(default=__version__)

    def __post_init__(self):
        object_field(self.state_descriptor, "state_descriptor")
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
        if not isinstance(self.version, str):
            raise ValueError(_FORMAT_RULE)
        if self.method == "analytic_fock":
            d = self.state_descriptor
            if d.get("type") != "fock":
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
            "statement": STATEMENT,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, stored) -> "BoundCertificate":
        """Read a ``to_dict`` certificate; keys it does not write are ignored."""
        stored = object_field(stored, "certificate")
        for key in ("state_descriptor", "r", "epsilon_threshold", "method"):
            if key not in stored:
                raise ValueError(f"certificate has no field {key!r}")
        params = object_field(stored.get("parameters") or {}, "parameters")
        n, b = params.get("N"), params.get("b")
        cert = cls(
            object_field(stored["state_descriptor"], "state_descriptor"),  # refused before r
            int_field(stored["r"], "r"),
            real_field(stored["epsilon_threshold"], "epsilon_threshold"),
            stored["method"],
            None if n is None else int_field(n, "N"),
            None if b is None else real_field(b, "b"),
            stored.get("version", __version__),
        )
        if stored.get("statement", STATEMENT) != STATEMENT:
            raise ValueError(_FORMAT_RULE)
        return cert

    def recompute(self) -> float:
        """The threshold re-derived from the method and parameters alone, on
        ``load_state(descriptor, N)``."""
        if self.N is None:  # r = 0: nothing certified
            return 0.0
        if self.method == "analytic_fock":
            return fock_analytic_threshold(self.r)
        psi = load_state(self.state_descriptor, self.N)
        if self.method == "plain":
            return plain_bound(psi, self.r, self.N)
        return rescaled_bound(psi, self.r, self.N, self.b)

    def check(self) -> tuple:
        """(ok, recomputed): whether the stored threshold t lies within CHECK_REL_TOL
        of recomputed = ``recompute()``, relative to the larger of the two."""
        t, recomputed = self.epsilon_threshold, self.recompute()
        return abs(recomputed - t) <= CHECK_REL_TOL * max(t, recomputed, 1e-300), recomputed


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
    log_fact = log_factorials(2 * n)
    return math.exp(float(log_fact[n]) - math.log(2.0) - math.log(n + 1) - float(log_fact[2 * n]))


def check_epsilon(epsilon: float) -> None:
    """Refuse an epsilon outside (0, 1): NaN too, which no comparison passes."""
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")


def load_state(descriptor: dict, n_max: int) -> FockVector:
    """The state for H_N up to N = n_max, an auto-chosen cutoff extended to 2 n_max;
    ResourceLimit past hankel.MAX_HANKEL_N before any state is built."""
    check_hankel_size(n_max)
    psi = state_from_descriptor(descriptor)
    if descriptor.get("cutoff") is None and psi.cutoff < 2 * n_max:
        psi = state_from_descriptor(dict(descriptor, cutoff=2 * n_max))
    return psi


def certify_rank(descriptor: dict, epsilon: float, n_max: int) -> BoundCertificate:
    """Largest r whose optimized bound on ``load_state(descriptor, n_max)``
    exceeds epsilon, i.e. kappa_eps >= r+1.

    One search gives the bound for every r = 1..n_max.  The bound is
    non-increasing in r (the singular-value tail shrinks), so the upward
    selection stops at the first failure.  Returns r = 0 with a zero
    threshold when not even r = 1 is certified.  Refuses what ``load_state``,
    ``SearchConfig``, ``check_epsilon`` and the search refuse, in that order.
    """
    psi, cfg = load_state(descriptor, n_max), SearchConfig(N_max=n_max)
    check_epsilon(epsilon)
    bounds = optimized_bounds(psi, range(1, n_max + 1), cfg)

    r = 0
    while r < n_max and bounds[r + 1].value > epsilon:
        r += 1
    return _optimized_certificate(descriptor, r, bounds.get(r))


def _optimized_certificate(descriptor, r: int, res) -> BoundCertificate:
    """r's certificate from its optimized search; none (certify_rank's r = 0) stores no N, b."""
    value, b, N = res or (0.0, None, None)  # an OptimizedBound: (value, b_star, N_star)
    return BoundCertificate(descriptor, r, value, "optimized", N, b)


def bound_certificate(descriptor, r: int, method: str, n_max: int) -> BoundCertificate:
    """The certificate ``bound --method`` writes for kappa_eps > r: ``analytic``
    by the closed form at r = n, building no state; ``plain`` (b = 1, ties to
    the smallest N) and ``optimized`` by the search of N = max(r, 1)..n_max on
    ``load_state(descriptor, n_max)``.  Every method refuses a negative r
    first, then an n_max below max(r, 1) (``check_searchable``); both searches
    then refuse an explicit cutoff below 2 n_max, before any SVD."""
    check_searchable(r, n_max)
    if method == "analytic":
        return BoundCertificate(descriptor, r, fock_analytic_threshold(r), "analytic_fock", r, 1.0)
    psi, cfg = load_state(descriptor, n_max), SearchConfig(N_max=n_max)
    if method == "optimized":
        return _optimized_certificate(descriptor, r, optimized_bound(psi, r, cfg))
    values = plain_bounds(psi, r, cfg)
    n_star = max(values, key=values.get)  # the smallest N wins ties
    return BoundCertificate(descriptor, r, values[n_star], "plain", n_star, 1.0)


DEFAULT_RANK_TOL = 1e-10  # relative to sigma_1; recurrence_order argues for the value


def numerical_rank(s) -> int:
    """Number of singular values s above DEFAULT_RANK_TOL * s[0] (0 for a zero matrix)."""
    if len(s) == 0 or s[0] == 0:
        return 0
    return int((s > DEFAULT_RANK_TOL * s[0]).sum())


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
    Ns = range(1, N_max + 1)
    spectra = hankel_matrices(psi, Ns, 1.0)  # refuses 2 N_max > cutoff; one SVD call per N
    ranks = tuple((N, numerical_rank(sigma)) for N, (_, sigma, _) in zip(Ns, spectra))
    tail = [rank for _, rank in ranks[-3:]]
    saturated = (
        len(ranks) >= 3
        and tail[0] == tail[1] == tail[2]
        and tail[-1] < N_max + 1
    )
    return RecurrenceReport(tail[-1] if saturated else None, ranks, saturated)
