"""Multimode core states, passive linear unitaries, and vacuum projection.

A passive linear unitary with matrix U maps creation operators as
a_j^dag -> sum_i U[i, j] b_i^dag and coherent products as |alpha> -> |U alpha>.
Evolving a core state therefore amounts to substituting that linear form
into the homogeneous polynomial of each boson-number sector, which is done
here on a sparse multi-index representation.  Projecting all modes but the
first onto vacuum turns an m-mode problem into a single-mode one: the
amplitude of the fully bunched state |n, 0, ..., 0> is
d_n = sqrt(n!) P(U[0, 0], ..., U[0, m-1]) with P the top-sector polynomial,
and a unitary whose first row keeps |P| away from zero certifies the rank
lower bound n + 1 through the single-mode Hankel machinery.
"""

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NumericalFailure, ResourceLimit
from .fock import (
    CoherentSuperposition,
    CoherentTerm,
    FockVector,
    complex_from_pair,
    int_field,
    list_field,
    merge_coincident,
    object_field,
)
from .hankel import plain_bound

UNITARY_TOL = 1e-10

# Desk-scale limits for the exact polynomial-substitution evolution.
MAX_TOTAL_BOSONS = 12
MAX_MODES = 6


@dataclass(frozen=True)
class MultimodeFockState:
    """Sparse multimode core state: occupation tuple -> complex amplitude."""

    modes: int
    amplitudes: dict
    max_total: int = -1

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("need at least one mode")
        cleaned = {}
        total_weight = 0.0
        max_total = 0
        for occ, amp in self.amplitudes.items():
            occ = tuple(int(k) for k in occ)
            amp = complex(amp)
            if len(occ) != self.modes:
                raise ValueError(f"occupation {occ} does not have {self.modes} entries")
            if any(k < 0 for k in occ):
                raise ValueError("occupation numbers must be non-negative")
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError("amplitudes must be finite")
            if amp != 0:
                cleaned[occ] = cleaned.get(occ, 0) + amp
                max_total = max(max_total, sum(occ))
                total_weight += abs(amp) ** 2
        if not cleaned:
            raise ValueError("state must have a nonzero amplitude")
        if total_weight > 1 + 1e-12:
            raise ValueError("total weight exceeds 1")
        object.__setattr__(self, "amplitudes", cleaned)
        object.__setattr__(self, "max_total", max_total)

    def top_sector(self) -> dict:
        return {
            occ: amp for occ, amp in self.amplitudes.items() if sum(occ) == self.max_total
        }


@dataclass(frozen=True)
class MultimodeSuperposition:
    """Superposition sum_k c_k |alpha_k> of multimode coherent products."""

    terms: tuple

    def __init__(self, terms):
        terms = [(c, np.asarray(alpha, dtype=complex)) for c, alpha in terms]
        if len({alpha.shape for _, alpha in terms}) > 1:
            raise ValueError("terms must share the mode count")
        coeffs, alphas = merge_coincident([c for c, _ in terms], [a for _, a in terms])
        object.__setattr__(self, "terms", tuple(zip(coeffs.tolist(), alphas)))

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def modes(self) -> int:
        return len(self.terms[0][1])

    def coefficients(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms], dtype=complex)

    def displacements(self) -> np.ndarray:
        """(terms, modes) matrix of displacement rows."""
        return np.array([a for _, a in self.terms], dtype=complex)


def tensor_fock(occupations) -> MultimodeFockState:
    """The product Fock state |n_1, ..., n_m>."""
    occ = tuple(int(k) for k in occupations)
    return MultimodeFockState(len(occ), {occ: 1.0})


def multimode_from_descriptor(descriptor: dict) -> MultimodeFockState:
    """{"modes": m, "amps": [{"occ": [n1, ..., nm], "c": [re, im]}, ...]}"""
    modes = int_field(descriptor["modes"], "modes")
    amps = {}
    for entry in list_field(descriptor["amps"], "amps"):
        entry = object_field(entry, "amps entry")
        occ = tuple(int_field(k, "occ entry") for k in list_field(entry["occ"], "occ"))
        amps[occ] = complex_from_pair(entry["c"])
    return MultimodeFockState(modes, amps)


def check_unitary(U: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("unitary must be a square matrix")
    defect = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
    if defect > tol:
        raise ValueError(f"matrix is not unitary: max |U^H U - I| = {defect:.3e}")
    return U


def fourier_matrix(m: int) -> np.ndarray:
    """DFT unitary (1/sqrt(m)) omega^{(k-1)(l-1)}, omega = e^{2 pi i / m}."""
    if m < 1:
        raise ValueError("need at least one mode")
    k = np.arange(m)
    omega = np.exp(2j * np.pi / m)
    return omega ** np.outer(k, k) / math.sqrt(m)


def apply_unitary_to_superposition(
    U: np.ndarray, sup: MultimodeSuperposition
) -> MultimodeSuperposition:
    """Passive evolution: each |alpha> becomes |U alpha>, coefficients unchanged."""
    U = check_unitary(U)
    if U.shape[0] != sup.modes:
        raise ValueError(
            f"unitary dimension {U.shape[0]} does not match {sup.modes} modes"
        )
    return MultimodeSuperposition([(c, U @ a) for c, a in sup.terms])


def project_vacuum_tail(sup: MultimodeSuperposition) -> CoherentSuperposition:
    """Project modes 2..m onto vacuum: (c, alpha) -> (c e^{-sum|alpha_j|^2/2}, alpha_1)."""
    terms = []
    for c, alpha in sup.terms:
        sub = math.exp(-0.5 * float(np.sum(np.abs(alpha[1:]) ** 2)))
        terms.append(CoherentTerm(c * sub, alpha[0]))
    return CoherentSuperposition(terms)


def _normalized_monomials(core: MultimodeFockState, occs) -> dict:
    """occ -> c_occ / sqrt(prod occ_j!) for the given occupations."""
    out = {}
    for occ in occs:
        amp = core.amplitudes[occ]
        log_norm = 0.5 * sum(float(gammaln(k + 1)) for k in occ)
        out[occ] = amp * math.exp(-log_norm)
    return out


def top_sector_polynomial(core: MultimodeFockState):
    """Evaluator u -> P(u) for the top-sector homogeneous polynomial."""
    monos = _normalized_monomials(core, core.top_sector())

    def poly(u: np.ndarray) -> complex:
        u = np.asarray(u, dtype=complex)
        total = 0j
        for occ, coeff in monos.items():
            term = coeff
            for uj, k in zip(u, occ):
                term *= uj**k
            total += term
        return total

    return poly


def bunched_amplitude(core: MultimodeFockState, U: np.ndarray) -> complex:
    """d_n = sqrt(n!) P(first row of U) at n = max_total."""
    U = check_unitary(U)
    if U.shape[0] != core.modes:
        raise ValueError("unitary dimension does not match the state")
    poly = top_sector_polynomial(core)
    n = core.max_total
    return complex(math.exp(0.5 * float(gammaln(n + 1))) * poly(U[0, :]))


def _complete_to_unitary(u: np.ndarray) -> np.ndarray:
    """Unitary with first row u, completed from the standard basis vectors
    least aligned with u (Gram-Schmidt with one re-orthogonalization pass)."""
    m = len(u)
    rows = [u / np.linalg.norm(u)]
    for idx in np.argsort(np.abs(u))[: m - 1]:
        v = np.zeros(m, dtype=complex)
        v[idx] = 1.0
        for _ in range(2):
            for row in rows:
                v = v - np.vdot(row, v) * row
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise NumericalFailure("Gram-Schmidt completion collapsed")
        rows.append(v / norm)
    return np.array(rows)


def bunching_unitary(
    core: MultimodeFockState, trials: int = 64, seed: int | None = None
) -> np.ndarray:
    """A unitary whose first row makes the top-sector polynomial nonzero.

    Samples Gaussian-normalized candidate rows (the uniform direction is
    always candidate 0, which is optimal for |1>^m) and keeps the one
    maximizing |P(u)|; earlier candidates win ties.
    """
    poly = top_sector_polynomial(core)
    m = core.modes
    rng = np.random.default_rng(seed)
    candidates = [np.full(m, 1.0 / math.sqrt(m), dtype=complex)]
    for _ in range(trials):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        candidates.append(v / np.linalg.norm(v))
    best_u, best_val = None, -1.0
    for u in candidates:
        val = abs(poly(u))
        if val > best_val:
            best_u, best_val = u, val
    if best_val < 1e-14:
        raise NumericalFailure(
            "no sampled direction kept the top-sector polynomial away from zero; "
            "retry with a different seed"
        )
    return _complete_to_unitary(best_u)


def _check_desk_scale(core: MultimodeFockState):
    if core.max_total > MAX_TOTAL_BOSONS or core.modes > MAX_MODES:
        raise ResourceLimit(
            f"exact evolution supports <= {MAX_TOTAL_BOSONS} bosons in "
            f"<= {MAX_MODES} modes; got {core.max_total} bosons, {core.modes} modes"
        )


def evolve_fock_state(core: MultimodeFockState, U: np.ndarray) -> MultimodeFockState:
    """Exact output state of a passive linear unitary on a core state.

    Each monomial prod_j (a_j^dag)^{n_j} is expanded factor by factor under
    a_j^dag -> sum_i U[i, j] b_i^dag on a sparse exponent map, then exponent
    tuples are converted back to Fock amplitudes via sqrt(prod k_i!).
    """
    U = check_unitary(U)
    _check_desk_scale(core)
    if U.shape[0] != core.modes:
        raise ValueError("unitary dimension does not match the state")
    m = core.modes
    zero = tuple([0] * m)
    out = defaultdict(complex)
    monos = _normalized_monomials(core, core.amplitudes)
    for occ, coeff in monos.items():
        poly = {zero: coeff}
        for j, nj in enumerate(occ):
            col = U[:, j]
            for _ in range(nj):
                nxt = defaultdict(complex)
                for expo, w in poly.items():
                    for i in range(m):
                        if col[i] == 0:
                            continue
                        key = list(expo)
                        key[i] += 1
                        nxt[tuple(key)] += w * col[i]
                poly = nxt
        for expo, w in poly.items():
            out[expo] += w
    fock_amps = {}
    for expo, w in out.items():
        log_norm = 0.5 * sum(float(gammaln(k + 1)) for k in expo)
        fock_amps[expo] = w * math.exp(log_norm)
    return MultimodeFockState(m, fock_amps)


def reduce_to_single_mode(core: MultimodeFockState, U: np.ndarray) -> FockVector:
    """Vacuum-projected first mode of the evolved state (sub-normalized)."""
    evolved = evolve_fock_state(core, U)
    amps = np.zeros(core.max_total + 1, dtype=complex)
    for occ, amp in evolved.amplitudes.items():
        if all(k == 0 for k in occ[1:]):
            amps[occ[0]] = amp
    return FockVector(amps, core.max_total, normalized=False)


@dataclass(frozen=True)
class MultimodeBoundReport:
    """kappa >= bound, with the audit trail of the reduction."""

    bound: int
    unitary: np.ndarray
    d_n: complex
    abs_d_n_sq: float
    hankel_threshold: float
    reduction: FockVector


def multimode_lower_bound(
    core: MultimodeFockState, trials: int = 64, seed: int | None = None
) -> MultimodeBoundReport:
    """Rank lower bound max_total + 1 for a multimode core state.

    The report carries the bunching unitary, the bunched amplitude d_n, and
    the plain Hankel threshold of the single-mode reduction at r = max_total
    (strictly positive exactly because d_n is nonzero).
    """
    n = core.max_total
    U = bunching_unitary(core, trials=trials, seed=seed)
    d_n = bunched_amplitude(core, U)
    reduction = reduce_to_single_mode(core, U)
    threshold = plain_bound(reduction.padded(2 * n), n, n)
    return MultimodeBoundReport(n + 1, U, d_n, abs(d_n) ** 2, threshold, reduction)
