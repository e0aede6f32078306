"""Multimode core states, passive linear unitaries, and the one-row reduction.

A passive linear unitary with matrix U maps creation operators as
a_j^dag -> sum_i U[i, j] b_i^dag and coherent products as |alpha> -> |U alpha>.
Projecting all modes but the first onto vacuum keeps only the b_1^dag part
of each substituted operator, so the amplitude of |k, 0, ..., 0> is
sqrt(k!) P_k(u), with P_k the sector-k polynomial of the core and u the
first row of U: the reduction reads u alone and never forms the evolved
state.  ``reduction_amplitudes`` evaluates it for many rows at once from one
monomial table per core.  A row that keeps the top-sector |P_n| away from
zero makes the bunched amplitude d_n nonzero and certifies the rank lower
bound n + 1 through the single-mode Hankel machinery.  The full evolution
(``evolve_fock_state``, a sparse multi-index expansion) is kept as a
reference at desk scale.  Coherent products are ``fock.CoherentSuperposition``
with (k, modes) displacements; ``MultimodeSuperposition`` only names them.
"""

import math
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalFailure, ResourceLimit
from .fock import (
    CoherentSuperposition,
    FockVector,
    complex_from_pair,
    int_field,
    list_field,
    log_factorial,
    log_factorials,
    object_field,
)
from .hankel import plain_bound

# Largest max |U^H U - I| check_unitary accepts, and a bunching row's norm slack past 1.
UNITARY_TOL = 1e-10

# Desk-scale limits of the exact evolution; multimode_lower_bound keeps them too.
MAX_TOTAL_BOSONS = 12
MAX_MODES = 6

# Seeded Gaussian rows bunching_row scores after the uniform row, the most
# (row, monomial) pairs one block of its candidates holds (at the desk limit's
# 18,564 monomials one pass over all rows peaks at 55 MiB, blocks at 13), and
# the relative distance to the best |d_n| within which candidates tie.
TRIALS = 64
_BLOCK_ENTRIES = 1 << 18
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class MultimodeFockState:
    """Sparse multimode core state: occupation tuple -> complex amplitude."""

    modes: int
    amplitudes: dict
    max_total: int = field(init=False)  # the largest boson count, set from the amplitudes

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError("need at least one mode")
        cleaned = {}
        total_weight = 0.0
        max_total = 0
        for occ, amp in self.amplitudes.items():
            # integers only: int() would read 1.5 or "1" as some other occupation
            occ = tuple(map(operator.index, occ))
            amp = complex(amp)
            if len(occ) != self.modes:
                raise ValueError(f"occupation {occ} does not have {self.modes} entries")
            if any(k < 0 for k in occ):
                raise ValueError("occupation numbers must be non-negative")
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError("amplitudes must be finite")
            if amp != 0:
                cleaned[occ] = amp
                max_total = max(max_total, sum(occ))
                total_weight += abs(amp) ** 2
        if not cleaned:
            raise ValueError("state must have a nonzero amplitude")
        if total_weight > 1 + 1e-12:
            raise ValueError("total weight exceeds 1")
        object.__setattr__(self, "amplitudes", cleaned)
        object.__setattr__(self, "max_total", max_total)

    @cached_property
    def _monomials(self):
        """(occupations, weights): the (monomials, modes) occupation matrix and
        c_occ / sqrt(prod_j occ_j!), in the state's order."""
        occ = np.array(list(self.amplitudes), dtype=np.int64)
        amps = np.array(list(self.amplitudes.values()), dtype=complex)
        return occ, amps * np.exp(-0.5 * log_factorials(self.max_total)[occ].sum(axis=1))


# The name stays for perfbench/tracing.py, which counts its constructions; it
# goes with the trace layer of ROADMAP item 6.  A subclass rather than an alias,
# so that a traced run counts multimode constructions only.
class MultimodeSuperposition(CoherentSuperposition):
    """A CoherentSuperposition of multimode coherent products: each alpha is a
    row of displacements, one per mode."""


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
        if occ in amps:
            raise ValueError(f"occupation {list(occ)} appears more than once in amps")
        amps[occ] = complex_from_pair(entry["c"])
    return MultimodeFockState(modes, amps)


def check_unitary(U: np.ndarray) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError("unitary must be a square matrix")
    defect = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))
    if defect > UNITARY_TOL:
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
    alphas = sup.displacements()
    if U.shape[0] != alphas.shape[1]:
        raise ValueError(f"unitary dimension {U.shape[0]} does not match {alphas.shape[1]} modes")
    return MultimodeSuperposition(zip(sup.coefficients(), alphas @ U.T))


def project_vacuum_tail(sup: MultimodeSuperposition) -> CoherentSuperposition:
    """Project modes 2..m onto vacuum: (c, alpha) -> (c e^{-sum|alpha_j|^2/2}, alpha_1)."""
    alphas = sup.displacements()
    sub = np.exp(-0.5 * np.sum(np.abs(alphas[:, 1:]) ** 2, axis=1))
    return CoherentSuperposition(zip(sup.coefficients() * sub, alphas[:, 0]))


def reduction_amplitudes(core: MultimodeFockState, rows) -> np.ndarray:
    """(rows, n + 1) array of sqrt(k!) P_k(u) for each row u and sector k <= n,
    P_k(u) = sum over k-boson occupations of c_occ prod_j u_j^occ_j / sqrt(occ_j!)."""
    occ, weights = core._monomials
    rows = np.asarray(rows, dtype=complex)
    n = core.max_total
    powers = rows[..., None] ** np.arange(n + 1)  # (rows, modes, n + 1): u_j^k
    terms = np.broadcast_to(weights, (len(rows), len(weights)))
    for j in range(core.modes):
        terms = terms * powers[:, j, occ[:, j]]
    sectors = np.eye(n + 1)[occ.sum(axis=1)]
    return (terms @ sectors) * np.exp(0.5 * log_factorials(n))


def reduce_to_single_mode(core: MultimodeFockState, u) -> FockVector:
    """Vacuum-projected first mode after a passive map with first row u
    (sub-normalized): only b_1^dag survives the projection, so the amplitude
    of |k, 0, ..., 0> is sqrt(k!) P_k(u).  Soundness needs only ||u||_2 <= 1
    (a lossy passive map), so no unitary around u is checked."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (core.modes,) or not np.all(np.isfinite(u)):
        raise ValueError(f"row must be {core.modes} finite entries")
    if np.linalg.norm(u) > 1 + UNITARY_TOL:
        raise ValueError(f"row norm {np.linalg.norm(u)!r} exceeds 1")
    amps = reduction_amplitudes(core, u[None, :])[0]
    return FockVector(amps, core.max_total, normalized=False)


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


def bunching_row(core: MultimodeFockState, seed: int | None) -> np.ndarray:
    """First row u of a bunching unitary.  The candidates, the uniform row
    (optimal for |1>^m) and ``TRIALS`` Gaussian rows from default_rng(seed), are
    scored by |d_n(u)| in blocks of at most ``_BLOCK_ENTRIES`` (row, monomial)
    pairs; the earliest within ``_TIE_RTOL`` relative of the best wins."""
    n, m = core.max_total, core.modes
    draw = np.random.default_rng(seed).standard_normal((TRIALS, 2, m))
    v = draw[:, 0] + 1j * draw[:, 1]
    rows = np.concatenate([np.full((1, m), 1.0 / math.sqrt(m), dtype=complex),
                           v / np.linalg.norm(v, axis=1, keepdims=True)])
    size = max(1, _BLOCK_ENTRIES // len(core.amplitudes))
    scores = np.empty(len(rows))
    for lo in range(0, len(rows), size):
        scores[lo:lo + size] = np.abs(reduction_amplitudes(core, rows[lo:lo + size])[:, n])
    pick = np.flatnonzero(scores >= (1 - _TIE_RTOL) * scores.max())[0]
    score, u = scores[pick], rows[pick]
    floor = 1e-14 * math.exp(0.5 * math.lgamma(n + 1))  # |P_n(u)| < 1e-14
    if score < floor and m == 1:  # |d_n| is the top amplitude on every row
        raise NumericalFailure(f"the top-sector amplitude {score:.3e} of a one-mode core "
                               f"is below the floor {floor:.3e}; every row gives the same "
                               "|d_n|, so no seed can help")
    if score < floor:
        raise NumericalFailure("no sampled direction kept the top-sector polynomial "
                               "away from zero; retry with a different seed")
    return u


def _check_desk_scale(core: MultimodeFockState):
    if core.max_total > MAX_TOTAL_BOSONS or core.modes > MAX_MODES:
        raise ResourceLimit(
            f"desk scale is <= {MAX_TOTAL_BOSONS} bosons in "
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
    out = defaultdict(complex)
    for occ, coeff in zip(*core._monomials):
        poly = {(0,) * core.modes: coeff}
        for j in np.repeat(np.arange(core.modes), occ):  # one factor per input boson
            nxt = defaultdict(complex)
            for expo, w in poly.items():
                for i in np.flatnonzero(U[:, j]):
                    nxt[expo[:i] + (expo[i] + 1,) + expo[i + 1 :]] += w * U[i, j]
            poly = nxt
        for expo, w in poly.items():
            out[expo] += w
    return MultimodeFockState(core.modes, {
        expo: w * math.exp(0.5 * sum(log_factorial(k) for k in expo))
        for expo, w in out.items()})


@dataclass(frozen=True)
class MultimodeBoundReport:
    """kappa >= bound, with the audit trail of the reduction."""

    bound: int
    unitary: np.ndarray
    d_n: complex
    abs_d_n_sq: float
    hankel_threshold: float
    reduction: FockVector


def multimode_lower_bound(core: MultimodeFockState, seed: int | None) -> MultimodeBoundReport:
    """Rank lower bound max_total + 1 for a multimode core state.

    The report carries a unitary completing bunching_row(core, seed) (its
    first row U[0] is the row the reduction reads), the bunched amplitude d_n,
    and the plain Hankel threshold of the single-mode reduction at r =
    max_total (strictly positive exactly because d_n is nonzero).
    """
    _check_desk_scale(core)
    n = core.max_total
    U = _complete_to_unitary(bunching_row(core, seed=seed))
    reduction = reduce_to_single_mode(core, U[0])
    d_n = complex(reduction.amplitudes[n])
    threshold = plain_bound(reduction.padded(2 * n), n, n)
    return MultimodeBoundReport(n + 1, U, d_n, abs(d_n) ** 2, threshold, reduction)
