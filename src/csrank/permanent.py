"""Exact permanents and the coherent-decomposition formula bridge.

A superposition sum_j c_j |alpha_j> of n-mode coherent states induces the
multilinear formula

    F(X) = sum_j gamma_j prod_i (sum_k alpha_jk X[i, k]),
    gamma_j = c_j e^{-||alpha_j||^2 / 2},

which equals <1|^n U |phi> when evaluated at a unitary X = U.  Since
<1|^n U |1>^n = Per(U), a decomposition with infidelity delta against
|1>^n approximates the permanent uniformly: |Per(U) - e^{-i theta} F(U)|
<= sqrt(2 delta) once the global phase theta of <1^n|phi> is aligned.
"""

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._kernels import glynn as _glynn, ryser as _ryser
from .errors import NumericalFailure, ResourceLimit
from .fock import coherent_columns, superposition_norm_sq
from .multimode import MultimodeSuperposition

NAIVE_LIMIT = 8
KERNEL_LIMIT = 24


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("permanent needs a square matrix")
    return m


def permanent_naive(m) -> complex:
    """Sum over permutations; the reference oracle for small matrices."""
    m = _square(m)
    n = m.shape[0]
    if n > NAIVE_LIMIT:
        raise ResourceLimit(f"naive permanent supports n <= {NAIVE_LIMIT}")
    if n == 0:
        return 1.0 + 0j
    total = 0j
    rows = range(n)
    for sigma in permutations(range(n)):
        term = 1.0 + 0j
        for i in rows:
            term *= m[i, sigma[i]]
        total += term
    return total


def permanent_glynn(m) -> complex:
    """Glynn's 2^{n-1}-term formula (compiled Gray-code kernel when built)."""
    m = _square(m)
    if m.shape[0] > KERNEL_LIMIT:
        raise ResourceLimit(f"Glynn kernel supports n <= {KERNEL_LIMIT}")
    return _glynn(m)


def permanent_ryser(m) -> complex:
    """Ryser's inclusion-exclusion formula (compiled kernel when built)."""
    m = _square(m)
    if m.shape[0] > KERNEL_LIMIT:
        raise ResourceLimit(f"Ryser kernel supports n <= {KERNEL_LIMIT}")
    return _ryser(m)


def haar_unitary(n: int, seed=None) -> np.ndarray:
    """Haar sample via QR of a Ginibre matrix with phase-fixed R diagonal."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return q


@dataclass(frozen=True)
class MultilinearFormula:
    """The (gamma_j, alpha_jk) data of a decomposition-induced formula."""

    n: int
    gammas: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        gammas = np.asarray(self.gammas, dtype=complex)
        alphas = np.asarray(self.alphas, dtype=complex)
        if alphas.shape != (len(gammas), self.n):
            raise ValueError("alphas must be (len(gammas), n)")
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "alphas", alphas)

    @property
    def size(self) -> int:
        """Formula size r n^2: each branch reads every matrix entry once."""
        return len(self.gammas) * self.n**2


def _formula(coeffs: np.ndarray, alphas: np.ndarray) -> MultilinearFormula:
    gammas = coeffs * np.exp(-0.5 * np.sum(np.abs(alphas) ** 2, axis=1))
    return MultilinearFormula(alphas.shape[1], gammas, alphas)


def formula_from_decomposition(sup: MultimodeSuperposition) -> MultilinearFormula:
    """gamma_j = c_j e^{-||alpha_j||^2/2}; row j of alphas is alpha_j."""
    return _formula(sup.coefficients(), sup.displacements())


def evaluate_formula(formula: MultilinearFormula, x) -> complex:
    """F(X) = sum_j gamma_j prod_i (sum_k alpha_jk X[i, k]); cost O(r n^2)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (formula.n, formula.n):
        raise ValueError(f"matrix must be {formula.n} x {formula.n}")
    inner = x @ formula.alphas.T  # [i, j] = sum_k alpha_jk x_ik
    return complex(formula.gammas @ np.prod(inner, axis=0))


def _box_amplitudes(coeffs: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Fock amplitudes of sum_j c_j |alpha_j> with every occupation <= 2.

    Returns the (3,) * modes array indexed by occupation tuples.  Row j of
    L (R) is the Kronecker product of term j's cutoff-2 coherent columns
    over the first (last) half of the modes, so the box is L^T diag(c) R.
    """
    k, n = alphas.shape
    cols = coherent_columns(alphas.reshape(-1), 2).T.reshape(k, n, 3)

    def kron_rows(modes):
        rows = np.ones((k, 1), dtype=complex)
        for i in modes:
            rows = (rows[:, :, None] * cols[:, i, None, :]).reshape(k, -1)
        return rows

    half = n // 2
    box = (kron_rows(range(half)).T * coeffs) @ kron_rows(range(half, n))
    return box.reshape((3,) * n)


@dataclass(frozen=True)
class PermanentBoundReport:
    delta_inf: float
    bound: float
    max_error: float
    tail_weight: float
    trials: tuple  # rows (trial, seed, |Per|, |F|, error)

    @property
    def passed(self) -> bool:
        return self.max_error <= self.bound + 1e-9


def verify_permanent_bound(
    sup: MultimodeSuperposition, trials: int = 100, seed: int = 0
) -> PermanentBoundReport:
    """Check |Per(U) - e^{-i theta} F(U)| <= sqrt(2 delta_inf) on Haar samples.

    delta_inf is the infidelity of the (normalized) superposition against
    |1>^n.  The norm comes from the exact coherent Gram matrix; the weight
    the cutoff-2-per-mode Fock expansion misses is reported as
    ``tail_weight``.  Raises NumericalFailure if any trial violates the
    bound beyond 1e-9 slack.
    """
    n = sup.modes
    if n > NAIVE_LIMIT:
        raise ResourceLimit("verification needs the exact permanent; n <= 8")
    norm = math.sqrt(superposition_norm_sq(sup))
    if norm == 0:
        raise ValueError("superposition has zero norm")
    coeffs, alphas = sup.coefficients() / norm, sup.displacements()

    box = _box_amplitudes(coeffs, alphas)
    tail = max(0.0, 1.0 - float(np.vdot(box, box).real))
    overlap = complex(box[(1,) * n])
    fid = min(1.0, abs(overlap) ** 2)
    delta_inf = 1.0 - fid
    if delta_inf > 0.5:
        raise ValueError(
            f"superposition is too far from |1>^{n} (delta_inf = {delta_inf:.3f})"
        )
    bound = math.sqrt(2.0 * delta_inf)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0

    formula = _formula(coeffs, alphas)
    rows = []
    for i in range(trials):
        trial_seed = seed + i
        u = haar_unitary(n, trial_seed)
        per = permanent_glynn(u)
        val = np.conj(phase) * evaluate_formula(formula, u)
        rows.append((i, trial_seed, abs(per), abs(val), abs(per - val)))
    max_error = max((row[4] for row in rows), default=0.0)
    report = PermanentBoundReport(delta_inf, bound, max_error, tail, tuple(rows))
    if not report.passed:
        raise NumericalFailure(
            f"permanent bound violated: max error {max_error:.3e} > "
            f"sqrt(2 delta_inf) = {bound:.3e}"
        )
    return report
