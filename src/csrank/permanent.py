"""Exact permanents and the coherent-decomposition formula bridge.

A superposition sum_j c_j |alpha_j> of n-mode coherent states induces the
multilinear formula

    F(X) = sum_j gamma_j prod_i (sum_k alpha_jk X[i, k]),
    gamma_j = c_j e^{-||alpha_j||^2 / 2},

which equals <1|^n U |phi> when evaluated at a unitary X = U.  Since
<1|^n U |1>^n = Per(U), a decomposition with infidelity delta against
|1>^n approximates the permanent uniformly: |Per(U) - e^{-i theta} F(U)|
<= sqrt(2 delta) once the global phase theta of <1^n|phi> is aligned.

verify_permanent_bound checks this for the n-th tensor power of the
two-term odd cat circle_decomposition(|1>, delta).  Its norm, infidelity,
tail weight and phase are n-th powers of one mode's numbers, and its 2^n
formula rows are an index product of that mode's two terms, so n runs to 16
without a 2^n x 2^n Gram matrix.
"""

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._kernels import glynn as _glynn, ryser as _ryser
from .decomp import circle_decomposition
from .errors import NumericalFailure, ResourceLimit
from .fock import coherent_columns, fock_state
from .multimode import MultimodeSuperposition

NAIVE_LIMIT = 8
KERNEL_LIMIT = 24

# Most rows the bridge's formula may have: 2^n rows at n modes, so n <= 16.
MAX_FORMULA_ROWS = 1 << 16

# Fock cutoff of the bridge's single-mode factor.  Wherever delta_inf <= 0.5
# (delta < 1.49), the factor's weight past it is at most 1.05e-36 of its norm.
FACTOR_CUTOFF = 40


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
    """Glynn's 2^{n-1}-term formula."""
    m = _square(m)
    if m.shape[0] > KERNEL_LIMIT:
        raise ResourceLimit(f"Glynn kernel supports n <= {KERNEL_LIMIT}")
    return _glynn(m)


def permanent_ryser(m) -> complex:
    """Ryser's inclusion-exclusion formula."""
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


def formula_from_decomposition(sup: MultimodeSuperposition) -> MultilinearFormula:
    """gamma_j = c_j e^{-||alpha_j||^2/2}; row j of alphas is alpha_j."""
    alphas = sup.displacements()
    gammas = sup.coefficients() * np.exp(-0.5 * np.sum(np.abs(alphas) ** 2, axis=1))
    return MultilinearFormula(alphas.shape[1], gammas, alphas)


def evaluate_formula(formula: MultilinearFormula, x) -> complex:
    """F(X) = sum_j gamma_j prod_i (sum_k alpha_jk X[i, k]); cost O(r n^2)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (formula.n, formula.n):
        raise ValueError(f"matrix must be {formula.n} x {formula.n}")
    inner = x @ formula.alphas.T  # [i, j] = sum_k alpha_jk x_ik
    return complex(formula.gammas @ np.prod(inner, axis=0))


def _odd_cat_power(modes: int, delta: float):
    """(formula, delta_inf, tail_weight, phase) of the normalized tensor power
    of the odd cat circle_decomposition(|1>, delta) over ``modes`` modes.

    Every number is a power of one factor's Fock weights w_m = |<m|phi_1>|^2,
    m <= FACTOR_CUTOFF, each a sum of non-negative terms: 1 - delta_inf is
    (w_1 / W)^n and 1 - tail_weight is ((w_0 + w_1 + w_2) / W)^n.  The rows
    of the formula are the index product of the factor's two terms, first
    mode slowest, as in decomp.delta_cat_product.
    """
    factor = circle_decomposition(fock_state(1), delta)
    coeffs, alphas = factor.coefficients(), factor.displacements()
    amps = coherent_columns(alphas, FACTOR_CUTOFF) @ coeffs
    w = np.abs(amps) ** 2
    total = float(w.sum())
    if total == 0:  # the two terms merged into one of zero coefficient
        raise ValueError("superposition has zero norm")
    off_one = float(w[0] + w[2:].sum())
    delta_inf = -math.expm1(modes * math.log1p(-off_one / total))
    tail = -math.expm1(modes * math.log1p(-float(w[3:].sum()) / total))
    phase = (amps[1] / abs(amps[1])) ** modes

    gamma = coeffs * np.exp(-0.5 * np.abs(alphas) ** 2) / math.sqrt(total)
    rows = np.indices((len(alphas),) * modes).reshape(modes, -1).T
    formula = MultilinearFormula(modes, np.prod(gamma[rows], axis=1), alphas[rows])
    return formula, delta_inf, tail, phase


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
    modes: int, delta: float, trials: int = 100, seed: int = 0
) -> PermanentBoundReport:
    """Check |Per(U) - e^{-i theta} F(U)| <= sqrt(2 delta_inf) on Haar samples.

    The decomposition is the tensor power of circle_decomposition(|1>, delta)
    over ``modes`` modes (see _odd_cat_power); delta_inf is its infidelity
    against |1>^n and ``tail_weight`` its weight outside occupations <= 2 per
    mode.  Raises ResourceLimit past MAX_FORMULA_ROWS formula rows and
    NumericalFailure if any trial violates the bound beyond 1e-9 slack.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if modes < 1:
        raise ValueError("need at least one mode")
    if modes > math.log2(MAX_FORMULA_ROWS):
        raise ResourceLimit(f"the formula has 2^{modes} rows, over {MAX_FORMULA_ROWS}")
    formula, delta_inf, tail, phase = _odd_cat_power(modes, delta)
    if delta_inf > 0.5:
        raise ValueError(
            f"superposition is too far from |1>^{modes} (delta_inf = {delta_inf:.3f})"
        )
    bound = math.sqrt(2.0 * delta_inf)

    rows = []
    for i in range(trials):
        trial_seed = seed + i
        u = haar_unitary(modes, trial_seed)
        per = permanent_glynn(u)
        val = np.conj(phase) * evaluate_formula(formula, u)
        rows.append((i, trial_seed, abs(per), abs(val), abs(per - val)))
    max_error = max(row[4] for row in rows)
    report = PermanentBoundReport(delta_inf, bound, max_error, tail, tuple(rows))
    if not report.passed:
        raise NumericalFailure(
            f"permanent bound violated: max error {max_error:.3e} > "
            f"sqrt(2 delta_inf) = {bound:.3e}"
        )
    return report
