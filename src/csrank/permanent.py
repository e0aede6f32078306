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
two-term odd cat circle_decomposition(|1>, delta).  The odd cat has only odd
occupations, so the n-photon sector of its power is its |1>^n component alone
and F(U) = a_1^n Per(U) for the factor's normalized |1> amplitude a_1: after
the phase alignment F(U) = sqrt(1 - delta_inf) Per(U) exactly, and a trial's
error is |Per(U)| (1 - sqrt(1 - delta_inf)).  Its infidelity and tail weight
are n-th powers of one mode's numbers, so no 2^n-row formula is built.
Trials are scored in blocks: one stacked QR draws a block's Haar unitaries and
one Glynn pass scores them.
"""

import functools
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from ._kernels import glynn as _glynn, ryser as _ryser
from .decomp import circle_decomposition
from .errors import NumericalFailure, ResourceLimit
from .fock import coherent_columns, fock_state

NAIVE_LIMIT = 8
# Permutations permanent_naive gathers at once: 1024 x 7 entries at n = 8.
NAIVE_CHUNK = 1024
KERNEL_LIMIT = 24

# Most modes the bridge runs.
MAX_MODES = 16

# Most trials one bridge call runs (exit 4 beyond): its CSV rows are kept in
# memory, and at MAX_MODES each trial costs one 2^15-term Glynn sum.
MAX_TRIALS = 10_000

# Trials go in blocks of TRIAL_BLOCK_ROWS / 2^n, so a block's Glynn pass sums
# at most as many patterns as one trial's does at MAX_MODES.
TRIAL_BLOCK_ROWS = 1 << MAX_MODES

# Fock cutoff of the bridge's single-mode factor.  Wherever delta_inf <= 0.5
# (delta < 1.49), the factor's weight past it is at most 1.05e-36 of its norm.
FACTOR_CUTOFF = 40


def _square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("permanent needs a square matrix")
    return m


@functools.lru_cache(maxsize=NAIVE_LIMIT)
def _permutation_table(k: int) -> np.ndarray:
    """The k! permutations of range(k), one per row in itertools order: read-only int8."""
    table = np.array(list(permutations(range(k))), dtype=np.int8)
    table.flags.writeable = False
    return table


def permanent_naive(m) -> complex:
    """Sum over permutations; the reference oracle for small matrices.  For each
    first-row column j it adds m[0, j] times the sum of the products that the
    (n-1)! permutations of the other columns gather from rows 1..n-1, gathered
    and multiplied NAIVE_CHUNK permutations at a time."""
    m = _square(m)
    n = m.shape[0]
    if n > NAIVE_LIMIT:
        raise ResourceLimit(f"naive permanent supports n <= {NAIVE_LIMIT}")
    if n == 0:
        return 1.0 + 0j
    table = _permutation_table(n - 1)
    row_starts = np.arange(n - 1) * (n - 1)  # of rows 1..n-1 in each flattened minor
    products = np.empty(len(table), dtype=complex)
    total = 0j
    for j in range(n):
        minor = np.delete(m[1:], j, axis=1).ravel()
        for lo in range(0, len(table), NAIVE_CHUNK):
            chunk = slice(lo, lo + NAIVE_CHUNK)
            np.prod(minor[table[chunk] + row_starts], axis=1, out=products[chunk])
        total += m[0, j] * products.sum()
    return complex(total)


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


def haar_unitary(n: int, seed: int | None) -> np.ndarray:
    """Haar sample from default_rng(seed): QR of a Ginibre matrix, R's diagonal phase-fixed."""
    if n < 1:
        raise ValueError("need n >= 1")
    return _haar_stack(n, [seed])[0]


def _haar_stack(n: int, seeds) -> np.ndarray:
    """(len(seeds), n, n) stack of haar_unitary(n, seed), one default_rng(seed)
    stream per matrix, through one stacked QR and one phase fix."""
    draws = np.empty((len(seeds), 2, n, n))
    for out, seed in zip(draws, seeds):
        np.random.default_rng(seed).standard_normal(out=out)
    z = (draws[:, 0] + 1j * draws[:, 1]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q *= (d / np.abs(d))[:, None, :]
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


def evaluate_formula(formula: MultilinearFormula, x) -> complex:
    """F(X) = sum_j gamma_j prod_i (sum_k alpha_jk X[i, k]); cost O(r n^2)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (formula.n, formula.n):
        raise ValueError(f"matrix must be {formula.n} x {formula.n}")
    return complex(np.prod(x @ formula.alphas.T, axis=0) @ formula.gammas)


def _power_complement(share: float, modes: int) -> float:
    """1 - (1 - share)^modes, exactly 1 once the share rounds to 1."""
    return 1.0 if share >= 1 else -math.expm1(modes * math.log1p(-share))


def _odd_cat_power(modes: int, delta: float):
    """(delta_inf, tail_weight) of the normalized tensor power of the odd cat
    circle_decomposition(|1>, delta) over ``modes`` modes.

    Both are powers of one factor's Fock weights w_m = |<m|phi_1>|^2,
    m <= FACTOR_CUTOFF, each a sum of non-negative terms: 1 - delta_inf is
    (w_1 / W)^n and 1 - tail_weight is ((w_0 + w_1 + w_2) / W)^n.  Past
    delta = 10 both are 1, exact there: past delta = 26.8 the factor's
    coefficients e^(delta^2/2) / (2 delta) overflow.
    """
    if 10 < delta < math.inf:  # |1>'s share delta^2 / sinh(delta^2) < 1e-41: delta_inf is 1
        return 1.0, 1.0
    factor = circle_decomposition(fock_state(1), delta)
    amps = coherent_columns(factor.displacements(), FACTOR_CUTOFF) @ factor.coefficients()
    w = np.abs(amps) ** 2
    total = float(w.sum())
    if total == 0:
        raise ValueError("superposition has zero norm")
    delta_inf = _power_complement(float(w[0] + w[2:].sum()) / total, modes)
    tail = _power_complement(float(w[3:].sum()) / total, modes)
    return delta_inf, tail


@dataclass(frozen=True)
class PermanentBoundReport:
    delta_inf: float
    bound: float
    max_error: float
    tail_weight: float
    trials: tuple  # rows (trial, seed, |Per|, |F|, error)

    @property
    def passed(self) -> bool:
        return self.max_error <= self.bound


def verify_permanent_bound(
    modes: int, delta: float, trials: int, seed: int
) -> PermanentBoundReport:
    """Check |Per(U) - e^{-i theta} F(U)| <= sqrt(2 delta_inf) on ``trials`` Haar
    samples, trial i on haar_unitary(modes, seed + i).

    The decomposition is the tensor power of circle_decomposition(|1>, delta)
    over ``modes`` modes (see _odd_cat_power); delta_inf is its infidelity
    against |1>^n and ``tail_weight`` its weight outside occupations <= 2 per
    mode.  Each row's |F| is sqrt(1 - delta_inf) |Per| and its error
    |Per| (1 - sqrt(1 - delta_inf)), the identity of the module docstring.
    Raises ResourceLimit past MAX_MODES modes or MAX_TRIALS trials, before
    anything is drawn, and NumericalFailure if any trial's error exceeds the
    bound.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if modes < 1:
        raise ValueError("need at least one mode")
    if modes > MAX_MODES:
        raise ResourceLimit(f"the permanent bridge runs at most {MAX_MODES} modes, got {modes}")
    if trials > MAX_TRIALS:
        raise ResourceLimit(f"the permanent bridge runs at most {MAX_TRIALS} trials, got {trials}")
    delta_inf, tail = _odd_cat_power(modes, delta)
    if delta_inf > 0.5:
        raise ValueError(
            f"superposition is too far from |1>^{modes} (delta_inf = {delta_inf:.3f})"
        )
    bound = math.sqrt(2.0 * delta_inf)
    scale = math.sqrt(1.0 - delta_inf)
    shortfall = -math.expm1(0.5 * math.log1p(-delta_inf))  # 1 - sqrt(1 - delta_inf)

    block = TRIAL_BLOCK_ROWS >> modes
    rows = []
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        seeds = range(seed + start, seed + stop)
        per = _glynn(_haar_stack(modes, seeds))
        # np.hypot rounds |z| as Python's abs(complex) does; np.abs may not.
        abs_per = np.hypot(per.real, per.imag)
        rows += zip(range(start, stop), seeds, abs_per.tolist(), (scale * abs_per).tolist(),
                    (shortfall * abs_per).tolist())
    max_error = max(row[4] for row in rows)
    report = PermanentBoundReport(delta_inf, bound, max_error, tail, tuple(rows))
    if not report.passed:
        raise NumericalFailure(
            f"permanent bound violated: max error {max_error:.3e} > "
            f"sqrt(2 delta_inf) = {bound:.3e}"
        )
    return report
