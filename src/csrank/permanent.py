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
one Glynn pass scores them.  Trial i draws from the default_rng(seed + i)
stream, as haar_unitary does: one vectorized pass of numpy's own seed hash
(_pcg64_states) gives every trial's PCG64 state before the first block, and
one Generator, set to each state in turn, draws the normals.
"""

import functools
import math
import operator
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
    return _unitaries(np.random.default_rng(seed).standard_normal((1, 2, n, n)))[0]


def _unitaries(draws: np.ndarray) -> np.ndarray:
    """Stack of Haar unitaries from (k, 2, n, n) normals, the real then the
    imaginary parts of each Ginibre matrix: one stacked QR and one phase fix."""
    z = (draws[:, 0] + 1j * draws[:, 1]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q *= (d / np.abs(d))[:, None, :]
    return q


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) in uint32
# arithmetic, and the multiplier of PCG64's 128-bit LCG.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_chain(init: int, mult: int, calls: int) -> np.ndarray:
    """(calls + 1, 1) uint32 constants that ``calls`` hashmix calls run through:
    call j XORs with row j and multiplies by row j + 1."""
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per row of the constants ``xor`` and ``mul``."""
    values = (values ^ xor) * mul
    return values ^ values >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> np.uint32(16)


def _pcg64_states(seeds) -> list:
    """``bit_generator.state`` of default_rng(seed) for every seed, in one pass.

    SeedSequence(seed) hashes the seed's 32-bit words into a pool of four and
    draws PCG64's 128-bit seed and increment from it.  Every seed meets the
    same chain of hash constants, so the pools of all seeds are mixed at once,
    one column per seed.  Words past the fourth (seeds >= 2^128) take extra
    mixing rounds, kept only for the seeds that have them.  The PCG64 set-seq
    step then runs in Python ints.  Raises ValueError on a negative seed, as
    default_rng does.
    """
    seeds = [operator.index(s) for s in seeds]
    if min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    width = max(_POOL_SIZE, -(-max(seeds).bit_length() // 32))
    # (width, len(seeds)): a seed's words, then zeros, which the pool's first fill hashes.
    entropy = np.frombuffer(b"".join(s.to_bytes(4 * width, "little") for s in seeds),
                            dtype="<u4").reshape(len(seeds), width).T.astype(np.uint32)
    chain = _hash_chain(_INIT_A, _MULT_A, _POOL_SIZE * width)
    pool = _hashmix(entropy[:_POOL_SIZE], chain[:_POOL_SIZE], chain[1:_POOL_SIZE + 1])
    # Each source word mixes into the other three in turn; they do not feed each
    # other, so one pass over the pool mixes all three and keeps the source row.
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        rows = np.arange(_POOL_SIZE)
        rows = call + rows - (rows >= src)  # the source's row borrows a neighbour's, then is reset
        mixed = _mix(pool, _hashmix(pool[src], chain[rows], chain[rows + 1]))
        mixed[src] = pool[src]
        pool = mixed
        call += _POOL_SIZE - 1
    if width > _POOL_SIZE:
        words = np.array([-(-s.bit_length() // 32) for s in seeds])
        for src in range(_POOL_SIZE, width):
            consts = chain[call:call + _POOL_SIZE + 1]
            mixed = _mix(pool, _hashmix(entropy[src], consts[:-1], consts[1:]))
            pool = np.where(words > src, mixed, pool)
            call += _POOL_SIZE

    # generate_state(4, np.uint64): eight words cycled from the pool, paired low-high.
    chain = _hash_chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    out = _hashmix(np.tile(pool, (2, 1)), chain[:-1], chain[1:]).astype(np.uint64)
    halves = (out[0::2] | out[1::2] << np.uint64(32)).tolist()

    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*halves):
        # pcg_setseq_128_srandom_r: state 0, step, add the seed, step.
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        state = (((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _haar_stack(n: int, states, rng) -> np.ndarray:
    """(len(states), n, n) stack of Haar unitaries, matrix k drawn by the
    Generator ``rng`` from bit-generator state states[k]: with
    _pcg64_states(seeds), the stack of haar_unitary(n, seed), each seed's
    default_rng(seed) stream unchanged.  (No annotation names np.random,
    which would import it with this module.)"""
    draws = np.empty((len(states), 2, n, n))
    bit_generator = rng.bit_generator
    for out, state in zip(draws, states):
        bit_generator.state = state
        rng.standard_normal(out=out)
    return _unitaries(draws)


def evaluate_formula(gammas, alphas, x) -> complex:
    """F(X) = sum_j gamma_j prod_i (sum_k alpha_jk X[i, k]) for gammas (r,) and
    alphas (r, n); cost O(r n^2)."""
    alphas, x = np.asarray(alphas, dtype=complex), np.asarray(x, dtype=complex)
    n = alphas.shape[-1]
    if x.shape != (n, n):
        raise ValueError(f"matrix must be {n} x {n}")
    return complex(np.prod(x @ alphas.T, axis=0) @ np.asarray(gammas, dtype=complex))


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
    Every trial's stream is the one default_rng(seed + i) gives, its state
    computed with all the others' in one pass (_pcg64_states).  Raises
    ResourceLimit past MAX_MODES modes or MAX_TRIALS trials, before anything
    is drawn, ValueError on a negative seed, as default_rng does, and
    NumericalFailure if any trial's error exceeds the bound.
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
    states = _pcg64_states(range(seed, seed + trials))
    rng = np.random.default_rng(0)  # every draw first sets a trial's state
    rows = []
    for start in range(0, trials, block):
        stop = min(start + block, trials)
        seeds = range(seed + start, seed + stop)
        per = _glynn(_haar_stack(modes, states[start:stop], rng))
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
