"""Permanent kernels: Glynn and Ryser sums evaluated with numpy.

Glynn:  Per(A) = 2^{1-n} sum_{d in {+-1}^n, d_1 = +1} (prod_i d_i)
                 prod_j (sum_i d_i A[i, j])
Ryser:  Per(A) = (-1)^n sum_{S nonempty} (-1)^{|S|} prod_i (sum_{j in S} A[i, j])

Both sum parity(x) prod_i (c_i + (M x)_i) over 2^k bit patterns x, split into
low and high halves: each half's partial sums M x are one matrix product with
its cached patterns, and the products build in place, factor lo[i, l] + hi[i, h]
by factor, in blocks of at most 2^16 (h, l) pairs: O(2^n n) work, O(2^{n/2} n
+ 2^16) memory.
"""

from functools import lru_cache

import numpy as np

# The benchmark reports this beside its results; numpy is the only backend.
BACKEND = "python"

_BLOCK_BITS = 16


@lru_cache(maxsize=None)
def _patterns(bits: int, signed: bool):
    """(bits, 2^bits) pattern rows (1 - 2 x if signed, else x) and the parity
    (-1)^{|x|} of each pattern x, both read-only complex."""
    x = (np.arange(1 << bits) >> np.arange(bits)[:, None]) & 1
    parity = (1 - 2 * (x.sum(axis=0) & 1)).astype(complex)
    rows = (1 - 2 * x if signed else x).astype(complex)
    rows.flags.writeable = parity.flags.writeable = False
    return rows, parity


def _pattern_sum(m: np.ndarray, offset, signed: bool) -> complex:
    """sum_x parity(x) prod_i (offset + m x)_i over the 2^k bit patterns x."""
    n, k = m.shape
    low = (k + 1) // 2
    rows_lo, parity_lo = _patterns(low, signed)
    rows_hi, parity_hi = _patterns(k - low, signed)
    lo = m[:, :low] @ rows_lo + offset
    hi = m[:, low:] @ rows_hi
    step = 1 << max(0, _BLOCK_BITS - low)
    total = 0j
    for start in range(0, hi.shape[1], step):
        h = hi[:, start : start + step, None]
        p = lo[0] + h[0]
        for i in range(1, n):
            p *= lo[i] + h[i]
        total += parity_hi[start : start + step] @ (p @ parity_lo)
    return complex(total)


def glynn(a: np.ndarray) -> complex:
    a = np.asarray(a, dtype=complex)
    if len(a) <= 1:
        return complex(a[0, 0]) if len(a) else 1.0 + 0j
    return _pattern_sum(a[1:].T, a[0][:, None], signed=True) / (1 << (len(a) - 1))


def ryser(a: np.ndarray) -> complex:
    a = np.asarray(a, dtype=complex)
    if len(a) <= 1:
        return complex(a[0, 0]) if len(a) else 1.0 + 0j
    return (-1) ** len(a) * _pattern_sum(a, 0, signed=False)
