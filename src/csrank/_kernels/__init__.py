"""Permanent kernels: Glynn and Ryser sums evaluated with numpy.

Glynn:  Per(A) = 2^{1-n} sum_{d in {+-1}^n, d_1 = +1} (prod_i d_i)
                 prod_j (sum_i d_i A[i, j])
Ryser:  Per(A) = (-1)^n sum_{S nonempty} (-1)^{|S|} prod_i (sum_{j in S} A[i, j])

Both enumerate their 2^{n-1} (resp. 2^n - 1) terms in blocks of at most
2^16 sign rows, so memory stays bounded; each block is one matrix product,
for O(2^n n^2) work in all.
"""

import numpy as np

# The benchmark reports this beside its results; numpy is the only backend.
BACKEND = "python"

_BLOCK_BITS = 16


def _sign_blocks(n_bits: int):
    """Yield the bits of k = 0 .. 2^n_bits - 1 as 0/1 integer rows, in blocks."""
    total = 1 << n_bits
    block = 1 << min(_BLOCK_BITS, n_bits)
    shifts = np.arange(n_bits, dtype=np.uint64)
    for start in range(0, total, block):
        k = np.arange(start, min(start + block, total), dtype=np.uint64)
        bits = (k[:, None] >> shifts[None, :]) & 1
        yield bits.astype(np.int64)


def glynn(a: np.ndarray) -> complex:
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for bits in _sign_blocks(n - 1):
        # delta = (+1, 1 - 2 bits); row sums delta @ a for the whole block
        deltas = 1 - 2 * bits
        sums = a[0, :][None, :] + deltas @ a[1:, :]
        parity = 1 - 2 * (bits.sum(axis=1) & 1)
        total += np.sum(parity * np.prod(sums, axis=1))
    return complex(total / (1 << (n - 1)))


def ryser(a: np.ndarray) -> complex:
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    first = True
    for bits in _sign_blocks(n):
        if first:
            bits = bits[1:]  # skip the empty subset
            first = False
        cols = bits.sum(axis=1)
        sums = bits @ a.T  # row i sums over the selected columns
        parity = 1 - 2 * (cols & 1)
        total += np.sum(parity * np.prod(sums, axis=1))
    return complex((-1) ** n * total)
