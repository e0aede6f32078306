"""Permanent kernels: Glynn and Ryser sums evaluated with numpy.

Glynn:  Per(A) = 2^{1-n} sum_{d in {+-1}^n, d_1 = +1} (prod_i d_i)
                 prod_j (sum_i d_i A[i, j])
Ryser:  Per(A) = (-1)^n sum_{S nonempty} (-1)^{|S|} prod_i (sum_{j in S} A[i, j])

Both sum parity(x) prod_i (c_i + (M x)_i) over 2^k bit patterns x, split into
low and high halves: each half's partial sums M x are one matrix product with
its cached patterns, and the products build in place, factor lo[i, l] + hi[i, h]
by factor, in blocks of at most 2^15 (h, l) pairs (two high patterns where one
holds more): O(2^n n) work, O(2^{n/2} n + 2^15) memory.  A call allocates two
block buffers, the product and the factor, and builds every block in them
(2 x 512 KiB, which a 2 MiB L2 holds).  The operations and their order are
those of p = lo[0] + hi[0]; p *= lo[i] + hi[i], so every sum is the same to
the bit at any block size.  Each kernel takes one n x n matrix, giving a
complex, or a (T, n, n) stack, giving a (T,) array from one pass over the
stack's half-tables (O(T 2^{n/2} n + 2^15) memory); a block then spans several
matrices wherever one matrix has fewer than 2^15 pairs.

Each add broadcasts runs of 2^low entries, low the low half's bits, and numpy
copies such an operand through its ufunc buffer (8192 entries by default) when
the run is under half the buffer: at n = 18 that copy made the adds three
quarters of kernel time.  So from low = _RUN_BITS on the blocks build with the
buffer one run long, and the caller's size is put back on return or raise;
shorter runs (Glynn to n = 9, Ryser to n = 8) add faster buffered and keep the
caller's size.  Buffering only moves operands, so every sum keeps its bits.
n = 18 on a 2-core x86-64 host: Glynn 8.9 -> 4.3 ms, Ryser 17.0 -> 7.8 ms.
"""

from functools import lru_cache

import numpy as np

# The benchmark reports this beside its results; numpy is the only backend.
BACKEND = "python"

_BLOCK_BITS = 15
_RUN_BITS = 5  # low halves this wide add unbuffered; narrower ones buffered


@lru_cache(maxsize=None)
def _patterns(bits: int, signed: bool):
    """(bits, 2^bits) pattern rows (1 - 2 x if signed, else x) and the parity
    (-1)^{|x|} of each pattern x, both read-only complex."""
    x = (np.arange(1 << bits) >> np.arange(bits)[:, None]) & 1
    parity = (1 - 2 * (x.sum(axis=0) & 1)).astype(complex)
    rows = (1 - 2 * x if signed else x).astype(complex)
    rows.flags.writeable = parity.flags.writeable = False
    return rows, parity


def _pattern_sum(m: np.ndarray, offset, signed: bool) -> np.ndarray:
    """sum_x parity(x) prod_i (offset + m x)_i over the 2^k bit patterns x,
    for each (n, k) matrix of the (T, n, k) stack m; offset is 0 or (T, n, 1)."""
    count, n, k = m.shape
    low = (k + 1) // 2
    rows_lo, parity_lo = _patterns(low, signed)
    rows_hi, parity_hi = _patterns(k - low, signed)
    # Factor i leads, so the product loop below takes plain views lo[i], hi[i].
    lo = (m[:, :, :low] @ rows_lo + offset).transpose(1, 0, 2)[:, :, None, :]
    hi = (m[:, :, low:] @ rows_hi).transpose(1, 0, 2)[..., None]
    # High patterns per block, two at least: numpy sums a one-row block by a dot
    # product, which rounds apart from the matrix-vector product of a taller one.
    step = min(hi.shape[2], 1 << max(1, _BLOCK_BITS - low))
    per_block = max(1, (1 << _BLOCK_BITS) // (step << low))  # matrices per block
    # Two buffers serve every block: the product and the factor it takes next.
    # The factor buffer starts 40 entries into its allocation, so the two do not
    # share an offset modulo the 4 KiB page.
    product = np.empty((min(per_block, count), step, 1 << low), dtype=complex)
    factor = np.empty(product.size + 40, dtype=complex)[40:].reshape(product.shape)
    sums = np.empty((count, hi.shape[2]), dtype=complex)  # [t, h] = sum over l
    # One run of 2^low per buffer adds unbuffered; see the module docstring.
    bufsize = np.setbufsize(1 << low if low >= _RUN_BITS else np.getbufsize())
    try:
        for t in range(0, count, per_block):
            lo_t = lo[:, t : t + per_block]
            p, f = product[: lo_t.shape[1]], factor[: lo_t.shape[1]]
            for start in range(0, hi.shape[2], step):
                h = hi[:, t : t + per_block, start : start + step]
                np.add(lo_t[0], h[0], out=p)
                for i in range(1, n):
                    np.add(lo_t[i], h[i], out=f)
                    p *= f
                np.matmul(p, parity_lo, out=sums[t : t + per_block, start : start + step])
    finally:
        np.setbufsize(bufsize)
    return sums @ parity_hi


def _permanents(a, pattern_sum):
    """Per of one n x n matrix (a complex) or of each matrix of a (T, n, n)
    stack (a (T,) array); pattern_sum(stack, n) scores the stack for n >= 2."""
    a = np.asarray(a, dtype=complex)
    stack = a[None] if a.ndim == 2 else a
    n = stack.shape[-1]
    if n > 1:
        per = pattern_sum(stack, n)
    else:
        per = stack[:, 0, 0].copy() if n else np.ones(len(stack), dtype=complex)
    return complex(per[0]) if a.ndim == 2 else per


def glynn(a: np.ndarray):
    return _permanents(a, lambda s, n: _pattern_sum(
        s[:, 1:].transpose(0, 2, 1), s[:, 0, :, None], signed=True) / (1 << (n - 1)))


def ryser(a: np.ndarray):
    return _permanents(a, lambda s, n: (-1) ** n * _pattern_sum(s, 0, signed=False))
