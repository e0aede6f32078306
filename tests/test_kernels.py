import itertools
import tracemalloc

import numpy as np
import pytest

from csrank import _kernels
from csrank import permanent
from csrank.permanent import haar_unitary, permanent_naive

KERNELS = (_kernels.glynn, _kernels.ryser)


def _reference(m):
    """permanent_naive, with one Laplace expansion along the first row past its limit."""
    n = len(m)
    if n <= 8:
        return permanent_naive(m)
    return sum(m[0, j] * permanent_naive(np.delete(m[1:], j, axis=1)) for j in range(n))


def _permutation_loop(m):
    """The permanent as the textbook sum: one product per itertools permutation."""
    n = len(m)
    total = 0j
    for sigma in itertools.permutations(range(n)):
        term = 1.0 + 0j
        for i in range(n):
            term *= m[i, sigma[i]]
        total += term
    return total


def _within_perfbench_tolerance(a, b, n):
    """The permanent check of perfbench: max(1e-9 |Per|, n 2^-52) absolute."""
    return abs(a - b) <= max(1e-9 * abs(b), n * 2.0**-52)


def test_backend_reported():
    assert _kernels.BACKEND == "python"


@pytest.mark.parametrize("n", range(10))
def test_python_kernels_tiny_sizes(n):
    # Odd and even splits of the 2^k patterns; Glynn at n = 2 has a zero-bit high half.
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    expected = _reference(m)
    for kernel in KERNELS:
        value = kernel(m)
        assert isinstance(value, complex)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", range(10, 19))
def test_glynn_and_ryser_agree_on_haar_unitaries(n):
    # n = 16..18 span more than one block of 2^15 products.
    u = haar_unitary(n, seed=100 + n)
    assert _within_perfbench_tolerance(_kernels.glynn(u), _kernels.ryser(u), n)


@pytest.mark.parametrize("kernel", KERNELS, ids=["glynn", "ryser"])
def test_repeated_calls_are_bit_identical(kernel):
    u = haar_unitary(11, seed=7)
    first = kernel(u)
    assert kernel(u) == first and kernel(u.copy()) == first
    for bits in (5, 6):
        for pattern in _kernels._patterns(bits, kernel is _kernels.glynn):
            assert not pattern.flags.writeable


@pytest.mark.parametrize("kernel", KERNELS, ids=["glynn", "ryser"])
def test_small_blocks_give_the_same_sum(monkeypatch, kernel):
    # A block narrower than the low half holds one high pattern at a time; a
    # block wider than one matrix's pairs spans several matrices of a stack.
    rng = np.random.default_rng(4)
    stacks = [haar_unitary(12, seed=3), haar_unitary(15, seed=5)] + [
        rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        for count, n in ((9, 3), (37, 6), (5, 9), (3, 11))]
    expected = [kernel(a) for a in stacks]
    for bits in (0, 3, 7, 9, 12, 14, 16, 20):
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", bits)
        for a, value in zip(stacks, expected):
            assert np.array_equal(kernel(a), value)


@pytest.mark.parametrize("kernel", KERNELS, ids=["glynn", "ryser"])
def test_caller_buffer_size_neither_changes_the_sum_nor_is_changed(kernel):
    rng = np.random.default_rng(12)
    stacks = [haar_unitary(12, seed=12), haar_unitary(17, seed=17),
              rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))]
    expected = [kernel(a) for a in stacks]
    before = np.getbufsize()
    try:
        for size in (16, 8192, 1 << 16):
            np.setbufsize(size)
            for a, value in zip(stacks, expected):
                assert np.array_equal(kernel(a), value)
                assert np.getbufsize() == size
    finally:
        np.setbufsize(before)


@pytest.mark.parametrize("kernel", KERNELS, ids=["glynn", "ryser"])
def test_a_raising_block_loop_restores_the_buffer_size(monkeypatch, kernel):
    def fail(*args, **kwargs):
        raise RuntimeError("matmul failed")

    u = haar_unitary(14, seed=14)
    monkeypatch.setattr(_kernels.np, "matmul", fail)  # called once per block
    before = np.setbufsize(1 << 16)
    try:
        with pytest.raises(RuntimeError, match="matmul failed"):
            kernel(u)
        assert np.getbufsize() == 1 << 16
    finally:
        np.setbufsize(before)


@pytest.mark.parametrize("n", [18, 20])
@pytest.mark.parametrize("kernel", KERNELS, ids=["glynn", "ryser"])
def test_kernel_memory_stays_within_a_few_blocks(kernel, n):
    # One block of 2^15 complex products is 512 KiB, and a call holds two such
    # buffers; the half-tables are far smaller.
    u = haar_unitary(n, seed=n)
    kernel(u)  # the pattern cache is filled outside the measurement
    tracemalloc.start()
    try:
        kernel(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (1 << _kernels._BLOCK_BITS) * 16


@pytest.mark.parametrize("n", range(9))
def test_naive_permanent_matches_the_permutation_loop(n):
    rng = np.random.default_rng(50 + n)
    ints = rng.integers(-3, 4, size=(n, n)) + 1j * rng.integers(-3, 4, size=(n, n))
    assert permanent_naive(ints) == _permutation_loop(ints)  # every partial sum is exact
    for seed in range(3 if n else 0):
        u = haar_unitary(n, seed=seed)
        # |Per(U)| <= 1 for a unitary, so this is 1e-15 of the largest it can be;
        # a relative bound fails where the permanent itself nearly cancels
        assert abs(permanent_naive(u) - _permutation_loop(u)) <= 1e-15


def test_naive_permanent_table_is_cached_and_read_only():
    table = permanent._permutation_table(7)
    assert table.shape == (5040, 7) and table.dtype == np.int8 and not table.flags.writeable
    assert permanent._permutation_table(7) is table
    assert [tuple(row) for row in table[:3].tolist()] == list(itertools.permutations(range(7)))[:3]
    assert permanent_naive(np.zeros((0, 0))) == 1.0


def test_naive_permanent_memory_stays_under_one_kernel_block():
    u = haar_unitary(8, seed=8)
    permanent_naive(u)  # the permutation table is built outside the measurement
    tracemalloc.start()
    try:
        permanent_naive(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << _kernels._BLOCK_BITS) * 16
