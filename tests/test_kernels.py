import numpy as np
import pytest

from csrank import _kernels
from csrank.permanent import permanent_naive


def test_backend_reported():
    assert _kernels.BACKEND == "python"


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
def test_python_kernels_tiny_sizes(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    expected = permanent_naive(m)
    for kernel in (_kernels.glynn, _kernels.ryser):
        value = kernel(m)
        assert isinstance(value, complex)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
