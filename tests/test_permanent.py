import cmath
import math
from itertools import product

import numpy as np
import pytest

from csrank.decomp import delta_cat_product
from csrank.errors import ResourceLimit
from csrank.multimode import MultimodeSuperposition
from csrank.permanent import (
    MultilinearFormula,
    _odd_cat_power,
    evaluate_formula,
    formula_from_decomposition,
    haar_unitary,
    permanent_glynn,
    permanent_naive,
    permanent_ryser,
    verify_permanent_bound,
)


def test_naive_identity_and_definition():
    assert permanent_naive(np.eye(3)) == pytest.approx(1.0)
    assert permanent_naive([[1, 2], [3, 4]]) == pytest.approx(10.0)
    assert permanent_naive(np.ones((2, 2))) == pytest.approx(2.0)


def test_naive_resource_limit():
    with pytest.raises(ResourceLimit):
        permanent_naive(np.eye(9))


def test_kernels_resource_limit():
    with pytest.raises(ResourceLimit):
        permanent_glynn(np.eye(25))
    with pytest.raises(ResourceLimit):
        permanent_ryser(np.eye(25))


def test_kernel_oracle_equivalence():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ref = permanent_naive(m)
        assert abs(permanent_glynn(m) - ref) <= 1e-9 * abs(ref)
        assert abs(permanent_ryser(m) - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("n", [1, 5, 12, 20])
def test_kernels_identity(n):
    assert permanent_glynn(np.eye(n)) == pytest.approx(1.0, rel=1e-12)
    assert permanent_ryser(np.eye(n)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_all_ones_factorial(n):
    expected = float(math.factorial(n))
    assert permanent_glynn(np.ones((n, n))) == pytest.approx(expected, rel=1e-11)
    assert permanent_ryser(np.ones((n, n))) == pytest.approx(expected, rel=1e-11)
    if n <= 8:
        assert permanent_naive(np.ones((n, n))) == pytest.approx(expected, rel=1e-12)


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        permanent_glynn(np.ones((2, 3)))


def test_haar_unitary_properties():
    u1 = haar_unitary(1, seed=0)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    u = haar_unitary(8, seed=3)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12
    assert np.array_equal(haar_unitary(5, seed=11), haar_unitary(5, seed=11))


def test_formula_single_term():
    sup = MultimodeSuperposition([(1.0, np.ones(2))])
    f = formula_from_decomposition(sup)
    assert f.gammas[0] == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert evaluate_formula(f, np.eye(2)) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_formula_gamma_at_zero_displacement():
    sup = MultimodeSuperposition([(0.3 + 0.4j, np.zeros(3))])
    f = formula_from_decomposition(sup)
    assert f.gammas[0] == pytest.approx(0.3 + 0.4j)


def test_formula_size_accounting():
    sup = delta_cat_product(3, 0.2)
    f = formula_from_decomposition(sup)
    assert len(f.gammas) == 8
    assert np.all(np.isin(np.round(f.alphas.real, 12), [0.2, -0.2]))
    assert f.size == 8 * 9


def test_formula_zero_matrix():
    sup = delta_cat_product(2, 0.3)
    f = formula_from_decomposition(sup)
    assert evaluate_formula(f, np.zeros((2, 2))) == 0


def test_formula_multilinearity():
    rng = np.random.default_rng(9)
    sup = delta_cat_product(3, 0.4)
    f = formula_from_decomposition(sup)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    base = evaluate_formula(f, x)
    for i in range(3):
        scaled = x.copy()
        scaled[i] *= 2.5
        assert evaluate_formula(f, scaled) == pytest.approx(2.5 * base, rel=1e-12)


def test_formula_dimension_mismatch():
    f = MultilinearFormula(2, np.ones(1), np.ones((1, 2)))
    with pytest.raises(ValueError):
        evaluate_formula(f, np.eye(3))


def test_verify_bound_scalar_case():
    report = verify_permanent_bound(1, 0.2, trials=25, seed=1)
    assert report.max_error <= report.bound + 1e-9
    assert report.delta_inf < 1e-3


def test_verify_bound_n4():
    report = verify_permanent_bound(4, 0.2, trials=25, seed=0)
    assert report.passed
    assert len(report.trials) == 25


def test_verify_bound_errors_shrink_with_delta():
    big = verify_permanent_bound(4, 0.5, trials=25, seed=0)
    small = verify_permanent_bound(4, 0.2, trials=25, seed=0)
    assert small.delta_inf < big.delta_inf
    assert small.max_error < big.max_error


def test_verify_bound_rejects_poor_approximations():
    with pytest.raises(ValueError):
        verify_permanent_bound(1, 1.5, trials=5, seed=0)


def test_verify_bound_resource_limit():
    with pytest.raises(ResourceLimit):
        verify_permanent_bound(17, 0.2, trials=1, seed=0)


def _brute_force_box(coeffs, alphas):
    """occupation -> sum_j c_j prod_i e^{-|a_ji|^2/2} a_ji^k_i / sqrt(k_i!)."""
    n = alphas.shape[1]
    box = {}
    for occ in product(range(3), repeat=n):
        total = 0j
        for c, row in zip(coeffs, alphas):
            term = complex(c)
            for a, k in zip(row, occ):
                term *= cmath.exp(-abs(a) ** 2 / 2) * a**k / math.sqrt(math.factorial(k))
            total += term
        box[occ] = total
    return box


def _cat_norm(n, delta):
    """Norm of delta_cat_product(n, delta).  The odd cat's |1> amplitude is 1,
    so its squared norm is sinh(d^2) / d^2 exactly; the 2^n x 2^n coherent Gram
    sum of superposition_norm_sq cancels, and already at n = 3, d = 0.3 moves
    delta_inf by 2.4e-14."""
    return (math.sinh(delta**2) / delta**2) ** (n / 2)


def test_verify_bound_overlap_and_tail_match_brute_force():
    for n in (1, 2, 3):
        sup = delta_cat_product(n, 0.3)
        report = verify_permanent_bound(n, 0.3, trials=2, seed=0)
        oracle = _brute_force_box(sup.coefficients() / _cat_norm(n, 0.3), sup.displacements())
        assert report.delta_inf == pytest.approx(1.0 - abs(oracle[(1,) * n]) ** 2, abs=1e-14)
        oracle_tail = 1.0 - sum(abs(v) ** 2 for v in oracle.values())
        assert report.tail_weight == pytest.approx(oracle_tail, abs=1e-14)


@pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.1, 0.2, 0.5])
def test_delta_inf_matches_closed_form(delta):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.mpf(delta) ** 2
        for n in range(1, 17):
            exact = float(1 - (x / mpmath.sinh(x)) ** n)
            _, delta_inf, _, _ = _odd_cat_power(n, delta)
            assert delta_inf == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("delta", [0.1, 0.4])
def test_bridge_formula_is_the_normalized_cat_product_formula(n, delta):
    reference = formula_from_decomposition(delta_cat_product(n, delta))
    formula = _odd_cat_power(n, delta)[0]
    np.testing.assert_array_equal(formula.alphas, reference.alphas)
    np.testing.assert_allclose(formula.gammas * _cat_norm(n, delta), reference.gammas,
                               rtol=1e-12, atol=0)
