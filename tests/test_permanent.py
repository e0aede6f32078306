import cmath
import math
from itertools import product

import numpy as np
import pytest

from csrank.decomp import delta_cat_product
from csrank.errors import ResourceLimit
from csrank.fock import coherent_gram, superposition_norm_sq
from csrank.multimode import MultimodeSuperposition
from csrank.permanent import (
    MultilinearFormula,
    _box_amplitudes,
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
    report = verify_permanent_bound(delta_cat_product(1, 0.2), trials=25, seed=1)
    assert report.max_error <= report.bound + 1e-9
    assert report.delta_inf < 1e-3


def test_verify_bound_n4():
    report = verify_permanent_bound(delta_cat_product(4, 0.2), trials=25, seed=0)
    assert report.passed
    assert len(report.trials) == 25


def test_verify_bound_errors_shrink_with_delta():
    big = verify_permanent_bound(delta_cat_product(4, 0.5), trials=25, seed=0)
    small = verify_permanent_bound(delta_cat_product(4, 0.2), trials=25, seed=0)
    assert small.delta_inf < big.delta_inf
    assert small.max_error < big.max_error


def test_verify_bound_rejects_poor_approximations():
    with pytest.raises(ValueError):
        verify_permanent_bound(delta_cat_product(1, 1.5), trials=5, seed=0)


def test_verify_bound_resource_limit():
    with pytest.raises(ResourceLimit):
        verify_permanent_bound(delta_cat_product(9, 0.2), trials=1, seed=0)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_amplitudes_match_brute_force(n):
    rng = np.random.default_rng(40 + n)
    for k in (1, 3, 5):
        coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        alphas = 0.6 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        sup = MultimodeSuperposition(zip(coeffs, alphas))
        coeffs = sup.coefficients() / math.sqrt(superposition_norm_sq(sup))
        box = _box_amplitudes(coeffs, alphas)
        oracle = _brute_force_box(coeffs, alphas)
        assert box.shape == (3,) * n
        for occ, amp in oracle.items():  # the overlap <1^n|phi> is occ = (1,) * n
            assert abs(box[occ] - amp) <= 1e-14
        tail = 1.0 - float(np.vdot(box, box).real)
        oracle_tail = 1.0 - sum(abs(v) ** 2 for v in oracle.values())
        assert abs(tail - oracle_tail) <= 1e-14


def test_verify_bound_overlap_and_tail_match_brute_force():
    sup = delta_cat_product(3, 0.3)
    report = verify_permanent_bound(sup, trials=2, seed=0)
    norm = math.sqrt(superposition_norm_sq(sup))
    oracle = _brute_force_box(sup.coefficients() / norm, sup.displacements())
    assert report.delta_inf == pytest.approx(1.0 - abs(oracle[(1, 1, 1)]) ** 2, abs=1e-14)
    oracle_tail = 1.0 - sum(abs(v) ** 2 for v in oracle.values())
    assert report.tail_weight == pytest.approx(oracle_tail, abs=1e-14)


@pytest.mark.xfail(
    strict=True,
    reason="the coherent Gram norm of the 256-term cat product cancels in double "
    "precision; the bridge's delta_inf inherits the error",
)
def test_cat_product_gram_norm_matches_closed_form():
    modes, delta = 8, 0.1
    sup = delta_cat_product(modes, delta)
    c = sup.coefficients()
    norm_sq = float(np.real(np.conj(c) @ coherent_gram(sup.displacements()) @ c))
    exact = (math.sinh(delta**2) / delta**2) ** modes
    assert norm_sq == pytest.approx(exact, rel=1e-9)
