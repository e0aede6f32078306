import cmath
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from csrank import _kernels, permanent
from csrank.decomp import circle_decomposition, delta_cat_product
from csrank.errors import ResourceLimit
from csrank.fock import coherent_columns, fock_state
from csrank.multimode import MultimodeSuperposition
from csrank.permanent import (
    MultilinearFormula,
    _haar_stack,
    _odd_cat_power,
    evaluate_formula,
    haar_unitary,
    permanent_glynn,
    permanent_naive,
    permanent_ryser,
    verify_permanent_bound,
)


def formula_from_decomposition(sup: MultimodeSuperposition) -> MultilinearFormula:
    """gamma_j = c_j e^{-||alpha_j||^2/2}; row j of alphas is alpha_j."""
    alphas = sup.displacements()
    gammas = sup.coefficients() * np.exp(-0.5 * np.sum(np.abs(alphas) ** 2, axis=1))
    return MultilinearFormula(alphas.shape[1], gammas, alphas)


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
    assert report.max_error <= report.bound
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


def test_verify_bound_refuses_trials_past_the_cap_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a refused call drew a unitary")

    monkeypatch.setattr(permanent, "_haar_stack", no_draws)
    for trials in (permanent.MAX_TRIALS + 1, 10**400):
        with pytest.raises(ResourceLimit, match=f"at most {permanent.MAX_TRIALS} trials"):
            verify_permanent_bound(4, 0.1, trials=trials, seed=0)
    assert permanent.MAX_TRIALS >= 100  # the trials the bridge benchmark runs


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
    sum c^dag G c cancels, and already at n = 3, d = 0.3 moves
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
            delta_inf, _ = _odd_cat_power(n, delta)
            assert delta_inf == pytest.approx(exact, rel=1e-13)


def _bridge_formula(modes, delta):
    """(formula, phase) of the bridge's normalized odd-cat power: the 2^n rows are
    the index product of circle_decomposition(|1>, delta)'s two terms, first mode
    slowest, and the phase is that of the power's |1>^n amplitude."""
    factor = circle_decomposition(fock_state(1), delta)
    coeffs, alphas = factor.coefficients(), factor.displacements()
    amps = coherent_columns(alphas, permanent.FACTOR_CUTOFF) @ coeffs
    norm = math.sqrt(float((np.abs(amps) ** 2).sum()))
    gamma = coeffs * np.exp(-0.5 * np.abs(alphas) ** 2) / norm
    rows = np.indices((len(alphas),) * modes).reshape(modes, -1).T
    formula = MultilinearFormula(modes, np.prod(gamma[rows], axis=1), alphas[rows])
    return formula, (amps[1] / abs(amps[1])) ** modes


def _identity_tolerance(formula, u) -> float:
    """Rounding bound on |e^{-i theta} F(U) - sqrt(1 - delta_inf) Glynn(U)|.  Each
    side sums at most 2^n products of n inner sums of n terms, with its data and
    scale a few roundings off, so it rounds within (4n + 2^n + 4) u of the sum of
    its terms' absolute values: for F the formula at |gamma|, |alpha| and |U|, for
    Glynn's average of 2^(n-1) products at most prod_i sum_k |U_ik|."""
    n = formula.n
    abs_formula = MultilinearFormula(n, np.abs(formula.gammas), np.abs(formula.alphas))
    terms = evaluate_formula(abs_formula, np.abs(u)).real + np.prod(np.abs(u).sum(axis=1))
    return (4 * n + 2**n + 4) * 2.0**-53 * terms


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("delta", [0.1, 0.4])
def test_bridge_formula_is_the_normalized_cat_product_formula(n, delta):
    reference = formula_from_decomposition(delta_cat_product(n, delta))
    formula = _bridge_formula(n, delta)[0]
    np.testing.assert_array_equal(formula.alphas, reference.alphas)
    np.testing.assert_allclose(formula.gammas * _cat_norm(n, delta), reference.gammas,
                               rtol=1e-12, atol=0)


def _one_haar(n, seed):
    """One Haar unitary by the per-matrix QR method, drawn as the bridge draws it."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n", range(1, 17))
def test_stacked_haar_draws_are_bit_identical_to_single_draws(n):
    seeds = range(40 * n, 40 * n + 7)
    expected = np.array([_one_haar(n, s) for s in seeds])
    np.testing.assert_array_equal(_haar_stack(n, seeds), expected)
    np.testing.assert_array_equal(np.array([haar_unitary(n, s) for s in seeds]), expected)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 9])
@pytest.mark.parametrize("kernel", [_kernels.glynn, _kernels.ryser], ids=["glynn", "ryser"])
def test_stacked_kernels_match_per_matrix_calls(monkeypatch, kernel, n):
    # Small blocks split the stack between matrices and within one matrix.
    stack = _haar_stack(n, range(9))
    expected = np.array([kernel(u) for u in stack])
    for bits in (2, 4, 6, 16):
        monkeypatch.setattr(_kernels, "_BLOCK_BITS", bits)
        values = kernel(stack)
        assert values.shape == (9,)
        assert np.max(np.abs(values - expected)) <= n * 2.0**-52


@pytest.mark.filterwarnings("ignore:circle decomposition at delta=1e-08")
@pytest.mark.parametrize("modes", [1, 2, 3, 6])
@pytest.mark.parametrize("delta", [1e-8, 0.1, 0.5])
def test_bridge_formula_is_the_scaled_permanent(modes, delta):
    # The odd cat has only odd occupations, so F(U) = sqrt(1 - delta_inf) Per(U)
    # once the phase is aligned, and every row sits at or under its bound.
    formula, phase = _bridge_formula(modes, delta)
    report = verify_permanent_bound(modes, delta, trials=20, seed=5)
    scale = math.sqrt(1.0 - report.delta_inf)
    for u in _haar_stack(modes, range(5, 25)):
        value = np.conj(phase) * evaluate_formula(formula, u)
        assert abs(value - scale * permanent_glynn(u)) <= _identity_tolerance(formula, u)
    assert all(row[4] <= report.bound for row in report.trials)
    assert report.passed and report.max_error <= report.bound


def _reference_rows(modes, delta, trials, seed):
    """verify_permanent_bound's rows scored one trial at a time through the formula,
    each with the identity's rounding bound."""
    formula, phase = _bridge_formula(modes, delta)
    rows = []
    for i in range(trials):
        u = _one_haar(modes, seed + i)
        per = permanent_glynn(u)
        val = np.conj(phase) * evaluate_formula(formula, u)
        rows.append((i, seed + i, abs(per), abs(val), abs(per - val),
                     _identity_tolerance(formula, u)))
    return rows


@pytest.mark.parametrize("modes, max_rows", [(1, 1 << 10), (4, 1 << 10), (8, 1 << 10),
                                             (8, permanent.TRIAL_BLOCK_ROWS)])
def test_blocked_trials_match_the_per_trial_loop(monkeypatch, modes, max_rows):
    monkeypatch.setattr(permanent, "TRIAL_BLOCK_ROWS", max_rows)
    block = max_rows >> modes
    for trials in sorted({1, block, block + 1, 100}):
        report = verify_permanent_bound(modes, 0.2, trials=trials, seed=3)
        expected = _reference_rows(modes, 0.2, trials, seed=3)
        assert [row[:2] for row in report.trials] == [row[:2] for row in expected]
        values = np.array([row[2:] for row in report.trials])
        reference = np.array([row[2:5] for row in expected])
        # A stacked matrix product may round an ulp apart from a single one; the
        # closed form's |F| and error are the formula's within the identity's bound.
        np.testing.assert_allclose(values[:, 0], reference[:, 0], rtol=0, atol=2.0**-51)
        tolerance = np.array([row[5] for row in expected]) + 2.0**-51
        assert np.all(np.abs(values[:, 1:] - reference[:, 1:]) <= tolerance[:, None])
        assert report.max_error == max(row[4] for row in report.trials)


def test_blocked_trials_keep_the_memory_of_one_trial_at_16_modes():
    # The bridge builds no formula: its peak is one trial's Glynn pass at 16 modes,
    # 1,419,944 bytes here (numpy 2.4), where evaluating the 2^16-row formula
    # took 34,609,576.
    verify_permanent_bound(16, 0.2, trials=1)  # caches fill outside the measurement
    tracemalloc.start()
    try:
        verify_permanent_bound(16, 0.2, trials=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000
