import math

import numpy as np
import pytest

from csrank import hankel
from csrank.errors import ResourceLimit
from csrank.fock import (
    CoherentSuperposition,
    CoherentTerm,
    FockVector,
    SqueezedParams,
    coherent_state,
    core_state,
    fock_state,
    squeezed_state,
    superposition_to_fock,
)
from csrank.hankel import (
    MAX_GRID_POINTS,
    SearchConfig,
    SearchConfigError,
    frobenius_norm_sq,
    hankel_matrix,
    numerical_rank,
    optimized_bound,
    plain_bound,
    rescaled_bound,
)


def k_term_state(alphas, coeffs, cutoff):
    terms = [CoherentTerm(c, a) for c, a in zip(coeffs, alphas)]
    return superposition_to_fock(CoherentSuperposition(terms), cutoff)


def test_fock_hankel_is_antidiagonal_with_equal_singular_values():
    for n in (1, 3, 7, 10):
        bundle = hankel_matrix(fock_state(n, 2 * n), n, 1.0)
        # all N+1 singular values equal sqrt(n!): check in the log domain
        log_sigma = np.log(bundle.singular_values) + bundle.scale_exponent
        assert np.allclose(log_sigma, 0.5 * math.lgamma(n + 1), atol=1e-10)
        off = bundle.matrix[np.add.outer(np.arange(n + 1), np.arange(n + 1)) != n]
        assert np.all(off == 0)


def test_fock1_hankel_matrix_entries():
    bundle = hankel_matrix(fock_state(1, 2), 1, 1.0)
    assert np.allclose(bundle.matrix, [[0, 1], [1, 0]])
    assert np.allclose(bundle.singular_values, [1, 1])
    assert bundle.scale_exponent == pytest.approx(0.0)


def test_hankel_structure_random_state():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    psi = FockVector(amps / np.linalg.norm(amps), 12)
    bundle = hankel_matrix(psi, 6, 0.7)
    m = bundle.matrix
    assert np.allclose(m, m.T)  # plain (not conjugate) transpose symmetry
    # constant anti-diagonals
    for s in range(13):
        vals = [m[i, s - i] for i in range(max(0, s - 6), min(6, s) + 1)]
        assert np.allclose(vals, vals[0])
    # entry check against the definition, in the log domain
    i, j = 2, 5
    n = i + j
    expected = (
        0.7**n * math.sqrt(math.factorial(n)) * psi.amplitudes[n]
        * math.exp(-bundle.scale_exponent)
    )
    assert m[i, j] == pytest.approx(expected, rel=1e-12)


def test_two_coherent_terms_have_rank_two():
    psi = k_term_state([0.9, -0.4 + 0.6j], [1.0, 0.8], cutoff=10)
    bundle = hankel_matrix(psi, 5, 1.0)
    assert numerical_rank(bundle, 1e-10) == 2


def test_cutoff_too_small_rejected():
    with pytest.raises(ValueError):
        hankel_matrix(fock_state(1, 3), 2, 1.0)
    with pytest.raises(ValueError):
        hankel_matrix(fock_state(1, 3), 1, -1.0)


def test_plain_bound_fock1():
    assert plain_bound(fock_state(1, 2), 1, 1) == pytest.approx(0.125, rel=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_plain_bound_fock_analytic(n):
    # exact integer-arithmetic oracle
    expected = math.factorial(n) / (2 * (n + 1) * math.factorial(2 * n))
    assert plain_bound(fock_state(n, 2 * n), n, n) == pytest.approx(expected, rel=1e-12)


def test_plain_bound_coherent_vanishes():
    psi = coherent_state(0.9, 20)
    bundle = hankel_matrix(psi, 5, 1.0)
    sigma1_sq = float(bundle.singular_values[0] ** 2)
    tail = float(np.sum(bundle.singular_values[1:] ** 2))
    assert tail <= 1e-12 * sigma1_sq


def test_plain_bound_argument_checks():
    with pytest.raises(ValueError):
        plain_bound(fock_state(1, 4), 3, 2)


def test_plain_bound_monotone_in_r():
    rng = np.random.default_rng(9)
    amps = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    psi = FockVector(amps / np.linalg.norm(amps), 12)
    vals = [plain_bound(psi, r, 6) for r in range(7)]
    assert all(a >= b - 1e-18 for a, b in zip(vals, vals[1:]))


def test_phase_covariance_of_singular_values():
    rng = np.random.default_rng(21)
    amps = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    psi = FockVector(amps, 10)
    rotated = FockVector(amps * np.exp(0.73j), 10)
    s1 = hankel_matrix(psi, 5, 0.8).singular_values
    s2 = hankel_matrix(rotated, 5, 0.8).singular_values
    assert np.allclose(s1, s2, rtol=1e-12)


def test_optimized_bound_fock1():
    res = optimized_bound(fock_state(1, 2), 1)
    # analytic maximum of b^2 / (2 max(1, 2b^2, 2b^4)) is 1/4 on b^2 in [1/2, 1]
    assert res.value == pytest.approx(0.25, rel=1e-9)
    assert 0.5 - 1e-6 <= res.b_star**2 <= 1.0 + 1e-6
    assert res.N_star == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_optimized_dominates_plain_fock(n):
    psi = fock_state(n, 2 * n)
    res = optimized_bound(psi, n, SearchConfig(N_max=n))
    assert res.value >= plain_bound(psi, n, n) * (1 - 1e-12)


def test_optimized_bound_fock12_magnitude():
    res = optimized_bound(fock_state(12, 24), 12)
    assert 1e-5 <= res.value <= 1e-3
    assert plain_bound(fock_state(12, 24), 12, 12) == pytest.approx(2.9693e-17, rel=1e-3)


def test_optimized_dominates_plain_at_every_searched_n():
    rng = np.random.default_rng(17)
    amps = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    psi = FockVector(amps / np.linalg.norm(amps), 16)
    cfg = SearchConfig(N_max=8)
    for r in (1, 2, 3):
        res = optimized_bound(psi, r, cfg)
        for N in range(max(r, 1), 9):
            assert res.value >= plain_bound(psi, r, N) * (1 - 1e-12)


def test_numerical_rank_cases():
    assert numerical_rank(hankel_matrix(fock_state(4, 8), 4, 1.0)) == 5
    psi = k_term_state([0.5, -0.7, 0.2 + 0.9j], [1.0, 0.6, 0.9], cutoff=16)
    assert numerical_rank(hankel_matrix(psi, 8, 1.0)) == 3
    zero = FockVector(np.zeros(9, dtype=complex), 8)
    assert numerical_rank(hankel_matrix(zero, 4, 1.0)) == 0
    with pytest.raises(ValueError):
        numerical_rank(hankel_matrix(zero, 4, 1.0), rel_tol=2.0)


def test_frobenius_bridge_plain_and_rescaled():
    # ||H_N(psi) - H_N(phi)||_F^2 <= (N+1)(2N)! ||psi - phi||_2^2, and with
    # rescaling <= max_n m_n b^{2n} n! ||psi - phi||_2^2
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(100):
        N = int(rng.integers(1, 7))
        x = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
        y = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
        diff = FockVector(x / np.linalg.norm(x) - y / np.linalg.norm(y), 2 * N)
        norm_sq = float(np.vdot(diff.amplitudes, diff.amplitudes).real)
        lhs = frobenius_norm_sq(diff, N, 1.0)
        assert lhs <= (N + 1) * math.factorial(2 * N) * norm_sq * (1 + 1e-12)
        b = float(rng.uniform(0.2, 1.4))
        n = np.arange(2 * N + 1)
        m = np.where(n <= N, n + 1, 2 * N - n + 1)
        weight = np.max(m * b ** (2 * n) * [math.factorial(int(k)) for k in n])
        assert frobenius_norm_sq(diff, N, b) <= weight * norm_sq * (1 + 1e-12)
        checked += 1
    assert checked == 100


def test_truncated_svd_tail_identity():
    # Young-Eckart-Mirsky: ||H - A_r||_F^2 equals the singular tail sum
    rng = np.random.default_rng(8)
    amps = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    psi = FockVector(amps / np.linalg.norm(amps), 16)
    bundle = hankel_matrix(psi, 8, 1.0)
    u, s, vh = np.linalg.svd(bundle.matrix)
    for r in (1, 3, 6):
        a_r = (u[:, :r] * s[:r]) @ vh[:r]
        err = np.linalg.norm(bundle.matrix - a_r) ** 2
        tail = float(np.sum(s[r:] ** 2))
        assert err == pytest.approx(tail, rel=1e-10)


def test_rescaled_bound_matches_plain_at_b_one():
    psi = fock_state(2, 8)
    # at b=1 the rescaled denominator is smaller, so the bound can only grow
    assert rescaled_bound(psi, 2, 4, 1.0) >= plain_bound(psi, 2, 4)


def test_grid_points_cap_is_inclusive():
    assert SearchConfig(b_grid=(1e-3, 10.0, MAX_GRID_POINTS)).b_grid[2] == MAX_GRID_POINTS
    with pytest.raises(ResourceLimit):
        SearchConfig(b_grid=(1e-3, 10.0, MAX_GRID_POINTS + 1))


def test_search_config_validation():
    with pytest.raises(SearchConfigError):
        SearchConfig(b_grid=(0.0, 1.0, 10))
    with pytest.raises(SearchConfigError):
        SearchConfig(b_grid=(0.1, 1.0, 1))
    with pytest.raises(SearchConfigError):
        SearchConfig(N_min=5, N_max=2)
    with pytest.raises(ValueError):
        optimized_bound(fock_state(1, 2), 5, SearchConfig(N_max=1))


def builder_states():
    rng = np.random.default_rng(31)
    core = core_state(rng.standard_normal(5) + 1j * rng.standard_normal(5), cutoff=16)
    sup = k_term_state([0.4, -0.7 + 0.3j, 1.1j], [1.0, 0.5 - 0.2j, 0.8], 16)
    return [fock_state(3, 16), squeezed_state(SqueezedParams(0.6, 0.4), 16), core, sup]


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
@pytest.mark.parametrize("N", [1, 5, 8])
def test_stacked_spectra_equal_one_b_builds(state, N):
    psi = builder_states()[state]
    grid = SearchConfig().b_values()
    matrices, sigma, scale = hankel._spectra(psi, N, grid)
    assert matrices.shape == (len(grid), N + 1, N + 1)
    for k, b in enumerate(grid):
        bundle = hankel_matrix(psi, N, b)
        assert np.array_equal(bundle.singular_values, sigma[k])
        assert bundle.scale_exponent == scale[k]
        assert np.array_equal(bundle.matrix, matrices[k])


def record_blocks(monkeypatch):
    """Wrap hankel._spectra to record the matrix entries of every call."""
    entries = []
    spectra = hankel._spectra

    def wrapped(psi, N, b):
        entries.append(len(b) * (N + 1) ** 2)
        return spectra(psi, N, b)

    monkeypatch.setattr(hankel, "_spectra", wrapped)
    return entries


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
def test_block_split_keeps_every_threshold(monkeypatch, state):
    psi = builder_states()[state]
    N, r = 6, 2
    grid = SearchConfig().b_values()
    whole = hankel._thresholds(psi, r, N, grid, None)
    plain = hankel._thresholds(psi, r, N, grid[:1], 1.5)
    # blocks of four matrices leave a shorter last block (201 = 50 * 4 + 1)
    monkeypatch.setattr(hankel, "_BLOCK_ENTRIES", 4 * (N + 1) ** 2 + 1)
    entries = record_blocks(monkeypatch)
    split = hankel._thresholds(psi, r, N, grid, None)
    assert len(entries) == math.ceil(len(grid) / 4)
    assert max(entries) <= hankel._BLOCK_ENTRIES
    assert np.array_equal(split, whole)
    assert np.array_equal(hankel._thresholds(psi, r, N, grid[:1], 1.5), plain)
    assert [rescaled_bound(psi, r, N, b) for b in grid] == list(whole)


def test_stacked_svd_calls_stay_within_the_block_bound(monkeypatch):
    psi = builder_states()[1]
    entries = record_blocks(monkeypatch)
    cfg = SearchConfig(N_min=8, N_max=8, b_grid=(1e-3, 10.0, 30_000))
    optimized_bound(psi, 1, cfg)
    grid_calls = [e for e in entries if e > 81]  # the rest are golden-section points
    assert max(entries) <= hankel._BLOCK_ENTRIES
    assert len(grid_calls) == math.ceil(30_001 / (hankel._BLOCK_ENTRIES // 81)) > 1


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_optimized_bound_is_the_rescaled_bound_at_its_optimum(state, r):
    # `bound --check` re-derives an optimized certificate through rescaled_bound
    psi = builder_states()[state]
    res = optimized_bound(psi, r, SearchConfig(N_max=8))
    assert res.value == rescaled_bound(psi, r, res.N_star, res.b_star)
