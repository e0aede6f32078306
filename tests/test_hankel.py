import math

import numpy as np
import pytest
from scipy.special import gammaln

from csrank import hankel
from csrank.certify import certify_rank, recurrence_order
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
    MAX_HANKEL_N,
    SearchConfig,
    SearchConfigError,
    hankel_matrix,
    numerical_rank,
    optimized_bound,
    optimized_bounds,
    plain_bound,
    rescaled_bound,
)
from test_acceptance import corpus_states


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


def frobenius_norm_sq(psi: FockVector, N: int, b: float = 1.0) -> float:
    """True ||H_{N,b}(psi)||_F^2 (safe only at desk scale)."""
    bundle = hankel_matrix(psi, N, b)
    return float(np.sum(np.abs(bundle.matrix) ** 2) * math.exp(2 * bundle.scale_exponent))


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
    matrices, sigma, scale = hankel._spectra(hankel._Plan(psi, N), hankel._log_b(grid))
    assert matrices.shape == (len(grid), N + 1, N + 1)
    for k, b in enumerate(grid):
        bundle = hankel_matrix(psi, N, b)
        assert np.array_equal(bundle.singular_values, sigma[k])
        assert bundle.scale_exponent == scale[k]
        assert np.array_equal(bundle.matrix, matrices[k])


# Reference builders that recompute every b-independent part on each call;
# the per-(state, N) plan must match them bit for bit.


def reference_spectra(psi, N, log_b):
    amps = psi.amplitudes[: 2 * N + 1]
    n = np.flatnonzero(amps)
    mags = np.abs(amps[n])
    log_entry = n * log_b[:, None] + 0.5 * gammaln(n + 1) + np.log(mags)
    scale = log_entry.max(axis=1) if len(n) else np.zeros(len(log_b))
    vals = np.zeros((len(log_b), 2 * N + 1), dtype=complex)
    vals[:, n] = np.exp(log_entry - scale[:, None]) * psi.phases[n]
    matrices = vals[:, np.add.outer(np.arange(N + 1), np.arange(N + 1))]
    return matrices, np.linalg.svd(matrices, compute_uv=False), scale


def reference_log_weight_max(N, log_b):
    n = np.arange(2 * N + 1)
    m = np.where(n <= N, n + 1, 2 * N - n + 1)
    return np.max(np.log(m) + 2 * n * log_b[:, None] + gammaln(n + 1), axis=1)


def reference_tails(psi, N, b, rs, log_den=None):
    """The whole (len(rs), len(b)) threshold table; a refinement step read its diagonal."""
    log_b = hankel._log_b(b)
    _, sigma, scale = reference_spectra(psi, N, log_b)
    den = ([log_den] * len(log_b) if log_den is not None
           else (math.log(2.0) + reference_log_weight_max(N, log_b)).tolist())
    scale = scale.tolist()
    out = np.zeros((len(rs), len(b)))
    for k, r in enumerate(rs):
        for i, tail in enumerate((sigma[:, r:] ** 2).sum(axis=1).tolist()):
            if tail > 0.0:
                out[k, i] = math.exp(math.log(tail) + 2.0 * scale[i] - den[i])
    return out


def hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


@pytest.mark.parametrize("N", [1, 5, 8])
def test_plan_matches_the_reference_builder_on_the_corpus(N):
    grid = SearchConfig().b_values()
    off_grid = np.array([2.0 ** -9.5, 0.0123, 0.77, 1.0 + 2.0 ** -40, 3.3, 9.99])
    rs = list(range(N + 1))
    for name, psi, _ in corpus_states():
        plan = hankel._Plan(psi, N)
        for b in (grid, off_grid):
            log_b = hankel._log_b(b)
            _, sigma, scale = hankel._spectra(plan, log_b)
            _, ref_sigma, ref_scale = reference_spectra(psi, N, log_b)
            assert hexes(sigma) == hexes(ref_sigma), name
            assert hexes(scale) == hexes(ref_scale), name
            assert hexes(hankel._log_weight_max(plan, log_b)) == hexes(
                reference_log_weight_max(N, log_b)), name
            table = reference_tails(psi, N, b, rs)
            for r, row in zip(rs, table):
                assert hankel._grid_best(plan, log_b, [r]) == [(row.max(), row.argmax())], name
            # a refinement point asks for one r; cycle the r over the points
            ks = [i % len(rs) for i in range(len(b))]
            points = hankel._point_thresholds(plan, log_b, [rs[k] for k in ks])
            assert hexes(points) == hexes(table[ks, range(len(b))]), name
        log_den = math.log(2.0) + math.log(N + 1) + float(gammaln(2 * N + 1))
        plain = [plain_bound(psi, r, N) for r in rs]
        assert hexes(plain) == hexes(reference_tails(psi, N, [1.0], rs, log_den)), name


def test_grid_best_survives_a_numpy_log_an_ulp_off(monkeypatch):
    # the grid pass ranks points with np.log, which may differ from math.log
    # by an ulp; on the flat top of |1> at N = 1 (threshold 1/4 for b^2 in
    # [1/2, 1]) that must not move the first of the tied maxima
    psi, N = fock_state(1, 2), 1
    b = np.geomspace(0.71, 0.99, 500)
    table = reference_tails(psi, N, b, [0, 1])
    plan, log_b = hankel._Plan(psi, N), hankel._log_b(b)
    real_log = np.log

    def off_by_two_ulps(x):
        out = real_log(x)
        for part, direction in ((out[0::2], np.inf), (out[1::2], -np.inf)):
            part[:] = np.nextafter(np.nextafter(part, direction), direction)
        return out

    monkeypatch.setattr(np, "log", off_by_two_ulps)
    best = hankel._grid_best(plan, log_b, [0, 1])
    monkeypatch.undo()
    assert best == [(row.max(), row.argmax()) for row in table]


def record_blocks(monkeypatch):
    """Wrap hankel._spectra to record (N, number of b) of every call."""
    calls = []
    spectra = hankel._spectra

    def wrapped(plan, log_b):
        calls.append((plan.N, len(log_b)))
        return spectra(plan, log_b)

    monkeypatch.setattr(hankel, "_spectra", wrapped)
    return calls


def entries(calls):
    return [points * (N + 1) ** 2 for N, points in calls]


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
def test_block_split_keeps_every_threshold(monkeypatch, state):
    psi = builder_states()[state]
    N, rs = 6, [0, 2, 6]
    grid = SearchConfig().b_values()
    log_b = hankel._log_b(grid)
    plan = hankel._Plan(psi, N)
    whole = hankel._grid_best(plan, log_b, rs)
    plain = hankel._point_thresholds(plan, log_b[:1], [2], 1.5)
    # blocks of four matrices leave a shorter last block (201 = 50 * 4 + 1)
    monkeypatch.setattr(hankel, "_BLOCK_ENTRIES", 4 * (N + 1) ** 2 + 1)
    calls = record_blocks(monkeypatch)
    split = hankel._grid_best(plan, log_b, rs)
    assert len(calls) == math.ceil(len(grid) / 4)
    assert max(entries(calls)) <= hankel._BLOCK_ENTRIES
    table = reference_tails(psi, N, grid, rs)
    assert split == whole == [(row.max(), row.argmax()) for row in table]
    assert hankel._point_thresholds(plan, log_b[:1], [2], 1.5) == plain
    assert [rescaled_bound(psi, 2, N, b) for b in grid] == list(table[1])
    points = hankel._point_thresholds(plan, log_b, [2] * len(grid))
    assert points == list(table[1])


def test_running_best_keeps_the_first_of_tied_maxima(monkeypatch):
    psi = builder_states()[2]
    N, rs = 4, [1, 3]
    b = np.tile([0.2, 0.9, 1.7, 0.5, 3.0], 5)  # every maximum recurs in later blocks
    table = reference_tails(psi, N, b, rs)
    monkeypatch.setattr(hankel, "_BLOCK_ENTRIES", 3 * (N + 1) ** 2)
    best = hankel._grid_best(hankel._Plan(psi, N), hankel._log_b(b), rs)
    assert best == [(row.max(), row.argmax()) for row in table]
    assert [i for _, i in best] == [int(np.argmax(row[:5])) for row in table]


def test_grid_pass_holds_one_block_not_the_table(monkeypatch):
    import tracemalloc

    psi = builder_states()[1]
    N, rs = 3, [0, 1, 2, 3]
    log_b = hankel._log_b(SearchConfig(b_grid=(1e-3, 10.0, 40_000)).b_values())
    plan = hankel._Plan(psi, N)
    table_bytes = len(rs) * len(log_b) * 8  # the (len(rs), len(b)) table of floats
    monkeypatch.setattr(hankel, "_BLOCK_ENTRIES", 1 << 12)
    tracemalloc.start()
    try:
        best = hankel._grid_best(plan, log_b, rs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table_bytes / 4
    assert len(best) == len(rs) and all(0 <= i < len(log_b) for _, i in best)


def test_stacked_svd_calls_stay_within_the_block_bound(monkeypatch):
    psi = builder_states()[1]
    calls = record_blocks(monkeypatch)
    # r = 8 searches the single N = 8
    cfg = SearchConfig(N_max=8, b_grid=(1e-3, 10.0, 30_000))
    optimized_bound(psi, 8, cfg)
    points, step = len(cfg.b_values()), hankel._BLOCK_ENTRIES // 81
    # whole blocks, then the rest; the calls after them score kinks or golden-section points
    blocks = [step] * (points // step) + [points % step]
    assert max(entries(calls)) <= hankel._BLOCK_ENTRIES
    assert [p for _, p in calls[: len(blocks)]] == blocks and len(blocks) > 1
    assert all(p < points % step for _, p in calls[len(blocks) :])


def record_golden(monkeypatch, calls):
    """Wrap hankel._golden_max to record (brackets, indices of the _spectra calls it made)."""
    runs = []
    golden = hankel._golden_max

    def wrapped(f, lo, hi, iters):
        start = len(calls)
        out = golden(f, lo, hi, iters)
        runs.append((len(lo), range(start, len(calls))))
        return out

    monkeypatch.setattr(hankel, "_golden_max", wrapped)
    return runs


def test_certify_makes_one_grid_pass_per_n(monkeypatch):
    grid_points = len(SearchConfig().b_values())
    for state, psi in enumerate(builder_states()):
        calls = record_blocks(monkeypatch)
        runs = record_golden(monkeypatch, calls)
        certify_rank(psi, 1e-6, SearchConfig(N_max=6))
        # golden-section refines only the brackets no kink settles: 2 + 40
        # calls of one point per such bracket, in lockstep
        for brackets, steps in runs:
            assert len(steps) == 42 and {calls[i][1] for i in steps} == {brackets}
        golden = {i for _, steps in runs for i in steps}
        rest = [call for i, call in enumerate(calls) if i not in golden]
        for N in range(1, 7):
            points = [p for n, p in rest if n == N]
            # one grid pass, then at most one call scoring every kink with its two probes
            assert points[0] == grid_points and len(points) <= 2
            assert all(p % 3 == 0 and p != grid_points for p in points[1:])
        if state == 0:  # |3>: the brackets of exactly zero tails are not refined
            assert [p for n, p in calls if n == 1] == [grid_points] and runs == []
        if state == 1:  # squeezed 0.6: every r <= N settles on one kink, nothing falls back
            assert calls == [c for N in range(1, 7) for c in [(N, grid_points), (N, 3 * N)]]
            assert runs == []
        monkeypatch.undo()


def test_certify_builds_the_b_independent_parts_once_per_n(monkeypatch):
    calls = []
    log_factorials = hankel.log_factorials

    def counted(k_max):
        table = log_factorials(k_max)
        calls.append(len(table))
        return table

    monkeypatch.setattr(hankel, "log_factorials", counted)
    certify_rank(builder_states()[1], 1e-6, SearchConfig(N_max=6))
    # one log k! table per plan, for k = 0..2N, not one per golden-section step
    assert calls == [2 * N + 1 for N in range(1, 7)]


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_optimized_bound_is_the_rescaled_bound_at_its_optimum(state, r):
    # `bound --check` re-derives an optimized certificate through rescaled_bound
    psi = builder_states()[state]
    res = optimized_bound(psi, r, SearchConfig(N_max=8))
    assert res.value == rescaled_bound(psi, r, res.N_star, res.b_star)


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
def test_tails_of_several_r_equal_one_r_at_a_time(state):
    psi = builder_states()[state]
    N, rs = 6, [0, 2, 3, 6]
    log_b = hankel._log_b(SearchConfig().b_values())
    plan = hankel._Plan(psi, N)
    together = hankel._grid_best(plan, log_b, rs)
    assert together == [hankel._grid_best(plan, log_b, [r])[0] for r in rs]
    # a refinement step stacks one point per r and reads only that point's tail
    points = SearchConfig().b_values()[[3, 50, 120, 200]]
    values = hankel._point_thresholds(plan, hankel._log_b(points), rs)
    assert values == [rescaled_bound(psi, r, N, b) for r, b in zip(rs, points)]
    assert values == list(reference_tails(psi, N, points, rs).diagonal())


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
def test_one_search_equals_a_search_per_r(state):
    psi = builder_states()[state]
    cfg = SearchConfig(N_max=6)
    together = optimized_bounds(psi, [3, 0, 1, 6, 3], cfg)
    assert sorted(together) == [0, 1, 3, 6]
    for r, res in together.items():
        alone = optimized_bound(psi, r, cfg)
        assert (res.value.hex(), res.b_star.hex(), res.N_star) == (
            alone.value.hex(), alone.b_star.hex(), alone.N_star)


def scalar_golden_max(f, lo, hi, iters):
    """The one-bracket golden-section search the lockstep search must repeat."""
    a, b = lo, hi
    c = b - hankel._INVPHI * (b - a)
    d = a + hankel._INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - hankel._INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + hankel._INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def test_lockstep_golden_max_repeats_every_scalar_run():
    # peaked, flat (ties), monotone both ways and piecewise functions
    fs = [
        lambda x: -((x - 0.3) ** 2),
        lambda x: 1.0,
        lambda x: x,
        lambda x: -x,
        lambda x: min(math.sin(3 * x), 0.5),
        lambda x: float(round(4 * x)),
    ]
    lo = [-1.0, 0.0, -2.0, 0.5, -0.7, -1.3]
    hi = [1.0, 1.0, 3.0, 0.6, 2.1, 1.9]
    steps = []

    def batch(xs):
        steps.append(len(xs))
        return [f(x) for f, x in zip(fs, xs)]

    together = hankel._golden_max(batch, lo, hi, 40)
    assert steps == [len(fs)] * 42
    for f, a, b, result in zip(fs, lo, hi, together):
        assert hankel._golden_max(lambda xs: [f(xs[0])], [a], [b], 40) == [result]
        assert scalar_golden_max(f, a, b, 40) == result


@pytest.mark.parametrize("N", range(1, 21))
def test_kinks_are_the_upper_envelope_of_the_denominator(N):
    plan = hankel._Plan(fock_state(1, 2 * N), N)
    k = np.arange(2 * N + 1)
    c = np.log(np.where(k <= N, k + 1, 2 * N - k + 1)) + gammaln(k + 1)
    # brute force: every crossing of two lines that no third line passes above
    brute = []
    for i in range(2 * N + 1):
        for j in range(i + 1, 2 * N + 1):
            x = (c[i] - c[j]) / (2 * (j - i))
            if c[i] + 2 * i * x >= np.max(c + 2 * k * x) - 1e-9:
                brute.append(x)
    brute = sorted(brute)
    distinct = [x for x, y in zip(brute, [-math.inf] + brute) if x - y > 1e-9]
    kinks = hankel._kinks(plan)
    assert kinks == sorted(kinks)
    assert np.allclose(kinks, distinct, rtol=0, atol=1e-12)


def test_kink_refinement_reaches_golden_section_on_the_corpus():
    log_grid = np.log(SearchConfig().b_values())
    log_b = hankel._log_b([*map(math.exp, log_grid)])
    for name, psi, _ in corpus_states():
        for N in (1, 2, 3, 5, 8):
            plan = hankel._Plan(psi, N)
            rs = list(range(N + 1))
            on_grid = hankel._grid_best(plan, log_b, rs)
            rs = [r for r, (value, _) in zip(rs, on_grid) if value > 0.0]
            if not rs:
                continue
            top = np.array([i for value, i in on_grid if value > 0.0], dtype=int)
            lo = log_grid[np.maximum(top - 1, 0)].tolist()
            hi = log_grid[np.minimum(top + 1, len(log_grid) - 1)].tolist()

            def at_points(xs):
                return hankel._point_thresholds(plan, hankel._log_b([*map(math.exp, xs)]), rs)

            refined = hankel._refine(plan, rs, lo, hi)
            golden = hankel._golden_max(at_points, lo, hi, hankel._REFINE_ITERS)
            for r, (_, value), (_, reference) in zip(rs, refined, golden):
                if max(value, reference) > 1e-20:
                    assert value >= reference * (1 - 1e-14), (name, N, r)


@pytest.mark.parametrize("n", range(1, 13))
def test_fock_optimized_bound_is_the_exact_kink_maximum(n):
    # the `figure --panel right` rows: |n> at r = N = n, whose tail is b^{2n} n!
    mpmath = pytest.importorskip("mpmath")
    value = optimized_bound(fock_state(n, 2 * n), n, SearchConfig(N_max=n)).value
    with mpmath.workdps(50):
        ks = range(2 * n + 1)
        c = [mpmath.log(min(k + 1, 2 * n - k + 1)) + mpmath.loggamma(k + 1) for k in ks]

        def bound(x):
            return mpmath.exp(2 * n * x + mpmath.loggamma(n + 1)
                              - max(ck + 2 * k * x for k, ck in zip(ks, c))) / 2

        # the bound is concave piecewise linear in log b, so it peaks at a kink
        exact = max(bound((c[i] - c[j]) / (2 * (j - i))) for i in ks for j in ks if i < j)
        assert abs(value - float(exact)) <= 1e-13 * float(exact)


def test_grid_best_is_bit_identical_through_underflow():
    # |3> at N = 3, r = 0 has threshold 12 b^6 / 2 for tiny b: these grids run
    # from normal thresholds through subnormal ones (ties) to exact zeros
    psi = fock_state(3, 16)
    plan = hankel._Plan(psi, 3)
    for b in (np.geomspace(1e-52, 1e-56, 300), np.geomspace(1e-56, 1e-53, 300),
              np.geomspace(1e-60, 1e-57, 50), np.geomspace(1e-53, 1e-51, 300)):
        table = reference_tails(psi, 3, b, [0, 1])
        assert hankel._grid_best(plan, hankel._log_b(b), [0, 1]) == [
            (row.max(), row.argmax()) for row in table]


def test_hankel_size_cap_refuses_before_building():
    assert (MAX_HANKEL_N + 1) ** 2 == hankel._BLOCK_ENTRIES
    psi = fock_state(1, 2 * (MAX_HANKEL_N + 1))
    hankel._Plan(psi, MAX_HANKEL_N)  # the largest N that one SVD block holds
    N = MAX_HANKEL_N + 1
    refused = [
        lambda: hankel._Plan(psi, N),
        lambda: plain_bound(psi, 1, N),
        lambda: rescaled_bound(psi, 1, N, 0.5),
        lambda: hankel_matrix(psi, N),
        lambda: optimized_bound(psi, 1, SearchConfig(N_max=N)),
        lambda: certify_rank(psi, 0.1, SearchConfig(N_max=N)),
        lambda: recurrence_order(psi, N),
    ]
    for call in refused:
        with pytest.raises(ResourceLimit, match=str(MAX_HANKEL_N)):
            call()
