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
    MAX_HANKEL_N,
    SearchConfig,
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
        matrix, sigma, scale = hankel_matrix(fock_state(n, 2 * n), n, 1.0)
        # all N+1 singular values equal sqrt(n!): check in the log domain
        log_sigma = np.log(sigma) + scale
        assert np.allclose(log_sigma, 0.5 * math.lgamma(n + 1), atol=1e-10)
        off = matrix[np.add.outer(np.arange(n + 1), np.arange(n + 1)) != n]
        assert np.all(off == 0)


def test_fock1_hankel_matrix_entries():
    matrix, sigma, scale = hankel_matrix(fock_state(1, 2), 1, 1.0)
    assert np.allclose(matrix, [[0, 1], [1, 0]])
    assert np.allclose(sigma, [1, 1])
    assert scale == pytest.approx(0.0)


def test_hankel_structure_random_state():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    psi = FockVector(amps / np.linalg.norm(amps), 12)
    m, _, scale = hankel_matrix(psi, 6, 0.7)
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
        * math.exp(-scale)
    )
    assert m[i, j] == pytest.approx(expected, rel=1e-12)


def test_two_coherent_terms_have_rank_two():
    psi = k_term_state([0.9, -0.4 + 0.6j], [1.0, 0.8], cutoff=10)
    assert numerical_rank(hankel_matrix(psi, 5, 1.0)[1]) == 2


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
    sigma = hankel_matrix(psi, 5, 1.0)[1]
    sigma1_sq = float(sigma[0] ** 2)
    tail = float(np.sum(sigma[1:] ** 2))
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
    s1 = hankel_matrix(psi, 5, 0.8)[1]
    s2 = hankel_matrix(rotated, 5, 0.8)[1]
    assert np.allclose(s1, s2, rtol=1e-12)


def test_optimized_bound_fock1():
    res = optimized_bound(fock_state(1, 2), 1, SearchConfig(N_max=1))
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
    res = optimized_bound(fock_state(12, 24), 12, SearchConfig(N_max=12))
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
    assert numerical_rank(hankel_matrix(fock_state(4, 8), 4, 1.0)[1]) == 5
    psi = k_term_state([0.5, -0.7, 0.2 + 0.9j], [1.0, 0.6, 0.9], cutoff=16)
    assert numerical_rank(hankel_matrix(psi, 8, 1.0)[1]) == 3
    zero = FockVector(np.zeros(9, dtype=complex), 8)
    assert numerical_rank(hankel_matrix(zero, 4, 1.0)[1]) == 0


def frobenius_norm_sq(psi: FockVector, N: int, b: float = 1.0) -> float:
    """True ||H_{N,b}(psi)||_F^2 (safe only at desk scale)."""
    matrix, _, scale = hankel_matrix(psi, N, b)
    return float(np.sum(np.abs(matrix) ** 2) * math.exp(2 * scale))


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
    matrix = hankel_matrix(psi, 8, 1.0)[0]
    u, s, vh = np.linalg.svd(matrix)
    for r in (1, 3, 6):
        a_r = (u[:, :r] * s[:r]) @ vh[:r]
        err = np.linalg.norm(matrix - a_r) ** 2
        tail = float(np.sum(s[r:] ** 2))
        assert err == pytest.approx(tail, rel=1e-10)


def test_rescaled_bound_matches_plain_at_b_one():
    psi = fock_state(2, 8)
    # at b=1 the rescaled denominator is smaller, so the bound can only grow
    assert rescaled_bound(psi, 2, 4, 1.0) >= plain_bound(psi, 2, 4)


def test_search_config_validation():
    with pytest.raises(ValueError, match="N_max must be non-negative"):
        SearchConfig(N_max=-1)
    assert SearchConfig(N_max=0).N_max == 0
    with pytest.raises(ValueError):
        optimized_bound(fock_state(1, 2), 5, SearchConfig(N_max=1))


# 200 log-spaced b on the default range, plus b = 1.
B_GRID = np.unique(np.append(np.geomspace(1e-3, 10.0, 200), 1.0))


def builder_states():
    rng = np.random.default_rng(31)
    core = core_state(rng.standard_normal(5) + 1j * rng.standard_normal(5), cutoff=16)
    sup = k_term_state([0.4, -0.7 + 0.3j, 1.1j], [1.0, 0.5 - 0.2j, 0.8], 16)
    return [fock_state(3, 16), squeezed_state(SqueezedParams(0.6, 0.4), 16), core, sup]


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
@pytest.mark.parametrize("N", [1, 5, 8])
def test_stacked_spectra_equal_one_b_builds(state, N):
    psi = builder_states()[state]
    grid = B_GRID
    matrices, sigma, scale = hankel._spectra(hankel._Plan(psi, N), hankel._log_b(grid))
    assert matrices.shape == (len(grid), N + 1, N + 1)
    for k, b in enumerate(grid):
        one_matrix, one_sigma, one_scale = hankel_matrix(psi, N, b)
        assert np.array_equal(one_sigma, sigma[k])
        assert one_scale == scale[k]
        assert np.array_equal(one_matrix, matrices[k])


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
    """The whole (len(rs), len(b)) threshold table, each tail the correctly
    rounded sum of its squared sigma; a refinement point reads its diagonal."""
    log_b = hankel._log_b(b)
    _, sigma, scale = reference_spectra(psi, N, log_b)
    den = ([log_den] * len(log_b) if log_den is not None
           else (math.log(2.0) + reference_log_weight_max(N, log_b)).tolist())
    scale = scale.tolist()
    out = np.zeros((len(rs), len(b)))
    for k, r in enumerate(rs):
        for i, row in enumerate(sigma[:, r:].tolist()):
            tail = math.fsum(x * x for x in row)
            if tail > 0.0:
                out[k, i] = math.exp(math.log(tail) + 2.0 * scale[i] - den[i])
    return out


def hexes(values):
    return [float(x).hex() for x in np.ravel(values)]


@pytest.mark.parametrize("N", [1, 5, 8])
def test_plan_matches_the_reference_builder_on_the_corpus(N):
    grid = B_GRID
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
            together = hankel._thresholds_at(plan, log_b, [rs] * len(b))
            assert hexes(together) == hexes(table.T), name
            # a refinement point asks for one r; cycle the r over the points
            ks = [i % len(rs) for i in range(len(b))]
            points = hankel._point_thresholds(plan, log_b, [rs[k] for k in ks])
            assert hexes(points) == hexes(table[ks, range(len(b))]), name
        log_den = math.log(2.0) + math.log(N + 1) + float(gammaln(2 * N + 1))
        plain = [plain_bound(psi, r, N) for r in rs]
        assert hexes(plain) == hexes(reference_tails(psi, N, [1.0], rs, log_den)), name


def record_blocks(monkeypatch):
    """Wrap hankel._spectra to record (N, number of b, with vectors) of every call."""
    calls = []
    spectra = hankel._spectra

    def wrapped(plan, log_b, vectors=False):
        calls.append((plan.N, len(log_b), vectors))
        return spectra(plan, log_b, vectors)

    monkeypatch.setattr(hankel, "_spectra", wrapped)
    return calls


def entries(calls):
    return [points * (N + 1) ** 2 for N, points, _ in calls]


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
def test_block_split_keeps_every_threshold(monkeypatch, state):
    psi = builder_states()[state]
    N, rs = 6, [0, 2, 6]
    log_b = hankel._log_b(B_GRID)
    plan = hankel._Plan(psi, N)
    whole = hankel._thresholds_at(plan, log_b, [rs] * len(B_GRID))
    plain = hankel._point_thresholds(plan, log_b[:1], [2], 1.5)
    # blocks of four matrices leave a shorter last block (201 = 50 * 4 + 1)
    monkeypatch.setattr(hankel, "_BLOCK_ENTRIES", 4 * (N + 1) ** 2 + 1)
    calls = record_blocks(monkeypatch)
    split = hankel._thresholds_at(plan, log_b, [rs] * len(B_GRID))
    assert [(p, uv) for _, p, uv in calls] == [(4, False)] * 50 + [(1, False)]
    assert max(entries(calls)) <= hankel._BLOCK_ENTRIES
    table = reference_tails(psi, N, B_GRID, rs)
    assert hexes(split) == hexes(whole) == hexes(table.T)
    assert hankel._point_thresholds(plan, log_b[:1], [2], 1.5) == plain
    assert [rescaled_bound(psi, 2, N, b) for b in B_GRID] == list(table[1])
    points = hankel._point_thresholds(plan, log_b, [2] * len(B_GRID))
    assert points == list(table[1])


def test_stacked_svd_calls_stay_within_the_block_bound(monkeypatch):
    # blocks of two 3x3 matrices split the five points of each N = 2 segment,
    # and a secant's points too
    psi, cfg = builder_states()[1], SearchConfig(N_max=2)
    whole = optimized_bounds(psi, [0, 1, 2], cfg)
    monkeypatch.setattr(hankel, "_BLOCK_ENTRIES", 2 * 9)
    calls = record_blocks(monkeypatch)
    assert optimized_bounds(psi, [0, 1, 2], cfg) == whole
    assert max(entries(calls)) <= hankel._BLOCK_ENTRIES
    assert [p for N, p, _ in calls if N == 2][:3] == [2, 2, 1]


def unsettled_and_bracketed(psi, N):
    """The r whose segment neither end settles, and of those the r whose slope
    rises at the segment's lower end and falls at its upper end."""
    plan = hankel._Plan(psi, N)
    x0, x1 = plan.tables.kinks[0], plan.tables.kinks[-1]
    h = hankel._PROBE * (x1 - x0)
    unsettled = []
    for r in range(N + 1):
        v0, v1, p0, p1 = (rescaled_bound(psi, r, N, math.exp(x)) for x in (x0, x1, x0 + h, x1 - h))
        if not (v0 >= max(v1, p0) or v1 >= max(v0, p1)):
            unsettled.append(r)
    slopes = hankel._slopes(plan, [x0, x1], [unsettled, unsettled])
    return unsettled, [r for r, g0, g1 in zip(unsettled, *slopes) if g0 > 0.0 > g1]


def test_certify_makes_one_grid_pass_per_n(monkeypatch):
    cfg = SearchConfig(N_max=6)
    core2 = next(psi for name, psi, _ in corpus_states() if name == "core2")
    for state, psi in enumerate(builder_states() + [core2]):
        calls = record_blocks(monkeypatch)
        certify_rank(psi, 1e-6, cfg)
        monkeypatch.undo()
        # one scoring call per N for every r: at N = 1 and 2 the segment's two
        # ends, a probe inside each and b = 1; from N = 3 on its one point and b = 1
        assert [call for call in calls if call[0] >= 3] == [(N, 2, False) for N in range(3, 7)]
        for N in (1, 2):
            at_n = [call[1:] for call in calls if call[0] == N]
            unsettled, bracketed = unsettled_and_bracketed(psi, N)
            assert at_n[0] == (5, False)
            if not unsettled:
                assert at_n == [(5, False)], (state, N)
                continue
            # the slopes at both ends, the secant steps with one point per live
            # bracket, then one call scoring every root
            steps = [points for points, _ in at_n[2:-1]]
            assert at_n[1] == (2, True) and at_n[-1] == (len(bracketed), False), (state, N)
            assert all(uv for _, uv in at_n[2:-1]), (state, N)
            assert steps == sorted(steps, reverse=True) and steps[0] == len(bracketed)
            assert len(steps) <= hankel._SECANT_STEPS
        if state < 4:  # every builder state settles on an end at every r
            assert all(not uv for _, _, uv in calls)
        else:  # core2 refines r = 1 at N = 1 and r = 1, 2 at N = 2, at most 10 steps per N
            assert [unsettled_and_bracketed(psi, N) for N in (1, 2)] == [([1], [1]), ([1, 2], [1, 2])]
            assert sum(uv for _, _, uv in calls) <= 2 * 11


def test_certify_builds_the_b_independent_parts_once_per_n(monkeypatch):
    calls = []
    log_factorials = hankel.log_factorials

    def counted(k_max):
        table = log_factorials(k_max)
        calls.append(len(table))
        return table

    monkeypatch.setattr(hankel, "log_factorials", counted)
    hankel._tables.cache_clear()
    certify_rank(builder_states()[1], 1e-6, SearchConfig(N_max=6))
    # one log k! table per N, for k = 0..2N, not one per plan or refinement step
    assert calls == [2 * N + 1 for N in range(1, 7)]
    certify_rank(builder_states()[2], 1e-6, SearchConfig(N_max=7))
    plain_bound(builder_states()[3], 1, 5)
    assert calls == [2 * N + 1 for N in range(1, 8)]
    assert hankel._tables(3) is hankel._Plan(builder_states()[0], 3).tables


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
    log_b = hankel._log_b(B_GRID)
    plan = hankel._Plan(psi, N)
    together = hankel._thresholds_at(plan, log_b, [rs] * len(B_GRID))
    for k, r in enumerate(rs):
        alone = hankel._point_thresholds(plan, log_b, [r] * len(B_GRID))
        assert [row[k] for row in together] == alone
    # a secant step scores one point per r and reads only that point's tail
    points = B_GRID[[3, 50, 120, 200]]
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


INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def scalar_golden_max(f, lo, hi, iters):
    """(x, f(x)) of golden-section search for the maximum of f on [lo, hi],
    the oracle the secant refinement must reach."""
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def test_lockstep_secant_repeats_every_scalar_run():
    # smooth, steep, convex, kinked and step slopes, each positive left of its one simple root
    gs = [
        lambda x: 0.3 - x,
        lambda x: math.tanh(5.0 * (0.1 - x)),
        lambda x: -(x**3) - x + 0.25,
        lambda x: min(1.0, 2.0 * (0.4 - x)),
        lambda x: math.exp(-3.0 * x) - 2.0,
        lambda x: -1.0 if x > 0.05 else 1.0,
    ]
    lo, hi = [-1.0, -0.7, -1.0, -2.0, -1.0, -1.0], [1.0, 2.1, 1.0, 1.5, 0.7, 1.0]
    at_lo, at_hi = [g(x) for g, x in zip(gs, lo)], [g(x) for g, x in zip(gs, hi)]
    steps = []

    def batch(xs, live):
        steps.append(len(xs))
        return [gs[k](x) for k, x in zip(live, xs)]

    together = hankel._secant(batch, lo, hi, at_lo, at_hi)
    assert steps == sorted(steps, reverse=True) and steps[0] == len(gs)
    assert len(steps) <= hankel._SECANT_STEPS
    for k, g in enumerate(gs):
        alone = hankel._secant(lambda xs, live: [g(xs[0])], [lo[k]], [hi[k]], [at_lo[k]], [at_hi[k]])
        assert alone == [together[k]]
        # the root lies within the final bracket, _XTOL of the width, of the point returned
        near = hankel._XTOL * (hi[k] - lo[k])
        assert g(together[k] - near) >= 0.0 >= g(together[k] + near), k


def test_secant_refinement_is_the_same_for_every_r_set():
    # the lockstep secants of N = 1, 2 equal one r at a time, bit for bit
    for name, psi, _ in corpus_states():
        for N in (1, 2):
            rs = list(range(N + 1))
            together = hankel._search(hankel._Plan(psi, N), rs)
            for r, (x, value) in zip(rs, together):
                [(x_alone, value_alone)] = hankel._search(hankel._Plan(psi, N), [r])
                assert (x.hex(), value.hex()) == (x_alone.hex(), value_alone.hex()), (name, N, r)


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
    kinks = list(plan.tables.kinks)
    assert kinks == sorted(kinks)
    assert np.allclose(kinks, distinct, rtol=0, atol=1e-12)


def test_kink_refinement_reaches_golden_section_on_the_corpus():
    # wherever either is above noise, the search's point at N = 1, 2 is at
    # least what 45 calls of golden-section find on the segment
    for name, psi, _ in corpus_states():
        for N in (1, 2):
            plan = hankel._Plan(psi, N)
            kinks = plan.tables.kinks
            for r, (_, value) in enumerate(hankel._search(plan, list(range(N + 1)))):

                def at(x):
                    return hankel._point_thresholds(plan, hankel._scored_at([x]), [r])[0]

                _, reference = scalar_golden_max(at, kinks[0], kinks[-1], 43)
                if max(value, reference) > 1e-20:
                    assert value >= reference * (1 - 1e-14), (name, N, r)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8])
def test_singular_values_rise_with_b_and_fall_after_dividing_by_b_to_the_2n(N):
    # H_{N,b'} = D H_{N,b} D with D = diag((b'/b)^i): for b <= b', ||D||_2 = 1 when
    # scaling down and (b'/b)^N when scaling up, and sigma_l(A X B) <= ||A|| sigma_l(X) ||B||
    grid = B_GRID
    allowance = 10 * (N + 1) * 2.0**-52
    for name, psi, _ in corpus_states():
        _, sigma, scale = hankel._spectra(hankel._Plan(psi, N), hankel._log_b(grid))
        s = sigma * np.exp(scale)[:, None]
        t = s / grid[:, None] ** (2 * N)
        for low, high in ((s[:-1], s[1:]), (t[1:], t[:-1])):
            slack = allowance * np.maximum(low[:, :1], high[:, :1])
            assert np.all(low <= high + slack), (name, N)


def grid_optimized_bounds(psi, rs, n_max, b_grid):
    """{r: best threshold over N = max(r, 1)..n_max and the b grid}, where
    b_grid = (min, max, points) is spanned logarithmically, plus b = 1."""
    b = np.unique(np.append(np.geomspace(*b_grid), 1.0))
    log_b = hankel._log_b(b)
    best = dict.fromkeys(rs, 0.0)
    for N in range(1, n_max + 1):
        live = [r for r in rs if r <= N]
        for row in hankel._thresholds_at(hankel._Plan(psi, N), log_b, [live] * len(b)):
            for r, value in zip(live, row):
                best[r] = max(best[r], value)
    return best


@pytest.mark.parametrize("b_grid", [(1e-3, 10.0, 200), (1e-6, 1e3, 400)])
def test_kink_search_matches_the_grid_search_on_the_corpus(b_grid):
    n_max = 6
    cfg = SearchConfig(N_max=n_max)
    for name, psi, _ in corpus_states():
        found = optimized_bounds(psi, range(n_max + 1), cfg)
        grid = grid_optimized_bounds(psi, range(n_max + 1), n_max, b_grid)
        for r, res in found.items():
            assert res.value == rescaled_bound(psi, r, res.N_star, res.b_star), (name, r)
            if max(res.value, grid[r]) > 1e-18:
                assert res.value >= grid[r] * (1 - 1e-12), (name, r)
            else:  # noise-level tails: b = 1 keeps the plain bound beaten
                for N in range(max(r, 1), n_max + 1):
                    assert res.value >= plain_bound(psi, r, N) * (1 - 1e-12), (name, r, N)


# The dense oracle: 4,001 log-spaced b on [1e-3, 10] and 1,000 on each of
# [1e-8, 1e-3) and (10, 1e4], to which each N adds its kinks and b = 1.
DENSE_LOG_B = np.concatenate([
    np.linspace(math.log(1e-8), math.log(1e-3), 1000, endpoint=False),
    np.linspace(math.log(1e-3), math.log(10.0), 4001),
    np.linspace(math.log(10.0), math.log(1e4), 1001)[1:],
])


def dense_oracle_thresholds(psi, N, log_b):
    """(len(log_b), N + 1) thresholds of every r at every log b, from the
    reference builders, in numpy.  A tail within SVD rounding of the matrix,
    sqrt(sum_{l>r} sigma_l^2) <= 4 (N+1) u ||H||_F, is noise and scores 0: the
    search may miss the oracle there (by up to 0.84 (N+1) u ||H||_F on the
    corpus), where the objective is rounding, not the tail."""
    _, sigma, scale = reference_spectra(psi, N, log_b)
    tails = np.cumsum((sigma**2)[:, ::-1], axis=1)[:, ::-1]  # tails[:, r] = sum_{l>r} sigma_l^2
    tails[tails <= (4 * (N + 1) * 2.0**-52) ** 2 * tails[:, :1]] = 0.0
    den = math.log(2.0) + reference_log_weight_max(N, log_b)
    with np.errstate(divide="ignore"):
        return np.exp(np.log(tails) + 2.0 * scale[:, None] - den[:, None])


def test_search_reaches_the_dense_oracle():
    states = [(name, psi) for name, psi, _ in corpus_states()] + list(
        zip(["fock", "squeezed", "core", "superposition"], builder_states()))
    for name, psi in states:
        for N in range(1, 9):
            plan = hankel._Plan(psi, N)
            rs = list(range(N + 1))
            log_b = np.concatenate([DENSE_LOG_B, plan.tables.kinks, [0.0]])
            oracle = dense_oracle_thresholds(psi, N, log_b).max(axis=0)
            for r, (_, value) in zip(rs, hankel._search(plan, rs)):
                assert value >= oracle[r] * (1 - 1e-12), (name, N, r)


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


def test_hankel_size_cap_refuses_before_building():
    assert (MAX_HANKEL_N + 1) ** 2 == hankel._BLOCK_ENTRIES
    psi = fock_state(1, 2 * (MAX_HANKEL_N + 1))
    hankel._Plan(psi, MAX_HANKEL_N)  # the largest N that one SVD block holds
    N = MAX_HANKEL_N + 1
    refused = [
        lambda: hankel._Plan(psi, N),
        lambda: plain_bound(psi, 1, N),
        lambda: rescaled_bound(psi, 1, N, 0.5),
        lambda: hankel_matrix(psi, N, 1.0),
        lambda: optimized_bound(psi, 1, SearchConfig(N_max=N)),
        lambda: certify_rank(psi, 0.1, SearchConfig(N_max=N)),
        lambda: recurrence_order(psi, N),
    ]
    for call in refused:
        with pytest.raises(ResourceLimit, match=str(MAX_HANKEL_N)):
            call()
