import math
from itertools import product

import numpy as np
import pytest

from csrank import multimode
from csrank.errors import NumericalFailure, ResourceLimit
from csrank.fock import superposition_to_fock
from csrank.multimode import (
    MultimodeFockState,
    MultimodeSuperposition,
    apply_unitary_to_superposition,
    bunching_row,
    check_unitary,
    evolve_fock_state,
    fourier_matrix,
    multimode_from_descriptor,
    multimode_lower_bound,
    project_vacuum_tail,
    reduce_to_single_mode,
    reduction_amplitudes,
    tensor_fock,
)
from csrank.permanent import haar_unitary, permanent_naive


def fock_transition_oracle(U, out_occ, in_occ):
    """<out|U|in> via the repeated-row/column permanent (independent route)."""
    rows = [i for i, k in enumerate(out_occ) for _ in range(k)]
    cols = [j for j, k in enumerate(in_occ) for _ in range(k)]
    if len(rows) != len(cols):
        return 0j
    if not rows:
        return 1.0 + 0j
    sub = U[np.ix_(rows, cols)]
    norm = math.sqrt(
        math.prod(math.factorial(k) for k in out_occ)
        * math.prod(math.factorial(k) for k in in_occ)
    )
    return permanent_naive(sub) / norm


def test_fourier_matrix_small():
    assert np.allclose(fourier_matrix(1), [[1]])
    assert np.allclose(fourier_matrix(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2))


@pytest.mark.parametrize("m", [2, 5, 9, 16])
def test_fourier_unitarity(m):
    U = fourier_matrix(m)
    assert np.max(np.abs(U.conj().T @ U - np.eye(m))) < 1e-12


def test_apply_identity_unitary():
    sup = MultimodeSuperposition([(1.0, [0.3, -0.2]), (0.5j, [0.0, 1.0])])
    out = apply_unitary_to_superposition(np.eye(2), sup)
    for (c1, a1), (c2, a2) in zip(sup.terms, out.terms):
        assert c1 == c2 and np.allclose(a1, a2)


def test_apply_unitary_preserves_norm_and_count():
    rng = np.random.default_rng(2)
    U = haar_unitary(3, seed=5)
    sup = MultimodeSuperposition(
        [(1.0, rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(3)]
    )
    out = apply_unitary_to_superposition(U, sup)
    assert len(out) == 3
    for (_, a1), (_, a2) in zip(sup.terms, out.terms):
        assert np.linalg.norm(a2) == pytest.approx(np.linalg.norm(a1), abs=1e-12)
    out = apply_unitary_to_superposition(fourier_matrix(3), sup)
    assert len(out) == 3


def test_apply_unitary_dimension_mismatch():
    sup = MultimodeSuperposition([(1.0, [0.3, -0.2, 0.1])])
    with pytest.raises(ValueError):
        apply_unitary_to_superposition(np.eye(2), sup)


def test_project_vacuum_tail_examples():
    sup = MultimodeSuperposition([(1.0, [2.0, 0.0, 0.0])])
    out = project_vacuum_tail(sup)
    assert out.terms[0].c == pytest.approx(1.0)
    assert out.terms[0].alpha == pytest.approx(2.0)

    sup = MultimodeSuperposition([(1.0, [1.0, 1.0])])
    out = project_vacuum_tail(sup)
    assert out.terms[0].c == pytest.approx(math.exp(-0.5), rel=1e-14)

    sup = MultimodeSuperposition([(0.7, [0.4])])
    out = project_vacuum_tail(sup)
    assert out.terms[0].c == pytest.approx(0.7) and out.terms[0].alpha == 0.4


def _bunched(core, U):
    """d_n read from the reduction at the first row of U."""
    return reduce_to_single_mode(core, U[0]).amplitudes[core.max_total]


def _sector_reference(core, u):
    """sqrt(k!) P_k(u) monomial by monomial, in plain Python arithmetic."""
    amps = [0j] * (core.max_total + 1)
    for occ, c in core.amplitudes.items():
        term = c
        for uj, kj in zip(u, occ):
            term *= uj**kj / math.sqrt(math.factorial(kj))
        amps[sum(occ)] += term
    return np.array([a * math.sqrt(math.factorial(k)) for k, a in enumerate(amps)])


def test_bunching_unitary_hom():
    U = multimode_lower_bound(tensor_fock([1, 1]), seed=0).unitary
    assert np.allclose(np.abs(U[0]), [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-12


def test_bunching_unitary_single_mode():
    U = multimode_lower_bound(tensor_fock([2]), seed=0).unitary
    assert np.allclose(np.abs(U), [[1.0]])


def test_bunching_unitary_random_cores_never_vanish():
    rng = np.random.default_rng(31)
    for seed in range(50):
        occs = [occ for occ in product(range(3), repeat=3) if sum(occ) <= 2]
        amps = {
            occ: rng.standard_normal() + 1j * rng.standard_normal() for occ in occs
        }
        total = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
        core = MultimodeFockState(3, {k: v / total for k, v in amps.items()})
        rep = multimode_lower_bound(core, seed=seed)
        assert abs(rep.d_n) > 1e-14
        # brute-force check through the full evolution
        evolved = evolve_fock_state(core, rep.unitary)
        bunched = tuple([core.max_total] + [0] * 2)
        assert evolved.amplitudes[bunched] == pytest.approx(rep.d_n, abs=1e-12)


def test_bunched_amplitude_hom():
    core = tensor_fock([1, 1])
    d2 = _bunched(core, fourier_matrix(2))
    assert abs(d2) ** 2 == pytest.approx(0.5, rel=1e-12)
    oracle = fock_transition_oracle(fourier_matrix(2), (2, 0), (1, 1))
    assert d2 == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_bunched_amplitude_uniform_fock(n):
    core = tensor_fock([1] * n)
    d = _bunched(core, fourier_matrix(n))
    assert abs(d) ** 2 == pytest.approx(math.factorial(n) / n**n, abs=1e-12)


def test_bunched_amplitude_trivial():
    core = tensor_fock([3, 0, 0])
    assert _bunched(core, np.eye(3)) == pytest.approx(1.0)


def test_evolution_matches_permanent_oracle():
    rng = np.random.default_rng(4)
    for seed in range(10):
        U = haar_unitary(3, seed=seed)
        in_occ = tuple(rng.integers(0, 3, 3))
        if sum(in_occ) == 0 or sum(in_occ) > 5:
            continue
        evolved = evolve_fock_state(tensor_fock(in_occ), U)
        for out_occ, amp in evolved.amplitudes.items():
            oracle = fock_transition_oracle(U, out_occ, in_occ)
            assert amp == pytest.approx(oracle, abs=1e-11)


def test_reduce_hom_state():
    red = reduce_to_single_mode(tensor_fock([1, 1]), fourier_matrix(2)[0])
    assert red.amplitudes[1] == pytest.approx(0.0, abs=1e-14)
    assert red.amplitudes[2] == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_reduce_identity_gives_marginal():
    core = MultimodeFockState(
        2, {(0, 0): 0.5, (2, 0): 0.5, (1, 1): math.sqrt(0.5)}
    )
    red = reduce_to_single_mode(core, np.eye(2)[0])
    assert red.amplitudes[0] == pytest.approx(0.5)
    assert red.amplitudes[2] == pytest.approx(0.5)
    assert red.amplitudes[1] == pytest.approx(0.0)


def test_reduce_agrees_with_bunched_amplitude():
    rng = np.random.default_rng(12)
    for seed in range(50):
        m = int(rng.integers(2, 4))
        occs = [occ for occ in product(range(3), repeat=m) if 0 < sum(occ) <= 3]
        picks = rng.choice(len(occs), size=min(4, len(occs)), replace=False)
        amps = {
            occs[i]: rng.standard_normal() + 1j * rng.standard_normal() for i in picks
        }
        total = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
        core = MultimodeFockState(m, {k: v / total for k, v in amps.items()})
        U = haar_unitary(m, seed=seed)
        red = reduce_to_single_mode(core, U[0])
        assert np.max(np.abs(red.amplitudes - _sector_reference(core, U[0]))) <= 1e-14
        assert red.norm <= 1 + 1e-12


def test_reduction_amplitudes_scores_every_row_as_alone():
    rng = np.random.default_rng(8)
    core = _random_core(rng, 4, 6, 6)
    rows = haar_unitary(4, seed=2)[:3] * np.array([[1.0], [0.5], [0.0]])  # lossy rows too
    batch = reduction_amplitudes(core, rows)
    assert batch.shape == (3, core.max_total + 1)
    for row, amps in zip(rows, batch):
        assert np.max(np.abs(amps - _sector_reference(core, row))) <= 1e-14
        assert np.array_equal(amps, reduce_to_single_mode(core, row).amplitudes)


@pytest.mark.parametrize(
    "row", [[0.6, 0.8, 0.0], [[0.6, 0.8]], [np.nan, 0.0], [0.6, 0.8 + 1e-9]],
    ids=["three-entries", "matrix", "nan", "norm-above-1"],
)
def test_reduce_refuses_a_row_that_is_no_contraction(row):
    with pytest.raises(ValueError):
        reduce_to_single_mode(tensor_fock([1, 1]), row)


def test_reduce_needs_no_unitary_around_the_row():
    # d_2 = sqrt(2) u_1 u_2 for |1, 1>; a row shorter than 1 is loss.
    core = tensor_fock([1, 1])
    assert reduce_to_single_mode(core, [0.6, 0.8]).amplitudes[2] == pytest.approx(
        0.48 * math.sqrt(2), rel=1e-15)
    assert reduce_to_single_mode(core, [0.3, 0.4j]).amplitudes[2] == pytest.approx(
        0.12j * math.sqrt(2), rel=1e-15)


def _random_core(rng, modes, max_bosons, terms):
    occs = [occ for occ in product(range(max_bosons + 1), repeat=modes) if sum(occ) <= max_bosons]
    picks = rng.choice(len(occs), size=min(terms, len(occs)), replace=False)
    amps = {occs[i]: rng.standard_normal() + 1j * rng.standard_normal() for i in picks}
    total = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    return MultimodeFockState(modes, {k: v / total for k, v in amps.items()})


def test_reduce_matches_vacuum_tail_of_the_evolved_state():
    rng = np.random.default_rng(20)
    for seed in range(40):
        core = _random_core(rng, int(rng.integers(2, 5)), 6, int(rng.integers(1, 7)))
        U = haar_unitary(core.modes, seed=seed)
        expected = np.zeros(core.max_total + 1, dtype=complex)
        for occ, amp in evolve_fock_state(core, U).amplitudes.items():
            if not any(occ[1:]):
                expected[occ[0]] = amp
        red = reduce_to_single_mode(core, U[0])
        assert np.max(np.abs(red.amplitudes - expected)) <= 1e-14


def test_sector_preservation():
    core = tensor_fock([2, 1])  # pure 3-boson sector
    U = haar_unitary(2, seed=3)
    red = reduce_to_single_mode(core, U[0])
    assert np.allclose(red.amplitudes[:3], 0.0, atol=1e-14)
    assert red.amplitudes[3] == pytest.approx(_sector_reference(core, U[0])[3], abs=1e-12)


def test_block_split_scoring_picks_the_same_row(monkeypatch):
    rng = np.random.default_rng(41)
    cores = [_random_core(rng, int(rng.integers(2, 6)), 5, int(rng.integers(1, 7)))
             for _ in range(20)]
    expected = [bunching_row(core, seed=i) for i, core in enumerate(cores)]
    calls = []
    evaluate = multimode.reduction_amplitudes

    def recording(core, rows):
        calls.append((len(rows), len(core.amplitudes)))
        return evaluate(core, rows)

    monkeypatch.setattr(multimode, "reduction_amplitudes", recording)
    monkeypatch.setattr(multimode, "_BLOCK_ENTRIES", 12)
    for i, (core, want) in enumerate(zip(cores, expected)):
        assert np.array_equal(bunching_row(core, seed=i), want)
    assert len(calls) > 4 * len(cores)
    assert all(rows <= max(1, 12 // monomials) for rows, monomials in calls)


def _scripted_scores(monkeypatch, scores):
    """Make the evaluator score candidate i as scores[i], in candidate order,
    and every candidate past the list 0."""
    scores = list(scores) + [0.0] * (multimode.TRIALS + 1 - len(scores))
    seen = []

    def scripted(core, rows):
        out = np.zeros((len(rows), core.max_total + 1))
        out[:, core.max_total] = scores[len(seen): len(seen) + len(rows)]
        seen.extend(rows)
        return out

    monkeypatch.setattr(multimode, "reduction_amplitudes", scripted)
    return seen


@pytest.mark.parametrize("block", [1, 2, 3, 100])
def test_earliest_row_in_the_tie_band_of_the_best_wins(monkeypatch, block):
    # Candidate 1 is within 1e-12 of the final best (candidate 3); candidate 0
    # only of candidate 1, so the band is read from the final best.
    scores = [1.0, 1 + 0.6e-12, 0.5, 1 + 1.2e-12, 1 + 1.2e-12]
    core = tensor_fock([1, 1])
    monkeypatch.setattr(multimode, "_BLOCK_ENTRIES", block)
    seen = _scripted_scores(monkeypatch, scores)
    u = bunching_row(core, seed=0)
    assert len(seen) == multimode.TRIALS + 1
    assert np.array_equal(u, seen[1])


def test_a_vanishing_top_sector_exits_as_a_numerical_failure(monkeypatch):
    _scripted_scores(monkeypatch, [0.0, 1e-15, 0.0])
    with pytest.raises(NumericalFailure, match="retry with a different seed"):
        bunching_row(tensor_fock([1, 1]), seed=0)


def test_single_mode_core_takes_the_uniform_row():
    core = MultimodeFockState(1, {(0,): 0.6, (3,): 0.8j})
    reports = [multimode_lower_bound(core, seed=seed) for seed in range(5)]
    for rep in reports:
        assert rep.unitary.tolist() == [[1.0]]
        assert rep.d_n == reports[0].d_n == pytest.approx(0.8j)


def test_multimode_lower_bound_evaluates_once_per_block_and_once_to_reduce(monkeypatch):
    calls = []
    evaluate = multimode.reduction_amplitudes

    def recording(core, rows):
        calls.append(len(rows))
        return evaluate(core, rows)

    monkeypatch.setattr(multimode, "reduction_amplitudes", recording)
    core = MultimodeFockState(3, {(1, 0, 0): 0.5, (2, 1, 1): 0.5, (0, 3, 1): 0.5j})
    multimode_lower_bound(core, seed=1)
    assert calls == [65, 1]
    calls.clear()
    monkeypatch.setattr(multimode, "_BLOCK_ENTRIES", 3 * 20)  # 20 rows of 3 monomials
    multimode_lower_bound(core, seed=1)
    assert calls == [20, 20, 20, 5, 1]


def test_rank_preservation_under_projection():
    rng = np.random.default_rng(6)
    sup = MultimodeSuperposition(
        [(1.0, rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in range(3)]
    )
    projected = project_vacuum_tail(
        apply_unitary_to_superposition(fourier_matrix(2), sup)
    )
    assert len(projected) <= 3


def test_superposition_state_duality():
    # Fock-expanding, evolving, and vacuum-projecting a coherent superposition
    # agrees with evolving the coherent parameters directly.
    rng = np.random.default_rng(15)
    per_mode_cutoff = 6
    for seed in range(5):
        U = haar_unitary(2, seed=seed + 40)
        terms = [
            (
                complex(rng.standard_normal(), rng.standard_normal()),
                0.45 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)),
            )
            for _ in range(2)
        ]
        sup = MultimodeSuperposition(terms)
        # exact norm via the coherent Gram matrix
        coeffs = np.array([c for c, _ in sup.terms])
        alphas = np.array([a for _, a in sup.terms])
        sq = np.sum(np.abs(alphas) ** 2, axis=1)
        gram = np.exp(-0.5 * sq[:, None] - 0.5 * sq[None, :] + np.conj(alphas) @ alphas.T)
        norm = math.sqrt(float(np.real(np.conj(coeffs) @ gram @ coeffs)))
        sup = MultimodeSuperposition([(c / norm, a) for c, a in sup.terms])

        # route A: stay in coherent parameters
        single = project_vacuum_tail(apply_unitary_to_superposition(U, sup))
        route_a = superposition_to_fock(single, cutoff=per_mode_cutoff)

        # route B: expand in the Fock basis first, then evolve exactly
        fock_amps = {}
        for occ in product(range(per_mode_cutoff + 1), repeat=2):
            total = 0j
            for c, a in sup.terms:
                term = c
                for i, k in enumerate(occ):
                    term *= (
                        math.exp(-0.5 * abs(a[i]) ** 2)
                        * a[i] ** k
                        / math.sqrt(math.factorial(k))
                    )
                total += term
            if abs(total) > 1e-16:
                fock_amps[occ] = total
        core = MultimodeFockState(2, fock_amps)
        route_b = reduce_to_single_mode(core, U[0])

        n = min(per_mode_cutoff, route_b.cutoff)
        assert np.allclose(
            route_a.amplitudes[: n + 1], route_b.amplitudes[: n + 1], atol=1e-10
        )


def test_multimode_lower_bound_values():
    rep = multimode_lower_bound(tensor_fock([1, 1, 1]), seed=0)
    assert rep.bound == 4
    assert rep.abs_d_n_sq > 0
    assert rep.hankel_threshold > 0

    rep = multimode_lower_bound(tensor_fock([2, 1]), seed=0)
    assert rep.bound == 4

    rep = multimode_lower_bound(tensor_fock([0, 0]), seed=0)
    assert rep.bound == 1


def test_desk_scale_guard():
    with pytest.raises(ResourceLimit):
        evolve_fock_state(tensor_fock([13]), np.eye(1))
    with pytest.raises(ResourceLimit):
        evolve_fock_state(tensor_fock([1] * 7), np.eye(7))


@pytest.mark.parametrize("amps", [{(1.5, 0): 1.0}, {("1", "1"): 1.0},
                                  {(1, 1): 0.6, (1.9, 1): 0.8}])
def test_occupations_must_be_integers(amps):
    # int() would read each of these as another state (the last as |1, 1> with weight 1.96)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        MultimodeFockState(2, amps)


def test_numpy_integer_occupations_are_accepted():
    core = MultimodeFockState(2, {(np.int64(1), np.int64(0)): 1.0})
    assert core.amplitudes == {(1, 0): 1.0}
    assert all(type(k) is int for k in next(iter(core.amplitudes)))


def test_state_invariants():
    with pytest.raises(ValueError):
        MultimodeFockState(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        MultimodeFockState(1, {(1,): 2.0})  # weight > 1
    with pytest.raises(ValueError):
        check_unitary(np.ones((2, 2)))
    core = multimode_from_descriptor(
        {"modes": 2, "amps": [{"occ": [1, 1], "c": [1, 0]}]}
    )
    assert core.max_total == 2
    with pytest.raises(TypeError):  # derived from the amplitudes, never passed
        MultimodeFockState(2, {(1, 1): 1.0}, max_total=7)
