import cmath
import math

import numpy as np
import pytest

from csrank.errors import ResourceLimit
from csrank.fock import (
    ALPHA_MERGE_TOL,
    DEFAULT_MAX_TAIL,
    CoherentSuperposition,
    CoherentTerm,
    FockVector,
    SqueezedParams,
    coherent_amplitudes,
    coherent_columns,
    coherent_state,
    fidelity,
    fock_state,
    squeezed_state,
    state_from_descriptor,
    superposition_to_fock,
)
from csrank.fock import _squeezed_even_log_mags
from csrank.multimode import MultimodeSuperposition


def test_fock_state_vacuum():
    v = fock_state(0, 4)
    assert np.allclose(v.amplitudes, [1, 0, 0, 0, 0])
    assert v.normalized


def test_fock_state_basis_vector():
    v = fock_state(3, 5)
    expected = np.zeros(6)
    expected[3] = 1
    assert np.allclose(v.amplitudes, expected)


def test_fock_state_above_cutoff_rejected():
    with pytest.raises(ValueError):
        fock_state(5, 3)


def test_coherent_alpha_zero_is_vacuum():
    v = coherent_state(0, 6)
    assert np.allclose(v.amplitudes, [1, 0, 0, 0, 0, 0, 0])


def test_coherent_amplitude_zero():
    v = coherent_state(1.0, 20)
    assert v.amplitudes[0] == pytest.approx(math.exp(-0.5), rel=1e-14)


def test_coherent_truncation_weight():
    # independent oracle: direct Poisson tail sum for lambda = 1
    tail = sum(math.exp(-1.0) / math.factorial(n) for n in range(21, 61))
    v = coherent_state(1.0, 20)
    assert v.tail_weight == pytest.approx(tail, rel=1e-6)
    assert fidelity(v, v) == 1.0
    assert float(np.vdot(v.amplitudes, v.amplitudes).real) >= 1 - 1e-12


def test_coherent_tail_decreases_with_cutoff():
    tails = [coherent_state(1.3, c).tail_weight for c in (8, 12, 16, 24)]
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_coherent_auto_cutoff_meets_tail_budget():
    v = coherent_state(2.0)
    assert v.tail_weight <= 1e-12
    w = coherent_state(2.0, cutoff=v.cutoff - 1)
    assert w.tail_weight > 1e-12  # the auto choice is minimal


def test_squeezed_zero_is_vacuum():
    v = fock_state(0, 8)
    s = squeezed_state(SqueezedParams(0.0), 8)
    assert np.allclose(s.amplitudes, v.amplitudes)
    assert s.tail_weight <= 1e-12


@pytest.mark.parametrize("r,phi,cutoff", [(0.5, 0.0, 8), (0.3, 1.1, 12), (1.0, 4.0, 21)])
def test_squeezed_odd_amplitudes_vanish(r, phi, cutoff):
    v = squeezed_state(SqueezedParams(r, phi), cutoff)
    assert np.all(v.amplitudes[1::2] == 0)
    assert v.amplitudes[1] == 0 and (cutoff < 3 or v.amplitudes[3] == 0)


def test_squeezed_rescaled_ratio():
    # h_n proportional to (sqrt(n!) a_{2n})^2 obeys h_{n+1}/h_n = (lambda^2/2)(2n+1)
    params = SqueezedParams(0.5, 0.0)
    lam = params.lam.real
    v = squeezed_state(params, 20)
    h = [(v.amplitudes[2 * n].real * math.sqrt(math.factorial(n))) ** 2 for n in range(5)]
    for n in range(4):
        assert h[n + 1] / h[n] == pytest.approx(lam**2 / 2 * (2 * n + 1), rel=1e-12)


def test_squeezed_norm_approaches_one():
    for r in (0.3, 0.8, 1.4):
        v = squeezed_state(SqueezedParams(r))
        assert float(np.vdot(v.amplitudes, v.amplitudes).real) == pytest.approx(
            1.0, abs=1e-11
        )
        assert v.tail_weight <= 1e-12


def _linear_descent_cutoff(params, max_tail=DEFAULT_MAX_TAIL):
    """Automatic squeezed cutoff by doubling the pair count, then stepping
    down one pair at a time while the shorter truncation meets the budget."""
    n_pairs = 4
    while True:
        weights = np.exp(2 * _squeezed_even_log_mags(params, n_pairs))
        if 1.0 - weights.sum() <= max_tail:
            break
        n_pairs *= 2
    while n_pairs > 0 and 1.0 - weights[:n_pairs].sum() <= max_tail:
        n_pairs -= 1
    return 2 * n_pairs


def test_squeezed_auto_cutoff_matches_linear_descent():
    # The bisection must land where the one-pair-at-a-time descent did, also
    # for large r, where each pair moves the tail by less than 1e-15.
    for i in range(431):
        params = SqueezedParams(i / 100)
        assert squeezed_state(params).cutoff == _linear_descent_cutoff(params), params


def test_auto_cutoffs_reach_up_to_the_cap():
    # The pair doubling stops at MAX_CUTOFF // 2 rather than overshooting it.
    assert squeezed_state(SqueezedParams(4.48)).cutoff == 99_016
    assert coherent_state(300.0).cutoff == 92_118
    with pytest.raises(ResourceLimit):
        squeezed_state(SqueezedParams(4.6))


def test_superposition_single_vacuum_term():
    sup = CoherentSuperposition([CoherentTerm(1.0, 0.0)])
    v = superposition_to_fock(sup, 6)
    assert np.allclose(v.amplitudes, [1, 0, 0, 0, 0, 0, 0])


def test_superposition_odd_cat_parity():
    delta = 0.1
    sup = CoherentSuperposition([CoherentTerm(1.0, delta), CoherentTerm(-1.0, -delta)])
    v = superposition_to_fock(sup, 10)
    assert np.max(np.abs(v.amplitudes[0::2])) < 1e-15


def test_superposition_matches_coherent_state():
    sup = CoherentSuperposition([CoherentTerm(1.0, 1.0)])
    v = superposition_to_fock(sup, 15)
    w = coherent_state(1.0, 15)
    assert np.allclose(v.amplitudes, w.amplitudes, atol=1e-15)


def test_superposition_linear_in_coefficients():
    rng = np.random.default_rng(5)
    alphas = [0.4 + 0.2j, -0.9j]
    c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    single = [
        superposition_to_fock(CoherentSuperposition([CoherentTerm(1.0, a)]), 12)
        for a in alphas
    ]
    combined = superposition_to_fock(
        CoherentSuperposition([CoherentTerm(c1, alphas[0]), CoherentTerm(c2, alphas[1])]),
        12,
    )
    assert np.allclose(
        combined.amplitudes,
        c1 * single[0].amplitudes + c2 * single[1].amplitudes,
        atol=1e-14,
    )


def test_duplicate_displacements_merge():
    sup = CoherentSuperposition(
        [CoherentTerm(1.0, 0.5), CoherentTerm(2.0, 0.5 + 1e-14)]
    )
    assert len(sup) == 1
    assert sup.terms[0].c == pytest.approx(3.0)


def test_fidelity_self_and_orthogonal():
    v = coherent_state(0.8, 20)
    assert fidelity(v, v) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(fock_state(0, 3), fock_state(1, 3)) == 0.0


def test_fidelity_vacuum_coherent():
    f = fidelity(fock_state(0, 20), coherent_state(1.0, 20))
    assert f == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_fidelity_zero_norm_rejected():
    z = FockVector(np.zeros(3, dtype=complex), 2)
    with pytest.raises(ValueError):
        fidelity(z, fock_state(0, 2))


def two_norm_distance(a: FockVector, b: FockVector) -> float:
    """||a - b||_2 of the raw (not renormalized) amplitude vectors."""
    cutoff = max(a.cutoff, b.cutoff)
    return float(np.linalg.norm(a.padded(cutoff).amplitudes - b.padded(cutoff).amplitudes))


def test_norm_distance_relations():
    # ||a-b||^2 = 2(1 - Re<a|b>) and, phase-aligned, sqrt(2(1 - sqrt(F)))
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        a = FockVector(x, 8, normalized=True)
        b = FockVector(y, 8, normalized=True)
        d2 = two_norm_distance(a, b) ** 2
        assert d2 == pytest.approx(2 * (1 - np.vdot(x, y).real), abs=1e-12)
        theta = np.angle(np.vdot(x, y))
        aligned = FockVector(y * np.exp(-1j * theta), 8, normalized=True)
        f = fidelity(a, b)
        d_aligned = two_norm_distance(a, aligned)
        assert d_aligned == pytest.approx(math.sqrt(2 * (1 - math.sqrt(f))), abs=1e-10)
        assert d_aligned**2 <= 2 + 1e-12


def test_invariant_checks():
    with pytest.raises(ValueError):
        FockVector(np.array([1.0, np.nan], dtype=complex), 1)
    with pytest.raises(ValueError):
        FockVector(np.array([1.0, 1.0], dtype=complex), 1, normalized=True)
    with pytest.raises(ValueError):
        FockVector(np.ones(3, dtype=complex), 5)


def test_descriptor_roundtrip():
    v = state_from_descriptor({"type": "fock", "n": 2, "cutoff": 6})
    assert v.amplitudes[2] == 1
    v = state_from_descriptor({"type": "core", "amps": [[1, 0], [0, 1]]})
    assert v.norm == pytest.approx(1.0)
    v = state_from_descriptor({"type": "squeezed", "r": 0.4, "phi": 0.0, "cutoff": 10})
    assert v.amplitudes[1] == 0
    v = state_from_descriptor(
        {"type": "superposition", "terms": [{"c": [1, 0], "alpha": [0.3, 0.1]}], "cutoff": 8}
    )
    assert v.cutoff == 8
    with pytest.raises(ValueError):
        state_from_descriptor({"type": "wigner"})


def _coherent_oracle(alpha: complex, n: int) -> complex:
    """e^{-|alpha|^2/2} alpha^n / sqrt(n!) one entry at a time via lgamma."""
    if alpha == 0:
        return 1.0 if n == 0 else 0.0
    log_mag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * math.lgamma(n + 1)
    return math.exp(log_mag) * cmath.exp(1j * n * cmath.phase(alpha))


@pytest.mark.parametrize(
    "alphas, cutoff",
    [
        ([0.0], 6),
        ([0.7 - 0.2j, 0.0, -1.1j], 0),
        ([5.0, -3.0 + 4.0j, 5j, 0.3 + 0.1j, 0.0], 60),
    ],
    ids=["vacuum", "cutoff-0", "abs-5-cutoff-60"],
)
def test_coherent_columns_match_scalar_oracle(alphas, cutoff):
    cols = coherent_columns(alphas, cutoff)
    assert cols.shape == (cutoff + 1, len(alphas))
    for k, alpha in enumerate(alphas):
        expected = np.array([_coherent_oracle(alpha, n) for n in range(cutoff + 1)])
        assert np.allclose(cols[:, k], expected, rtol=1e-13, atol=1e-300)
        assert np.array_equal(coherent_amplitudes(alpha, cutoff), cols[:, k])


def test_merge_is_shared_by_single_and_multimode_superpositions():
    above = np.nextafter(ALPHA_MERGE_TOL, 1.0)
    terms = [
        (1.0, 0.0),
        (2.0, 1.5 * ALPHA_MERGE_TOL),  # beyond the tolerance of 0: kept
        (3.0, 0.75 * ALPHA_MERGE_TOL),  # within tolerance of both: joins the first
        (4.0, 1j * ALPHA_MERGE_TOL),  # exactly at the tolerance: merges
        (5.0, 1.0),
        (6.0, 1.0 + 1j * above),  # just above the tolerance: kept
        (7.0, 1.5 * ALPHA_MERGE_TOL),
    ]
    single = CoherentSuperposition([CoherentTerm(c, a) for c, a in terms])
    multi = MultimodeSuperposition([(c, [a]) for c, a in terms])
    expected = [(8.0, 0.0), (9.0, 1.5 * ALPHA_MERGE_TOL), (5.0, 1.0), (6.0, 1.0 + 1j * above)]
    assert [(t.c, t.alpha) for t in single.terms] == expected
    assert [(c, a[0]) for c, a in multi.terms] == expected
    with pytest.raises(ValueError):
        MultimodeSuperposition([(1.0, [0.1]), (1.0, [0.1, 0.2])])


def _merge_by_pairs(terms):
    """The first-match merge as a Python double loop over (c, alpha row) pairs."""
    merged = []
    for c, alpha in terms:
        for i, (mc, ma) in enumerate(merged):
            if np.max(np.abs(ma - alpha)) <= ALPHA_MERGE_TOL:
                merged[i] = (mc + c, ma)
                break
        else:
            merged.append((c, alpha))
    return merged


def test_merge_matches_pairwise_loop_on_clustered_terms():
    rng = np.random.default_rng(12)
    centers = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    jitter = rng.uniform(-1.2, 1.2, (80, 2)) * ALPHA_MERGE_TOL
    alphas = centers[rng.integers(0, 6, 80)] + jitter
    coeffs = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    sup = MultimodeSuperposition(zip(coeffs, alphas))
    expected = _merge_by_pairs(zip(coeffs, alphas))
    assert len(sup) == len(expected) > 6
    for (c, a), (ec, ea) in zip(sup.terms, expected):
        assert c == ec and np.array_equal(a, ea)
