import math

import numpy as np
import pytest
from scipy.optimize import minimize

import csrank.decomp as decomp
from csrank.decomp import (
    best_single_coherent,
    circle_decomposition,
    circle_decomposition_report,
    delta_cat_product,
    fit_superposition,
)
from csrank.fock import (
    FockVector,
    coherent_amplitudes,
    coherent_state,
    core_state,
    fidelity,
    fock_state,
    superposition_to_fock,
)


def odd_cat_infidelity(delta):
    # closed-form overlap of the two-term odd cat with |1>
    return 1 - 2 * delta**2 * math.exp(-delta**2) / (1 - math.exp(-2 * delta**2))


def test_circle_fock1_matches_closed_form():
    rep = circle_decomposition_report(fock_state(1, 12), 0.1)
    assert len(rep["superposition"]) == 2
    alphas = sorted(a.real for a in rep["superposition"].displacements())
    assert alphas == pytest.approx([-0.1, 0.1], abs=1e-15)
    assert 1 - rep["fidelity"] == pytest.approx(odd_cat_infidelity(0.1), rel=1e-6)


def test_circle_vacuum_is_exact():
    rep = circle_decomposition_report(fock_state(0, 4), 0.3)
    assert len(rep["superposition"]) == 1
    assert rep["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_circle_infidelity_decreases_with_delta():
    target = fock_state(2, 12)
    infid = {
        d: 1 - circle_decomposition_report(target, d)["fidelity"] for d in (0.05, 0.2)
    }
    assert infid[0.05] < infid[0.2]


@pytest.mark.parametrize("delta", [1e-3, 1e-2, 0.1, 0.5, 1.0])
def test_circle_reproduces_leading_amplitudes(delta):
    target = core_state([0.2, -0.5, 0.0, 1.0j])
    rep = circle_decomposition_report(target, delta)
    # the solve itself is exact to machine precision at every delta ...
    assert rep["residual"] < 1e-12
    # ... and the reconstructed amplitudes match up to the conditioning loss
    approx = superposition_to_fock(rep["superposition"], cutoff=target.cutoff)
    coeff_scale = np.abs(rep["superposition"].coefficients()).sum()
    tol = max(1e-12, 100 * np.finfo(float).eps * coeff_scale)
    assert np.max(np.abs(approx.amplitudes - target.amplitudes)) < tol


def test_circle_amplitude_match_exact_at_moderate_delta():
    target = core_state([0.2, -0.5, 0.0, 1.0j])
    for delta in (0.1, 0.5, 1.0):
        sup = circle_decomposition(target, delta)
        approx = superposition_to_fock(sup, cutoff=target.cutoff)
        assert np.max(np.abs(approx.amplitudes - target.amplitudes)) < 1e-12


def test_circle_small_delta_warns():
    with pytest.warns(RuntimeWarning):
        circle_decomposition(fock_state(2, 6), 5e-4)


def test_circle_invalid_delta():
    with pytest.raises(ValueError):
        circle_decomposition(fock_state(1, 4), 0.0)


def test_fit_coherent_target_in_model_class():
    res = fit_superposition(coherent_state(0.7), 1, seed=0)
    assert res.fidelity_achieved >= 1 - 1e-10
    assert res.superposition.terms[0].alpha == pytest.approx(0.7, abs=1e-4)


def test_fit_fock1_single_term():
    res = fit_superposition(fock_state(1, 12), 1, seed=0)
    assert res.fidelity_achieved == pytest.approx(math.exp(-1), abs=1e-9)
    assert abs(res.superposition.terms[0].alpha) == pytest.approx(1.0, abs=1e-4)


def test_fit_fock2_three_terms():
    res = fit_superposition(fock_state(2, 12), 3, seed=1)
    assert 1 - res.fidelity_achieved <= 1e-4
    assert res.converged
    assert res.restarts_used == 16


def test_fit_rejects_r_zero():
    with pytest.raises(ValueError):
        fit_superposition(fock_state(1, 8), 0)


def test_fit_deterministic_per_seed():
    a = fit_superposition(fock_state(1, 10), 2, seed=9, restarts=4)
    b = fit_superposition(fock_state(1, 10), 2, seed=9, restarts=4)
    assert a.fidelity_achieved == b.fidelity_achieved
    assert np.array_equal(
        a.superposition.displacements(), b.superposition.displacements()
    )


def test_fit_reported_fidelity_is_recomputable():
    res = fit_superposition(fock_state(2, 14), 2, seed=4, restarts=6)
    approx = superposition_to_fock(res.superposition, cutoff=40)
    assert fidelity(fock_state(2, 40), approx) == pytest.approx(
        res.fidelity_achieved, abs=1e-10
    )


def test_fit_warm_start_never_hurts():
    target = core_state([0.6, 0.0, 0.8], cutoff=10)
    base = fit_superposition(target, 2, seed=2, restarts=6)
    prev = base.superposition.displacements()
    warm = np.concatenate([prev, [prev.max() + 0.5]])
    res = fit_superposition(target, 3, seed=2, restarts=6, init_alphas=warm)
    assert res.fidelity_achieved >= base.fidelity_achieved - 1e-12


def test_best_single_vacuum():
    alpha, infid = best_single_coherent(fock_state(0, 6))
    assert abs(alpha) == pytest.approx(0.0, abs=1e-6)
    assert infid == pytest.approx(0.0, abs=1e-12)


def test_best_single_fock1():
    alpha, infid = best_single_coherent(fock_state(1, 14))
    assert abs(alpha) == pytest.approx(1.0, abs=1e-6)
    assert infid == pytest.approx(1 - math.exp(-1), rel=1e-10)


def test_best_single_complex_search_flag():
    target = core_state([0.6, 0.8j], cutoff=10)
    alpha, infid = best_single_coherent(target, real_axis=False)
    assert 0 <= infid < 1


def test_best_single_recovers_a_complex_coherent_target():
    psi = coherent_state(0.7 + 0.9j, cutoff=30)
    target = FockVector(psi.amplitudes / np.linalg.norm(psi.amplitudes), psi.cutoff)
    alpha, infid = best_single_coherent(target)
    assert abs(alpha - (0.7 + 0.9j)) < 1e-6
    assert 0 <= infid < 1e-12


def _per_point_best_single(target, real_axis=None):
    """The search as it was before the grid was scored in blocks: each grid
    point scored on its own, in one branch per search space."""

    def overlap_sq(t, alpha):
        return float(abs(np.vdot(t, coherent_amplitudes(alpha, len(t) - 1))) ** 2)

    t = target.amplitudes / np.linalg.norm(target.amplitudes)
    if real_axis is None:
        real_axis = bool(np.max(np.abs(t.imag)) < 1e-14)
    radius = max(4.0, 2.0 * math.sqrt(target.mean_fock_number()))
    options = {"xatol": 1e-12, "fatol": 1e-14}
    if real_axis:
        grid = np.linspace(-radius, radius, 2001)
        a0 = grid[int(np.argmax([overlap_sq(t, a) for a in grid]))]
        res = minimize(lambda x: -overlap_sq(t, complex(x[0])), [a0],
                       method="Nelder-Mead", options=options)
        alpha = complex(res.x[0])
    else:
        xs = np.linspace(-radius, radius, 121)
        pts = [complex(x, y) for x in xs for y in xs if x * x + y * y <= radius**2]
        a0 = pts[int(np.argmax([overlap_sq(t, a) for a in pts]))]
        res = minimize(lambda x: -overlap_sq(t, complex(x[0], x[1])), [a0.real, a0.imag],
                       method="Nelder-Mead", options=options)
        alpha = complex(res.x[0], res.x[1])
    return alpha, float(1.0 - min(1.0, overlap_sq(t, alpha)))


def _hex(alpha, infid):
    return alpha.real.hex(), alpha.imag.hex(), infid.hex()


def _figure_left_core(gamma):
    amps = [math.sqrt(1.0 - gamma), math.sqrt(gamma)]
    return core_state(amps, cutoff=16)


_rng = np.random.default_rng(31)
BIT_IDENTITY_TARGETS = (
    [(f"fock{n}", fock_state(n, max(2 * n, 16))) for n in range(13)]
    + [(f"figure-left{i}", _figure_left_core(np.linspace(0.0, 1.0, 64)[i]))
       for i in (1, 20, 45, 63)]
    + [(f"complex-core{i}", core_state(_rng.standard_normal(d) + 1j * _rng.standard_normal(d),
                                       cutoff=16))
       for i, d in enumerate(_rng.integers(2, 7, size=6))]
)


@pytest.mark.parametrize("real_axis", [None, False], ids=["auto", "complex"])
@pytest.mark.parametrize("name,target", BIT_IDENTITY_TARGETS,
                         ids=[name for name, _ in BIT_IDENTITY_TARGETS])
def test_best_single_matches_the_per_point_search(name, target, real_axis):
    got = best_single_coherent(target, real_axis=real_axis)
    assert _hex(*got) == _hex(*_per_point_best_single(target, real_axis))


def test_best_single_block_split_keeps_the_result(monkeypatch):
    targets = [fock_state(3, 16), core_state([0.3, -0.5j, 0.8], cutoff=16)]
    expected = [best_single_coherent(t, real_axis=False) for t in targets]
    sizes = []
    columns = decomp.coherent_columns

    def recording_columns(alphas, cutoff):
        block = columns(alphas, cutoff)
        sizes.append(block.size)
        return block

    monkeypatch.setattr(decomp, "_GRID_BLOCK_ENTRIES", 60)
    monkeypatch.setattr(decomp, "coherent_columns", recording_columns)
    for target, want in zip(targets, expected):
        assert _hex(*best_single_coherent(target, real_axis=False)) == _hex(*want)
    assert len(sizes) > 2 * 11_000 // 3  # 3 columns of 17 entries per block
    assert max(sizes) <= 60


def test_delta_cat_product_structure():
    sup = delta_cat_product(3, 0.2)
    assert len(sup) == 8
    for _, alpha in sup.terms:
        assert np.allclose(np.abs(alpha), 0.2, atol=1e-15)
    # single-mode case reduces to the odd cat
    sup1 = delta_cat_product(1, 0.15)
    assert len(sup1) == 2
