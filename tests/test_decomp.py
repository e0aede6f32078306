import itertools
import math
import tracemalloc
import warnings

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
from csrank.errors import ResourceLimit
from csrank.fock import (
    FockVector,
    coherent_amplitudes,
    coherent_state,
    core_state,
    fidelity,
    fock_state,
    state_from_descriptor,
    superposition_to_fock,
)
from test_acceptance import corpus_states, random_separated_superposition


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
    res = fit_superposition(coherent_state(0.7), 1, restarts=16, seed=0, max_iters=4000)
    assert res.fidelity_achieved >= 1 - 1e-10
    assert res.superposition.terms[0].alpha == pytest.approx(0.7, abs=1e-4)


def test_fit_fock1_single_term():
    res = fit_superposition(fock_state(1, 12), 1, restarts=16, seed=0, max_iters=4000)
    assert res.fidelity_achieved == pytest.approx(math.exp(-1), abs=1e-9)
    assert abs(res.superposition.terms[0].alpha) == pytest.approx(1.0, abs=1e-4)


def test_fit_fock2_three_terms():
    res = fit_superposition(fock_state(2, 12), 3, restarts=16, seed=1, max_iters=4000)
    assert 1 - res.fidelity_achieved <= 1e-4
    assert res.converged
    assert res.restarts_used == 16


def test_fit_from_a_start_orthogonal_to_the_target_reports_fidelity_zero():
    # |0> is orthogonal to |3>: the least-squares coefficient is 0 and the
    # gradient vanishes, so the restart stays there with nothing fitted
    res = fit_superposition(fock_state(3), 1, restarts=0, seed=None, max_iters=4000,
                            init_alphas=[0])
    assert res.fidelity_achieved == 0.0
    assert [rep.fidelity for rep in res.restarts] == [0.0]


@pytest.mark.parametrize("init_alphas", [[0.1, 0.2, 0.3], [0.5], [float("nan"), 0.3]],
                         ids=["three", "one", "nan"])
def test_fit_refuses_a_warm_start_that_is_not_r_finite_displacements(init_alphas, capfd):
    with pytest.raises(ValueError, match=r"init_alphas must be exactly r=2 finite displacements"):
        fit_superposition(fock_state(2, 12), 2, restarts=1, seed=0, max_iters=4000,
                          init_alphas=init_alphas)
    assert capfd.readouterr().err == ""  # refused before LAPACK sees it


def test_fit_single_term_finds_the_global_maximum():
    # Seeded restarts all stopped at the local maximum alpha ~ 0.840 + 0.010i
    # (fidelity 0.5105169115251); the global one is at alpha ~ -0.338 - 0.916i.
    target = state_from_descriptor({"type": "core", "amps": [
        [-0.9455992203016488, -0.36497593306658227], [-1.6071440152575571, 0.8882715663567016],
        [0.1788951761571905, -0.12730598208965024], [-0.666864573880577, -0.741166432948018],
    ], "cutoff": 16})
    res = fit_superposition(target, 1, restarts=3, seed=7, max_iters=600)
    assert res.fidelity_achieved >= 0.5758878258037
    alpha = res.superposition.displacements()[0]
    assert abs(alpha - (-0.338 - 0.916j)) < 1e-3


@pytest.mark.parametrize("restarts", [1, 3])
def test_fit_single_term_is_never_below_the_best_single_coherent_state(restarts):
    for name, psi, _ in corpus_states():
        res = fit_superposition(psi, 1, restarts=restarts, seed=7, max_iters=600)
        assert res.fidelity_achieved >= 1 - best_single_coherent(psi)[1] - 1e-15, name


@pytest.mark.parametrize("restarts,max_iters", [(1, 600), (3, 2), (6, 1), (16, 4000)])
def test_fit_single_term_reports_one_climb_per_start(restarts, max_iters):
    res = fit_superposition(core_state([0.6, 0.0, 0.8j], cutoff=12), 1, restarts=restarts,
                            seed=None, max_iters=max_iters)
    assert res.restarts_used == len(res.restarts) == max(restarts, decomp.CANDIDATES)
    assert all(rep.nit <= min(max_iters, decomp.MAX_ASCENT_STEPS) for rep in res.restarts)
    if max_iters >= 600:
        assert all(rep.converged for rep in res.restarts)
    fids = [rep.fidelity for rep in res.restarts]
    assert res.fidelity_achieved == pytest.approx(max(fids), abs=1e-12)
    warm = fit_superposition(core_state([0.6, 0.0, 0.8j], cutoff=12), 1, restarts=restarts,
                             seed=None, max_iters=max_iters, init_alphas=[0.3j])
    assert warm.restarts_used == res.restarts_used + 1
    assert warm.restarts[:-1] == res.restarts


def test_fit_rejects_r_zero():
    with pytest.raises(ValueError):
        fit_superposition(fock_state(1, 8), 0, restarts=16, seed=None, max_iters=4000)


def test_fit_refuses_oversized_searches_before_allocating(monkeypatch):
    def no_climb(*args):
        raise AssertionError("a refused fit started climbing")

    monkeypatch.setattr(decomp, "minimize", no_climb)
    monkeypatch.setattr(decomp, "_climb_from_grid", no_climb)
    target = fock_state(2)  # working cutoff 69: at most 70 terms
    work_cutoff = max(target.cutoff, decomp._reach_cutoff(2.0 * math.sqrt(2.0) + 2.0))
    refused = [
        (dict(r=1, restarts=decomp.MAX_RESTARTS + 1), "at most 1024 restarts"),
        (dict(r=2, restarts=10**400), "at most 1024 restarts"),
        (dict(r=work_cutoff + 2, restarts=1), f"at most {work_cutoff + 1} terms"),
        (dict(r=10**400, restarts=1), "terms"),
        # 16 starts x 249 points x 62 columns x 70 rows
        (dict(r=62, restarts=16), "more than MAX_STEP_ENTRIES"),
    ]
    for kwargs, message in refused:
        with pytest.raises(ResourceLimit, match=message):
            fit_superposition(target, seed=None, max_iters=4000, **kwargs)
    # a long target: 16 starts and a warm start x 9 points x 2 columns x 50,001 rows
    with pytest.raises(ResourceLimit, match="with 17 starts builds 15300306 coherent"):
        fit_superposition(fock_state(2, 50_000), 2, restarts=16, seed=None, max_iters=4000,
                          init_alphas=[0.5, -0.5])


def test_fit_deterministic_per_seed():
    a = fit_superposition(fock_state(1, 10), 2, seed=9, restarts=4, max_iters=4000)
    b = fit_superposition(fock_state(1, 10), 2, seed=9, restarts=4, max_iters=4000)
    assert a.fidelity_achieved == b.fidelity_achieved
    assert np.array_equal(
        a.superposition.displacements(), b.superposition.displacements()
    )


def test_fit_reported_fidelity_is_recomputable():
    res = fit_superposition(fock_state(2, 14), 2, seed=4, restarts=6, max_iters=4000)
    approx = superposition_to_fock(res.superposition, cutoff=40)
    assert fidelity(fock_state(2, 40), approx) == pytest.approx(
        res.fidelity_achieved, abs=1e-10
    )


def test_fit_warm_start_never_hurts():
    target = core_state([0.6, 0.0, 0.8], cutoff=10)
    base = fit_superposition(target, 2, seed=2, restarts=6, max_iters=4000)
    prev = base.superposition.displacements()
    warm = np.concatenate([prev, [prev.max() + 0.5]])
    res = fit_superposition(target, 3, seed=2, restarts=6, max_iters=4000, init_alphas=warm)
    assert res.fidelity_achieved >= base.fidelity_achieved - 1e-12


@pytest.mark.parametrize("alphas", [
    [0.0],
    [0.9 - 0.4j, 0.0],
    [1.1 + 0.3j, -0.7 + 0.8j, 0.0],
], ids=["r1", "r2", "r3"])
def test_fit_loss_gradient_matches_central_differences(alphas):
    # a target with weight at the last kept level, where the shifted columns
    # of the truncated gradient end
    cutoff = 14
    rng = np.random.default_rng(5)
    t = rng.standard_normal(cutoff + 1) + 1j * rng.standard_normal(cutoff + 1)
    t[-1] = 0.5
    t /= np.linalg.norm(t)
    alphas = np.asarray(alphas, dtype=complex)
    x = np.concatenate([alphas.real, alphas.imag])
    h = 1e-5
    # the point and its central-difference pairs, scored in one batch
    points = np.concatenate([x[None], x + h * np.eye(len(x)), x - h * np.eye(len(x))])
    loss, grad = decomp._log_fidelity(points, t)
    # the ladder's value-only scoring gives the same bits
    assert np.array_equal(decomp._log_fidelity_value(points, t), loss)
    fid, _ = decomp._projection_fit(alphas, t)
    assert loss[0] == pytest.approx(-math.log(fid), abs=1e-13)
    central = (loss[1 : len(x) + 1] - loss[len(x) + 1 :]) / (2 * h)
    assert np.linalg.norm(grad[0] - central) <= 1e-7 * np.linalg.norm(grad[0])
    # each row is scored on its own: the batch changes no bit of any row
    for row, want, want_grad in zip(points, loss, grad):
        alone = decomp._log_fidelity(row[None], t)
        assert alone[0][0] == want and np.array_equal(alone[1][0], want_grad)


@pytest.mark.parametrize("alphas", [[0.3, 0.3, -0.5], [0.3, -0.5, 0.3], [-0.5, 0.3, 0.3]],
                         ids=["front", "apart", "back"])
def test_log_fidelity_at_coinciding_displacements_is_the_least_squares_fit(alphas):
    # R is singular wherever the coinciding pair sits; F is still the
    # projection onto the span of the distinct columns
    rng = np.random.default_rng(1)
    t = np.zeros(30, dtype=complex)
    t[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    t /= np.linalg.norm(t)
    alphas = np.asarray(alphas, dtype=complex)
    x = np.concatenate([alphas.real, alphas.imag])[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = decomp._log_fidelity(x, t)
        assert np.array_equal(decomp._log_fidelity_value(x, t), loss)
    assert math.exp(-loss[0]) == pytest.approx(decomp._projection_fit(alphas, t)[0], abs=1e-14)
    assert np.isfinite(grad).all()


def test_log_fidelity_scores_a_partly_rank_deficient_batch_row_by_row():
    # full-rank rows stacked with coinciding-displacement rows: only the latter
    # take lstsq's fit, and every row keeps the bits it has when scored alone
    rng = np.random.default_rng(1)
    t = np.zeros(30, dtype=complex)
    t[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    t /= np.linalg.norm(t)
    alphas = np.array([[0.9 - 0.4j, 0.0, 1.1 + 0.3j], [0.3, 0.3, -0.5],
                       [-0.7 + 0.8j, 0.2j, 0.5], [0.3, -0.5, 0.3], [-0.5, 0.3, 0.3],
                       [1.2, -1.2, 0.4 - 0.6j]])
    x = np.concatenate([alphas.real, alphas.imag], axis=1)
    assert sorted(decomp._qr_fits(x, t)[5]) == [1, 3, 4]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = decomp._log_fidelity(x, t)
        value = decomp._log_fidelity_value(x, t)
        for i, row in enumerate(x):
            alone, alone_grad = decomp._log_fidelity(row[None], t)
            assert alone[0] == loss[i] == value[i]
            assert decomp._log_fidelity_value(row[None], t)[0] == value[i]
            assert np.array_equal(alone_grad[0], grad[i])


@pytest.mark.parametrize("start,expected", [
    ([0.3, 0.3], 0.5698021990542742),
    ([0.0, 0.0], 0.5698021990542742),
    ([1e-9, -1e-9], 0.5698021990542742),
    ([40.0, -40.0], 0.0),
    ([400.0, -400.0], 0.0),
    ([1e6, 3.0], 0.27067056647322535),
], ids=["coincident", "origin", "near-coincident", "far", "past-the-cutoff-cap", "one-far"])
def test_fit_climbs_from_a_degenerate_warm_start(start, expected):
    # Coinciding displacements give a singular R, which takes lstsq's
    # rank-revealing fit; at the origin |2> has no overlap at all, and at +-40
    # the columns underflow, so nothing can be fitted.  A step whose starts lie
    # past the search disk scores on the working cutoff, so a displacement
    # that no cutoff could hold (|alpha| > sqrt(MAX_CUTOFF)) is no error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit_superposition(fock_state(2, 12), 2, restarts=0, seed=None, max_iters=200,
                                init_alphas=start)
    assert res.fidelity_achieved == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("r", [2, 3])
def test_fit_restarts_climb_independently(r):
    # every start climbs in the same stacked calls, yet a start's path
    # depends on no other start
    target = core_state([0.6, 0.0, 0.8j, -0.3], cutoff=12)
    res = fit_superposition(target, r, restarts=5, seed=3, max_iters=600)
    warm = fit_superposition(target, r, restarts=5, seed=3, max_iters=600,
                             init_alphas=0.5 * np.exp(2j * np.arange(r)))
    assert warm.restarts_used == res.restarts_used + 1
    assert warm.restarts[:-1] == res.restarts


# Every bit of six r >= 2 fits: the winner's fidelity, each term's
# "Re c Im c Re alpha Im alpha" and each start's (nit, converged, fidelity).
# Each fit takes saddle pushes and the coinciding warm start takes lstsq's
# rank-revealing fit too, so a change to the arithmetic of any branch of the
# Newton step shows here.
FIT_PINS = [
    pytest.param(fock_state(3, 16), 2, dict(restarts=3, seed=7, max_iters=600),
                 "0x1.d5dafcec2c99cp-2",
                 ("-0x1.8a8ecee52ddc8p-2 0x1.2f3715339663dp-2"
                  " 0x1.f9482939257cbp-2 0x1.9c4593398acc3p+0",
                  "-0x1.d07323ded578fp-2 -0x1.6538a0112c626p-3"
                  " -0x1.ab89b4980e508p+0 0x1.c003e87eb60fep-3"),
                 ((11, True, "0x1.d5dafcec2c998p-2"),
                  (11, True, "0x1.d5dafcec2c998p-2"),
                  (7, True, "0x1.cbfecc3e74770p-2")),
                 id="fock3-r2"),
    pytest.param(fock_state(10, 16), 2, dict(restarts=3, seed=7, max_iters=600),
                 "0x1.00cae86722196p-2",
                 ("0x1.d9aef38e9375cp-6 -0x1.69d00cfaaa294p-2"
                  " -0x1.690f96569e30bp+0 0x1.693c7cf937ca3p+1",
                  "0x1.696b9a3212760p-2 0x1.107fd45ac1b00p-5"
                  " -0x1.93d0e10cb600bp+1 0x1.f94d379ce8886p-6"),
                 ((27, True, "0x1.00cae86722190p-2"),
                  (23, True, "0x1.00cae86722198p-2"),
                  (14, True, "0x1.0039b0c8a5ca4p-2")),
                 id="fock10-r2"),
    pytest.param(core_state([0.6, 0.8], cutoff=16), 2, dict(restarts=3, seed=7, max_iters=600),
                 "0x1.0000000000000p+0",
                 ("0x1.4f93ab30a5c51p+13 0x1.4c92705ecc5d1p+10"
                  " 0x1.33c81d991bc88p-15 -0x1.313566514a19cp-18",
                  "-0x1.4f8ede63d88a8p+13 -0x1.4c92705ecbfe7p+10"
                  " -0x1.33ba91c14d3e9p-15 0x1.30cebbfdcdb1cp-18"),
                 ((20, True, "0x1.0000000000000p+0"),
                  (24, True, "0x1.ffffffffffffep-1"),
                  (25, True, "0x1.fffffffffffffp-1")),
                 id="core2-r2"),
    pytest.param(state_from_descriptor({"type": "squeezed", "r": 0.6, "phi": 1.0}), 2,
                 dict(restarts=3, seed=7, max_iters=600),
                 "0x1.f6d88de70fcf4p-1",
                 ("0x1.3a887aa172f5fp-1 0x1.7924c342658eap-50"
                  " 0x1.7c462b63887fap-2 -0x1.5c0b251d324e7p-1",
                  "0x1.3a887aa172f69p-1 -0x1.81ebcc6cf77e4p-50"
                  " -0x1.7c462b6388812p-2 0x1.5c0b251d324c3p-1"),
                 ((11, True, "0x1.f6d88de70fcf3p-1"),
                  (8, True, "0x1.f6d88de70fcf3p-1"),
                  (8, True, "0x1.f6d88de70fcf4p-1")),
                 id="squeezed-r2"),
    pytest.param(core_state([0.6, 0.0, 0.8j, -0.3], cutoff=12), 3,
                 dict(restarts=5, seed=3, max_iters=600),
                 "0x1.fffadc2af6963p-1",
                 ("-0x1.9fb27267e9368p-1 0x1.4649bff023c3cp-1"
                  " 0x1.4cd7f4ac40b7fp-1 -0x1.468ca96ce8ad5p-6",
                  "0x1.239b9ea4600e8p-1 -0x1.c5ab992f45728p+0"
                  " 0x1.035c2af9a0215p-4 0x1.3047a57d73f6ep-1",
                  "0x1.cdc6d2f1fa881p-1 0x1.2765097e04bf6p+0"
                  " -0x1.2fd7c442b0735p-1 0x1.85236fd506952p-5"),
                 ((18, True, "0x1.fffadc2af6965p-1"),
                  (12, True, "0x1.fffadc2af6965p-1"),
                  (18, True, "0x1.fffadc2af6965p-1"),
                  (15, True, "0x1.fffadc2af6965p-1"),
                  (17, True, "0x1.fffadc2af6965p-1")),
                 id="core4-r3"),
    pytest.param(fock_state(2, 12), 2,
                 dict(restarts=0, seed=None, max_iters=200, init_alphas=[0.3, 0.3]),
                 "0x1.23bd1d244104ep-1",
                 ("-0x1.1a054da8be756p-1 0x1.67c4e2329b98bp-5"
                  " 0x1.42baef5b6cc83p-4 -0x1.527746714f504p+0",
                  "0x1.e4bb6bf2e1540p-3 -0x1.ff4bd5b484c9dp-2"
                  " 0x1.22100b7154af3p+0 0x1.5f2aea55c3f93p-1"),
                 ((10, True, "0x1.23bd1d244104dp-1"),),
                 id="coincident-warm"),
]


@pytest.mark.parametrize("target,r,kwargs,fid,terms,reports", FIT_PINS)
def test_fit_keeps_every_bit_of_its_climb(target, r, kwargs, fid, terms, reports):
    res = fit_superposition(target, r, **kwargs)
    sup = res.superposition
    got = tuple(" ".join(v.hex() for v in (c.real, c.imag, a.real, a.imag))
                for c, a in zip(sup.coefficients().tolist(), sup.displacements().tolist()))
    assert res.fidelity_achieved.hex() == fid
    assert got == terms
    assert tuple((rep.nit, rep.converged, rep.fidelity.hex()) for rep in res.restarts) == reports


@pytest.mark.parametrize("target,r", [
    (fock_state(3, 16), 2),
    (fock_state(10, 16), 2),
    (fock_state(12, 16), 3),
    (core_state([0.6, 0.0, 0.8j, -0.3], cutoff=16), 3),
    (state_from_descriptor({"type": "squeezed", "r": 0.6, "phi": 1.0}), 2),
], ids=["fock3-r2", "fock10-r2", "fock12-r3", "core-r3", "squeezed-r2"])
def test_each_newton_step_scores_on_the_rows_its_points_reach(monkeypatch, target, r):
    calls = []  # (name, points, cutoff) of every scoring call
    for name in ("_log_fidelity", "_log_fidelity_value", "_projection_fit"):
        def spy(x, t, name=name, fn=getattr(decomp, name)):
            calls.append((name, np.array(x), len(t) - 1))
            return fn(x, t)
        monkeypatch.setattr(decomp, name, spy)
    fit_superposition(target, r, restarts=3, seed=7, max_iters=600)
    work_cutoff = {cutoff for name, _, cutoff in calls if name == "_projection_fit"}
    steps = [call for call in calls if call[0] != "_projection_fit"]
    assert len(work_cutoff) == 1 and len(steps) % 2 == 0
    work_cutoff, below_cap = work_cutoff.pop(), 0
    for (probe, here, cutoff), (ladder, trials, ladder_cutoff) in zip(steps[::2], steps[1::2]):
        # one step: the probes and the ladder share its rows
        assert (probe, ladder) == ("_log_fidelity", "_log_fidelity_value")
        assert cutoff == ladder_cutoff <= work_cutoff
        if cutoff == work_cutoff:
            continue
        below_cap += 1
        points = np.concatenate([here, trials])
        largest = np.hypot(points[:, :r], points[:, r:]).max()
        # the Poisson tail past the rows, summed smallest first
        tail = np.sum(np.abs(coherent_amplitudes(largest, cutoff + 200)[:cutoff:-1]) ** 2)
        assert tail <= decomp.WORK_TAIL * (1 + 1e-9), (cutoff, largest)
    assert below_cap > 0


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("restarts,seed", [(3, 7), (16, 1)])
def test_fit_on_each_steps_rows_matches_the_fit_on_the_working_cutoff(monkeypatch, r, restarts,
                                                                     seed):
    # Fock 1..12 at cutoff 16, then the acceptance corpus's three squeezed
    # states and its first 15 random cores
    corpus = [(f"fock{n}", fock_state(n, 16)) for n in range(1, 13)]
    corpus += [(name, psi) for name, psi, _ in corpus_states()
               if name.startswith(("squeezed", "core"))][:18]
    chosen = [fit_superposition(psi, r, restarts=restarts, seed=seed,
                                max_iters=4000).fidelity_achieved for _, psi in corpus]
    monkeypatch.setattr(decomp, "_step_cutoff",
                        lambda x, cutoff, reach: max(cutoff, decomp._reach_cutoff(reach)))
    for (name, psi), fid in zip(corpus, chosen):
        fixed = fit_superposition(psi, r, restarts=restarts, seed=seed,
                                  max_iters=4000).fidelity_achieved
        assert abs(fid - fixed) <= 1e-15, name


@pytest.mark.parametrize("target,r", [
    (fock_state(1, 12), 2),
    (fock_state(2, 12), 3),
    (fock_state(3, 12), 4),
    (core_state([0.6, 0.8], cutoff=12), 2),
    (core_state([0.6, 0.0, 0.8j], cutoff=12), 3),
], ids=["fock1-r2", "fock2-r3", "fock3-r4", "core2-r2", "core3-r3"])
def test_fit_reaches_border_rank_targets(target, r):
    # each target is a limit of r-term superpositions (r = its top Fock level + 1)
    res = fit_superposition(target, r, restarts=3, seed=7, max_iters=4000)
    assert 1.0 - res.fidelity_achieved <= 1e-14


# Fidelities of the Nelder-Mead-only fit that preceded the gradient phase.  A
# gradient-only fit from restart 0's parity-symmetric start lands in a worse
# basin on these targets, and a single explore-then-converge round did on |4>.
@pytest.mark.parametrize("n,floor", [
    (4, 0.39616763284694906),
    (8, 0.2801619365140642),
    (9, 0.2642412821124803),
])
def test_fit_keeps_the_better_basin(n, floor):
    res = fit_superposition(fock_state(n, 16), 2, restarts=3, seed=7, max_iters=600)
    assert res.fidelity_achieved >= floor - 1e-12


def test_fit_reports_every_restart(monkeypatch):
    # The restarts on |2> reach rotated copies of one optimum, and may tie exactly:
    # the fit then keeps the smaller sorted displacement tuple, so the winner is
    # picked here by that rule, from the displacements each restart is scored at.
    ends = []
    projection_fit = decomp._projection_fit

    def recording_fit(alphas, t):
        ends.append(sorted((a.real, a.imag) for a in alphas))
        return projection_fit(alphas, t)

    monkeypatch.setattr(decomp, "_projection_fit", recording_fit)
    res = fit_superposition(fock_state(2, 12), 2, seed=3, restarts=4, max_iters=4000)
    assert len(res.restarts) == res.restarts_used == 4 == len(ends)
    fids = [rep.fidelity for rep in res.restarts]
    winner = res.restarts[min(range(4), key=lambda i: (-fids[i], ends[i]))]
    assert res.iterations == winner.nit and res.converged == winner.converged
    assert res.fidelity_achieved == pytest.approx(max(fids), abs=1e-12)
    assert all(1 <= rep.nit <= 4000 for rep in res.restarts)


def test_fit_max_iters_bounds_both_phases():
    res = fit_superposition(fock_state(3, 12), 2, seed=1, restarts=2, max_iters=5)
    assert all(rep.nit <= 5 and not rep.converged for rep in res.restarts)


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
    alpha, infid = best_single_coherent(target)
    assert 0 <= infid < 1


def test_best_single_recovers_a_complex_coherent_target():
    psi = coherent_state(0.7 + 0.9j, cutoff=30)
    target = FockVector(psi.amplitudes / np.linalg.norm(psi.amplitudes), psi.cutoff)
    alpha, infid = best_single_coherent(target)
    assert abs(alpha - (0.7 + 0.9j)) < 1e-6
    assert 0 <= infid < 1e-12


def _per_point_best_single(target):
    """The Nelder-Mead search that the Newton ascent replaced: each point of a
    finer grid (2001 on the real axis, 121 x 121 in the plane) scored on its
    own, the best refined by Nelder-Mead, in one branch per search space."""

    def overlap_sq(t, alpha):
        return float(abs(np.vdot(t, coherent_amplitudes(alpha, len(t) - 1))) ** 2)

    t = target.amplitudes / np.linalg.norm(target.amplitudes)
    real_axis = bool(np.max(np.abs(t.imag)) < 1e-14 and np.min(t.real) >= 0)
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


def _rotated(target, phase):
    """phase * target: the same overlaps, on the complex grid unless phase is 1."""
    return target if phase == 1 else FockVector(phase * target.amplitudes, target.cutoff)


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
    + [("mixed-sign0", core_state([1, 0, -1], cutoff=16)),
       ("mixed-sign1", core_state([0, 1, 0, -1], cutoff=16))]
)


@pytest.mark.parametrize("phase", [1, 1j], ids=["auto", "complex"])
@pytest.mark.parametrize("name,target", BIT_IDENTITY_TARGETS,
                         ids=[name for name, _ in BIT_IDENTITY_TARGETS])
def test_best_single_matches_the_per_point_search(name, target, phase):
    # never above the Nelder-Mead reference by more than a rounding
    target = _rotated(target, phase)
    assert best_single_coherent(target)[1] <= _per_point_best_single(target)[1] + 1e-15


def test_best_single_figure_left_matches_the_closed_form():
    # On t = (a, b) the maximum of e^{-x^2} (a + b x)^2 solves b x^2 + a x - b = 0.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    worst = 0.0
    for gamma in np.linspace(0.0, 1.0, 64):
        target = _figure_left_core(gamma)
        a, b = (mpmath.mpf(v) for v in target.amplitudes[:2].real.tolist())
        a, b = a / mpmath.hypot(a, b), b / mpmath.hypot(a, b)
        x = (-a + mpmath.sqrt(a * a + 4 * b * b)) / (2 * b) if b else mpmath.mpf(0)
        exact = 1 - mpmath.exp(-x * x) * (a + b * x) ** 2
        worst = max(worst, abs(float(exact - best_single_coherent(target)[1])))
    assert worst <= 3.4e-16


@pytest.mark.parametrize(
    "amps, infidelity, imag",
    [([1, 0, -1], 0.44333209496, 0.76536687125), ([0, 1, 0, -1], 0.55187693458, 1.36541577743)],
    ids=["0-minus-2", "1-minus-3"],
)
def test_best_single_leaves_the_real_axis_for_mixed_signs(amps, infidelity, imag):
    # On the real axis these targets reach only 0.5 and 0.90394600700.
    alpha, infid = best_single_coherent(core_state(amps, cutoff=16))
    assert infid == pytest.approx(infidelity, abs=1e-10)
    assert abs(alpha.real) < 1e-6 and abs(alpha.imag) == pytest.approx(imag, abs=1e-6)


def test_best_single_block_split_keeps_the_result(monkeypatch):
    # both targets search the plane grid of radius 4 at cutoff 16: one table
    targets = [_rotated(fock_state(3, 16), 1j), core_state([0.3, -0.5j, 0.8], cutoff=16)]
    expected = [best_single_coherent(t) for t in targets]
    sizes = []
    columns = decomp.coherent_columns

    def recording_columns(alphas, cutoff):
        block = columns(alphas, cutoff)
        sizes[-1].append(block.size)
        return block

    monkeypatch.setattr(decomp, "_GRID_BLOCK_ENTRIES", 60)
    monkeypatch.setattr(decomp, "coherent_columns", recording_columns)
    decomp._grid_table.cache_clear()
    for target, want in zip(targets, expected):
        sizes.append([])
        assert _hex(*best_single_coherent(target)) == _hex(*want)
    # the ascent's calls hold the 4 candidates of 17 entries; every other is a grid block
    first, second = ([size for size in calls if size != decomp.CANDIDATES * 17]
                     for calls in sizes)
    points = len(decomp._grid_points(True, 4.0))
    assert len(first) == math.ceil(points / 3)  # 3 columns of 17 entries per block
    assert max(first) <= 60
    assert second == []


@pytest.mark.parametrize("cutoff", [15, 31, 63, 127])
def test_grid_products_stay_under_the_openblas_thread_cutoff(monkeypatch, cutoff):
    # OpenBLAS wakes its worker threads for a complex matrix-vector product of
    # 4096 entries or more; a row count that divides 4096 once made each grid
    # block exactly that large
    shapes = []
    columns = decomp.coherent_columns

    def recording_columns(alphas, rows):
        block = columns(alphas, rows)
        shapes.append(block.shape)
        return block

    monkeypatch.setattr(decomp, "coherent_columns", recording_columns)
    decomp._grid_table.cache_clear()  # so every grid block is built here
    for target in (core_state([0.3, -0.5j, 0.8], cutoff=cutoff), fock_state(3, cutoff)):
        best_single_coherent(target)
    assert {rows for rows, _ in shapes} == {cutoff + 1}
    assert max(rows * points for rows, points in shapes) < 4096



def _sandwich_draws():
    """48 benchmark-style targets at cutoff 16 and up: complex and real
    non-negative cores, separated superpositions, and Fock states as given
    (real axis) and times i (plane), on grids of radius 4 to 2 sqrt(12)."""
    rng = np.random.default_rng(40)
    draws = []
    for _ in range(12):
        d = int(rng.integers(2, 7))
        draws.append(core_state(rng.standard_normal(d) + 1j * rng.standard_normal(d), cutoff=16))
        draws.append(core_state(np.abs(rng.standard_normal(d)), cutoff=16))
        draws.append(random_separated_superposition(rng, int(rng.integers(1, 5)), 16,
                                                    max_abs=1.5)[0])
    for n in range(1, 13, 2):
        draws += [fock_state(n, max(2 * n, 16)), _rotated(fock_state(n + 1, max(2 * n, 16)), 1j)]
    return draws


def _r1_bits(target):
    """Every bit of best_single_coherent and of the benchmark's r = 1 fit."""
    fit = fit_superposition(target, 1, restarts=3, seed=7, max_iters=600)
    sup = fit.superposition
    terms = [v.hex() for c, a in zip(sup.coefficients().tolist(), sup.displacements().tolist())
             for v in (c.real, c.imag, a.real, a.imag)]
    reports = [(rep.nit, rep.converged, rep.fidelity.hex()) for rep in fit.restarts]
    return _hex(*best_single_coherent(target)), fit.fidelity_achieved.hex(), terms, reports


def test_grid_table_keeps_every_bit(monkeypatch):
    targets = [psi for _, psi, _ in corpus_states()] + _sandwich_draws()
    for target in targets:
        decomp._grid_table.cache_clear()
        cold = _r1_bits(target)  # builds the table
        hits = decomp._grid_table.cache_info().hits
        assert _r1_bits(target) == cold  # from the kept table
        assert decomp._grid_table.cache_info().hits == hits + 2
        with monkeypatch.context() as m:
            m.setattr(decomp, "_GRID_TABLE_ENTRIES", 0)  # built block by block, kept nowhere
            assert _r1_bits(target) == cold
    # both grids, at several radii
    planes = {bool(np.abs(t.amplitudes.imag).max() >= 1e-14 or t.amplitudes.real.min() < 0)
              for t in targets}
    radii = {max(4.0, 2.0 * math.sqrt(t.mean_fock_number())) for t in targets}
    assert planes == {False, True} and len(radii) > 5


def test_grid_table_is_read_only():
    best_single_coherent(core_state([0.3, -0.5j, 0.8], cutoff=16))
    best_single_coherent(fock_state(3, 16))
    for plane in (True, False):
        points, blocks = decomp._grid_table(plane, 4.0, 16, decomp._GRID_BLOCK_ENTRIES // 17)
        for array in (points, *blocks):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            blocks[0][0, 0] = 0.0


def test_grid_points_stay_within_the_table_bound():
    # the plane grid holds at most the 1257 points i^2 + j^2 <= 20^2 of the
    # 41 x 41 integer grid, so a table is kept up to cutoff 51 at any radius
    lattice = sum(i * i + j * j <= 400 for i in range(-20, 21) for j in range(-20, 21))
    assert decomp._GRID_POINTS == {True: lattice, False: 201}
    for radius in np.concatenate([np.linspace(4.0, 40.0, 400), 2.0 * np.sqrt(np.arange(4, 60))]):
        assert len(decomp._grid_points(True, radius)) <= lattice
        assert len(decomp._grid_points(False, radius)) == 201
    assert 1245 * 52 <= decomp._GRID_TABLE_ENTRIES < 1245 * 53
    assert 201 * 326 <= decomp._GRID_TABLE_ENTRIES < 201 * 327


@pytest.mark.parametrize("target", [core_state([0.3, -0.5j, 0.8], cutoff=6000),
                                    fock_state(3, 6000)], ids=["plane", "real-axis"])
def test_large_grids_are_built_block_by_block(monkeypatch, target):
    # past the table budget the grid is built one block at a time on every
    # call and kept nowhere: at cutoff 6000 each block is one column
    widths = []
    columns = decomp.coherent_columns

    def recording_columns(alphas, rows):
        block = columns(alphas, rows)
        widths.append(block.shape[1])
        return block

    monkeypatch.setattr(decomp, "coherent_columns", recording_columns)
    kept = decomp._grid_table.cache_info().currsize
    tracemalloc.start()
    try:
        best_single_coherent(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decomp._grid_table.cache_info().currsize == kept
    # the ascent's calls hold the 4 candidates; every other is a grid block
    plane = bool(np.abs(target.amplitudes.imag).max() > 0)
    assert widths.count(1) == len(decomp._grid_points(plane, 4.0))
    assert set(widths) == {1, decomp.CANDIDATES}
    assert peak < 2 << 20

def test_delta_cat_product_structure():
    sup = delta_cat_product(3, 0.2)
    assert len(sup) == 8
    for _, alpha in sup.terms:
        assert np.allclose(np.abs(alpha), 0.2, atol=1e-15)
    # single-mode case reduces to the odd cat
    sup1 = delta_cat_product(1, 0.15)
    assert len(sup1) == 2


def test_delta_cat_product_matches_the_term_by_term_product():
    single = circle_decomposition(fock_state(1), 0.3).terms
    sup = delta_cat_product(3, 0.3)
    combos = list(itertools.product(single, repeat=3))  # first mode slowest
    assert len(sup) == len(combos)
    for (c, alpha), combo in zip(sup.terms, combos):
        assert c == pytest.approx(math.prod(t.c for t in combo), rel=1e-15)
        assert np.array_equal(alpha, [t.alpha for t in combo])
