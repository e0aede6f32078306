import json
import math

import numpy as np
import pytest

from csrank.certify import (
    BoundCertificate,
    bound_certificate,
    certify_rank,
    fock_analytic_threshold,
    load_state,
    recurrence_order,
)
from csrank.decomp import best_single_coherent
from csrank.fock import (
    CoherentSuperposition,
    CoherentTerm,
    FockVector,
    SqueezedParams,
    fock_state,
    squeezed_state,
    state_from_descriptor,
    superposition_to_fock,
)
from csrank.hankel import SearchConfig, optimized_bound, plain_bound, rescaled_bound


def test_analytic_threshold_small_cases():
    assert fock_analytic_threshold(0) == pytest.approx(0.5, rel=1e-14)
    assert fock_analytic_threshold(1) == pytest.approx(0.125, rel=1e-14)


def test_analytic_threshold_n12_order():
    exact = math.factorial(12) / (2 * 13 * math.factorial(24))
    value = fock_analytic_threshold(12)
    assert value == pytest.approx(exact, rel=1e-12)
    assert 1e-17 < value < 1e-16


@pytest.mark.parametrize("n", range(13))
def test_plain_bound_agrees_with_analytic(n):
    psi = fock_state(n, 2 * n) if n else fock_state(0, 0)
    assert plain_bound(psi, n, n) == pytest.approx(
        fock_analytic_threshold(n), rel=1e-12
    )


FOCK1_20 = {"type": "fock", "n": 1, "cutoff": 20}


def named(psi):
    """A core descriptor naming psi by its amplitudes and cutoff."""
    return {"type": "core", "amps": [[z.real, z.imag] for z in psi.amplitudes.tolist()],
            "cutoff": psi.cutoff}


def test_certify_fock1():
    cert = certify_rank(FOCK1_20, 0.1, 10)
    assert cert.r == 1
    assert cert.epsilon_threshold == pytest.approx(0.25, rel=1e-9)


def test_certify_coherent_returns_zero():
    coherent1 = {"type": "superposition", "terms": [{"c": [1, 0], "alpha": [1, 0]}]}
    cert = certify_rank(coherent1, 1e-6, 7)
    assert cert.r == 0
    assert cert.epsilon_threshold == 0.0


def test_certify_squeezed():
    cert = certify_rank({"type": "squeezed", "r": 0.5, "cutoff": 20}, 1e-8, 10)
    assert cert.r >= 2


def test_certify_epsilon_range():
    with pytest.raises(ValueError):
        certify_rank(FOCK1_20, 0.0, 10)
    with pytest.raises(ValueError):
        certify_rank(FOCK1_20, 1.0, 10)


def test_certify_monotone_in_epsilon():
    rs = [certify_rank({"type": "fock", "n": 3, "cutoff": 12}, eps, 6).r
          for eps in (1e-6, 1e-3, 1e-2, 0.2)]
    assert all(a >= b for a, b in zip(rs, rs[1:]))


def per_r_certificate(per_r, epsilon):
    """(r, threshold, N, b) from the searches of r = 1, 2, ... in turn,
    stopping at the first r that fails: the reference certify_rank repeats."""
    best = (0, 0.0, None, None)
    for r, res in enumerate(per_r, start=1):
        if res.value <= epsilon:
            break
        best = (r, res.value.hex(), res.N_star, res.b_star.hex())
    return best


def pairs(zs):
    """[re, im] of each complex z, as descriptors hold them."""
    return [[z.real, z.imag] for z in map(complex, zs)]


def certify_descriptors():
    rng = np.random.default_rng(5)
    core = pairs(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    terms = [{"c": c, "alpha": a} for c, a in zip(pairs([1.0, 0.5j, 0.4]),
                                                  pairs([0.6, -0.3 + 0.8j, -1.0]))]
    return [{"type": "fock", "n": 4, "cutoff": 16},
            {"type": "squeezed", "r": 0.7, "phi": 0.3, "cutoff": 16},
            {"type": "core", "amps": core, "cutoff": 16},
            {"type": "superposition", "terms": terms, "cutoff": 16}]


@pytest.mark.parametrize("state", range(4), ids=["fock", "squeezed", "core", "superposition"])
@pytest.mark.parametrize("n_max", [5, 8])
def test_certify_equals_a_search_per_r(state, n_max):
    descriptor = certify_descriptors()[state]
    psi, cfg = load_state(descriptor, n_max), SearchConfig(N_max=n_max)
    per_r = [optimized_bound(psi, r, cfg) for r in range(1, n_max + 1)]
    for eps in (1e-2, 1e-4, 1e-7, 1e-12):
        cert = certify_rank(descriptor, eps, n_max)
        got = (cert.r, cert.epsilon_threshold.hex() if cert.r else 0.0, cert.N,
               None if cert.b is None else cert.b.hex())
        assert got == per_r_certificate(per_r, eps)


def test_recurrence_two_coherent_terms():
    sup = CoherentSuperposition([CoherentTerm(1.0, 0.5), CoherentTerm(0.7, -0.4 + 0.3j)])
    psi = superposition_to_fock(sup, cutoff=16)
    rep = recurrence_order(psi, 8)
    assert rep.saturated and rep.detected_order == 2


def test_recurrence_fock3():
    rep = recurrence_order(fock_state(3, 16), 8)
    assert rep.saturated and rep.detected_order == 4


def test_recurrence_squeezed_full_rank():
    sq = squeezed_state(SqueezedParams(0.5), cutoff=16)
    rep = recurrence_order(sq, 8)
    assert not rep.saturated and rep.detected_order is None
    assert all(rank == N + 1 for N, rank in rep.ranks_by_N)


def test_recurrence_synthetic_exponential_sums():
    # sequences s_n = sum_i d_i lambda_i^n have Hankel rank exactly k
    rng = np.random.default_rng(77)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        lams = []
        while len(lams) < k:
            lam = rng.uniform(-1.4, 1.4) + 1j * rng.uniform(-1.4, 1.4)
            if all(abs(lam - o) > 0.25 for o in lams):
                lams.append(lam)
        ds = rng.uniform(0.5, 1.5, k) * np.exp(2j * np.pi * rng.uniform(0, 1, k))
        n = np.arange(17)
        s = sum(d * lam**n for d, lam in zip(ds, lams))
        amps = s / np.sqrt([math.factorial(int(m)) for m in n])
        rep = recurrence_order(FockVector(amps, 16), 8)
        assert rep.detected_order == k, (k, rep.ranks_by_N)


def test_recurrence_preconditions():
    with pytest.raises(ValueError, match="^cutoff 4 too small for N_max 3$"):
        recurrence_order(fock_state(1, 4), 3)
    with pytest.raises(ValueError):
        recurrence_order(fock_state(1, 4), 0)


def analytic(n):
    """The certificate ``bound --method analytic`` writes for |n>; it builds no state."""
    return bound_certificate({"type": "fock", "n": n}, n, "analytic", max(n, 10))


def test_certificate_serialization_and_validation():
    cert = analytic(3)
    d = cert.to_dict()
    assert d["method"] == "analytic_fock"
    assert d["parameters"] == {"N": 3, "b": 1.0}
    assert d["version"]
    json.dumps(d)  # serializable
    with pytest.raises(ValueError):
        BoundCertificate({"type": "core", "amps": []}, 1, 0.1, "analytic_fock", 1, 1.0)
    with pytest.raises(ValueError):
        BoundCertificate({"type": "fock", "n": 1}, 1, -0.5, "plain", 1, 1.0)
    for descriptor in (None, [], "fock"):  # from_dict's message, so none is ever issued
        with pytest.raises(ValueError, match="^state_descriptor must be an object, got "):
            BoundCertificate(descriptor, 1, 0.25, "optimized", 1, 1.0)
    with pytest.raises(ValueError):
        BoundCertificate({"type": "fock", "n": 3}, 2, fock_analytic_threshold(3),
                         "analytic_fock", 3, 1.0)


SQUEEZED = {"type": "squeezed", "r": 0.5, "phi": 0.3}  # no cutoff: load_state picks one


def test_certificate_reads_back_what_it_writes():
    fock2, psi = {"type": "fock", "n": 2, "cutoff": 12}, fock_state(2, 12)
    certificates = [
        analytic(3),
        BoundCertificate(fock2, 2, plain_bound(psi, 2, 3), "plain", 3, 1.0),
        bound_certificate(SQUEEZED, 2, "plain", 6),
        bound_certificate(SQUEEZED, 2, "optimized", 6),
        certify_rank(fock2, 1e-4, 6),
        certify_rank(SQUEEZED, 1e-6, 6),
        certify_rank(fock2, 0.9, 2),  # r = 0
    ]
    assert [cert.r for cert in certificates] == [3, 2, 2, 2, 2, 4, 0]
    extra = {"rank_tol": 1e-10, "manifest": {}, "certifies": True, "epsilon": 1e-4,
             "kappa_eps_at_least": 3}
    for cert in certificates:
        stored = json.loads(json.dumps(cert.to_dict() | extra))
        assert BoundCertificate.from_dict(stored) == cert
        ok, recomputed = cert.check()  # each re-derives its threshold bit for bit
        assert ok and recomputed == cert.epsilon_threshold


def drawn_descriptors(seed, rounds):
    """Squeezed, core and superposition descriptors drawn as the certify
    benchmark draws them (cutoff 16), three a round."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rounds):
        r, phi = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2 * math.pi)
        d = int(rng.integers(2, 7))
        amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        k = int(rng.integers(1, 5))
        alphas = rng.uniform(-1.4, 1.4, k) + 1j * rng.uniform(-1.4, 1.4, k)
        coeffs = rng.uniform(0.3, 1.0, k) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, k))
        terms = [{"c": c, "alpha": a} for c, a in zip(pairs(coeffs), pairs(alphas))]
        out += [{"type": "squeezed", "r": float(r), "phi": float(phi), "cutoff": 16},
                {"type": "core", "amps": pairs(amps), "cutoff": 16},
                {"type": "superposition", "terms": terms, "cutoff": 16}]
    return out


RECHECKED = [*({"type": "fock", "n": n} for n in range(1, 13)),
             *({"type": "fock", "n": n, "cutoff": 2 * n + 2} for n in range(1, 13)),
             *certify_descriptors()[1:], *drawn_descriptors(38, 4)]


@pytest.mark.parametrize("descriptor", RECHECKED,
                         ids=[f"{d['type']}{i}" for i, d in enumerate(RECHECKED)])
def test_every_issued_certificate_rechecks_bit_for_bit(descriptor):
    # each certificate is issued on load_state of the descriptor it stores, so
    # its own check re-derives its threshold exactly
    n = descriptor.get("n")
    for n_max in sorted({min(m, descriptor.get("cutoff", 99) // 2) for m in (6, 10)}):
        certificates = [certify_rank(descriptor, eps, n_max) for eps in (1e-2, 1e-4, 1e-7)]
        for r in sorted({1, 3, n_max, n or 1} & set(range(1, n_max + 1))):
            certificates += [bound_certificate(descriptor, r, method, n_max)
                             for method in ("plain", "optimized")]
        if n is not None and n <= n_max:
            certificates.append(bound_certificate(descriptor, n, "analytic", n_max))
        for cert in certificates:
            assert cert.check() == (True, cert.epsilon_threshold), cert


def recording_loads(monkeypatch, psi):
    """Replace certify.load_state by one that records its calls and returns psi."""
    calls = []

    def load(descriptor, N):
        calls.append((descriptor, N))
        return psi

    monkeypatch.setattr("csrank.certify.load_state", load)
    return calls


def test_recompute_maps_each_method_to_its_formula(monkeypatch):
    psi = fock_state(2, 8)
    calls = recording_loads(monkeypatch, psi)
    fock2 = {"type": "fock", "n": 2}
    plain = BoundCertificate(fock2, 2, 0.1, "plain", 3, 1.0)
    optimized = BoundCertificate(fock2, 2, 0.1, "optimized", 3, 0.7)
    assert plain.recompute() == plain_bound(psi, 2, 3)
    assert optimized.recompute() == rescaled_bound(psi, 2, 3, 0.7)
    # neither the analytic nor the empty certificate needs the state
    assert analytic(2).recompute() == fock_analytic_threshold(2)
    assert BoundCertificate(fock2, 0, 0.0, "optimized", None, None).recompute() == 0.0
    assert calls == [(fock2, 3), (fock2, 3)]


@pytest.mark.parametrize(
    "fields",
    [
        ({"type": "fock"}, 3, 1e-3, "analytic_fock", 3, 1.0),
        ({"type": "fock", "n": 1}, 1, 0.25, "optimized", 1, None),
        ({"type": "fock", "n": 1}, 1, math.nan, "plain", 1, 1.0),
    ],
    ids=["analytic-without-n", "optimized-without-b", "nan-threshold"],
)
def test_certificate_rejects_fields_no_method_writes(fields):
    # the CLI --check tests cover the other rules, through from_dict
    with pytest.raises(ValueError):
        BoundCertificate(*fields)


def test_analytic_certificate_names_its_state_by_type_and_n():
    cert = BoundCertificate({"type": "fock", "n": 3.0, "cutoff": 8}, 3,
                            fock_analytic_threshold(3), "analytic_fock", 3, 1.0)
    assert cert.to_dict()["state_descriptor"] == {"type": "fock", "n": 3}
    assert cert == analytic(3)


def test_bound_certificate_issues_each_method(monkeypatch):
    psi = fock_state(2, 20)
    calls = recording_loads(monkeypatch, psi)
    fock2 = {"type": "fock", "n": 2}
    plain = bound_certificate(fock2, 2, "plain", 6)
    values = [plain_bound(psi, 2, N) for N in range(2, 7)]
    best = max(values)
    assert (plain.epsilon_threshold, plain.N, plain.b) == (best, 2 + values.index(best), 1.0)
    optimized = bound_certificate(fock2, 2, "optimized", 10)
    res = optimized_bound(psi, 2, SearchConfig(N_max=10))
    assert (optimized.epsilon_threshold, optimized.b, optimized.N) == res
    assert bound_certificate(fock2, 2, "analytic", 6) == analytic(2)
    assert calls == [(fock2, 6), (fock2, 10)]


@pytest.mark.parametrize("method", ["plain", "optimized", "analytic"])
@pytest.mark.parametrize("n_max", [-1, 10, 10**400])
def test_bound_certificate_refuses_negative_r_before_anything_else(monkeypatch, method, n_max):
    calls = recording_loads(monkeypatch, None)
    with pytest.raises(ValueError, match="^r must be non-negative$"):
        bound_certificate({"type": "fock", "n": 2}, -1, method, n_max)
    assert calls == []  # refused before a state is built



# |0.5> + |-0.5>, of squared norm 3.213: the state it names is within infidelity
# 0.030456 of |0>, so no eps above that certifies kappa_eps > 1.
CAT = {"type": "superposition", "terms": [{"c": [1, 0], "alpha": [0.5, 0]},
                                          {"c": [1, 0], "alpha": [-0.5, 0]}]}


def test_a_superposition_certifies_for_the_unit_vector_it_names():
    alpha, single = best_single_coherent(state_from_descriptor(CAT))
    assert alpha == 0 and single == pytest.approx(0.030456, abs=1e-6)
    cert = certify_rank(CAT, 0.04, 6)
    assert (cert.r, cert.epsilon_threshold) == (0, 0.0)
    assert bound_certificate(CAT, 1, "optimized", 6).epsilon_threshold <= 0.030456


def scaled_superpositions(count, seed):
    """Superpositions as the benchmark draws them (1..4 terms, |alpha| <= 1.5 at
    least 0.2 apart, |c| in [0.3, 1) with uniform phases, cutoff 16), their
    coefficients scaled by a log-uniform s in [0.2, 5] in place of the unit norm."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, alphas = int(rng.integers(1, 5)), []
        while len(alphas) < k:
            a = complex(*rng.uniform(-1.5, 1.5, 2))
            if abs(a) <= 1.5 and all(abs(a - b) >= 0.2 for b in alphas):
                alphas.append(a)
        coeffs = rng.uniform(0.3, 1.0, k) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, k))
        coeffs *= math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        yield {"type": "superposition", "cutoff": 16,
               "terms": [{"c": c, "alpha": a} for c, a in zip(pairs(coeffs), pairs(alphas))]}


def test_no_scale_of_the_coefficients_lifts_a_threshold_past_a_coherent_fit():
    # sound thresholds stay below the infidelity of the best single coherent state,
    # read as 1 - F, to within 2^-52, the finest step 1 - F resolves
    for descriptor in scaled_superpositions(60, 3900):
        _, single = best_single_coherent(state_from_descriptor(descriptor))
        threshold = bound_certificate(descriptor, 1, "optimized", 8).epsilon_threshold
        assert threshold <= single + 2.0**-52, descriptor


@pytest.mark.parametrize("k", [-4, 3])
def test_coefficients_scaled_by_a_power_of_two_give_the_same_certificates(k):
    for descriptor in [CAT, *scaled_superpositions(6, 3901)]:
        scaled = dict(descriptor, terms=[dict(t, c=[x * 2.0**k for x in t["c"]])
                                         for t in descriptor["terms"]])
        builders = [lambda d: certify_rank(d, 1e-6, 6),
                    lambda d: bound_certificate(d, 1, "plain", 6),
                    lambda d: bound_certificate(d, 2, "optimized", 6)]
        for build in builders:
            got, want = (dict(build(d).to_dict(), state_descriptor=None)
                         for d in (scaled, descriptor))
            assert json.dumps(got) == json.dumps(want), descriptor
