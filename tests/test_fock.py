import cmath
import math

import numpy as np
import pytest

from csrank.errors import ResourceLimit
from csrank.fock import (
    ALPHA_MERGE_TOL,
    DEFAULT_MAX_TAIL,
    MAX_CUTOFF,
    CoherentSuperposition,
    CoherentTerm,
    FockVector,
    SqueezedParams,
    coherent_amplitudes,
    coherent_columns,
    coherent_cutoff,
    coherent_state,
    core_state,
    fidelity,
    fock_state,
    log_factorial,
    log_factorials,
    squeezed_state,
    state_from_descriptor,
    superposition_to_fock,
)
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


def _squeezed_pair_weights(r: float, n_pairs: int) -> np.ndarray:
    """|a_{2n}|^2 for n = 0..n_pairs by the ratio w_{n+1} / w_n = t (2n+1) / (2n+2),
    t = tanh^2 r, from w_0 = 1 / cosh r: no log-factorials."""
    n = np.arange(n_pairs)
    ratios = math.tanh(r) ** 2 * (2 * n + 1) / (2 * n + 2)
    return np.cumprod(np.concatenate([[1 / math.cosh(r)], ratios]))


def test_squeezed_auto_cutoff_is_exact():
    # The automatic cutoff is the smallest whose exactly summed tail is within
    # the budget; the nearest of these tails lies 4e-7 (relative) from 1e-12.
    for i in range(431):
        r = i / 100
        pairs = squeezed_state(SqueezedParams(r)).cutoff // 2
        extra = 20 + int(80 / (1 - math.tanh(r) ** 2))  # leaves past it below e^-80
        w = _squeezed_pair_weights(r, pairs + extra).tolist()
        assert math.fsum(w[pairs + 1:]) <= DEFAULT_MAX_TAIL, r
        assert pairs == 0 or math.fsum(w[pairs:]) > DEFAULT_MAX_TAIL, r


def _gammainc_cutoff(mag: float, max_tail: float) -> int:
    """Smallest c with P(N > c) = gammainc(c + 1, |alpha|^2) <= max_tail."""
    from scipy.special import gammainc

    lam = mag**2
    c = np.arange(int(lam + 20 * math.sqrt(lam + 1) + 40))
    return int(np.argmax(gammainc(c + 1, lam) <= max_tail))


@pytest.mark.parametrize("max_tail", [DEFAULT_MAX_TAIL, 1e-14])
def test_coherent_auto_cutoff_matches_the_gammainc_oracle(max_tail):
    from scipy.special import gammainc

    rng = np.random.default_rng(17)
    mags = np.concatenate([np.arange(1, 1201) / 100, rng.uniform(0, 300, 20)])
    for mag in mags.tolist():
        cutoff = coherent_cutoff(mag, max_tail)
        assert cutoff == _gammainc_cutoff(mag, max_tail), mag
        if max_tail == DEFAULT_MAX_TAIL and mag <= 12:
            tail = coherent_state(mag).tail_weight
            assert tail == pytest.approx(gammainc(cutoff + 1, mag**2), rel=1e-9, abs=1e-300)


def test_auto_cutoffs_reach_up_to_the_cap():
    # At r = 4.48 the pairs past cutoff 98,958 weigh 1.00011e-12 and those
    # past 98,960 weigh 9.99588e-13 (40-digit sums).
    assert squeezed_state(SqueezedParams(4.48)).cutoff == 98_960
    assert coherent_state(300.0).cutoff == 92_118
    with pytest.raises(ResourceLimit):
        squeezed_state(SqueezedParams(4.6))


def test_explicit_cutoff_tails_come_from_the_kept_weights(monkeypatch):
    # where the weights up to an explicit cutoff hold at most half the norm, the
    # tail is 1 - head: no table past the cutoff, and nothing cancels
    mpmath = pytest.importorskip("mpmath")
    from csrank import fock

    monkeypatch.setattr(fock, "_log_factorial_table", np.zeros(0))
    assert coherent_state(1000, cutoff=10).tail_weight == 1.0
    assert len(fock._log_factorial_table) <= 1024  # the table's smallest size

    with mpmath.workdps(50):
        for alpha, cutoff in [(1000, 10), (3, 5), (2, 1), (1, 0), (10, 80), (30, 800)]:
            lam = mpmath.mpf(alpha) ** 2
            head = mpmath.fsum(mpmath.exp(n * mpmath.log(lam) - lam - mpmath.loggamma(n + 1))
                               for n in range(cutoff + 1))
            assert abs(coherent_state(alpha, cutoff).tail_weight - (1 - head)) <= 1e-15 * (1 - head)
        for r, cutoff in [(10, 16), (3, 4), (5, 30), (20, 100)]:
            t, cosh = mpmath.tanh(r) ** 2, mpmath.cosh(r)
            head = mpmath.fsum(t**n * mpmath.binomial(2 * n, n) / 4**n
                               for n in range(cutoff // 2 + 1)) / cosh
            tail = squeezed_state(SqueezedParams(r), cutoff).tail_weight
            assert abs(tail - (1 - head)) <= 1e-15 * (1 - head)


def test_explicit_cutoff_tails_past_half_the_norm_equal_the_automatic_table():
    # where the head holds more than half the norm, the weights past the cutoff
    # are summed in the table's order, so the tail is the table's entry bit for
    # bit, 0 past the table; the automatic cutoff is the table's first entry
    # within the budget
    from csrank import fock

    for mag in (0.0, 0.3, 1.0, 2.5, 7.0, 30.0):
        lam = mag**2
        past = fock._tails(fock._poisson_weights(lam, 0, int(lam + 40 * math.sqrt(lam + 1) + 60)))
        auto = coherent_state(mag)
        assert (auto.cutoff, auto.tail_weight) == (np.argmax(past <= DEFAULT_MAX_TAIL),
                                                   past[auto.cutoff]), mag
        for cutoff in range(len(past) + 2):
            expected = past[cutoff] if cutoff < len(past) else 0.0
            if expected < 0.5:
                assert coherent_state(mag, cutoff).tail_weight == expected, (mag, cutoff)
    for r in (0.0, 0.1, 0.5, 1.5, 3.0):
        params = SqueezedParams(r)
        log_mags = fock._squeezed_even_log_mags(params, fock._squeezed_pairs(params))
        past = np.repeat(fock._tails(np.exp(2 * log_mags)), 2)
        auto = squeezed_state(params)
        assert (auto.cutoff, auto.tail_weight) == (np.argmax(past <= DEFAULT_MAX_TAIL),
                                                   past[auto.cutoff]), r
        step = len(past) // 50 + 1
        for cutoff in {*range(0, len(past), step), *range(1, len(past), step),
                       len(past), len(past) + 1}:
            expected = past[cutoff] if cutoff < len(past) else 0.0
            if expected < 0.5:
                assert squeezed_state(params, cutoff).tail_weight == expected, (r, cutoff)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
@pytest.mark.parametrize("field", ["c", "alpha"])
@pytest.mark.parametrize("modes", [None, 1, 3], ids=["one-mode", "1-row", "3-rows"])
def test_superposition_refuses_non_finite_entries(bad, field, modes):
    def alpha(x):
        return x if modes is None else [0.2] * (modes - 1) + [x]

    terms = [(1.0, alpha(0.5)), (bad, alpha(0.1)) if field == "c" else (0.5, alpha(bad))]
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        CoherentSuperposition(terms)


@pytest.mark.parametrize("alphas", [[0.1, [0.2, 0.3]], [[0.1], [0.2, 0.3]], [[0.1, 0.2], 0.3]])
def test_superposition_refuses_a_mixed_mode_count(alphas):
    with pytest.raises(ValueError, match="^terms must share the mode count$"):
        CoherentSuperposition([(1.0, a) for a in alphas])


@pytest.mark.parametrize("alphas", [[0.1, -0.4j], [[0.1, 0.2], [0.3, -0.4j]]])
def test_superposition_arrays_are_read_only(alphas):
    sup = CoherentSuperposition([(1.0, alphas[0]), (0.5j, alphas[1])])
    assert np.array_equal(sup.coefficients(), [1.0, 0.5j])
    assert np.array_equal(sup.displacements(), alphas)
    for array in (sup.coefficients(), sup.displacements()):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 7.0


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


_NEGATIVE_CUTOFF_BUILDS = {"coherent": lambda cutoff: coherent_state(1.0, cutoff),
                           "squeezed": lambda cutoff: squeezed_state(SqueezedParams(0.5), cutoff),
                           "vacuum": lambda cutoff: coherent_state(0.0, cutoff)}


@pytest.mark.parametrize(
    "name, cutoff",
    [(name, cutoff) for cutoff in (-1, -2, -3, -10) for name in _NEGATIVE_CUTOFF_BUILDS],
    ids=[name if cutoff == -1 else f"{name}{cutoff}"
         for cutoff in (-1, -2, -3, -10) for name in _NEGATIVE_CUTOFF_BUILDS])
def test_negative_cutoff_is_refused(name, cutoff):
    # refused before anything is allocated, not by numpy's "negative dimensions"
    with pytest.raises(ValueError, match=f"^cutoff must be non-negative, got {cutoff}$"):
        _NEGATIVE_CUTOFF_BUILDS[name](cutoff)


@pytest.mark.parametrize("cutoff", [5, None])
def test_coherent_state_past_the_double_range_is_a_resource_limit(cutoff):
    # |alpha|^2 = 1e400 overflows; an explicit cutoff is refused as the automatic one is
    with pytest.raises(ResourceLimit, match=r"^\|alpha\| = 1e\+200 needs a cutoff above 100000$"):
        coherent_state(1e200, cutoff)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("part", [1e300, 1e200, 1e-200, 5e-324, 1.7e308 + 1.7e308j])
def test_core_state_normalizes_amplitudes_past_the_double_range(part):
    # the squares of these leave the double range; the state is |0> + |1> all the same
    v = core_state([part, part])
    assert v.normalized
    unit = cmath.exp(1j * cmath.phase(part)) / math.sqrt(2)
    assert np.allclose(v.amplitudes, [unit, unit], rtol=1e-15, atol=0)


@pytest.mark.parametrize("amps", [[3, 4j], [1e-150, 2e-150], [0.1, 0.2 - 0.3j, 1e150]])
def test_core_state_in_range_divides_by_the_plain_norm(amps):
    amps = np.array(amps, dtype=complex)
    assert np.array_equal(core_state(amps).amplitudes, amps / np.linalg.norm(amps))


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


def _bits(x) -> np.ndarray:
    """The IEEE bit patterns of x (real or complex entries)."""
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.filterwarnings("error")
def test_log_factorial_table_is_scipy_gammaln_bit_for_bit():
    from scipy.special import gammaln

    k = np.arange(20_001)
    table = log_factorials(20_000)
    assert not table.flags.writeable
    assert np.array_equal(_bits(table), _bits(gammaln(k + 1)))
    top = 2 * MAX_CUTOFF
    assert _bits(log_factorials(top)[top]) == _bits(gammaln(top + 1))
    # past the table the same formula runs on one value, its correction dropped past 1e8
    for k in (top, top + 1, 10**8 - 1, 10**8, 10**12, 10**20):
        assert _bits(log_factorial(k)) == _bits(gammaln(float(k + 1))), k


# Displacements the column tests run on: the vacuum, a subnormal, pure imaginary,
# negative real and generic ones, and |alpha| up to 30 (mean photon number 900).
_HARD_ALPHAS = [0.0, 1e-310, 1e-5, 0.7j, -2.5j, -0.4, -3.0, 1.3 - 0.8j, 17.3 - 9.0j,
                30.0, 30.0 * cmath.exp(2.1j), 30j]


def _mpmath_column(alpha: complex, cutoff: int) -> np.ndarray:
    """e^{-|alpha|^2/2} alpha^n / sqrt(n!) at 40 digits, each entry rounded once."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpc(alpha.real, alpha.imag)
        entry = mpmath.exp(-abs(a) ** 2 / 2)
        column = [complex(entry)]
        for n in range(1, cutoff + 1):
            entry = entry * a / mpmath.sqrt(n)
            column.append(complex(entry))
    return np.array(column)


@pytest.mark.filterwarnings("error")
def test_coherent_columns_match_mpmath_within_the_rounding_bound():
    # Each entry is exp(E) times an n-fold product of one unit phasor, where the
    # exponent E = n log|alpha| - |alpha|^2/2 - log sqrt(n!) is formed from terms
    # of size |alpha|^2, n |log|alpha|| and log sqrt(n!), each a few roundings
    # off, and the phase drifts by a few roundings per row.  8u times their sum
    # (plus n and 1 for the phase and the final roundings) bounds the relative
    # error of every entry in the normal range; below it the error is under the
    # smallest normal number.  The xlogy formula the kernel replaced passes too.
    u = np.finfo(float).eps / 2
    tiny = np.finfo(float).tiny
    top = 1500
    n = np.arange(top + 1)
    for alpha in map(complex, _HARD_ALPHAS):
        exact = _mpmath_column(alpha, top)
        log_mag = abs(math.log(abs(alpha))) if alpha else 0.0
        bound = 8 * u * (abs(alpha) ** 2 + n * (1 + log_mag) + 0.5 * log_factorials(top) + 1)
        for cutoff in (0, 1, 2, 16, 109, 600, top):
            got = coherent_columns(alpha, cutoff)[:, 0]
            error, size = np.abs(got - exact[: cutoff + 1]), np.abs(exact[: cutoff + 1])
            normal = size >= tiny
            assert np.all(error[normal] <= bound[: cutoff + 1][normal] * size[normal]), alpha
            assert np.all(error[~normal] < tiny), alpha
    assert np.array_equal(coherent_columns(0.0, 30)[:, 0], fock_state(0, 30).amplitudes)


@pytest.mark.parametrize("cutoff", [0, 1, 16, 109, 600])
def test_coherent_columns_are_independent_of_their_batch(cutoff):
    rng = np.random.default_rng(cutoff)
    scale = 10.0 ** rng.uniform(-6, 1.5, 300)
    random = scale * np.exp(2j * np.pi * rng.uniform(0, 1, 300))
    alphas = np.concatenate([_HARD_ALPHAS, random])
    batch = coherent_columns(alphas, cutoff)
    assert batch.shape == (cutoff + 1, len(alphas))
    for k, alpha in enumerate(alphas):
        alone = coherent_columns(alpha, cutoff)[:, 0]
        assert np.array_equal(_bits(batch[:, k]), _bits(alone)), alpha
    # a block without alpha = 0, at an offset, builds the same columns
    assert np.array_equal(_bits(coherent_columns(alphas[1:], cutoff)), _bits(batch[:, 1:]))


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
