"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report and timings.
"""

import csv
import math
import time
from itertools import product

import numpy as np
import pytest

from csrank.certify import fock_analytic_threshold, recurrence_order
from csrank.cli import main as cli_main
from csrank.decomp import fit_superposition
from csrank.fock import (
    CoherentSuperposition,
    CoherentTerm,
    FockVector,
    SqueezedParams,
    core_state,
    fock_state,
    squeezed_state,
    superposition_to_fock,
)
from csrank.hankel import SearchConfig, optimized_bound, plain_bound
from csrank.multimode import (
    MultimodeFockState,
    evolve_fock_state,
    fourier_matrix,
    multimode_lower_bound,
    reduce_to_single_mode,
    tensor_fock,
)
from csrank.permanent import (
    haar_unitary,
    permanent_glynn,
    permanent_naive,
    permanent_ryser,
    verify_permanent_bound,
)


def report(name: str, ok: bool, seconds: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name} ({seconds:.2f}s)"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def random_separated_superposition(rng, k, cutoff, min_sep=0.2, max_abs=2.0):
    alphas = []
    while len(alphas) < k:
        a = rng.uniform(-max_abs, max_abs) + 1j * rng.uniform(-max_abs, max_abs)
        if abs(a) <= max_abs and all(abs(a - b) >= min_sep for b in alphas):
            alphas.append(a)
    coeffs = rng.uniform(0.3, 1.0, k) * np.exp(2j * np.pi * rng.uniform(0, 1, k))
    sup = CoherentSuperposition(
        [CoherentTerm(c, a) for c, a in zip(coeffs, alphas)]
    )
    psi = superposition_to_fock(sup, cutoff=cutoff)
    return FockVector(psi.amplitudes / psi.norm, cutoff), k


def corpus_states():
    """The shared state corpus: Fock 1..12, squeezed, random cores and
    superpositions (cutoff 16, normalized)."""
    rng = np.random.default_rng(2024)
    states = []
    for n in range(1, 13):
        states.append((f"fock{n}", fock_state(n, max(2 * n, 16)), n))
    for r in (0.3, 0.6, 1.0):
        sq = squeezed_state(SqueezedParams(r), 16)
        normalized = FockVector(sq.amplitudes / sq.norm, sq.cutoff)
        states.append((f"squeezed{r}", normalized, None))
    for i in range(20):
        dim = int(rng.integers(2, 7))
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        states.append((f"core{i}", core_state(amps, cutoff=16), None))
    for i in range(20):
        k = int(rng.integers(1, 5))
        psi, _ = random_separated_superposition(rng, k, cutoff=16, max_abs=1.5)
        states.append((f"sup{i}", psi, None))
    return states


def test_criterion_1_fock_analytic_thresholds():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 13):
        expected = math.factorial(n) / (2 * (n + 1) * math.factorial(2 * n))
        got = plain_bound(fock_state(n, 2 * n), n, n)
        ok &= abs(got - expected) <= 1e-12 * expected
        ok &= abs(fock_analytic_threshold(n) - expected) <= 1e-12 * expected
    ok &= abs(plain_bound(fock_state(1, 2), 1, 1) - 0.125) <= 1e-12
    v12 = plain_bound(fock_state(12, 24), 12, 12)
    ok &= abs(v12 - 2.9693264435967e-17) <= 1e-3 * v12
    ok &= 1e-17 < v12 < 1e-16  # paper's stated order at n = 12
    ok &= 0.1 <= plain_bound(fock_state(1, 2), 1, 1) <= 1.0  # order at n = 1
    elapsed = time.perf_counter() - t0
    report("criterion 1: Fock analytic thresholds", ok and elapsed < 1.0, elapsed)


def test_criterion_2_optimized_bound_gap():
    t0 = time.perf_counter()
    res12 = optimized_bound(fock_state(12, 24), 12, SearchConfig(N_max=12))
    ok = 1e-5 <= res12.value <= 1e-3
    detail = f"optimized(|12>, r=12) = {res12.value:.3e}"
    cfg = SearchConfig(N_max=8)
    for name, psi, fock_n in corpus_states():
        rs = [1] if fock_n is None else sorted({1, min(fock_n, 8)})
        for r in rs:
            res = optimized_bound(psi, r, cfg)
            best_plain = max(plain_bound(psi, r, N) for N in range(max(r, 1), cfg.N_max + 1))
            if res.value < best_plain * (1 - 1e-12):
                ok = False
                detail += f"; dominance fails at {name} r={r}"
    elapsed = time.perf_counter() - t0
    report("criterion 2: optimized-bound gap", ok and elapsed < 120, elapsed, detail)


def test_criterion_3_soundness_sandwich():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    cfg = SearchConfig(N_max=8)
    for name, psi, _ in corpus_states():
        for r in (1, 2, 3, 4):
            threshold = optimized_bound(psi, r, cfg).value
            fit = fit_superposition(psi, r, restarts=3, seed=7, max_iters=600)
            achievable = 1.0 - fit.fidelity_achieved
            if threshold > achievable + 1e-9:
                ok = False
                detail += f"; unsound at {name} r={r}: {threshold:.3e} > {achievable:.3e}"
    elapsed = time.perf_counter() - t0
    report("criterion 3: soundness sandwich", ok and elapsed < 300, elapsed, detail)


def test_criterion_4_finite_rank_detection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ok = True
    for i in range(50):
        k = int(rng.integers(1, 6))
        psi, _ = random_separated_superposition(rng, k, cutoff=16)
        rep = recurrence_order(psi, 8)
        if rep.detected_order != k:
            ok = False
    sq = squeezed_state(SqueezedParams(0.5), 20)
    rep = recurrence_order(sq, 10)
    ok &= (not rep.saturated) and all(rank == N + 1 for N, rank in rep.ranks_by_N)
    elapsed = time.perf_counter() - t0
    report("criterion 4: finite-rank detection", ok and elapsed < 60, elapsed)


def test_criterion_5_multimode_reduction():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        core = tensor_fock([1] * n)
        d = reduce_to_single_mode(core, fourier_matrix(n)[0]).amplitudes[n]
        ok &= abs(abs(d) ** 2 - math.factorial(n) / n**n) <= 1e-10
        # cross-check against the full polynomial-substitution evolution
        evolved = evolve_fock_state(core, fourier_matrix(n))
        bunched = tuple([n] + [0] * (n - 1))
        ok &= abs(evolved.amplitudes[bunched] - d) <= 1e-10
        ok &= multimode_lower_bound(core, seed=0).bound == n + 1
    hom = reduce_to_single_mode(tensor_fock([1, 1]), fourier_matrix(2)[0]).amplitudes[2]
    ok &= abs(abs(hom) ** 2 - 0.5) <= 1e-12
    elapsed = time.perf_counter() - t0
    report("criterion 5: multimode reduction", ok and elapsed < 30, elapsed)


def test_criterion_6_permanent_bridge():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(20):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        ref = permanent_naive(m)
        ok &= abs(permanent_glynn(m) - ref) <= 1e-9 * abs(ref)
        ok &= abs(permanent_ryser(m) - ref) <= 1e-9 * abs(ref)
    for seed in range(10):
        u = haar_unitary(4, seed=seed)
        amp = evolve_fock_state(tensor_fock([1, 1, 1, 1]), u).amplitudes[(1, 1, 1, 1)]
        ok &= abs(amp - permanent_glynn(u)) <= 1e-10
    reports = {}
    for delta in (0.5, 0.2):
        rep = verify_permanent_bound(4, delta, trials=100, seed=0)
        ok &= rep.passed
        reports[delta] = rep
    ok &= reports[0.2].delta_inf < reports[0.5].delta_inf
    ok &= reports[0.2].max_error < reports[0.5].max_error
    elapsed = time.perf_counter() - t0
    detail = ", ".join(
        f"delta={d}: err {r.max_error:.2e} <= bound {r.bound:.2e}"
        for d, r in reports.items()
    )
    report("criterion 6: permanent bridge", ok and elapsed < 60, elapsed, detail)
    print("    kernel time per n (informational):", _kernel_timings(range(14, 19)))
    print("    bridge time per n, 100 trials (informational):", _bridge_timings(range(4, 9)))


def _kernel_timings(sizes):
    """Best-of-3 Glynn and Ryser time per Haar unitary of each size, as text."""
    parts = []
    for n in sizes:
        u = haar_unitary(n, seed=n)
        times = []
        for kernel in (permanent_glynn, permanent_ryser):
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                kernel(u)
                runs.append(time.perf_counter() - t0)
            times.append(min(runs) * 1e3)
        parts.append(f"n={n} glynn {times[0]:.2f} ms, ryser {times[1]:.2f} ms")
    return "; ".join(parts)


def _bridge_timings(sizes):
    """Best-of-3 verify_permanent_bound time at delta 0.2 and 100 trials, as text."""
    parts = []
    for n in sizes:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            verify_permanent_bound(n, 0.2, trials=100, seed=0)
            runs.append(time.perf_counter() - t0)
        parts.append(f"n={n} {min(runs) * 1e3:.2f} ms")
    return "; ".join(parts)


def test_criterion_7_figure_reproduction(tmp_path):
    t0 = time.perf_counter()
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    ok = cli_main(["figure", "--panel", "left", "--out", str(left)]) == 0
    ok &= cli_main(["figure", "--panel", "right", "--out", str(right)]) == 0

    rows = list(csv.DictReader(left.open()))
    ok &= len(rows) == 64
    for row in rows:
        e = float(row["exact_infidelity"])
        p = float(row["plain_bound"])
        o = float(row["optimized_bound"])
        ok &= e >= o - 1e-12 and o >= p - 1e-12

    rows = list(csv.DictReader(right.open()))
    ok &= len(rows) == 12
    ok &= abs(float(rows[0]["plain_bound"]) - 0.125) <= 1e-9
    ok &= abs(float(rows[0]["optimized_bound"]) - 0.25) <= 1e-6
    ok &= 1e-17 < float(rows[-1]["plain_bound"]) < 1e-16
    ok &= 1e-5 <= float(rows[-1]["optimized_bound"]) <= 1e-3
    elapsed = time.perf_counter() - t0
    report("criterion 7: figure reproduction", ok and elapsed < 60, elapsed)


def test_criterion_8_superpolynomial_out_of_scope():
    # The n^(Omega(log n)) lower bound for |1>^n is asymptotic proof content
    # with no finite-size observable; it is covered indirectly by criteria
    # 5-6 (the reduction and the permanent bridge) and excluded here.
    report("criterion 8: super-polynomial bound out of scope (by design)", True, 0.0)
