"""The three workloads: seeded inputs, the jobs that drive csrank, and checks.

A workload is a stream of rounds; round k draws its inputs from
``numpy.random.default_rng([seed, k])`` and always holds the same job kinds
in the same order, so a run's mix does not depend on how many rounds fit in
it.  Jobs call ``csrank.cli.main`` in-process where the CLI offers the job
and the public library functions otherwise, always through the module
attribute so that the tracer's wrappers see the call.

certify
    Optimized and plain ``bound``, ``certify --eps`` at two eps, ``bound
    --check`` on every certificate written, ``recurrence_order(psi, 8)`` and
    ``figure --panel right``, over Fock n <= 12, squeezed r in [0.2, 1],
    random cores of dimension 2-6 and k-term superpositions (k <= 4).  Only
    hankel and certify work here.  Two thirds of the jobs are point
    evaluations of a few Hankel builds, so job_p50_s follows the point path
    and job_p90_s the (b, N) searches.
sandwich
    The soundness sandwich per (state, r), r in {1, 2}: optimized threshold,
    ``fit`` (seed 7, 3 restarts, 600 iterations), best_single_coherent and,
    for finitely supported targets, ``decompose``.  decomp and
    fock.coherent_amplitudes do most of the work, hankel the rest.
bridge
    ``permanent --n 4..8 --delta 0.1|0.2 --trials 100``, ``multimode`` on
    tensor-Fock and random cores, and raw Glynn/Ryser on two Haar unitaries
    per n = 10..18 (plus the naive oracle on one per n = 2..8).  The n = 8
    bridge is dominated by the Fock expansion and the n >= 14 raw jobs by
    the kernel, so each side of the permanent layer shows on its own jobs.
"""

import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import csrank.certify
import csrank.cli
import csrank.decomp
import csrank.fock
import csrank.permanent
from checks import (
    check_bridge_rows,
    check_dominates,
    check_fidelity,
    check_fock_plain,
    check_permanents,
    check_rank_monotone,
    check_sandwich,
    check_unitary,
    earlier,
    require,
)

CUTOFF = 16
FIT_ARGS = ["--seed", "7", "--restarts", "3", "--max-iters", "600"]
# The CLI default, as in the README's `permanent` example.  At n = 8 the
# trials cost little next to the Fock expansion of the cat product.
BRIDGE_TRIALS = 100
# 0.2 is the README's `permanent` example and criterion 6's delta; 0.1 is the
# README's `decompose` example.  At n = 7 and 8, delta = 0.1 exits 3 (see
# CHANGES.md), so every bridge round holds the same two failing jobs.
BRIDGE_DELTAS = (0.1, 0.2)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    label: str = ""
    # The job streams large numpy arrays, as the permanent kernels' numpy
    # backend does, so its latency is scaled by the streaming block.
    numpy_bound: bool = False


class NonZeroExit(Exception):
    """The CLI returned one of its documented error codes."""


@dataclass
class Session:
    """Per-pass state that checks write to."""

    workdir: Path
    fit_infidelities: list = field(default_factory=list)
    bound_gains: list = field(default_factory=list)
    zero_slack_violations: int = 0


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = csrank.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_job(kind: str, argv, check) -> Job:
    # A job that writes a file starts without it, so that a later job of the
    # round never reads what an earlier round left there.
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None

    def run() -> CliResult:
        if out is not None:
            out.unlink(missing_ok=True)
        res = cli(argv)
        if res.code != 0:
            lines = res.stderr.strip().splitlines()
            raise NonZeroExit(f"exit {res.code}: {lines[-1] if lines else ''}")
        return res

    return Job(kind, run, check, " ".join(str(a) for a in argv)[:160])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _pair(z) -> list:
    return [float(z.real), float(z.imag)]


def _threshold(path) -> float:
    value = read_json(path)["epsilon_threshold"]
    require(math.isfinite(value) and value >= 0, f"threshold {value!r} is not a finite eps")
    return value


def _terms(payload) -> list:
    return [(complex(*t["c"]), complex(*t["alpha"])) for t in payload["terms"]]


# --- state corpus ---------------------------------------------------------


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes of |alpha>, computed here so that check targets do not
    come from the code under test."""
    n = np.arange(cutoff + 1)
    lgam = np.array([math.lgamma(k + 1) for k in n])
    if alpha == 0:
        return (n == 0).astype(complex)
    return np.exp(-0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * lgam) * np.exp(
        1j * n * np.angle(alpha))


def fock_state(rng):
    n = int(rng.integers(1, 13))
    return "fock", {"type": "fock", "n": n}, n


def squeezed_params(rng):
    return float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 2 * math.pi))


def squeezed_state(rng):
    r, phi = squeezed_params(rng)
    return "squeezed", {"type": "squeezed", "r": r, "phi": phi, "cutoff": CUTOFF}, None


def squeezed_core_state(rng):
    """Squeezed vacuum truncated at CUTOFF and renormalized, as a core state."""
    r, phi = squeezed_params(rng)
    lam = -complex(math.cos(phi), math.sin(phi)) * math.tanh(r)
    amps = np.zeros(CUTOFF + 1, dtype=complex)
    for m in range(CUTOFF // 2 + 1):
        mag = math.exp(0.5 * math.lgamma(2 * m + 1) - math.lgamma(m + 1)) / 2**m
        amps[2 * m] = lam**m * mag / math.sqrt(math.cosh(r))
    amps /= np.linalg.norm(amps)
    return "squeezed", {"type": "core", "amps": [_pair(a) for a in amps]}, None


def core_state(rng):
    d = int(rng.integers(2, 7))
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return "core", {"type": "core", "amps": [_pair(a) for a in amps], "cutoff": CUTOFF}, d


def superposition_state(rng, max_abs: float, min_sep: float = 0.2):
    """k <= 4 separated terms, coefficients scaled by the exact Gram norm."""
    k = int(rng.integers(1, 5))
    alphas = []
    while len(alphas) < k:
        a = complex(rng.uniform(-max_abs, max_abs), rng.uniform(-max_abs, max_abs))
        if abs(a) <= max_abs and all(abs(a - b) >= min_sep for b in alphas):
            alphas.append(a)
    coeffs = rng.uniform(0.3, 1.0, k) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, k))
    a = np.array(alphas)
    gram = np.exp(-0.5 * np.abs(a)[:, None] ** 2 - 0.5 * np.abs(a)[None, :] ** 2
                  + np.conj(a)[:, None] * a[None, :])
    coeffs = coeffs / math.sqrt(float(np.real(np.conj(coeffs) @ gram @ coeffs)))
    terms = [{"c": _pair(c), "alpha": _pair(al)} for c, al in zip(coeffs, alphas)]
    return "superposition", {"type": "superposition", "terms": terms, "cutoff": CUTOFF}, k


def target_amplitudes(desc: dict) -> np.ndarray:
    """Fock amplitudes of a finitely supported descriptor (cutoff CUTOFF)."""
    if desc["type"] == "fock":
        amps = np.zeros(max(CUTOFF, desc["n"]) + 1, dtype=complex)
        amps[desc["n"]] = 1.0
        return amps
    if desc["type"] == "core":
        return np.array([complex(*a) for a in desc["amps"]])
    return sum(complex(*t["c"]) * coherent_amplitudes(complex(*t["alpha"]), CUTOFF)
               for t in desc["terms"])


# --- certify ----------------------------------------------------------------


def figure_job(session: Session) -> Job:
    path = session.workdir / "figure-right.csv"

    def check(res):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        require([int(row["n"]) for row in rows] == list(range(1, 13)), "figure rows are not n=1..12")
        logs = []
        for row in rows:
            plain, opt = float(row["plain_bound"]), float(row["optimized_bound"])
            check_fock_plain(int(row["n"]), plain)
            check_dominates(opt, plain)
            logs.append(math.log10(opt / plain))
        session.bound_gains.append(sum(logs) / len(logs))

    return cli_job("figure_right", ["figure", "--panel", "right", "--out", path], check)


def check_job(path) -> Job:
    def check(res):
        require(res.stdout.startswith("certificate OK"), res.stdout.strip())

    return cli_job("bound_check", ["bound", "--check", path], check)


def certify_state_jobs(rng, session: Session, slot: int, state) -> list:
    kind, desc, info = state
    r = info if kind == "fock" else int(rng.integers(1, 4))
    n_max = r + 4
    if kind == "fock":
        desc = dict(desc, cutoff=max(CUTOFF, 2 * n_max))
    js = json.dumps(desc)
    eps_lo, eps_hi = sorted(float(e) for e in 10.0 ** rng.uniform(-8.0, -2.0, 2))
    path = {name: session.workdir / f"c{slot}-{name}.json" for name in ("plain", "opt", "lo", "hi")}
    seen = {}

    def check_plain(res):
        seen["plain"] = _threshold(path["plain"])
        if kind == "fock":
            check_fock_plain(info, seen["plain"])

    def check_opt(res):
        check_dominates(_threshold(path["opt"]), earlier(seen, "plain"))

    def check_certified(name, eps):
        def check(res):
            cert = read_json(path[name])
            rank = cert["r"]
            require(cert["kappa_eps_at_least"] == rank + 1, "kappa_eps_at_least != r + 1")
            require(rank == 0 or cert["epsilon_threshold"] > eps,
                    f"certified r={rank} with threshold <= eps={eps!r}")
            seen[name] = rank
            if name == "hi":
                check_rank_monotone(eps_lo, earlier(seen, "lo"), eps_hi, rank)

        return check

    def run_recurrence():
        psi = csrank.fock.state_from_descriptor(desc)
        return csrank.certify.recurrence_order(psi, 8)

    def check_recurrence(rep):
        if kind == "superposition":
            require(rep.detected_order == info,
                    f"recurrence order {rep.detected_order} for a {info}-term superposition")
        if kind == "squeezed":
            require(not rep.saturated and all(rank == n + 1 for n, rank in rep.ranks_by_N),
                    f"squeezed state not full rank: {rep.ranks_by_N}")

    bound = ["bound", js, "--r", r, "--n-max", n_max]
    jobs = [
        cli_job("bound_plain", bound + ["--method", "plain", "--out", path["plain"]], check_plain),
        check_job(path["plain"]),
        cli_job("bound_optimized", bound + ["--out", path["opt"]], check_opt),
        check_job(path["opt"]),
    ]
    for name, eps in (("lo", eps_lo), ("hi", eps_hi)):
        argv = ["certify", js, "--eps", repr(eps), "--n-max", 5, "--out", path[name]]
        jobs += [cli_job("certify_eps", argv, check_certified(name, eps)), check_job(path[name])]
    jobs.append(Job("recurrence_order", run_recurrence, check_recurrence, json.dumps(desc)))
    return jobs


def certify_round(rng, session: Session) -> list:
    states = [fock_state(rng), squeezed_state(rng), core_state(rng),
              superposition_state(rng, max_abs=2.0)]
    jobs = []
    for slot, state in enumerate(states):
        jobs += certify_state_jobs(rng, session, slot, state)
    jobs.append(figure_job(session))
    return jobs


# --- sandwich ---------------------------------------------------------------


def record_fit(session: Session, threshold: float, infidelity: float) -> None:
    session.fit_infidelities.append(infidelity)
    if threshold > infidelity:
        session.zero_slack_violations += 1
    check_sandwich(threshold, infidelity)


def sandwich_state_jobs(rng, session: Session, slot: int, state) -> list:
    kind, desc, _ = state
    if kind == "fock":
        desc = dict(desc, cutoff=CUTOFF)
    js = json.dumps(desc)
    target = target_amplitudes(desc)
    thresholds = {}
    jobs = []
    for r in (1, 2):
        path = session.workdir / f"s{slot}-r{r}.json"

        def check_threshold(res, r=r, path=path):
            thresholds[r] = _threshold(path)

        argv = ["bound", js, "--r", r, "--n-max", 8, "--out", path]
        jobs.append(cli_job("threshold", argv, check_threshold))
    for r in (1, 2):
        def check_fit(res, r=r):
            out = json.loads(res.stdout)
            check_fidelity(out["fidelity_achieved"], target, _terms(out))
            record_fit(session, earlier(thresholds, r), out["infidelity"])

        jobs.append(cli_job("fit", ["fit", js, "--r", r] + FIT_ARGS, check_fit))

    def run_single():
        return csrank.decomp.best_single_coherent(csrank.fock.state_from_descriptor(desc))

    def check_single(out):
        alpha, infidelity = out
        check_fidelity(1.0 - infidelity, target, [(1.0, alpha)])
        check_sandwich(earlier(thresholds, 1), infidelity)

    jobs.append(Job("best_single_coherent", run_single, check_single, js))
    if kind in ("fock", "core"):
        def check_decompose(res):
            out = json.loads(res.stdout)
            require(out["residual"] <= 1e-10, f"circle solve residual {out['residual']!r}")
            check_fidelity(out["fidelity"], target, _terms(out))

        delta = float(rng.uniform(0.3, 0.8))
        jobs.append(cli_job("decompose", ["decompose", js, "--delta", repr(delta)], check_decompose))
    return jobs


def sandwich_round(rng, session: Session) -> list:
    states = [fock_state(rng), squeezed_core_state(rng), core_state(rng),
              superposition_state(rng, max_abs=1.5)]
    jobs = []
    for slot, state in enumerate(states):
        jobs += sandwich_state_jobs(rng, session, slot, state)
    return jobs


# --- bridge -----------------------------------------------------------------


def permanent_job(rng, session: Session, n: int, delta: float) -> Job:
    seed = int(rng.integers(2**31))
    path = session.workdir / f"perm-n{n}-d{delta}.csv"

    def check(res):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        manifest = read_json(f"{path}.manifest.json")
        require(len(rows) == BRIDGE_TRIALS, f"{len(rows)} trial rows")
        pairs = [(float(row["error"]), float(row["bound"])) for row in rows]
        check_bridge_rows(pairs, manifest["delta_inf"], manifest["max_error"])

    argv = ["permanent", "--n", n, "--delta", repr(delta), "--trials", BRIDGE_TRIALS,
            "--seed", seed, "--out", path]
    return cli_job("permanent_bridge", argv, check)


def multimode_descriptor(rng, form: str, modes: int):
    """|1>^m, a tensor-Fock state of m + 1 bosons, or a core of |1, 0, ...>
    and two (m + 1)-boson terms, within desk limits.  The seed draws where
    the bosons sit and the amplitudes; the form and size are given, so that
    every round costs the same and the seed does not move job_p50_s."""

    def occupation():
        counts = np.bincount(rng.integers(0, modes, modes + 1), minlength=modes)
        return tuple(int(k) for k in counts)

    if form == "ones":
        return {"modes": modes, "amps": [{"occ": [1] * modes, "c": [1.0, 0.0]}]}
    if form == "tensor":
        return {"modes": modes, "amps": [{"occ": list(occupation()), "c": [1.0, 0.0]}]}
    occs = {(1,) + (0,) * (modes - 1)}
    while len(occs) < 3:
        occs.add(occupation())
    amps = rng.standard_normal(len(occs)) + 1j * rng.standard_normal(len(occs))
    amps /= np.linalg.norm(amps) * (1 + 1e-9)
    return {"modes": modes, "amps": [
        {"occ": list(o), "c": _pair(a)} for o, a in zip(sorted(occs), amps)]}


def multimode_job(rng, form: str, modes: int) -> Job:
    desc = multimode_descriptor(rng, form, modes)
    n = max(sum(e["occ"]) for e in desc["amps"])

    def check(res):
        out = json.loads(res.stdout)
        require(out["lower_bound"] == n + 1, f"lower bound {out['lower_bound']} for {n} bosons")
        require(out["hankel_threshold"] > 0, "reduction threshold is not positive")
        d_n = complex(*out["d_n"])
        require(abs(out["abs_d_n_sq"] - abs(d_n) ** 2) <= 1e-12 * abs(d_n) ** 2, "|d_n|^2 mismatch")
        require(abs(complex(*out["reduction_amplitudes"][n]) - d_n) <= 1e-10 * max(1.0, abs(d_n)),
                "bunched amplitude differs from the evolved state")
        check_unitary([[complex(*z) for z in row] for row in out["unitary"]])
        if form == "ones":
            m = desc["modes"]
            expected = math.factorial(m) / m**m
            require(abs(out["abs_d_n_sq"] - expected) <= 1e-10 * expected,
                    f"|d_n|^2 of |1>^{m} is {out['abs_d_n_sq']!r}, expected {expected!r}")

    seed = int(rng.integers(2**31))
    return cli_job("multimode", ["multimode", json.dumps(desc), "--seed", seed], check)


def raw_permanent_job(rng, n: int) -> Job:
    seed = int(rng.integers(2**31))
    perm = csrank.permanent

    def run():
        u = perm.haar_unitary(n, seed)
        values = {"glynn": perm.permanent_glynn(u), "ryser": perm.permanent_ryser(u)}
        if n <= perm.NAIVE_LIMIT:
            values["naive"] = perm.permanent_naive(u)
        return values

    kind = "raw_permanent" if n > perm.NAIVE_LIMIT else "raw_permanent_naive"
    return Job(kind, run, lambda values: check_permanents(values, n), f"n={n} haar seed={seed}",
               numpy_bound=True)


def bridge_round(rng, session: Session) -> list:
    jobs = [permanent_job(rng, session, n, delta) for n in range(4, 9) for delta in BRIDGE_DELTAS]
    for i in range(15):
        form = ("ones", "tensor", "core")[i % 3]
        jobs.append(multimode_job(rng, form, 2 + (i // 3) % (2 if form == "core" else 3)))
    jobs += [raw_permanent_job(rng, n) for n in range(2, 9)]
    # Two unitaries per kernel size put job_p90_s among the n = 18 kernel
    # jobs, above the n = 7 and n = 8 bridges, rather than on the edge of a group.
    jobs += [raw_permanent_job(rng, n) for n in range(10, 19) for _ in range(2)]
    return jobs


ROUNDS = {"certify": certify_round, "sandwich": sandwich_round, "bridge": bridge_round}

# What a CLI user of each workload imports before the first job can start.
SETUP_IMPORTS = {
    "certify": ["csrank.cli", "csrank.certify", "csrank.hankel", "csrank.fock"],
    "sandwich": ["csrank.cli", "csrank.decomp", "csrank.hankel", "csrank.fock"],
    "bridge": ["csrank.cli", "csrank.permanent", "csrank.multimode", "csrank.decomp"],
}


def fidelity_probe(session: Session) -> list:
    """Threshold and fit jobs of one fixed, seed-independent sandwich round."""
    return [job for job in sandwich_round(np.random.default_rng(0), session)
            if job.kind in ("threshold", "fit")]
