"""Command-line surface: certified bounds, fits, decompositions, figures.

Commands: bound, certify, fit, decompose, figure, permanent, multimode.
Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 resource limit.
JSON and CSV outputs carry full-precision floats (17 significant digits);
every JSON payload embeds a run manifest so results can be reproduced and
certificates re-checked (``--check``).
"""

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .certify import (
    BoundCertificate,
    analytic_fock_certificate,
    certify_rank,
    fock_analytic_threshold,
)
from .decomp import (
    best_single_coherent,
    circle_decomposition_report,
    delta_cat_product,
    fit_superposition,
)
from .errors import NumericalFailure, ResourceLimit
from .fock import fock_state, int_field, object_field, real_field, state_from_descriptor
from .hankel import SearchConfig, optimized_bound, plain_bound, rescaled_bound
from .multimode import multimode_from_descriptor, multimode_lower_bound
from .permanent import verify_permanent_bound

CHECK_REL_TOL = 1e-12


def _fmt(x: float) -> str:
    return f"{x:.17e}"


def _c2j(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _manifest(args, command: str, start: float, seed=None) -> dict:
    flags = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "state", "check")
        and not k.startswith("_")
        and v is not None
    }
    return {
        "command": command,
        "flags": flags,
        "descriptor": getattr(args, "_descriptor", None),
        "out": args.out,
        "seed": seed,
        "version": __version__,
        "wall_clock_s": time.perf_counter() - start,
    }


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(header, rows, out: str | None, manifest: dict) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
        )
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        with open(out + ".manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        sys.stdout.write(text)


def _parse_descriptor(raw: str) -> dict:
    if raw is None:
        raise ValueError("a state descriptor is required")
    try:
        descriptor = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed state JSON: {exc}") from exc
    if not isinstance(descriptor, dict):
        raise ValueError("state descriptor must be a JSON object")
    return descriptor


def _load_state(descriptor: dict, required_cutoff: int):
    """Build the state, extending auto-chosen cutoffs to cover the search."""
    if descriptor.get("cutoff") is not None:
        return state_from_descriptor(descriptor)
    psi = state_from_descriptor(descriptor)
    if psi.cutoff < required_cutoff:
        extended = dict(descriptor)
        extended["cutoff"] = required_cutoff
        psi = state_from_descriptor(extended)
    return psi


def _search_config(args, n_max: int) -> SearchConfig:
    if not getattr(args, "b_grid", None):
        return SearchConfig(N_max=n_max)
    parts = args.b_grid.split(",")
    if len(parts) != 3:
        raise ValueError("--b-grid expects MIN,MAX,POINTS")
    return SearchConfig(N_max=n_max, b_grid=(float(parts[0]), float(parts[1]), int(parts[2])))


def _check_certificate(args) -> int:
    with open(args.check) as fh:
        stored = object_field(json.load(fh), "certificate")
    descriptor = object_field(stored["state_descriptor"], "state_descriptor")
    r = int_field(stored["r"], "r")
    method = stored["method"]
    params = object_field(stored.get("parameters") or {}, "parameters")
    n_param, b_param = params.get("N"), params.get("b")
    if r == 0 and n_param is None:
        recomputed = 0.0
    elif method == "analytic_fock":
        recomputed = fock_analytic_threshold(int_field(descriptor["n"], "n"))
    else:
        n_param = int_field(n_param, "N")
        psi = _load_state(descriptor, 2 * n_param)
        if method == "plain":
            recomputed = plain_bound(psi, r, n_param)
        else:
            recomputed = rescaled_bound(psi, r, n_param, real_field(b_param, "b"))
    stored_value = real_field(stored["epsilon_threshold"], "epsilon_threshold")
    ok = abs(recomputed - stored_value) <= CHECK_REL_TOL * max(
        abs(stored_value), abs(recomputed), 1e-300
    )
    print(
        f"certificate {'OK' if ok else 'MISMATCH'}: stored {_fmt(stored_value)}, "
        f"recomputed {_fmt(recomputed)}"
    )
    if not ok:
        raise NumericalFailure("certificate re-check failed")
    return 0


def cmd_bound(args) -> int:
    start = time.perf_counter()
    if args.check:
        return _check_certificate(args)
    descriptor = _parse_descriptor(args.state)
    args._descriptor = descriptor
    if args.r is None:
        raise ValueError("--r is required")
    r = args.r

    if args.method == "analytic":
        if descriptor.get("type") != "fock":
            raise ValueError("--method analytic applies to Fock descriptors only")
        cert = analytic_fock_certificate(int_field(descriptor["n"], "n"), r)
    else:
        n_max = args.n_max if args.n_max is not None else max(r, 10)
        if r > n_max:
            raise ValueError(f"--r {r} exceeds --n-max {n_max}")
        psi = _load_state(descriptor, 2 * n_max)
        if args.method == "plain":
            values = {n: plain_bound(psi, r, n) for n in range(max(r, 1), n_max + 1)}
            n_star = max(values, key=values.get)  # the smallest N wins ties
            cert = BoundCertificate(descriptor, r, values[n_star], "plain", n_star, 1.0)
        else:
            cfg = _search_config(args, n_max)
            res = optimized_bound(psi, r, cfg)
            cert = BoundCertificate(descriptor, r, res.value, "optimized", res.N_star, res.b_star)

    payload = cert.to_dict()
    if args.eps is not None:
        payload["certifies"] = bool(args.eps < cert.epsilon_threshold)
    payload["manifest"] = _manifest(args, "bound", start)
    _emit_json(payload, args.out)
    return 0


def cmd_certify(args) -> int:
    start = time.perf_counter()
    if args.check:
        return _check_certificate(args)
    if args.eps is None:
        raise ValueError("--eps is required")
    descriptor = _parse_descriptor(args.state)
    args._descriptor = descriptor
    n_max = args.n_max if args.n_max is not None else 10
    psi = _load_state(descriptor, 2 * n_max)
    cfg = _search_config(args, n_max)
    cert = certify_rank(psi, args.eps, cfg, state_descriptor=descriptor)
    payload = cert.to_dict()
    payload["epsilon"] = args.eps
    payload["kappa_eps_at_least"] = cert.r + 1
    payload["manifest"] = _manifest(args, "certify", start)
    _emit_json(payload, args.out)
    return 0


def cmd_fit(args) -> int:
    start = time.perf_counter()
    descriptor = _parse_descriptor(args.state)
    args._descriptor = descriptor
    psi = _load_state(descriptor, 0)
    result = fit_superposition(
        psi,
        args.r,
        restarts=args.restarts,
        seed=args.seed,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    payload = {
        "terms": [
            {"c": _c2j(t.c), "alpha": _c2j(t.alpha)}
            for t in result.superposition.terms
        ],
        "fidelity_achieved": result.fidelity_achieved,
        "infidelity": 1.0 - result.fidelity_achieved,
        "iterations": result.iterations,
        "converged": result.converged,
        "restarts_used": result.restarts_used,
        "restarts": [
            {"nit": rep.nit, "converged": rep.converged, "fidelity": rep.fidelity}
            for rep in result.restarts
        ],
        "manifest": _manifest(args, "fit", start, seed=args.seed),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_decompose(args) -> int:
    start = time.perf_counter()
    descriptor = _parse_descriptor(args.state)
    args._descriptor = descriptor
    psi = _load_state(descriptor, 0)
    report = circle_decomposition_report(psi, args.delta)
    sup = report["superposition"]
    payload = {
        "terms": [{"c": _c2j(t.c), "alpha": _c2j(t.alpha)} for t in sup.terms],
        "fidelity": report["fidelity"],
        "infidelity": 1.0 - report["fidelity"],
        "condition_estimate": report["condition_estimate"],
        "residual": report["residual"],
        "manifest": _manifest(args, "decompose", start),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_figure(args) -> int:
    start = time.perf_counter()
    if args.panel == "left":
        rows = []
        for gamma in np.linspace(0.0, 1.0, 64):
            amps = [np.sqrt(1.0 - gamma), np.sqrt(gamma)]
            descriptor = {"type": "core", "amps": [[a, 0.0] for a in amps], "cutoff": 16}
            psi = state_from_descriptor(descriptor)
            _, exact = best_single_coherent(psi)
            plain = max(plain_bound(psi, 1, n) for n in range(1, 9))
            opt = optimized_bound(psi, 1, SearchConfig(N_max=8)).value
            rows.append((float(gamma), exact, plain, opt))
        header = ["gamma", "exact_infidelity", "plain_bound", "optimized_bound"]
    else:
        rows = []
        for n in range(1, 13):
            psi = fock_state(n, 2 * n)
            plain = plain_bound(psi, n, n)
            opt = optimized_bound(psi, n, SearchConfig(N_max=n)).value
            rows.append((n, plain, opt))
        header = ["n", "plain_bound", "optimized_bound"]
    manifest = _manifest(args, "figure", start)
    _emit_csv(header, rows, args.out, manifest)
    return 0


def cmd_permanent(args) -> int:
    start = time.perf_counter()
    sup = delta_cat_product(args.n, args.delta)
    report = verify_permanent_bound(sup, trials=args.trials, seed=args.seed)
    rows = [
        (trial, trial_seed, per, val, err, report.bound)
        for trial, trial_seed, per, val, err in report.trials
    ]
    header = ["trial", "seed", "abs_permanent", "abs_formula", "error", "bound"]
    manifest = _manifest(args, "permanent", start, seed=args.seed)
    manifest["delta_inf"] = report.delta_inf
    manifest["max_error"] = report.max_error
    _emit_csv(header, rows, args.out, manifest)
    return 0


def cmd_multimode(args) -> int:
    start = time.perf_counter()
    descriptor = _parse_descriptor(args.state)
    args._descriptor = descriptor
    core = multimode_from_descriptor(descriptor)
    report = multimode_lower_bound(core, trials=args.trials, seed=args.seed)
    payload = {
        "lower_bound": report.bound,
        "d_n": _c2j(report.d_n),
        "abs_d_n_sq": report.abs_d_n_sq,
        "hankel_threshold": report.hankel_threshold,
        "unitary": [[_c2j(z) for z in row] for row in report.unitary],
        "reduction_amplitudes": [_c2j(z) for z in report.reduction.amplitudes],
        "manifest": _manifest(args, "multimode", start, seed=args.seed),
    }
    _emit_json(payload, args.out)
    return 0


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csrank",
        description="Certified lower bounds on the approximate coherent state rank.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p, optional=False):
        p.add_argument(
            "state",
            nargs="?" if optional else None,
            help="single-mode state descriptor JSON",
        )

    p = sub.add_parser("bound", help="threshold certifying kappa_eps > r")
    add_state(p, optional=True)
    p.add_argument("--r", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--b-grid", dest="b_grid", help="MIN,MAX,POINTS")
    p.add_argument("--method", choices=["plain", "optimized", "analytic"],
                   default="optimized")
    p.add_argument("--check", help="re-validate a stored certificate JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("certify", help="largest certified r at a given eps")
    add_state(p, optional=True)
    p.add_argument("--eps", type=float, required=False)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--b-grid", dest="b_grid", help="MIN,MAX,POINTS")
    p.add_argument("--check", help="re-validate a stored certificate JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("fit", help="best-fit r-term coherent superposition")
    add_state(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--max-iters", type=int, default=4000, dest="max_iters")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("decompose", help="roots-of-unity circle decomposition")
    add_state(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("figure", help="emit figure panel data as CSV")
    p.add_argument("--panel", choices=["left", "right"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("permanent", help="verify the permanent-approximation bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_permanent)

    p = sub.add_parser("multimode", help="multimode rank lower bound via bunching")
    add_state(p)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_multimode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
