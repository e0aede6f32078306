"""Command-line surface: certified bounds, fits, decompositions, figures.

Commands: bound, certify, fit, decompose, figure, permanent, multimode.
Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 resource limit.
JSON and CSV outputs carry full-precision floats (17 significant digits);
every JSON payload embeds a run manifest so results can be reproduced and
certificates re-checked (``--check``).  Each ``cmd_*`` only computes its
payload or CSV rows; ``_run`` parses the descriptor, builds the manifest and
writes the output.
"""

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .certify import BoundCertificate, bound_certificate, certify_rank, check_epsilon
from .decomp import best_single_coherent, circle_decomposition_report, fit_superposition
from .errors import NumericalFailure, ResourceLimit
from .fock import state_from_descriptor
from .multimode import multimode_from_descriptor, multimode_lower_bound
from .permanent import verify_permanent_bound


_FLOAT = "%.17e"  # every float written, 17 significant digits


def _fmt(x: float) -> str:
    return _FLOAT % x


def _c2j(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(header, rows, out: str | None, manifest: dict) -> None:
    # One %-format per row type signature: a float cell as _fmt, any other as str.
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(
                _FLOAT if issubclass(kind, float) else "%s" for kind in kinds)
        lines.append(fmt % tuple(row))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        _emit_json(manifest, out + ".manifest.json")
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


def _check_certificate(path: str) -> int:
    with open(path) as fh:
        cert = BoundCertificate.from_dict(json.load(fh))
    ok, recomputed = cert.check()
    print(
        f"certificate {'OK' if ok else 'MISMATCH'}: stored {_fmt(cert.epsilon_threshold)}, "
        f"recomputed {_fmt(recomputed)}"
    )
    if not ok:
        raise NumericalFailure("certificate re-check failed")
    return 0


def cmd_bound(args, descriptor):
    if args.r is None:
        raise ValueError("--r is required")
    if args.eps is not None:
        check_epsilon(args.eps)
    n_max = max(args.r, 10) if args.n_max is None else args.n_max
    cert = bound_certificate(descriptor, args.r, args.method, n_max)
    payload = cert.to_dict()
    if args.eps is not None:
        payload["certifies"] = bool(args.eps < cert.epsilon_threshold)
    return payload


def cmd_certify(args, descriptor):
    if args.eps is None:
        raise ValueError("--eps is required")
    n_max = args.n_max if args.n_max is not None else 10
    cert = certify_rank(descriptor, args.eps, n_max)
    return dict(cert.to_dict(), epsilon=args.eps, kappa_eps_at_least=cert.r + 1)


def cmd_fit(args, descriptor):
    if args.seed is None:  # drawn here, so the manifest records the seed that ran
        args.seed = int(np.random.default_rng().integers(2**32))
    result = fit_superposition(
        state_from_descriptor(descriptor),
        args.r,
        restarts=args.restarts,
        seed=args.seed,
        max_iters=args.max_iters,
    )
    return {
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
    }


def cmd_decompose(args, descriptor):
    report = circle_decomposition_report(state_from_descriptor(descriptor), args.delta)
    terms = report["superposition"].terms
    return {
        "terms": [{"c": _c2j(t.c), "alpha": _c2j(t.alpha)} for t in terms],
        "fidelity": report["fidelity"],
        "infidelity": 1.0 - report["fidelity"],
        "condition_estimate": report["condition_estimate"],
        "residual": report["residual"],
    }


def cmd_figure(args, descriptor):
    def bounds(state, r, n_max):  # what `bound --method plain` and `bound` certify
        return [bound_certificate(state, r, method, n_max).epsilon_threshold
                for method in ("plain", "optimized")]

    if args.panel == "right":
        rows = [(n, *bounds({"type": "fock", "n": n, "cutoff": 2 * n}, n, n)) for n in range(1, 13)]
        return ["n", "plain_bound", "optimized_bound"], rows, {}
    rows = []
    for gamma in np.linspace(0.0, 1.0, 64):
        core = {"type": "core", "amps": [[np.sqrt(1.0 - gamma), 0.0], [np.sqrt(gamma), 0.0]],
                "cutoff": 16}
        _, exact = best_single_coherent(state_from_descriptor(core))
        rows.append((float(gamma), exact, *bounds(core, 1, 8)))
    return ["gamma", "exact_infidelity", "plain_bound", "optimized_bound"], rows, {}


def cmd_permanent(args, descriptor):
    report = verify_permanent_bound(args.n, args.delta, trials=args.trials, seed=args.seed)
    rows = [
        (trial, trial_seed, per, val, err, report.bound)
        for trial, trial_seed, per, val, err in report.trials
    ]
    header = ["trial", "seed", "abs_permanent", "abs_formula", "error", "bound"]
    extras = {"delta_inf": report.delta_inf, "max_error": report.max_error,
              "tail_weight": report.tail_weight}
    return header, rows, extras


def cmd_multimode(args, descriptor):
    report = multimode_lower_bound(multimode_from_descriptor(descriptor), seed=args.seed)
    return {
        "lower_bound": report.bound,
        "d_n": _c2j(report.d_n),
        "abs_d_n_sq": report.abs_d_n_sq,
        "hankel_threshold": report.hankel_threshold,
        "unitary": [[_c2j(z) for z in row] for row in report.unitary],
        "reduction_amplitudes": [_c2j(z) for z in report.reduction.amplitudes],
    }


def _run(args) -> int:
    """Run one command: a JSON payload (manifest embedded) or CSV rows (manifest
    plus the command's extras in ``<out>.manifest.json``)."""
    start = time.perf_counter()
    if getattr(args, "check", None):
        return _check_certificate(args.check)
    descriptor = _parse_descriptor(args.state) if "state" in vars(args) else None
    result = args.func(args, descriptor)
    manifest = {
        "command": args.command,
        "flags": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("func", "state", "check") and v is not None
        },
        "descriptor": descriptor,
        "out": args.out,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_clock_s": time.perf_counter() - start,
    }
    if isinstance(result, dict):
        _emit_json(dict(result, manifest=manifest), args.out)
    else:
        header, rows, extras = result
        _emit_csv(header, rows, args.out, dict(manifest, **extras))
    return 0


def _seed(text: str) -> int:
    """The type of every --seed: an int that numpy's default_rng takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {seed}")
    return seed


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
    p.add_argument("--method", choices=["plain", "optimized", "analytic"],
                   default="optimized")
    p.add_argument("--check", help="re-validate a stored certificate JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("certify", help="largest certified r at a given eps")
    add_state(p, optional=True)
    p.add_argument("--eps", type=float, required=False)
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--check", help="re-validate a stored certificate JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("fit", help="best-fit r-term coherent superposition")
    add_state(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--max-iters", type=int, default=4000, dest="max_iters")
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_permanent)

    p = sub.add_parser("multimode", help="multimode rank lower bound via bunching")
    add_state(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_multimode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
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
