"""Output checks built from the paper's invariants, not from golden files.

Every check raises CheckFailed with a one-line reason.  The tolerances are
stated per invariant so that a numerically better program still passes:

- the plain threshold of |n> equals n! / (2 (n+1) (2n)!) to 1e-12 relative;
- an optimized threshold is at least the plain one times (1 - 1e-12);
- the certified rank does not increase with eps;
- a Hankel-tail threshold never exceeds an achieved infidelity by more than
  the double-precision resolution of 1 - F (RES below);
- reported fidelities match a 30-digit recomputation from the returned terms;
- Glynn, Ryser and the naive permanent agree to 1e-9 relative, or to
  n * RES absolute where that is larger (see check_permanents);
- every bridge trial keeps its error within sqrt(2 delta_inf).
"""

import math

import mpmath

REL_TOL = 1e-12
PERMANENT_REL_TOL = 1e-9
# Spacing of doubles at 1.0: the finest step 1 - F can resolve.
RES = 2.0**-52
UNITARY_TOL = 1e-10


class CheckFailed(Exception):
    """A job's output violates one of the invariants above."""


class MissingInput(Exception):
    """A check needs a value from an earlier job of the round, and that job
    failed.  The job counts as failed, not as an incorrect output."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def earlier(values: dict, key):
    """values[key], stored by the check of an earlier job; MissingInput if
    that job failed before storing it."""
    try:
        return values[key]
    except KeyError:
        raise MissingInput(f"needs {key!r} from an earlier job that failed") from None


def fock_plain_threshold(n: int) -> float:
    """n! / (2 (n+1) (2n)!) from exact integers."""
    return math.factorial(n) / (2 * (n + 1) * math.factorial(2 * n))


def check_fock_plain(n: int, value: float) -> None:
    expected = fock_plain_threshold(n)
    require(
        abs(value - expected) <= REL_TOL * expected,
        f"plain bound of |{n}> is {value!r}, expected {expected!r}",
    )


def check_dominates(optimized: float, plain: float) -> None:
    require(
        optimized >= plain * (1.0 - REL_TOL),
        f"optimized bound {optimized!r} below plain bound {plain!r}",
    )


def check_rank_monotone(eps_lo: float, r_lo: int, eps_hi: float, r_hi: int) -> None:
    require(
        r_hi <= r_lo,
        f"certified r rose from {r_lo} at eps={eps_lo!r} to {r_hi} at eps={eps_hi!r}",
    )


def check_sandwich(threshold: float, infidelity: float) -> None:
    require(
        threshold <= infidelity + RES,
        f"threshold {threshold!r} exceeds achieved infidelity {infidelity!r}",
    )


def check_permanents(values: dict, n: int) -> None:
    """Permanents of one n x n unitary (by method name) agree to
    PERMANENT_REL_TOL relative, or to n * RES absolute where that is larger.

    |Per U| <= 1 for a unitary U, and every formula sums products of n
    entries of that scale, so two correct double-precision results differ by
    a few ulps of 1 (measured: at most 7.3e-16 for n = 10..18).  The Haar
    permanent shrinks with n (median 1.3e-5 at n = 18) and now and then comes
    out near zero, where 1e-9 of it is below that resolution.
    """
    items = list(values.items())
    tol = max(PERMANENT_REL_TOL * max(abs(v) for _, v in items), n * RES)
    for name, v in items[1:]:
        ref_name, ref = items[0]
        require(
            abs(v - ref) <= tol,
            f"{name} permanent {v!r} disagrees with {ref_name} {ref!r}",
        )


def check_bridge_rows(rows, delta_inf: float, max_error: float) -> None:
    """rows: (error, bound) pairs from one `permanent` report."""
    require(len(rows) > 0, "permanent report has no trials")
    require(0.0 <= delta_inf <= 0.5, f"delta_inf {delta_inf!r} out of range")
    bound = math.sqrt(2.0 * delta_inf)
    for error, row_bound in rows:
        require(abs(row_bound - bound) <= REL_TOL * bound, "row bound is not sqrt(2 delta_inf)")
        require(error <= row_bound, f"trial error {error!r} exceeds bound {row_bound!r}")
    require(
        max_error == max(error for error, _ in rows),
        "max_error does not match the trial rows",
    )
    require(max_error <= bound, f"max_error {max_error!r} exceeds bound {bound!r}")


def check_unitary(u) -> None:
    n = len(u)
    for i in range(n):
        for j in range(n):
            dot = sum(u[k][i].conjugate() * u[k][j] for k in range(n))
            target = 1.0 if i == j else 0.0
            require(abs(dot - target) <= UNITARY_TOL, "bunching matrix is not unitary")


def _coherent_amp(alpha, n: int):
    """e^{-|alpha|^2/2} alpha^n / sqrt(n!) at working precision."""
    a = mpmath.mpc(alpha)
    return mpmath.exp(-abs(a) ** 2 / 2) * a**n / mpmath.sqrt(mpmath.factorial(n))


def reference_fidelity(target, terms) -> float:
    """|<t|phi>|^2 / (|t|^2 |phi|^2) for phi = sum_k c_k |alpha_k>, untruncated.

    ``target`` lists the Fock amplitudes of a finitely supported state;
    ``terms`` lists (c, alpha) pairs.  Evaluated at 30 digits with the exact
    coherent Gram matrix, so it is independent of any truncation choice.
    """
    with mpmath.workdps(30):
        t = [mpmath.mpc(z) for z in target]
        norm_t = mpmath.fsum(abs(z) ** 2 for z in t)
        terms = [(mpmath.mpc(c), mpmath.mpc(a)) for c, a in terms]
        overlap = mpmath.fsum(
            c * mpmath.fsum(mpmath.conj(t[n]) * _coherent_amp(a, n) for n in range(len(t)))
            for c, a in terms
        )
        norm_phi = mpmath.re(
            mpmath.fsum(
                mpmath.conj(cj) * ck
                * mpmath.exp(-abs(aj) ** 2 / 2 - abs(ak) ** 2 / 2 + mpmath.conj(aj) * ak)
                for cj, aj in terms
                for ck, ak in terms
            )
        )
        return float(abs(overlap) ** 2 / (norm_t * norm_phi))


def check_fidelity(reported: float, target, terms) -> float:
    """Compare a reported fidelity with reference_fidelity; returns the reference.

    Forming sum_k c_k |alpha_k> in double precision cancels when the |c_k|
    are large (small-circle decompositions), so the allowance grows with
    sum_k |c_k| at the unit roundoff; truncation adds at most 1e-12.
    """
    ref = reference_fidelity(target, terms)
    scale = sum(abs(complex(c)) for c, _ in terms)
    tol = 1e-12 + 64 * RES * scale
    require(
        abs(reported - ref) <= tol,
        f"reported fidelity {reported!r} vs recomputed {ref!r} (tol {tol:.1e})",
    )
    return ref
