"""Explicit coherent-state decompositions and best-fit superpositions.

circle_decomposition places n+1 coherent states on a small circle
delta * omega^j (omega the (n+1)-th root of unity) and solves the linear
system that matches the target's first n+1 Fock amplitudes exactly; the
fidelity tends to 1 as delta shrinks.  best_single_coherent finds the global
maximum of |<target|alpha>|^2 by a Newton climb from the best points of a
coarse grid.  fit_superposition maximizes fidelity over r-term
superpositions by variable projection: for a fixed displacement vector the
optimal coefficients are a linear least-squares solve, so only the 2r real
displacement parameters are searched.  At r = 1 that search is
best_single_coherent's climb.  At r >= 2 each seeded restart takes a few
Nelder-Mead steps to explore, then converges by L-BFGS-B on the exact
variable-projection gradient (Golub & Pereyra 1973; Kaufman 1975).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .fock import (
    ALPHA_MERGE_TOL,
    CoherentSuperposition,
    FockVector,
    coherent_amplitudes,
    coherent_cutoff,
    coherent_columns,
    fidelity,
    fock_state,
    superposition_to_fock,
)
from .multimode import MultimodeSuperposition

SMALL_DELTA_WARNING = 1e-3

# Nelder-Mead iterations each fit restart takes before L-BFGS-B.
EXPLORE_ITERS = 20

# Most matrix entries one block of best_single_coherent's grid columns holds.
# One unblocked product of the whole grid is large enough for OpenBLAS to wake
# its other threads, which then slow every later numpy call of the process.
_GRID_BLOCK_ENTRIES = 1 << 12

# Grid points best_single_coherent climbs from (the fewest an r = 1 fit
# climbs), and the cap on each start's Newton steps.
CANDIDATES = 4
MAX_ASCENT_STEPS = 50


@dataclass(frozen=True)
class RestartReport:
    """How one start of fit_superposition ended: its iterations (at r >= 2
    over both methods and all rounds, at r = 1 its Newton steps), whether it
    converged (L-BFGS-B's success in the round it kept, or at r = 1 that it
    stopped rising before the step cap), and the projection-fit fidelity of its
    displacements at the working cutoff."""

    nit: int
    converged: bool
    fidelity: float


@dataclass(frozen=True)
class FitResult:
    superposition: CoherentSuperposition
    fidelity_achieved: float
    iterations: int
    converged: bool
    restarts_used: int
    restarts: tuple  # one RestartReport per start, in start order


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, imported on first use by a fit with r >= 2:
    the import costs 0.3-0.5 s on a 2-core host, which commands that never
    make such a fit should not pay."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


def _round_up(x: float) -> float:
    """x rounded up to three significant digits."""
    scale = 10.0 ** (math.floor(math.log10(x)) - 2)
    return math.ceil(x / scale) * scale


def _circle_solve(core: FockVector, delta: float):
    """Solve for the circle-decomposition superposition.

    The system matrix is e^{-delta^2/2} alpha_j^k / sqrt(k!) with
    alpha_j = delta omega^j.  Equilibrating row k by its common magnitude
    e^{-delta^2/2} delta^k / sqrt(k!) leaves a pure root-of-unity system, so
    the solve stays well conditioned; the equilibration ratio is reported as
    the condition estimate of the raw system.  Returns (superposition,
    condition estimate, residual).
    """
    if delta <= 0 or not math.isfinite(delta):
        raise ValueError("delta must be positive and finite")
    n = core.highest_occupied()
    if n < 0:
        raise ValueError("core state must have a nonzero amplitude")
    k = np.arange(n + 1)
    omega = np.exp(2j * np.pi / (n + 1))
    alphas = delta * omega**k
    # Neighbouring nodes sit 2 delta sin(pi / (n + 1)) apart; within
    # ALPHA_MERGE_TOL the superposition would merge them into fewer terms.
    if n > 0 and np.abs(alphas - np.roll(alphas, 1)).min() <= ALPHA_MERGE_TOL:
        # a hair above the bound, so rounding the nodes cannot merge them
        usable = _round_up(ALPHA_MERGE_TOL / (2 * math.sin(math.pi / (n + 1))) * (1 + 1e-9))
        raise ValueError(
            f"delta={delta:g} puts the {n + 1} circle nodes within {ALPHA_MERGE_TOL:g} "
            f"of each other, where they merge; the smallest usable delta is {usable:.3g}"
        )
    if delta < SMALL_DELTA_WARNING:
        warnings.warn(
            f"circle decomposition at delta={delta:g} is severely ill conditioned",
            RuntimeWarning,
            stacklevel=3,
        )
    if n == 0:
        # a weight-0 core state is itself coherent; no circle needed
        return CoherentSuperposition([(core.amplitudes[0], 0.0)]), 1.0, 0.0
    row_scale = coherent_amplitudes(delta, n).real  # |delta>'s amplitudes are real
    # W[k, j] = omega^(j k); the raw matrix is diag(row_scale) @ W.
    W = omega ** np.outer(k, k)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rhs = core.amplitudes[: n + 1] / row_scale
        rhs_norm = np.linalg.norm(rhs)
    if not np.isfinite(rhs_norm):  # the coefficients are as large as rhs
        raise ValueError(f"delta={delta:g} puts the circle coefficients past the double "
                         "range: they scale as sqrt(k!) e^(delta^2/2) / delta^k")
    try:
        coeffs = np.linalg.solve(W, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for distinct nodes, but guarded
        raise NumericalFailure("circle-decomposition solve is singular") from exc
    cond = float(row_scale.max() / row_scale.min())
    # relative residual of the equilibrated system; the raw amplitude match
    # loses ~cond * eps to cancellation, which is the caller's tradeoff in delta
    residual = float(np.linalg.norm(W @ coeffs - rhs) / rhs_norm)
    return CoherentSuperposition(zip(coeffs, alphas)), cond, residual


def circle_decomposition(core: FockVector, delta: float) -> CoherentSuperposition:
    """n+1 coherent states on the circle of radius delta reproducing the
    target's first n+1 Fock amplitudes exactly."""
    return _circle_solve(core, delta)[0]


def circle_decomposition_report(core: FockVector, delta: float) -> dict:
    """circle_decomposition plus solve diagnostics and achieved fidelity."""
    sup, cond, residual = _circle_solve(core, delta)
    approx = superposition_to_fock(sup, cutoff=max(core.cutoff, 2 * len(sup)))
    return {
        "superposition": sup,
        "fidelity": fidelity(core, approx),
        "condition_estimate": cond,
        "residual": residual,
    }


def delta_cat_product(modes: int, delta: float) -> MultimodeSuperposition:
    """Tensor power of the two-term odd-cat decomposition of |1>.

    Gives the classic 2^modes-term approximation of |1>^modes with
    displacement entries +-delta; its fidelity tends to 1 as delta -> 0.
    """
    if modes < 1:
        raise ValueError("need at least one mode")
    single = circle_decomposition(fock_state(1), delta)
    coeffs, alphas = single.coefficients(), single.displacements()
    rows = np.indices((len(single),) * modes).reshape(modes, -1).T  # first mode slowest
    return MultimodeSuperposition(zip(np.prod(coeffs[rows], axis=1), alphas[rows]))


def _normalized_target(target: FockVector) -> np.ndarray:
    t = target.amplitudes
    norm = np.linalg.norm(t)
    if norm == 0:
        raise ValueError("target has zero norm")
    if abs(norm - 1.0) > 1e-6:
        raise ValueError("target must be normalized")
    return t / norm


def _projection_fit(alphas: np.ndarray, t: np.ndarray):
    """Best fidelity over coefficients for fixed displacements.

    With B the matrix of truncated coherent columns, the optimum projects t
    onto span(B): fidelity = 1 - min_c ||t - B c||^2 for unit t.
    """
    cutoff = len(t) - 1
    B = coherent_columns(alphas, cutoff)
    c, _, _, _ = np.linalg.lstsq(B, t, rcond=None)
    resid = t - B @ c
    fid = 1.0 - float(np.vdot(resid, resid).real)
    return min(1.0, max(0.0, fid)), c


def _loss_and_gradient(x: np.ndarray, t: np.ndarray, sqrt_n: np.ndarray):
    """||t - B c||^2 at the least-squares c, and its gradient in
    x = (Re alpha, Im alpha).

    At the optimal c the derivative through c vanishes (variable projection),
    so d/dRe alpha_k = -2 Re(c_k res^H db_k/dRe alpha_k) with
    db_{k,n}/dRe alpha_k = -Re(alpha_k) b_{k,n} + sqrt(n) b_{k,n-1}, and the
    same for Im alpha_k with i sqrt(n).  It is the exact derivative of the
    truncated columns too.
    """
    r = len(x) // 2
    B = coherent_columns(x[:r] + 1j * x[r:], len(t) - 1)
    c, _, _, _ = np.linalg.lstsq(B, t, rcond=None)
    res = t - B @ c
    res_b = res.conj() @ B
    res_shift = (res[1:].conj() * sqrt_n) @ B[:-1]
    grad_re = -2.0 * (c * (res_shift - x[:r] * res_b)).real
    grad_im = -2.0 * (c * (1j * res_shift - x[r:] * res_b)).real
    return float(np.vdot(res, res).real), np.concatenate([grad_re, grad_im])


def _descent_runs(t, r, starts, max_iters, tol):
    """(fidelity, alphas, coefficients, RestartReport) of each start at r >= 2."""
    sqrt_n = np.sqrt(np.arange(1, len(t)))

    def negative_fidelity(x):
        return -_projection_fit(x[:r] + 1j * x[r:], t)[0]

    for a0 in starts:
        x = np.concatenate([a0.real, a0.imag])
        nit, kept = 0, None
        # Explore, then converge; go round again from the result while that
        # raises the fidelity and the restart's iterations last.
        while nit < max_iters:
            explore = min(EXPLORE_ITERS, max_iters - nit)
            res = minimize(
                negative_fidelity,
                x,
                method="Nelder-Mead",
                options={"maxiter": explore, "fatol": tol, "xatol": 1e-10},
            )
            nit += int(res.nit)
            if nit < max_iters:
                res = minimize(
                    _loss_and_gradient,
                    res.x,
                    args=(t, sqrt_n),
                    jac=True,
                    method="L-BFGS-B",
                    options={"maxiter": max_iters - nit, "ftol": 0.0, "gtol": tol},
                )
                nit += int(res.nit)
            alphas = res.x[:r] + 1j * res.x[r:]
            fid, coeffs = _projection_fit(alphas, t)
            if kept is not None and fid <= kept[0]:
                break
            kept = (fid, alphas, coeffs, bool(res.success))
            x = res.x
        fid, alphas, coeffs, converged = kept
        yield fid, alphas, coeffs, RestartReport(nit=nit, converged=converged, fidelity=fid)


def _single_runs(target, t, count, warm, max_steps):
    """(fidelity, alphas, coefficients, RestartReport) of each start at r = 1:
    the end points of best_single_coherent's climb, fitted at t's cutoff."""
    _, ends, nits, stopped = _climb_from_grid(target, count, warm, max_steps)
    for alphas, nit, converged in zip(ends[:, None], nits.tolist(), stopped.tolist()):
        fid, coeffs = _projection_fit(alphas, t)
        yield fid, alphas, coeffs, RestartReport(nit, converged, fid)


def fit_superposition(
    target: FockVector,
    r: int,
    restarts: int = 16,
    seed: int | None = None,
    max_iters: int = 4000,
    tol: float = 1e-12,
    init_alphas=None,
) -> FitResult:
    """Maximize fidelity with an r-term coherent superposition.

    ``init_alphas``, if given, is one more start: exactly r finite
    displacements.  At r = 1 the fit is best_single_coherent's global search:
    the max(restarts, CANDIDATES) best points of its grid (none at
    ``restarts=0``) and the warm start climb by at most
    min(max_iters, MAX_ASCENT_STEPS) Newton steps each, and ``seed`` and
    ``tol`` are not used.  A start's ``nit`` counts the steps it took while it
    rose; it converged if it stopped rising before that cap.

    At r >= 2, restart 0 starts from displacements on a small circle (the
    explicit-decomposition ansatz); later restarts perturb circle starts of
    varying radius with seeded Gaussian noise.  Each restart explores with up
    to EXPLORE_ITERS Nelder-Mead iterations, which move it off symmetric
    starts where the gradient vanishes, then converges by L-BFGS-B on the
    exact gradient of the infidelity until the largest gradient component is
    at most ``tol``.  It repeats that pair from its result while the fidelity
    rises, and stops after ``max_iters`` iterations of both methods together.

    Each start's fidelity is the projection fit of its displacements at the
    working cutoff.  The best start wins; exact fidelity ties go to the
    lexicographically smaller displacement tuple so reruns are stable.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if restarts < 1 and init_alphas is None:
        raise ValueError("need at least one restart or an explicit warm start")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError("tol must be finite and non-negative")
    warm = []
    if init_alphas is not None:
        warm = [np.asarray(init_alphas, dtype=complex)]
        if warm[0].shape != (r,) or not np.isfinite(warm[0]).all():
            raise ValueError(f"init_alphas must be exactly r={r} finite displacements")
    radius = max(0.5, math.sqrt(target.mean_fock_number()))

    # Work at a cutoff where every coherent state in the search region is
    # represented to machine precision; otherwise chopped columns fake
    # fidelity after renormalization.
    search_reach = 2.0 * radius + 2.0
    work_cutoff = max(target.cutoff, coherent_cutoff(search_reach, 1e-14))
    t = _normalized_target(target.padded(work_cutoff))
    if r == 1:
        count = max(restarts, CANDIDATES) if restarts > 0 else 0
        runs = _single_runs(target, t, count, [a[0] for a in warm],
                            min(max_iters, MAX_ASCENT_STEPS))
    else:
        rng = np.random.default_rng(seed)
        base_deltas = np.geomspace(0.08, 1.2, num=max(restarts, 1)) * radius
        starts = []
        for i in range(restarts):
            a0 = base_deltas[i] * np.exp(2j * np.pi * np.arange(r) / r)
            if i > 0:
                a0 = a0 + 0.3 * radius * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
            starts.append(a0)
        runs = _descent_runs(t, r, starts + warm, max_iters, tol)

    best = None
    reports = []
    for fid, alphas, coeffs, report in runs:
        reports.append(report)
        key = sorted((a.real, a.imag) for a in alphas)
        if best is None or fid > best[0] or (fid == best[0] and key < best[1]):
            best = (fid, key, alphas, coeffs, report)

    _, _, alphas, coeffs, winner = best
    sup = CoherentSuperposition(zip(coeffs, alphas))
    approx = superposition_to_fock(sup, cutoff=work_cutoff)
    # all-zero coefficients (a start orthogonal to the target) fit nothing
    achieved = fidelity(target.padded(work_cutoff), approx) if approx.norm else 0.0
    return FitResult(
        superposition=sup,
        fidelity_achieved=achieved,
        iterations=winner.nit,
        converged=winner.converged,
        restarts_used=len(reports),
        restarts=tuple(reports),
    )


def _coherent_overlap_sq(t: np.ndarray, alpha: complex) -> float:
    """|<t|alpha>|^2 against the exact (untruncated) coherent state."""
    amps = coherent_amplitudes(alpha, len(t) - 1)
    return float(abs(np.vdot(t, amps)) ** 2)


def _ascent_step(alphas: np.ndarray, z: np.ndarray, plane: bool) -> np.ndarray:
    """Newton steps up log |<t|alpha>|^2 from each alpha, given the rows
    z_k = sum_n conj(t_n) sqrt(n!/(n-k)!) b_{n-k}(alpha), k = 0, 1, 2.

    With h = log <t|alpha> + |alpha|^2/2, h' = z_1/z_0 and h'' = z_2/z_0 - h'^2
    give the gradient and Hessian of log f = -x^2 - y^2 + 2 Re h in (x, y).
    Each Hessian eigenvalue lambda is replaced by -max(|lambda|, 1e-12), so the
    step always climbs.  Off the plane only the x entries count.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h1 = z[1] / z[0]
        h2 = z[2] / z[0] - h1 * h1
        gx = -2.0 * alphas.real + 2.0 * h1.real
        gy = (-2.0 * alphas.imag - 2.0 * h1.imag) * plane
        a = -2.0 + 2.0 * h2.real
        b = -2.0 * h2.imag * plane
        c = -2.0 - 2.0 * h2.real
        # closed-form eigensystem of [[a, b], [b, c]]: v1 = (cos, sin), v2 = (-sin, cos)
        theta = 0.5 * np.arctan2(2.0 * b, a - c)
        cos, sin = np.cos(theta), np.sin(theta)
        lam1 = a * cos * cos + 2.0 * b * sin * cos + c * sin * sin
        lam2 = a * sin * sin - 2.0 * b * sin * cos + c * cos * cos
        p1 = (cos * gx + sin * gy) / np.maximum(np.abs(lam1), 1e-12)
        p2 = (cos * gy - sin * gx) / np.maximum(np.abs(lam2), 1e-12)
        step = (p1 * cos - p2 * sin) + 1j * (p1 * sin + p2 * cos) * plane
    return np.where(np.isfinite(step), step, 0.0)


def _climb_from_grid(target: FockVector, count: int, starts, max_steps: int):
    """The count best points of target's coarse grid (first on ties) and the
    given starts, climbed in lockstep by at most max_steps Newton steps each.

    Returns the normalized target, the end points, the Newton steps each
    start took while it rose, and whether each stopped rising before the cap.
    """
    t = _normalized_target(target)
    cutoff = len(t) - 1
    plane = not (np.max(np.abs(t.imag)) < 1e-14 and np.min(t.real) >= 0)
    radius = max(4.0, 2.0 * math.sqrt(target.mean_fock_number()))
    if plane:
        xs = np.linspace(-radius, radius, 41)
        x, y = np.meshgrid(xs, xs, indexing="ij")  # x outer, y inner once flattened
        points = (x + 1j * y)[x * x + y * y <= radius**2]
    else:
        points = np.linspace(-radius, radius, 201).astype(complex)
    # The grid scores |t^H B|^2 with B's columns built in blocks.  Squaring
    # hypot by pow rounds like the scalar abs(z) ** 2 of _coherent_overlap_sq
    # (numpy's array abs and square do not); the ascent scores the same way.
    step = max(1, _GRID_BLOCK_ENTRIES // len(t))
    scores = np.empty(len(points))
    for lo in range(0, len(points), step):
        z = t.conj() @ coherent_columns(points[lo : lo + step], cutoff)
        scores[lo : lo + step] = np.float_power(np.hypot(z.real, z.imag), 2.0)
    alphas = np.concatenate([points[np.argsort(-scores, kind="stable")[:count]],
                             np.asarray(starts, dtype=complex)])
    # rows k = 0, 1, 2 of conj(t_n) sqrt(n!/(n-k)!), shifted so that one product
    # with the columns b_0..b_cutoff gives z_0, z_1 and z_2
    n = np.arange(cutoff + 1)
    weights = np.zeros((3, cutoff + 1), dtype=complex)
    weights[0] = t.conj()
    weights[1, :cutoff] = t[1:].conj() * np.sqrt(n[1:])
    weights[2, : cutoff - 1] = t[2:].conj() * np.sqrt(n[2:] * (n[2:] - 1.0))
    overlaps = np.full(len(alphas), -np.inf)
    z = np.zeros((3, len(alphas)), dtype=complex)
    steps = np.zeros(len(alphas), dtype=int)
    rising = np.ones(len(alphas), dtype=bool)
    trial = alphas
    for taken in range(max_steps + 1):  # the starts, then one Newton step a round
        z_trial = weights @ coherent_columns(trial, cutoff)
        f_trial = np.float_power(np.hypot(z_trial[0].real, z_trial[0].imag), 2.0)
        kept = f_trial >= overlaps
        rose = f_trial > overlaps
        alphas = np.where(kept, trial, alphas)
        overlaps = np.where(kept, f_trial, overlaps)
        z = np.where(kept, z_trial, z)
        rising &= rose
        if taken == max_steps or not rose.any():
            break
        steps += rising
        trial = alphas + _ascent_step(alphas, z, plane)
    return t, alphas, steps, ~rising


def best_single_coherent(target: FockVector):
    """Globally maximize |<target|alpha>|^2; returns (alpha, infidelity).

    A coarse grid over the disk of radius max(4, 2 sqrt(mean Fock number))
    picks the CANDIDATES best points (first on ties), and a safeguarded Newton
    ascent on log |<target|alpha>|^2 climbs from all of them at once.  A target
    with real, non-negative amplitudes t_k is searched on the real axis only
    (201 points, Re alpha climbed): |sum_k t_k alpha^k / sqrt(k!)| is at most
    the same sum at |alpha|, so the maximum lies on alpha >= 0.  Any other
    target, a real one with mixed signs included, is searched on a 41 x 41
    grid clipped to the disk, with both parts of alpha climbed.  A step is
    kept only where the overlap does not fall, and the ascent stops when no
    candidate rises or after MAX_ASCENT_STEPS steps; the scalar overlap of
    each end point picks the winner.
    """
    t, alphas, _, _ = _climb_from_grid(target, CANDIDATES, (), MAX_ASCENT_STEPS)
    final = [_coherent_overlap_sq(t, a) for a in alphas.tolist()]
    best = int(np.argmax(final))
    return complex(alphas[best]), float(1.0 - min(1.0, final[best]))
