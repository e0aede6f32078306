"""Explicit coherent-state decompositions and best-fit superpositions.

circle_decomposition places n+1 coherent states on a small circle
delta * omega^j (omega the (n+1)-th root of unity) and solves the linear
system that matches the target's first n+1 Fock amplitudes exactly; the
fidelity tends to 1 as delta shrinks.  fit_superposition maximizes fidelity
over r-term superpositions by variable projection: for a fixed displacement
vector the optimal coefficients are a linear least-squares solve, so only
the 2r real displacement parameters are searched.  Each seeded restart takes
a few Nelder-Mead steps to explore, then converges by L-BFGS-B on the exact
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
_GRID_BLOCK_ENTRIES = 1 << 12


@dataclass(frozen=True)
class RestartReport:
    """How one restart of fit_superposition ended: its iterations over both
    methods and all rounds, whether L-BFGS-B reported success in the round it
    kept, and the projection-fit fidelity of its displacements at the working
    cutoff."""

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
    """scipy.optimize.minimize, imported on first use: the import costs about
    0.3 s, which commands that never fit should not pay."""
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

    Restart 0 starts from displacements on a small circle (the explicit-
    decomposition ansatz); later restarts perturb circle starts of varying
    radius with seeded Gaussian noise.  ``init_alphas`` adds one extra warm
    start.  Each restart explores with up to EXPLORE_ITERS Nelder-Mead
    iterations, which move it off symmetric starts where the gradient
    vanishes, then converges by L-BFGS-B on the exact gradient of the
    infidelity until the largest gradient component is at most ``tol``.  It
    repeats that pair from its result while the fidelity rises, and stops
    after ``max_iters`` iterations of both methods together.  The best
    restart wins; exact fidelity ties go to the lexicographically smaller
    displacement tuple so reruns are stable.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if restarts < 1 and init_alphas is None:
        raise ValueError("need at least one restart or an explicit warm start")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError("tol must be finite and non-negative")
    rng = np.random.default_rng(seed)
    radius = max(0.5, math.sqrt(target.mean_fock_number()))

    # Work at a cutoff where every coherent state in the search region is
    # represented to machine precision; otherwise chopped columns fake
    # fidelity after renormalization.
    search_reach = 2.0 * radius + 2.0
    work_cutoff = max(target.cutoff, coherent_cutoff(search_reach, 1e-14))
    t = _normalized_target(target.padded(work_cutoff))
    sqrt_n = np.sqrt(np.arange(1, work_cutoff + 1))
    base_deltas = np.geomspace(0.08, 1.2, num=max(restarts, 1)) * radius
    starts = []
    for i in range(restarts):
        a0 = base_deltas[i] * np.exp(2j * np.pi * np.arange(r) / r)
        if i > 0:
            a0 = a0 + 0.3 * radius * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        starts.append(a0)
    if init_alphas is not None:
        starts.append(np.asarray(init_alphas, dtype=complex))

    def negative_fidelity(x):
        return -_projection_fit(x[:r] + 1j * x[r:], t)[0]

    best = None
    reports = []
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
        reports.append(RestartReport(nit=nit, converged=converged, fidelity=fid))
        key = sorted((a.real, a.imag) for a in alphas)
        if best is None or fid > best[0] or (fid == best[0] and key < best[1]):
            best = (fid, key, alphas, coeffs, reports[-1])

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
        restarts_used=len(starts),
        restarts=tuple(reports),
    )


def _coherent_overlap_sq(t: np.ndarray, alpha: complex) -> float:
    """|<t|alpha>|^2 against the exact (untruncated) coherent state."""
    amps = coherent_amplitudes(alpha, len(t) - 1)
    return float(abs(np.vdot(t, amps)) ** 2)


def best_single_coherent(target: FockVector):
    """Globally maximize |<target|alpha>|^2; returns (alpha, infidelity).

    A dense grid over the disk of radius max(4, 2 sqrt(mean Fock number)) is
    refined locally by Nelder-Mead.  A target with real, non-negative
    amplitudes t_k is searched on the real axis only (2001 points, Re alpha
    refined): |sum_k t_k alpha^k / sqrt(k!)| is at most the same sum at
    |alpha|, so the maximum lies on alpha >= 0.  Any other target, a real
    one with mixed signs included, is searched on a 121 x 121 grid clipped
    to the disk, with both parts of alpha refined.
    """
    t = _normalized_target(target)
    real_axis = bool(np.max(np.abs(t.imag)) < 1e-14 and np.min(t.real) >= 0)
    radius = max(4.0, 2.0 * math.sqrt(target.mean_fock_number()))
    if real_axis:
        points = np.linspace(-radius, radius, 2001).astype(complex)
    else:
        xs = np.linspace(-radius, radius, 121)
        x, y = np.meshgrid(xs, xs, indexing="ij")  # x outer, y inner once flattened
        points = (x + 1j * y)[x * x + y * y <= radius**2]
    # The grid scores |t^H B|^2 with B's columns built in blocks.  Squaring
    # hypot by pow rounds like the scalar abs(z) ** 2 of _coherent_overlap_sq
    # (numpy's array abs and square do not), so near-ties, such as the ring
    # of a Fock target on the complex grid, resolve to the same candidate.
    step = max(1, _GRID_BLOCK_ENTRIES // len(t))
    scores = np.empty(len(points))
    for lo in range(0, len(points), step):
        z = t.conj() @ coherent_columns(points[lo : lo + step], len(t) - 1)
        scores[lo : lo + step] = np.float_power(np.hypot(z.real, z.imag), 2.0)
    a0 = points[int(np.argmax(scores))]
    res = minimize(
        lambda x: -_coherent_overlap_sq(t, complex(*x)),
        [a0.real] if real_axis else [a0.real, a0.imag],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14},
    )
    alpha = complex(*res.x)
    return alpha, float(1.0 - min(1.0, _coherent_overlap_sq(t, alpha)))
