"""Explicit coherent-state decompositions and best-fit superpositions.

circle_decomposition places n+1 coherent states on a small circle
delta * omega^j (omega the (n+1)-th root of unity) and solves the linear
system that matches the target's first n+1 Fock amplitudes exactly; the
fidelity tends to 1 as delta shrinks.  fit_superposition maximizes fidelity
over r-term superpositions by variable projection: for a fixed displacement
vector the optimal coefficients are a linear least-squares solve, so only
the 2r real displacement parameters are searched (derivative-free, with
multi-start).
"""

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import minimize

from .errors import NumericalFailure
from .fock import (
    CoherentSuperposition,
    CoherentTerm,
    FockVector,
    _auto_coherent_cutoff,
    coherent_amplitudes,
    coherent_columns,
    fidelity,
    fock_state,
    superposition_to_fock,
)
from .multimode import MultimodeSuperposition

SMALL_DELTA_WARNING = 1e-3

# Most matrix entries one block of best_single_coherent's grid columns holds.
_GRID_BLOCK_ENTRIES = 1 << 12


@dataclass(frozen=True)
class FitResult:
    superposition: CoherentSuperposition
    fidelity_achieved: float
    iterations: int
    converged: bool
    restarts_used: int


def _superposition(coeffs, alphas) -> CoherentSuperposition:
    return CoherentSuperposition([CoherentTerm(c, a) for c, a in zip(coeffs, alphas)])


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
    if delta < SMALL_DELTA_WARNING:
        warnings.warn(
            f"circle decomposition at delta={delta:g} is severely ill conditioned",
            RuntimeWarning,
            stacklevel=3,
        )
    n = core.highest_occupied()
    if n < 0:
        raise ValueError("core state must have a nonzero amplitude")
    if n == 0:
        # a weight-0 core state is itself coherent; no circle needed
        return _superposition(core.amplitudes[:1], np.zeros(1)), 1.0, 0.0
    k = np.arange(n + 1)
    omega = np.exp(2j * np.pi / (n + 1))
    alphas = delta * omega**k
    row_scale = coherent_amplitudes(delta, n).real  # |delta>'s amplitudes are real
    # W[k, j] = omega^(j k); the raw matrix is diag(row_scale) @ W.
    W = omega ** np.outer(k, k)
    rhs = core.amplitudes[: n + 1] / row_scale
    try:
        coeffs = np.linalg.solve(W, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for distinct nodes, but guarded
        raise NumericalFailure("circle-decomposition solve is singular") from exc
    cond = float(row_scale.max() / row_scale.min())
    # relative residual of the equilibrated system; the raw amplitude match
    # loses ~cond * eps to cancellation, which is the caller's tradeoff in delta
    residual = float(np.linalg.norm(W @ coeffs - rhs) / np.linalg.norm(rhs))
    return _superposition(coeffs, alphas), cond, residual


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
    single = circle_decomposition(fock_state(1), delta).terms
    terms = []
    for combo in product(single, repeat=modes):
        c = 1.0 + 0j
        for t in combo:
            c *= t.c
        terms.append((c, np.array([t.alpha for t in combo])))
    return MultimodeSuperposition(terms)


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
    start.  The best restart wins; exact fidelity ties go to the
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
    rng = np.random.default_rng(seed)
    radius = max(0.5, math.sqrt(target.mean_fock_number()))

    # Work at a cutoff where every coherent state in the search region is
    # represented to machine precision; otherwise chopped columns fake
    # fidelity after renormalization.
    search_reach = 2.0 * radius + 2.0
    work_cutoff = max(target.cutoff, _auto_coherent_cutoff(search_reach, 1e-14))
    t = _normalized_target(target.padded(work_cutoff))
    base_deltas = np.geomspace(0.08, 1.2, num=max(restarts, 1)) * radius
    starts = []
    for i in range(restarts):
        a0 = base_deltas[i] * np.exp(2j * np.pi * np.arange(r) / r)
        if i > 0:
            a0 = a0 + 0.3 * radius * (rng.standard_normal(r) + 1j * rng.standard_normal(r))
        starts.append(a0)
    if init_alphas is not None:
        starts.append(np.asarray(init_alphas, dtype=complex))

    def objective(x):
        fid, _ = _projection_fit(x[:r] + 1j * x[r:], t)
        return -fid

    best = None
    for a0 in starts:
        x0 = np.concatenate([a0.real, a0.imag])
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": max_iters, "fatol": tol, "xatol": 1e-10},
        )
        alphas = res.x[:r] + 1j * res.x[r:]
        fid, coeffs = _projection_fit(alphas, t)
        key = sorted((a.real, a.imag) for a in alphas)
        if best is None or fid > best[0] or (fid == best[0] and key < best[1]):
            best = (fid, key, alphas, coeffs, res)

    _, _, alphas, coeffs, res = best
    sup = _superposition(coeffs, alphas)
    approx = superposition_to_fock(sup, cutoff=work_cutoff)
    achieved = fidelity(target.padded(work_cutoff), approx)
    return FitResult(
        superposition=sup,
        fidelity_achieved=achieved,
        iterations=int(res.nit),
        converged=bool(res.success),
        restarts_used=len(starts),
    )


def _coherent_overlap_sq(t: np.ndarray, alpha: complex) -> float:
    """|<t|alpha>|^2 against the exact (untruncated) coherent state."""
    amps = coherent_amplitudes(alpha, len(t) - 1)
    return float(abs(np.vdot(t, amps)) ** 2)


def best_single_coherent(target: FockVector, real_axis: bool | None = None):
    """Globally maximize |<target|alpha>|^2; returns (alpha, infidelity).

    A dense grid over the disk of radius max(4, 2 sqrt(mean Fock number)) is
    refined locally by Nelder-Mead.  Real-amplitude targets restrict the
    search to the real axis by symmetry (2001 points, Re alpha refined)
    unless ``real_axis=False``; otherwise the grid is 121 x 121 clipped to
    the disk and both parts of alpha are refined.
    """
    t = _normalized_target(target)
    if real_axis is None:
        real_axis = bool(np.max(np.abs(t.imag)) < 1e-14)
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
