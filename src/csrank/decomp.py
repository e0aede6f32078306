"""Explicit coherent-state decompositions and best-fit superpositions.

circle_decomposition places n+1 coherent states on a small circle
delta * omega^j (omega the (n+1)-th root of unity) and solves the linear
system that matches the target's first n+1 Fock amplitudes exactly; the
fidelity tends to 1 as delta shrinks.  best_single_coherent finds the global
maximum of |<target|alpha>|^2 by a Newton climb from the best points of a
coarse grid.  The grid's coherent columns depend on (plane or real axis,
radius, cutoff, block step) alone, never on the target, so a table of them up
to 2^16 entries is kept for the process and scored by the same products: a
later target's result is bit-identical to a fresh build.  fit_superposition
maximizes fidelity over r-term superpositions by variable projection: for a
fixed displacement vector the optimal coefficients are a linear least-squares
solve, so only the 2r real displacement parameters are searched.  At r = 1 that search is
best_single_coherent's climb.  At r >= 2 minimize climbs every restart at
once by safeguarded Newton steps on -log F, with F the projected fidelity of
a QR of the coherent columns, the exact variable-projection gradient (Golub &
Pereyra 1973; Kaufman 1975) and a central-difference Hessian of it; each step
builds the columns only to the rows its points reach.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure, ResourceLimit
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

# Poisson tail weight a fit leaves past its cutoffs: the working cutoff keeps
# every coherent state of the search disk to it, and each Newton step of
# minimize every point the step scores.
WORK_TAIL = 1e-14

# minimize's step lengths (longest first) and longest step, the offset of its
# Hessian probes, and two ratios to the largest Hessian eigenvalue magnitude:
# every magnitude is raised to at least FLAT_RATIO times it, and an eigenvalue
# below -SADDLE_RATIO times it marks a saddle.  A start stops once no gradient
# component exceeds GRAD_TOL.
LADDER = 0.5 ** np.arange(8)
MAX_STEP = 1.0
PROBE_STEP = 1e-5
FLAT_RATIO = 1e-10
SADDLE_RATIO = 1e-3
GRAD_TOL = 1e-12

# Most matrix entries one block of best_single_coherent's grid columns holds.
# OpenBLAS runs a complex matrix-vector product of 4096 entries or more on its
# worker threads, which then spin and slow every later numpy call of the
# process; one entry fewer keeps each block's product on the calling thread.
_GRID_BLOCK_ENTRIES = (1 << 12) - 1

# Most matrix entries of one grid table kept for the process (1 MiB of
# complex), and the most points each grid holds: 201 on the real axis, and on
# the plane the 1257 points (i, j) of the 41 x 41 grid with i^2 + j^2 <= 20^2
# (rounding can only drop those on the circle).  The plane table is kept up to
# cutoff 51 and the real axis up to cutoff 325; a larger grid's blocks are
# built on every call, one at a time.
_GRID_TABLE_ENTRIES = 1 << 16
_GRID_POINTS = {True: 1257, False: 201}

# Machine epsilon, read once: np.finfo is a lookup on every call.
_EPS = np.finfo(float).eps

# Caps on fit_superposition, checked before anything is allocated (exit 4
# beyond): at most MAX_RESTARTS starts, and at r >= 2 at most MAX_STEP_ENTRIES
# coherent-column entries in one Newton step's stacked call, (4r + 1) points per
# start, r columns and at most working cutoff + 1 rows each (128 MiB of complex).
MAX_RESTARTS = 1024
MAX_STEP_ENTRIES = 1 << 23

# Most nodes of a circle decomposition, whose system holds nodes^2 entries (16 MiB
# of complex at the cap); checked before the system is built (exit 4 beyond).
MAX_CIRCLE_NODES = 1024

# Grid points best_single_coherent climbs from (the fewest an r = 1 fit
# climbs), and the cap on each start's Newton steps.
CANDIDATES = 4
MAX_ASCENT_STEPS = 50


@dataclass(frozen=True)
class RestartReport:
    """How one start of fit_superposition ended: the Newton steps it kept,
    whether it converged (stopped before its step cap: at r >= 2 because no
    step lowered -log F or its gradient fell to GRAD_TOL, at r = 1 because it
    stopped rising), and the projection-fit fidelity of its displacements at
    the working cutoff."""

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
    if n >= MAX_CIRCLE_NODES:
        raise ResourceLimit(f"a circle decomposition takes at most {MAX_CIRCLE_NODES} nodes, "
                            f"got {n + 1} for highest occupation {n}")
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
    # W[k, j] = omega^(j k); the raw matrix is diag(row_scale) @ W.
    W = omega ** np.outer(k, k)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        row_scale = coherent_amplitudes(delta, n).real  # |delta>'s amplitudes are real
        rhs = core.amplitudes[: n + 1] / row_scale
        rhs_norm = np.linalg.norm(rhs)
    if not np.isfinite(rhs_norm):  # the coefficients are as large as rhs
        raise ValueError(f"delta={delta:g} puts the circle coefficients past the double "
                         "range: they scale as sqrt(k!) e^(delta^2/2) / delta^k")
    if rhs_norm == 0:  # |rhs| >= |target|, so the target's squares underflow too
        raise ValueError("target has zero norm")
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
        raise ValueError(f"the cutoff drops more than 1e-6 of the state's norm (kept {norm:.6g})")
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


def _qr_fits(x: np.ndarray, t: np.ndarray):
    """The projected fidelity F = ||Q^H t||^2 at each row of x = (Re alpha,
    Im alpha), from one stacked QR of the coherent columns B on len(t) rows.

    A point whose R has a diagonal entry within lstsq's rcond of the largest
    (coinciding displacements) takes lstsq's rank-revealing fit instead, F then
    ||B c||^2.  Returns B (points, len(t), r), Q, R, q = Q^H t, F, and lstsq's
    c for each such point by index.
    """
    points, r = len(x), x.shape[1] // 2
    B = coherent_columns(x[:, :r] + 1j * x[:, r:], len(t) - 1)
    B = B.reshape(len(t), points, r).transpose(1, 0, 2)  # qr copies it anyway
    Q, R = np.linalg.qr(B)
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
    full = (diag > diag.max(axis=1, keepdims=True) * len(t) * _EPS).all(axis=1)
    q = (t.conj() @ Q).conj()
    fid = (q.real**2 + q.imag**2).sum(axis=1)
    singular = {}
    if not full.all():
        singular = {i: np.linalg.lstsq(B[i], t, rcond=None)[0] for i in np.flatnonzero(~full)}
        for i, c in singular.items():
            fit = B[i] @ c
            fid[i] = np.vdot(fit, fit).real
    return B, Q, R, q, fid, singular


def _log_fidelity_value(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """-log F alone at each row of x, as _log_fidelity gives it bit for bit."""
    return -np.log(_qr_fits(x, t)[4])


def _log_fidelity(x: np.ndarray, t: np.ndarray):
    """-log F and its gradient at each row of x = (Re alpha, Im alpha), with F
    the projected fidelity of _qr_fits on the len(t) rows of t.

    At the least-squares c the derivative through c vanishes (variable
    projection), so d(1 - F)/dRe alpha_k = -2 Re(c_k res^H db_k/dRe alpha_k)
    with db_{k,n}/dRe alpha_k = -Re(alpha_k) b_{k,n} + sqrt(n) b_{k,n-1}, and
    the same for Im alpha_k with i sqrt(n); divided by F it is the gradient of
    -log F, exact for the truncated columns too.
    """
    B, Q, R, q, fid, singular = _qr_fits(x, t)
    points, r = B.shape[0], B.shape[2]
    if singular:
        R[list(singular)] = np.eye(r)  # those points take lstsq's c below
    c = np.linalg.solve(R, q[:, :, None])[:, :, 0]
    fit = (Q @ q[:, :, None])[:, :, 0]
    for i, ci in singular.items():
        c[i], fit[i] = ci, B[i] @ ci
    res = t - fit
    # rows res^H and (sqrt(n) res_n)^H shifted by one, against the columns
    rows = np.zeros((points, 2, len(t)), dtype=complex)
    rows[:, 0] = res.conj()
    rows[:, 1, :-1] = res[:, 1:].conj() * _sqrt_levels(len(t))
    res_b, res_shift = (rows @ np.ascontiguousarray(B)).transpose(1, 0, 2)
    grad_re = -2.0 * (c * (res_shift - x[:, :r] * res_b)).real
    grad_im = -2.0 * (c * (1j * res_shift - x[:, r:] * res_b)).real
    return -np.log(fid), np.concatenate([grad_re, grad_im], axis=1) / fid[:, None]


@functools.lru_cache(maxsize=256)
def _sqrt_levels(rows: int) -> np.ndarray:
    """sqrt(n) for n = 1 .. rows - 1, shared by every step on that many rows."""
    levels = np.sqrt(np.arange(1, rows))
    levels.flags.writeable = False
    return levels


@functools.lru_cache(maxsize=256)
def _reach_cutoff(reach: float) -> int:
    """The cutoff that keeps every coherent state |alpha| <= reach to WORK_TAIL."""
    return coherent_cutoff(reach, WORK_TAIL)


def _step_cutoff(x: np.ndarray, cutoff: int, reach: float) -> int:
    """The cutoff a Newton step from the starts x scores on: at least
    ``cutoff``, and that of the disk of radius R + MAX_STEP, R the largest
    |alpha| in x rounded up to 1/8, which holds every point the step scores,
    but never past the disk of radius ``reach``."""
    r = x.shape[1] // 2
    radius = float(np.ceil(8.0 * np.hypot(x[:, :r], x[:, r:]).max()) / 8.0) + MAX_STEP
    return max(cutoff, _reach_cutoff(min(radius, reach)))


class Climb(NamedTuple):
    """minimize's end points (one row of x per start), the Newton steps each
    start kept, whether each stopped before max_iters, and the points scored.
    nit and success total them over the starts, under the names of scipy's
    OptimizeResult that the benchmark's tracer reads."""

    x: np.ndarray
    steps: np.ndarray
    stopped: np.ndarray
    nfev: int
    nit: int
    success: bool


def minimize(t: np.ndarray, x0: np.ndarray, max_iters: int, reach: float) -> Climb:
    """Minimize -log F from every row of x0 at once by safeguarded Newton steps.

    t is the normalized target on its own rows; each step scores on the rows
    of _step_cutoff, which reach every point the step scores but stop at the
    disk of radius ``reach``, with t padded by zeros.  Each step makes two
    stacked calls on those rows.  The first, _log_fidelity, scores every
    active start and the 2n central-difference probes of its Hessian.  Where
    the Hessian has an eigenvalue below -SADDLE_RATIO times its largest
    magnitude, the step is MAX_STEP down that eigenvector, which moves
    symmetric starts off their saddle; elsewhere, and after such a push did
    not lower the objective, it is Newton's step with every eigenvalue
    replaced by its magnitude (at least FLAT_RATIO times the largest), cut to
    MAX_STEP.  The second, _log_fidelity_value, scores x + s p for each s in
    LADDER, values only.  A start keeps its lowest trial only if the objective
    falls below its value at x, so every comparison is of values on the same
    rows; it stops when none does, when its largest gradient component is at
    most GRAD_TOL, or after max_iters steps.
    """
    n = x0.shape[1]
    offsets = np.concatenate([np.zeros((1, n)), PROBE_STEP * np.eye(n), -PROBE_STEP * np.eye(n)])
    x, steps = x0.copy(), np.zeros(len(x0), dtype=int)
    stopped = np.zeros(len(x0), dtype=bool)
    no_push = np.zeros(len(x0), dtype=bool)  # set after a push that did not lower
    active, nfev = np.arange(len(x0)), 0
    with np.errstate(all="ignore"):
        while len(active):
            each, xa = np.arange(len(active)), x[active]
            padded = np.zeros(_step_cutoff(xa, len(t) - 1, reach) + 1, dtype=complex)
            padded[: len(t)] = t
            here = xa[:, None, :] + offsets
            phi, grad = _log_fidelity(here.reshape(-1, n), padded)
            f, grad = phi[:: 2 * n + 1], grad.reshape(here.shape)
            flat = np.abs(grad[:, 0]).max(axis=1) <= GRAD_TOL  # False at a NaN gradient
            grad = np.where(np.isfinite(grad), grad, 0.0)
            hess = (grad[:, 1 : n + 1] - grad[:, n + 1 :]) / (2.0 * PROBE_STEP)
            lam, vec = np.linalg.eigh(0.5 * (hess + hess.transpose(0, 2, 1)))
            scale = np.abs(lam).max(axis=1, keepdims=True)
            gv = (vec * grad[:, :1].transpose(0, 2, 1)).sum(axis=1)  # g in the eigenbasis
            curvature = np.maximum(np.abs(lam), FLAT_RATIO * scale + 1e-300)
            p = -(vec * (gv / curvature)[:, None, :]).sum(axis=2)
            p *= np.minimum(1.0, MAX_STEP / np.sqrt(np.add.reduce(p * p, axis=1)))[:, None]
            pushed = (lam[:, 0] < -SADDLE_RATIO * scale[:, 0]) & ~no_push[active]
            down = np.where(gv[:, :1] > 0, -MAX_STEP, MAX_STEP) * vec[:, :, 0]
            p = np.where(pushed[:, None], down, p)
            trials = xa[:, None, :] + LADDER[:, None] * p[:, None, :]
            tried = _log_fidelity_value(trials.reshape(-1, n), padded).reshape(trials.shape[:2])
            nfev += len(phi) + tried.size
            tried = np.where(np.isnan(tried), np.inf, tried)
            pick = np.argmin(tried, axis=1)
            better = (tried[each, pick] < f) & ~flat
            x[active] = np.where(better[:, None], trials[each, pick], xa)
            steps[active] += better
            stopped[active] = ~better & ~pushed
            no_push[active] = ~better & pushed
            active = active[~stopped[active] & (steps[active] < max_iters)]
    return Climb(x, steps, stopped, nfev, int(steps.sum()), bool(stopped.all()))


def fit_superposition(target: FockVector, r: int, restarts: int, seed: int | None,
                      max_iters: int, init_alphas=None) -> FitResult:
    """Maximize fidelity with an r-term coherent superposition.

    ``init_alphas``, if given, is one more start: exactly r finite
    displacements.  At r = 1 the fit is best_single_coherent's global search:
    the max(restarts, CANDIDATES) best points of its grid (none at
    ``restarts=0``) and the warm start climb by at most
    min(max_iters, MAX_ASCENT_STEPS) Newton steps each, and ``seed`` is not
    used.  A start's ``nit`` counts the steps it took while it rose; it
    converged if it stopped rising before that cap.

    At r >= 2, restart 0 starts from displacements on a small circle (the
    explicit-decomposition ansatz); later restarts perturb circle starts of
    varying radius with Gaussian noise from default_rng(seed).  The restarts
    and the warm start climb together by minimize's safeguarded Newton steps
    on -log F, handed the target on its own rows: each step scores on the
    rows its displacements reach, at most the working cutoff.  A start's
    ``nit`` counts the steps it kept; it stops, converged, when no step lowers
    -log F or the largest component of its gradient is at most GRAD_TOL, and
    unconverged after ``max_iters`` steps.

    The working cutoff keeps every coherent state of the search disk,
    |alpha| <= 2 max(0.5, sqrt(mean Fock number)) + 2, to WORK_TAIL, and sets
    the reported fidelities alone: each start's fidelity is the projection
    fit of its displacements there.  The best start wins; exact fidelity ties
    go to the lexicographically smaller displacement tuple so reruns are
    stable.

    Raises ResourceLimit, before anything is allocated, past MAX_RESTARTS
    restarts, past r = working cutoff + 1 (that many coherent states already
    span the working space) and at r >= 2 past MAX_STEP_ENTRIES entries in
    one Newton step.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if restarts < 1 and init_alphas is None:
        raise ValueError("need at least one restart or an explicit warm start")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    warm = []
    if init_alphas is not None:
        warm = [np.asarray(init_alphas, dtype=complex)]
        if warm[0].shape != (r,) or not np.isfinite(warm[0]).all():
            raise ValueError(f"init_alphas must be exactly r={r} finite displacements")
    if restarts > MAX_RESTARTS:
        raise ResourceLimit(f"a fit runs at most {MAX_RESTARTS} restarts, got {restarts}")
    radius = max(0.5, math.sqrt(target.mean_fock_number()))

    # Work at a cutoff where every coherent state in the search region is
    # represented to machine precision; otherwise chopped columns fake
    # fidelity after renormalization.
    search_reach = 2.0 * radius + 2.0
    work_cutoff = max(target.cutoff, _reach_cutoff(search_reach))
    if r > work_cutoff + 1:  # that many coherent states span the working space
        raise ResourceLimit(f"a fit at working cutoff {work_cutoff} takes at most "
                            f"{work_cutoff + 1} terms, got r = {r}")
    entries = (restarts + len(warm)) * (4 * r + 1) * r * (work_cutoff + 1)
    if r > 1 and entries > MAX_STEP_ENTRIES:
        raise ResourceLimit(f"a fit step at r = {r} with {restarts + len(warm)} starts builds "
                            f"{entries} coherent-column entries, more than MAX_STEP_ENTRIES "
                            f"= {MAX_STEP_ENTRIES}")
    t = _normalized_target(target.padded(work_cutoff))
    if r == 1:
        count = max(restarts, CANDIDATES) if restarts > 0 else 0
        _, ends, nits, stopped = _climb_from_grid(target, count, [a[0] for a in warm],
                                                  min(max_iters, MAX_ASCENT_STEPS))
        ends = ends[:, None]
    else:
        rng = np.random.default_rng(seed)
        base_deltas = np.geomspace(0.08, 1.2, num=max(restarts, 1)) * radius
        starts = base_deltas[:restarts, None] * np.exp(2j * np.pi * np.arange(r) / r)
        noise = rng.standard_normal((max(restarts - 1, 0), 2, r))  # each row: re, then im
        starts[1:] += 0.3 * radius * (noise[:, 0] + 1j * noise[:, 1])
        starts = np.vstack([starts, *warm])
        x0 = np.concatenate([starts.real, starts.imag], axis=1)
        climb = minimize(t[: target.cutoff + 1], x0, max_iters, search_reach)
        ends, nits, stopped = climb.x[:, :r] + 1j * climb.x[:, r:], climb.steps, climb.stopped

    best = None
    reports = []
    for alphas, nit, converged in zip(ends, nits.tolist(), stopped.tolist()):
        fid, coeffs = _projection_fit(alphas, t)
        reports.append(RestartReport(nit, converged, fid))
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


def _grid_points(plane: bool, radius: float) -> np.ndarray:
    """The coarse grid over the disk of that radius: the 41 x 41 square grid
    clipped to the disk (x outer, y inner), or 201 points on the real axis."""
    if plane:
        xs = np.linspace(-radius, radius, 41)
        x, y = np.meshgrid(xs, xs, indexing="ij")  # x outer, y inner once flattened
        return (x + 1j * y)[x * x + y * y <= radius**2]
    return np.linspace(-radius, radius, 201).astype(complex)


def _grid_blocks(points: np.ndarray, cutoff: int, step: int):
    """The coherent columns of points on cutoff + 1 rows, step points a block,
    each built when it is read."""
    return (coherent_columns(points[lo : lo + step], cutoff) for lo in range(0, len(points), step))


@functools.lru_cache(maxsize=16)
def _grid_table(plane: bool, radius: float, cutoff: int, step: int):
    """_grid_points and every block of _grid_blocks, read-only and kept for
    the process: they depend on the key alone, never on the target."""
    points = _grid_points(plane, radius)
    blocks = tuple(_grid_blocks(points, cutoff, step))
    for array in (points, *blocks):
        array.flags.writeable = False
    return points, blocks


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
    # The grid scores |t^H B|^2 with B's columns built in blocks, kept for the
    # process where the table fits its budget.  Squaring hypot by pow rounds
    # like the scalar abs(z) ** 2 of _coherent_overlap_sq (numpy's array abs
    # and square do not); the ascent scores the same way.
    step = max(1, _GRID_BLOCK_ENTRIES // len(t))
    if _GRID_POINTS[plane] * len(t) <= _GRID_TABLE_ENTRIES:
        points, blocks = _grid_table(plane, radius, cutoff, step)
    else:
        points = _grid_points(plane, radius)
        blocks = _grid_blocks(points, cutoff, step)
    scores = np.empty(len(points))
    tc = t.conj()
    for lo, block in zip(range(0, len(points), step), blocks):
        z = tc @ block
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
