"""Rescaled Hankel matrices of Fock amplitudes and singular-value bounds.

The (N+1)x(N+1) matrix H has entries b^{i+j} sqrt((i+j)!) psi_{i+j}.  Its
singular-value tail past index r gives a certified infidelity threshold:
any eps below

    plain:      sum_{l>r} sigma_l^2 / (2 (N+1) (2N)!)          (b = 1)
    optimized:  sum_{l>r} sigma_l^2 / (2 max_n m_n b^{2n} n!)   (any b > 0)

implies the state is not eps-approximable by r coherent states.  Here
m_n = n+1 for n <= N and 2N-n+1 for N < n <= 2N counts the (i, j) pairs
with i+j = n.  Factorials and b powers are handled in the log domain: the
matrix is stored with a global scale factored out (scale_exponent) and the
bound values are re-exponentiated only at the end.  Every matrix comes from
``_spectra`` out of the b-independent ``_Plan`` of its (state, N), built once
per search and N, and every bound from ``_threshold``.

The optimized bound is searched on a log-b grid per N, then refined where
its optimum usually sits: on a kink of the piecewise-monomial denominator
max_n m_n b^{2n} n! (``_kinks``), all kinks of an N scored in one stacked
call; a bracket that no kink settles falls back to golden-section.
"""

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimit
from .fock import FockVector, log_factorials

DEFAULT_RANK_TOL = 1e-10

# Largest number of complex matrix entries (16 MB) one stacked SVD call holds.
_BLOCK_ENTRIES = 1 << 20

# Most b values a search grid may hold (8 MB of grid); larger grids exit 4.
MAX_GRID_POINTS = 10**6

# Largest N whose (N+1)x(N+1) matrix fits in one SVD block; larger N exit 4.
MAX_HANKEL_N = math.isqrt(_BLOCK_ENTRIES) - 1


def check_hankel_size(N: int) -> None:
    """ResourceLimit for an N past MAX_HANKEL_N, before anything is allocated."""
    if N > MAX_HANKEL_N:
        raise ResourceLimit(
            f"N={N} exceeds {MAX_HANKEL_N}, the largest Hankel matrix one SVD block holds"
        )


@dataclass(frozen=True)
class HankelBundle:
    """A rescaled Hankel matrix with its singular values.

    ``matrix`` holds the entries divided by e^{scale_exponent};
    ``singular_values`` belong to the stored (scaled) matrix, so the true
    singular values are singular_values * e^{scale_exponent}.
    """

    matrix: np.ndarray
    N: int
    b: float
    singular_values: np.ndarray
    scale_exponent: float


class SearchConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    """Search space for the optimized bound.

    ``b_grid`` is (b_min, b_max, points) spanned logarithmically; b = 1 is
    always inserted so the optimized bound dominates the plain one at every
    searched N; more than MAX_GRID_POINTS points raise ResourceLimit.
    ``N_max=None`` resolves to min(20, cutoff // 2) per state.
    """

    N_max: int | None = None
    b_grid: tuple = (1e-3, 10.0, 200)

    def __post_init__(self):
        b_min, b_max, points = self.b_grid
        if not (0 < b_min < b_max):
            raise SearchConfigError("b grid must satisfy 0 < b_min < b_max")
        if points < 2:
            raise SearchConfigError("b grid needs at least 2 points")
        if points > MAX_GRID_POINTS:
            raise ResourceLimit(f"b grid of {points} points exceeds {MAX_GRID_POINTS}")

    def resolve_n_max(self, cutoff: int) -> int:
        n_max = min(20, cutoff // 2) if self.N_max is None else self.N_max
        if 2 * n_max > cutoff:
            raise ValueError(f"cutoff {cutoff} too small for N_max {n_max}")
        check_hankel_size(n_max)
        return n_max

    def b_values(self) -> np.ndarray:
        b_min, b_max, points = self.b_grid
        grid = np.geomspace(b_min, b_max, int(points))
        if b_min <= 1.0 <= b_max:
            grid = np.unique(np.concatenate([grid, [1.0]]))
        return grid


class OptimizedBound(NamedTuple):
    value: float
    b_star: float
    N_star: int


def _log_b(b) -> np.ndarray:
    """math.log of each rescaling b, all of which must be positive and finite."""
    if not all(0 < x < math.inf for x in b):
        raise ValueError("rescaling b must be positive and finite")
    return np.fromiter(map(math.log, b), float, len(b))


class _Plan:
    """The b-independent parts of H_{N,b}(psi) and of its bound's denominator,
    built once per (state, N) so that every b of a search reuses them."""

    def __init__(self, psi: FockVector, N: int):
        if not 0 <= 2 * N <= psi.cutoff:
            raise ValueError(f"need 0 <= 2N <= cutoff, got N={N}, cutoff {psi.cutoff}")
        check_hankel_size(N)
        amps = psi.amplitudes[: 2 * N + 1]
        k = np.arange(2 * N + 1)
        self.N = N
        self.lgam = log_factorials(2 * N)
        self.n = np.flatnonzero(amps)  # zero amplitudes stay exact zeros
        self.half_lgam = 0.5 * self.lgam[self.n]
        self.log_mags = np.log(np.abs(amps[self.n]))
        self.phases = psi.phases[self.n]
        self.index = np.add.outer(np.arange(N + 1), np.arange(N + 1))
        self.log_m = np.log(np.where(k <= N, k + 1, 2 * N - k + 1))  # anti-diagonal sizes
        self.two_k = 2 * k


def _spectra(plan: _Plan, log_b: np.ndarray):
    """(B, N+1, N+1) scaled matrices H_{N,b}(psi), their singular values from one
    stacked SVD call and the (B,) log scales, for the B values of ``log_b``."""
    log_entry = plan.n * log_b[:, None] + plan.half_lgam + plan.log_mags
    scale = log_entry.max(axis=1) if len(plan.n) else np.zeros(len(log_b))
    vals = np.zeros((len(log_b), 2 * plan.N + 1), dtype=complex)
    vals[:, plan.n] = np.exp(log_entry - scale[:, None]) * plan.phases

    matrices = vals[:, plan.index]
    return matrices, np.linalg.svd(matrices, compute_uv=False), scale


def hankel_matrix(psi: FockVector, N: int, b: float = 1.0) -> HankelBundle:
    """Build H_{N,b}(psi) and its singular values (the one-b view of _spectra)."""
    matrices, sigma, scale = _spectra(_Plan(psi, N), _log_b([b]))
    return HankelBundle(matrices[0], N, float(b), sigma[0], float(scale[0]))


def numerical_rank(bundle: HankelBundle, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol * sigma_1 (0 for a zero matrix)."""
    if not (0 < rel_tol < 1):
        raise ValueError("rel_tol must lie in (0, 1)")
    s = bundle.singular_values
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def _log_weight_max(plan: _Plan, log_b: np.ndarray) -> np.ndarray:
    """log max_{n=0..2N} m_n b^{2n} n! for each log b, m_n the anti-diagonal multiplicity."""
    return (plan.log_m + plan.two_k * log_b[:, None] + plan.lgam).max(axis=1)


def _blocks(plan: _Plan, log_b: np.ndarray, log_den):
    """(first index, singular values, log scales, log denominators) of ``log_b``
    in consecutive blocks of at most _BLOCK_ENTRIES matrix entries;
    ``log_den=None`` takes each b's rescaled log 2 max_n m_n b^{2n} n!."""
    step = max(1, _BLOCK_ENTRIES // (plan.N + 1) ** 2)
    for lo in range(0, len(log_b), step):
        part = log_b[lo : lo + step]
        _, sigma, scale = _spectra(plan, part)
        den = (np.full(len(part), log_den) if log_den is not None
               else math.log(2.0) + _log_weight_max(plan, part))
        yield lo, sigma, scale, den


def _threshold(tail: float, scale: float, log_den: float) -> float:
    """tail / e^{log_den} for a squared tail of the matrix stored at e^{-scale}, 0 if empty."""
    return math.exp(math.log(tail) + 2.0 * scale - log_den) if tail > 0.0 else 0.0


def _block_best(tails: np.ndarray, scale: np.ndarray, den: np.ndarray) -> tuple:
    """(threshold, index) of the largest ``_threshold`` over one block, the first
    index on ties.  The points are ranked by their log threshold in numpy,
    whose log may differ from math.log by an ulp, so only the points within
    that rounding of the top are scored by ``_threshold`` itself."""
    with np.errstate(divide="ignore"):
        log_tail = np.log(tails)
    if log_tail.max() == -math.inf:  # every tail is empty: every threshold is 0
        return 0.0, 0
    rank = log_tail + 2.0 * scale - den
    # three roundings at the largest magnitude involved, with room to spare
    size = np.where(tails > 0.0, np.abs(log_tail), 0.0) + 2.0 * np.abs(scale) + np.abs(den)
    slack = 1e-12 + 1e-14 * float(size.max())

    def scored(points):  # the first of the points' largest thresholds
        values = [_threshold(float(tails[i]), float(scale[i]), float(den[i])) for i in points]
        best = max(values)
        return best, int(points[values.index(best)])

    best, i = scored(np.flatnonzero(rank >= rank.max() - slack))
    if best < sys.float_info.min:  # subnormal or 0: exp ties span more than the slack
        best, i = scored(range(len(tails)))
    return best, i


def _grid_best(plan: _Plan, log_b: np.ndarray, rs) -> list:
    """[(threshold, index)] of the largest sum_{l>r} sigma_l^2 / (2 max_n m_n
    b^{2n} n!) over ``log_b`` for each r in ``rs``, the first index on ties.
    Each block's singular values serve every r, and only a running best per
    r outlives its block."""
    best = [(-1.0, 0)] * len(rs)
    for lo, sigma, scale, den in _blocks(plan, log_b, None):
        for k, r in enumerate(rs):
            value, i = _block_best((sigma[:, r:] ** 2).sum(axis=1), scale, den)
            if value > best[k][0]:
                best[k] = (value, lo + i)
    return best


def _point_thresholds(plan: _Plan, log_b: np.ndarray, rs, log_den=None) -> list:
    """The threshold of r = rs[k] at log_b[k] for each k: one stacked SVD for
    all the points, and only the tail each point is asked for."""
    if not 0 <= min(rs) <= max(rs) <= plan.N:
        raise ValueError(f"need 0 <= r <= N, got r in [{min(rs)}, {max(rs)}], N={plan.N}")
    out = []
    for lo, sigma, scale, den in _blocks(plan, log_b, log_den):
        for i, (s, d) in enumerate(zip(scale.tolist(), den.tolist())):
            out.append(_threshold(float((sigma[i, rs[lo + i] :] ** 2).sum()), s, d))
    return out


def plain_bound(psi: FockVector, r: int, N: int) -> float:
    """Certified eps threshold sum_{l>r} sigma_l(H_N)^2 / (2 (N+1) (2N)!)."""
    plan = _Plan(psi, N)  # checks N before the log below reads it
    log_den = math.log(2.0) + math.log(N + 1) + float(plan.lgam[2 * N])
    return _point_thresholds(plan, np.zeros(1), [r], log_den)[0]


def rescaled_bound(psi: FockVector, r: int, N: int, b: float) -> float:
    """The optimized-bound objective at one fixed (N, b)."""
    return _point_thresholds(_Plan(psi, N), _log_b([b]), [r])[0]


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 40  # golden-section steps refining a bracket no kink settles
_PROBE = 1e-6  # a kink's probes sit this fraction of its bracket's width away


def _kinks(plan: _Plan) -> list:
    """The log b at which the largest term of max_k m_k b^{2k} k! changes, in
    increasing order: the breakpoints of the upper envelope of the lines
    log m_k + log k! + 2k x, x = log b."""
    c = (plan.log_m + plan.lgam).tolist()

    def meet(i, j):  # where lines i < j cross
        return (c[i] - c[j]) / (2 * (j - i))

    hull = []  # the envelope's lines by increasing slope
    for k in range(len(c)):
        # hull[-1] is never on top once line k overtakes hull[-2] before it does
        while len(hull) >= 2 and meet(hull[-2], k) <= meet(hull[-2], hull[-1]):
            hull.pop()
        hull.append(k)
    return [meet(i, j) for i, j in zip(hull, hull[1:])]


def _golden_max(f, lo: list, hi: list, iters: int) -> list:
    """(x, f(x)) maximizing a unimodal-ish scalar function on each bracket
    [lo[k], hi[k]] by golden-section in lockstep: each bracket takes exactly
    the steps of a scalar search, and ``f`` maps one point per bracket to
    their values, so a step is one call."""
    a, b = list(lo), list(hi)
    c = [y - _INVPHI * (y - x) for x, y in zip(a, b)]
    d = [x + _INVPHI * (y - x) for x, y in zip(a, b)]
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = [u >= v for u, v in zip(fc, fd)]
        for k, go_left in enumerate(left):
            if go_left:
                b[k], d[k], fd[k] = d[k], c[k], fc[k]
                c[k] = b[k] - _INVPHI * (b[k] - a[k])
            else:
                a[k], c[k], fc[k] = c[k], d[k], fd[k]
                d[k] = a[k] + _INVPHI * (b[k] - a[k])
        for k, value in enumerate(f([c[k] if go else d[k] for k, go in enumerate(left)])):
            (fc if left[k] else fd)[k] = value
    return [(x, u) if u >= v else (y, v) for x, y, u, v in zip(c, d, fc, fd)]


def _refine(plan: _Plan, rs: list, lo: list, hi: list) -> list:
    """(log b, threshold) of a local maximum of r = rs[k] on each bracket
    [lo[k], hi[k]]: the bracket's best kink of the denominator if it is at
    least its two probes, else golden-section.  Every kink and probe of every
    bracket is scored in one stacked call; the brackets no kink settles then
    run golden-section in lockstep."""

    def score(xs, brackets):  # point j at b = exp(xs[j]) for r = rs[brackets[j]]
        return _point_thresholds(plan, _log_b([*map(math.exp, xs)]), [rs[k] for k in brackets])

    kinks = _kinks(plan)
    points, owner = [], []  # each kink of a bracket, then its two probes
    for k, (a, b) in enumerate(zip(lo, hi)):
        h = _PROBE * (b - a)
        for x in kinks:
            if a <= x <= b:
                points += [x, x - h, x + h]
                owner += [k] * 3
    values = score(points, owner) if points else []
    top = {}  # the first of each bracket's best kinks
    for j in range(0, len(points), 3):
        if owner[j] not in top or values[j] > values[top[owner[j]]]:
            top[owner[j]] = j
    out = {k: (points[j], values[j]) for k, j in top.items()
           if values[j] >= max(values[j + 1], values[j + 2])}
    rest = [k for k in range(len(rs)) if k not in out]
    if rest:
        golden = _golden_max(lambda xs: score(xs, rest), [lo[k] for k in rest],
                             [hi[k] for k in rest], _REFINE_ITERS)
        out.update(zip(rest, golden))
    return [out[k] for k in range(len(rs))]


def optimized_bounds(psi: FockVector, rs, cfg: SearchConfig | None = None) -> dict:
    """{r: OptimizedBound} maximizing the rescaled bound over (b, N), for r in ``rs``.

    The N search is exhaustive on [max(r, 1), N_max]; for each N the b
    search walks the logarithmic grid and refines the two cells around the
    best grid point.  The denominator max_n m_n b^{2n} n! is piecewise
    monomial in b, and the optimum usually sits on one of its kinks, so the
    refinement takes the best kink inside that bracket if it is at least its
    two probes beside it; a bracket with no such kink is refined by
    golden-section (the objective is continuous but only piecewise smooth in
    b, so that search is derivative-free).  A bracket whose grid best is
    exactly 0 is not refined: H_{N,b} = B H_{N,1} B with B = diag(b^i)
    invertible, so its tail is 0 at every b.  Ties are broken toward smaller
    N, then smaller b.  One grid pass per N serves every r <= N, one stacked
    call scores every kink, and the golden-section refinements run in
    lockstep, one stacked call a step.

    The returned threshold keeps the global factor 1/2 inherited from the
    fidelity-to-distance relation.  Closed-form shortcuts for Fock states
    sometimes drop that factor and report a threshold twice as large; the
    conservative value is certified here.
    """
    if cfg is None:
        cfg = SearchConfig()
    rs = sorted(set(rs))
    if not rs:
        return {}
    if rs[0] < 0:
        raise ValueError("r must be non-negative")
    n_max = cfg.resolve_n_max(psi.cutoff)
    if max(rs[-1], 1) > n_max:
        raise ValueError(f"r={rs[-1]} exceeds the largest searchable N={n_max}")

    log_grid = np.log(cfg.b_values())
    log_b_grid = _log_b([*map(math.exp, log_grid)])  # the b the grid pass scores
    best = {r: OptimizedBound(0.0, 1.0, max(r, 1)) for r in rs}
    for N in range(max(rs[0], 1), n_max + 1):
        plan = _Plan(psi, N)
        live = [r for r in rs if r <= N]
        on_grid = _grid_best(plan, log_b_grid, live)
        todo = [k for k, (val, _) in enumerate(on_grid) if val > 0.0]
        top = np.array([on_grid[k][1] for k in todo], dtype=int)
        lo = log_grid[np.maximum(top - 1, 0)].tolist()
        hi = log_grid[np.minimum(top + 1, len(log_grid) - 1)].tolist()
        refined = dict(zip(todo, _refine(plan, [live[k] for k in todo], lo, hi)))
        for k, (r, (grid_val, i)) in enumerate(zip(live, on_grid)):
            log_b_star, val = refined.get(k, (log_grid[i], grid_val))
            if grid_val > val:
                log_b_star, val = log_grid[i], grid_val
            b_star, old = math.exp(log_b_star), best[r]
            if val > old.value or (val == old.value and (N, b_star) < (old.N_star, old.b_star)):
                best[r] = OptimizedBound(float(val), float(b_star), N)
    return best


def optimized_bound(psi: FockVector, r: int, cfg: SearchConfig | None = None) -> OptimizedBound:
    """The optimized bound at one r (the one-r view of optimized_bounds)."""
    return optimized_bounds(psi, [r], cfg)[r]
