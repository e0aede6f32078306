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
``_spectra`` and every bound from ``_thresholds``, both over arrays of b.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import ResourceLimit
from .fock import FockVector

DEFAULT_RANK_TOL = 1e-10

# Largest number of complex matrix entries (16 MB) one stacked SVD call holds.
_BLOCK_ENTRIES = 1 << 20

# Most b values a search grid may hold (8 MB of grid); larger grids exit 4.
MAX_GRID_POINTS = 10**6


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

    N_min: int = 1
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
        if self.N_max is not None and self.N_min > self.N_max:
            raise SearchConfigError("N_min must not exceed N_max")

    def resolve_n_max(self, cutoff: int) -> int:
        n_max = min(20, cutoff // 2) if self.N_max is None else self.N_max
        if 2 * n_max > cutoff:
            raise ValueError(f"cutoff {cutoff} too small for N_max {n_max}")
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


def _log_b(b: np.ndarray) -> np.ndarray:
    """math.log of each rescaling b, all of which must be positive and finite."""
    if not all(0 < x < math.inf for x in b):
        raise ValueError("rescaling b must be positive and finite")
    return np.fromiter(map(math.log, b), float, len(b))


def _spectra(psi: FockVector, N: int, b: np.ndarray):
    """(B, N+1, N+1) scaled matrices H_{N,b}(psi), their singular values from one
    stacked SVD call and the (B,) log scales, for the B values of ``b``."""
    if not 0 <= 2 * N <= psi.cutoff:
        raise ValueError(f"need 0 <= 2N <= cutoff, got N={N}, cutoff {psi.cutoff}")
    log_b = _log_b(b)
    amps = psi.amplitudes[: 2 * N + 1]
    n = np.flatnonzero(amps)  # zero amplitudes stay exact zeros
    mags = np.abs(amps[n])
    log_entry = n * log_b[:, None] + 0.5 * gammaln(n + 1) + np.log(mags)
    scale = log_entry.max(axis=1) if len(n) else np.zeros(len(b))
    vals = np.zeros((len(b), 2 * N + 1), dtype=complex)
    vals[:, n] = np.exp(log_entry - scale[:, None]) * (amps[n] / mags)

    matrices = vals[:, np.add.outer(np.arange(N + 1), np.arange(N + 1))]
    return matrices, np.linalg.svd(matrices, compute_uv=False), scale


def hankel_matrix(psi: FockVector, N: int, b: float = 1.0) -> HankelBundle:
    """Build H_{N,b}(psi) and its singular values (the one-b view of _spectra)."""
    matrices, sigma, scale = _spectra(psi, N, np.array([b], dtype=float))
    return HankelBundle(matrices[0], N, float(b), sigma[0], float(scale[0]))


def numerical_rank(bundle: HankelBundle, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol * sigma_1 (0 for a zero matrix)."""
    if not (0 < rel_tol < 1):
        raise ValueError("rel_tol must lie in (0, 1)")
    s = bundle.singular_values
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def _log_weight_max(N: int, log_b: np.ndarray) -> np.ndarray:
    """log max_{n=0..2N} m_n b^{2n} n! for each log b, m_n the anti-diagonal multiplicity."""
    n = np.arange(2 * N + 1)
    m = np.where(n <= N, n + 1, 2 * N - n + 1)
    return np.max(np.log(m) + 2 * n * log_b[:, None] + gammaln(n + 1), axis=1)


def _thresholds(psi: FockVector, r: int, N: int, b: np.ndarray, log_den) -> np.ndarray:
    """sum_{l>r} sigma_l(H_{N,b})^2 / e^{log_den} for each b (0 for an empty tail).

    ``log_den=None`` takes each b's rescaled log 2 max_n m_n b^{2n} n!.  The
    stack is built in blocks of at most _BLOCK_ENTRIES matrix entries.
    """
    if r < 0 or r > N:
        raise ValueError(f"need 0 <= r <= N, got r={r}, N={N}")
    out = np.zeros(len(b))
    step = max(1, _BLOCK_ENTRIES // (N + 1) ** 2)
    for lo in range(0, len(b), step):
        block = b[lo : lo + step]
        _, sigma, scale = _spectra(psi, N, block)
        if log_den is None:
            den = math.log(2.0) + _log_weight_max(N, _log_b(block))
        else:
            den = [log_den] * len(block)
        tails = (sigma[:, r:] ** 2).sum(axis=1)
        for i, tail in enumerate(tails):
            if tail > 0.0:
                out[lo + i] = math.exp(math.log(tail) + 2.0 * scale[i] - den[i])
    return out


def plain_bound(psi: FockVector, r: int, N: int) -> float:
    """Certified eps threshold sum_{l>r} sigma_l(H_N)^2 / (2 (N+1) (2N)!)."""
    log_den = math.log(2.0) + math.log(N + 1) + float(gammaln(2 * N + 1))
    return float(_thresholds(psi, r, N, np.ones(1), log_den)[0])


def rescaled_bound(psi: FockVector, r: int, N: int, b: float) -> float:
    """The optimized-bound objective at one fixed (N, b)."""
    return float(_thresholds(psi, r, N, np.array([b], dtype=float), None)[0])


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 40  # golden-section steps refining the best grid cell of each N


def _golden_max(f, lo: float, hi: float, iters: int):
    """Golden-section maximization of a unimodal-ish scalar function."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def optimized_bound(
    psi: FockVector, r: int, cfg: SearchConfig | None = None
) -> OptimizedBound:
    """Maximize the rescaled bound over the (b, N) search space.

    The N search is exhaustive on [max(r, N_min), N_max]; for each N the b
    search walks the logarithmic grid and refines the best cell by
    golden-section (the objective is continuous but only piecewise smooth in
    b, so the refinement is derivative-free).  Ties are broken toward
    smaller N, then smaller b.

    The returned threshold keeps the global factor 1/2 inherited from the
    fidelity-to-distance relation.  Closed-form shortcuts for Fock states
    sometimes drop that factor and report a threshold twice as large; the
    conservative value is certified here.
    """
    if cfg is None:
        cfg = SearchConfig()
    if r < 0:
        raise ValueError("r must be non-negative")
    n_max = cfg.resolve_n_max(psi.cutoff)
    n_lo = max(r, cfg.N_min)
    if n_lo > n_max:
        raise ValueError(f"r={r} exceeds the largest searchable N={n_max}")

    log_grid = np.log(cfg.b_values())
    b_grid = np.fromiter(map(math.exp, log_grid), float, len(log_grid))
    best = OptimizedBound(0.0, 1.0, n_lo)
    for N in range(n_lo, n_max + 1):
        vals = _thresholds(psi, r, N, b_grid, None)
        i = int(np.argmax(vals))
        lo = log_grid[max(i - 1, 0)]
        hi = log_grid[min(i + 1, len(log_grid) - 1)]
        log_b_star, val = _golden_max(
            lambda lb: rescaled_bound(psi, r, N, math.exp(lb)), lo, hi, _REFINE_ITERS
        )
        if vals[i] > val:
            log_b_star, val = log_grid[i], vals[i]
        b_star = math.exp(log_b_star)
        if val > best.value or (
            val == best.value and (N, b_star) < (best.N_star, best.b_star)
        ):
            best = OptimizedBound(float(val), float(b_star), N)
    return best


def frobenius_norm_sq(psi: FockVector, N: int, b: float = 1.0) -> float:
    """True ||H_{N,b}(psi)||_F^2 (safe only at desk scale; used by tests)."""
    bundle = hankel_matrix(psi, N, b)
    return float(np.sum(np.abs(bundle.matrix) ** 2) * math.exp(2 * bundle.scale_exponent))
