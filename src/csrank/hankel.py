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
bound values are re-exponentiated only at the end.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .fock import FockVector

DEFAULT_RANK_TOL = 1e-10


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

    def log_tail_sq(self, r: int) -> float:
        """log of the true tail sum sum_{l>r} sigma_l^2; -inf when empty/zero."""
        tail = float(np.sum(self.singular_values[r:] ** 2))
        if tail <= 0.0:
            return -math.inf
        return math.log(tail) + 2.0 * self.scale_exponent


class SearchConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    """Search space for the optimized bound.

    ``b_grid`` is (b_min, b_max, points) spanned logarithmically; b = 1 is
    always inserted so the optimized bound dominates the plain one at every
    searched N.  ``N_max=None`` resolves to min(20, cutoff // 2) per state.
    """

    N_min: int = 1
    N_max: int | None = None
    b_grid: tuple = (1e-3, 10.0, 200)
    refine_iters: int = 40

    def __post_init__(self):
        b_min, b_max, points = self.b_grid
        if not (0 < b_min < b_max):
            raise SearchConfigError("b grid must satisfy 0 < b_min < b_max")
        if points < 2:
            raise SearchConfigError("b grid needs at least 2 points")
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


def hankel_matrix(psi: FockVector, N: int, b: float = 1.0) -> HankelBundle:
    """Build H_{N,b}(psi) and its singular values.

    Requires psi.cutoff >= 2N since the matrix reads the first 2N+1
    amplitudes.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if b <= 0 or not math.isfinite(b):
        raise ValueError("rescaling b must be positive and finite")
    if psi.cutoff < 2 * N:
        raise ValueError(f"cutoff {psi.cutoff} < 2N = {2 * N}")

    amps = psi.amplitudes[: 2 * N + 1]
    n = np.arange(2 * N + 1)
    mags = np.abs(amps)
    with np.errstate(divide="ignore"):
        log_entry = n * math.log(b) + 0.5 * gammaln(n + 1) + np.log(mags)
    finite = np.isfinite(log_entry)
    if not finite.any():
        scale = 0.0
        vals = np.zeros(2 * N + 1, dtype=complex)
    else:
        scale = float(log_entry[finite].max())
        vals = np.zeros(2 * N + 1, dtype=complex)
        phases = np.ones(2 * N + 1, dtype=complex)
        phases[finite] = amps[finite] / mags[finite]
        vals[finite] = np.exp(log_entry[finite] - scale) * phases[finite]

    idx = np.add.outer(np.arange(N + 1), np.arange(N + 1))
    matrix = vals[idx]
    sigma = np.linalg.svd(matrix, compute_uv=False)
    return HankelBundle(matrix, N, float(b), sigma, scale)


def numerical_rank(bundle: HankelBundle, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above rel_tol * sigma_1 (0 for a zero matrix)."""
    if not (0 < rel_tol < 1):
        raise ValueError("rel_tol must lie in (0, 1)")
    s = bundle.singular_values
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def plain_bound(psi: FockVector, r: int, N: int) -> float:
    """Certified eps threshold sum_{l>r} sigma_l(H_N)^2 / (2 (N+1) (2N)!)."""
    if r < 0 or r > N:
        raise ValueError(f"need 0 <= r <= N, got r={r}, N={N}")
    bundle = hankel_matrix(psi, N, 1.0)
    log_tail = bundle.log_tail_sq(r)
    if log_tail == -math.inf:
        return 0.0
    log_den = math.log(2.0) + math.log(N + 1) + float(gammaln(2 * N + 1))
    return math.exp(log_tail - log_den)


def _log_weight_max(N: int, log_b: float) -> float:
    """log max_{n=0..2N} m_n b^{2n} n! with m_n the anti-diagonal multiplicity."""
    n = np.arange(2 * N + 1)
    m = np.where(n <= N, n + 1, 2 * N - n + 1)
    return float(np.max(np.log(m) + 2 * n * log_b + gammaln(n + 1)))


def rescaled_bound(psi: FockVector, r: int, N: int, b: float) -> float:
    """The optimized-bound objective at one fixed (N, b)."""
    if r < 0 or r > N:
        raise ValueError(f"need 0 <= r <= N, got r={r}, N={N}")
    bundle = hankel_matrix(psi, N, b)
    log_tail = bundle.log_tail_sq(r)
    if log_tail == -math.inf:
        return 0.0
    log_den = math.log(2.0) + _log_weight_max(N, math.log(b))
    return math.exp(log_tail - log_den)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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

    grid = cfg.b_values()
    log_grid = np.log(grid)
    best = OptimizedBound(0.0, 1.0, n_lo)
    for N in range(n_lo, n_max + 1):
        def objective_log_b(log_b: float, N=N) -> float:
            return rescaled_bound(psi, r, N, math.exp(log_b))

        vals = np.array([objective_log_b(lb) for lb in log_grid])
        i = int(np.argmax(vals))
        lo = log_grid[max(i - 1, 0)]
        hi = log_grid[min(i + 1, len(grid) - 1)]
        if lo == hi:
            log_b_star, val = log_grid[i], vals[i]
        else:
            log_b_star, val = _golden_max(objective_log_b, lo, hi, cfg.refine_iters)
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
