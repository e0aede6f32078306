"""Rescaled Hankel matrices of Fock amplitudes and singular-value bounds.

The (N+1)x(N+1) matrix H has entries b^{i+j} sqrt((i+j)!) psi_{i+j}.  Its
singular-value tail past index r gives a certified infidelity threshold:
any eps below

    plain:      sum_{l>r} sigma_l^2 / (2 (N+1) (2N)!)          (b = 1)
    optimized:  sum_{l>r} sigma_l^2 / (2 max_n m_n b^{2n} n!)   (any b > 0)

implies the state is not eps-approximable by r coherent states.  Here
m_n = n+1 for n <= N and 2N-n+1 for N < n <= 2N counts the (i, j) pairs
with i+j = n.  Factorials and b powers are handled in the log domain: the
matrix is stored with a global scale factored out (its log, ``scale``) and the
bound values are re-exponentiated only at the end.  Every matrix comes from
``_spectra`` out of the b-independent ``_Plan`` of its (state, N), built once
per search and N, over the tables that depend on N alone (``_tables``, built
once per process), and every bound from ``_threshold``.  The truncation
N_max has no default in the library: every search takes a ``SearchConfig``
(the CLI's ``--n-max`` defaults to 10 for ``certify`` and max(r, 10) for
``bound``).

Each sigma_l(H_{N,b}) is non-decreasing in b and sigma_l(H_{N,b}) / b^{2N}
is non-increasing: for b' <= b, H_{N,b'} = D H_{N,b} D with D = diag((b'/b)^i)
and ||D||_2 = 1, and for b' >= b the same holds with ||D||_2 = (b'/b)^N.  So
the optimized objective rises up to the first kink of the piecewise-monomial
denominator max_n m_n b^{2n} n! (``_kinks``) and falls after the last, so
the maximum over every b > 0 lies on the segment between those kinks, in
[0.0364, 1] for every N.  The search at each N (``_search``) scores its ends,
a probe inside each end and b = 1 in one stacked call.  On a segment that
neither end settles, a secant on the objective's slope in log b, which one SVD
with vectors gives (``_slopes``), finds the interior maximum.  From N = 3 on
there is one kink, so the segment is a single point.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimit
from .fock import FockVector, log_factorials

DEFAULT_RANK_TOL = 1e-10

# Largest number of complex matrix entries (16 MB) one stacked SVD call holds.
_BLOCK_ENTRIES = 1 << 20

# Largest N whose (N+1)x(N+1) matrix fits in one SVD block; larger N exit 4.
MAX_HANKEL_N = math.isqrt(_BLOCK_ENTRIES) - 1


def check_hankel_size(N: int) -> None:
    """ResourceLimit for an N past MAX_HANKEL_N, before anything is allocated."""
    if N > MAX_HANKEL_N:
        raise ResourceLimit(
            f"N={N} exceeds {MAX_HANKEL_N}, the largest Hankel matrix one SVD block holds"
        )


@dataclass(frozen=True)
class SearchConfig:
    """Search space for the optimized bound: N <= N_max and every b > 0.

    ``N_max`` must be non-negative and has no default here: the CLI's
    ``--n-max`` supplies it.
    """

    N_max: int

    def __post_init__(self):
        if self.N_max < 0:
            raise ValueError(f"N_max must be non-negative, got {self.N_max}")

    def resolve_n_max(self, cutoff: int) -> int:
        """N_max, once a state of this cutoff and one SVD block hold H_{N_max}."""
        if 2 * self.N_max > cutoff:
            raise ValueError(f"cutoff {cutoff} too small for N_max {self.N_max}")
        check_hankel_size(self.N_max)
        return self.N_max


def check_searchable(r: int, n_max: int) -> None:
    """ValueError unless N = max(r, 1), where every N search of r starts, is at most n_max."""
    if max(r, 1) > n_max:
        raise ValueError(f"r={r} needs N >= max(r, 1) = {max(r, 1)}, past N_max={n_max}")


class OptimizedBound(NamedTuple):
    value: float
    b_star: float
    N_star: int


def _log_b(b) -> np.ndarray:
    """math.log of each rescaling b, all of which must be positive and finite."""
    if not all(0 < x < math.inf for x in b):
        raise ValueError("rescaling b must be positive and finite")
    return np.fromiter(map(math.log, b), float, len(b))


class _Tables(NamedTuple):
    """The parts of H_{N,b} and of its bound's denominator that depend on N alone."""

    lgam: np.ndarray  # log k!, k = 0..2N
    index: np.ndarray  # (N+1, N+1) Hankel index i + j
    log_m: np.ndarray  # log m_k, the anti-diagonal sizes
    two_k: np.ndarray  # 2k
    kinks: tuple  # ``_kinks`` of the denominator


@functools.lru_cache(maxsize=32)
def _tables(N: int) -> _Tables:
    """N's tables, built on first use and kept for the process (32 N at most)."""
    k = np.arange(2 * N + 1)
    lgam = log_factorials(2 * N)
    log_m = np.log(np.where(k <= N, k + 1, 2 * N - k + 1))
    index = np.add.outer(k[: N + 1], k[: N + 1])
    two_k = 2 * k
    for table in (index, log_m, two_k):
        table.flags.writeable = False  # shared by every plan of this N
    return _Tables(lgam, index, log_m, two_k, tuple(_kinks((log_m + lgam).tolist())))


class _Plan:
    """The b-independent parts of H_{N,b}(psi) that depend on the state: its
    nonzero indices n, their log sqrt(n!) and log |psi_n|, and their phases,
    built once per (state, N) so that every b of a search reuses them."""

    def __init__(self, psi: FockVector, N: int):
        if not 0 <= 2 * N <= psi.cutoff:
            raise ValueError(f"need 0 <= 2N <= cutoff, got N={N}, cutoff {psi.cutoff}")
        check_hankel_size(N)
        amps = psi.amplitudes[: 2 * N + 1]
        self.N = N
        self.tables = _tables(N)
        self.n = np.flatnonzero(amps)  # zero amplitudes stay exact zeros
        self.half_lgam = 0.5 * self.tables.lgam[self.n]
        self.log_mags = np.log(np.abs(amps[self.n]))
        self.phases = psi.phases[self.n]


def _spectra(plan: _Plan, log_b: np.ndarray, vectors: bool = False):
    """(B, N+1, N+1) scaled matrices H_{N,b}(psi), their singular values from one
    stacked SVD call (with ``vectors``, the (U, sigma, V^H) of that call) and the
    (B,) log scales, for the B values of ``log_b``."""
    log_entry = plan.n * log_b[:, None] + plan.half_lgam + plan.log_mags
    scale = log_entry.max(axis=1) if len(plan.n) else np.zeros(len(log_b))
    vals = np.zeros((len(log_b), 2 * plan.N + 1), dtype=complex)
    vals[:, plan.n] = np.exp(log_entry - scale[:, None]) * plan.phases

    matrices = vals[:, plan.tables.index]
    return matrices, np.linalg.svd(matrices, compute_uv=vectors), scale


def hankel_matrix(psi: FockVector, N: int, b: float):
    """(matrix, singular_values, scale) of H_{N,b}(psi) at the caller's b, the
    one-b slice of _spectra: the matrix is stored divided by e^scale and the
    singular values are its own, so the true ones are singular_values * e^scale."""
    matrices, sigma, scale = _spectra(_Plan(psi, N), _log_b([b]))
    return matrices[0], sigma[0], scale[0]


def numerical_rank(s: np.ndarray) -> int:
    """Number of singular values s above DEFAULT_RANK_TOL * s[0] (0 for a zero matrix)."""
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))


def _log_weight_max(plan: _Plan, log_b: np.ndarray) -> np.ndarray:
    """log max_{n=0..2N} m_n b^{2n} n! for each log b, m_n the anti-diagonal multiplicity."""
    t = plan.tables
    return (t.log_m + t.two_k * log_b[:, None] + t.lgam).max(axis=1)


def _threshold(tail: float, scale: float, log_den: float) -> float:
    """tail / e^{log_den} for a squared tail of the matrix stored at e^{-scale}, 0 if empty."""
    return math.exp(math.log(tail) + 2.0 * scale - log_den) if tail > 0.0 else 0.0


def _thresholds_at(plan: _Plan, log_b: np.ndarray, rs, log_den=None) -> list:
    """[threshold of r at log_b[k] for r in rs[k]] for each k: the points in
    consecutive stacked SVD calls of at most _BLOCK_ENTRIES matrix entries,
    and only the tails each point is asked for, each the correctly rounded sum
    of its squared sigma (so it does not depend on which other r are asked).
    ``log_den=None`` takes each b's rescaled log 2 max_n m_n b^{2n} n!."""
    out = []
    step = max(1, _BLOCK_ENTRIES // (plan.N + 1) ** 2)
    for lo in range(0, len(log_b), step):
        part = log_b[lo : lo + step]
        _, sigma, scale = _spectra(plan, part)
        den = (np.full(len(part), log_den) if log_den is not None
               else math.log(2.0) + _log_weight_max(plan, part))
        for row, s, d, want in zip(sigma.tolist(), scale.tolist(), den.tolist(), rs[lo:]):
            squares = [x * x for x in row]
            out.append([_threshold(math.fsum(squares[r:]), s, d) for r in want])
    return out


def _point_thresholds(plan: _Plan, log_b: np.ndarray, rs, log_den=None) -> list:
    """The threshold of r = rs[k] at log_b[k] for each k (one r per point)."""
    if not 0 <= min(rs) <= max(rs) <= plan.N:
        raise ValueError(f"need 0 <= r <= N, got r in [{min(rs)}, {max(rs)}], N={plan.N}")
    return [value for [value] in _thresholds_at(plan, log_b, [[r] for r in rs], log_den)]


def plain_bound(psi: FockVector, r: int, N: int) -> float:
    """Certified eps threshold sum_{l>r} sigma_l(H_N)^2 / (2 (N+1) (2N)!)."""
    plan = _Plan(psi, N)  # checks N before the log below reads it
    log_den = math.log(2.0) + math.log(N + 1) + float(plan.tables.lgam[2 * N])
    return _point_thresholds(plan, np.zeros(1), [r], log_den)[0]


def rescaled_bound(psi: FockVector, r: int, N: int, b: float) -> float:
    """The optimized-bound objective at one fixed (N, b)."""
    return _point_thresholds(_Plan(psi, N), _log_b([b]), [r])[0]


_PROBE = 1e-6  # an end's probe sits this fraction of the segment's width inside it
_XTOL = 1e-9  # a secant stops once a step or its bracket is this fraction of the segment's width
_SECANT_STEPS = 40  # and after this many steps in any case


def _kinks(c: list) -> list:
    """The x at which the largest of the lines c[k] + 2k x changes, in
    increasing order: the breakpoints of their upper envelope.  With
    c[k] = log m_k + log k! and x = log b these are the kinks of
    max_k m_k b^{2k} k!."""

    def meet(i, j):  # where lines i < j cross
        return (c[i] - c[j]) / (2 * (j - i))

    hull = []  # the envelope's lines by increasing slope
    for k in range(len(c)):
        # hull[-1] is never on top once line k overtakes hull[-2] before it does
        while len(hull) >= 2 and meet(hull[-2], k) <= meet(hull[-2], hull[-1]):
            hull.pop()
        hull.append(k)
    return [meet(i, j) for i, j in zip(hull, hull[1:])]


def _scored_at(xs) -> np.ndarray:
    """The log b that scoring at b = exp(x) reads, as ``rescaled_bound`` reads it."""
    return _log_b([*map(math.exp, xs)])


def _slopes(plan: _Plan, xs: list, rs) -> list:
    """[d log(threshold of r) / d log b at log b = xs[k] for r in rs[k]] for
    each k, on a segment where the denominator is the one monomial
    m_N N! b^{2N} (N = 1, 2).  With dH/d(log b) = K.H, K_ij = i + j, a simple
    singular value moves by Re(u_l^H (K.H) v_l) (Stewart & Sun, Matrix
    Perturbation Theory, 1990), so the slope is
    2 sum_{l>r} sigma_l Re(u_l^H (K.H) v_l) / sum_{l>r} sigma_l^2 - 2N; the
    matrices' common scale cancels.  NaN where the tail is 0.  One stacked SVD
    call with vectors; the refinement asks for at most N + 1 <= 3 points, far
    inside one _BLOCK_ENTRIES block."""
    matrices, (u, sigma, vh), _ = _spectra(plan, np.array(xs), vectors=True)
    moved = (matrices * plan.tables.index) @ vh.conj().swapaxes(-1, -2)
    rates = (u.conj() * moved).sum(axis=-2).real
    out = []
    for s, d, want in zip(sigma.tolist(), rates.tolist(), rs):
        terms = [(x * x, x * y) for x, y in zip(s, d)]
        out.append([])
        for r in want:
            tail = math.fsum(t for t, _ in terms[r:])
            rise = math.fsum(p for _, p in terms[r:])
            out[-1].append(2.0 * rise / tail - 2 * plan.N if tail > 0.0 else math.nan)
    return out


def _secant(slope, lo: list, hi: list, at_lo: list, at_hi: list) -> list:
    """A root of each slope on its bracket [lo[k], hi[k]], where
    at_lo[k] > 0 > at_hi[k], by the Illinois secant (Dowell & Jarratt, BIT
    1971) with bisection where the secant point falls on an end, in lockstep:
    ``slope`` maps one point per live bracket (and the brackets' indices) to
    their slopes, so a step is one call.  A bracket stops once a step moves
    its point, or the bracket, by at most _XTOL of its first width, at a zero
    or NaN slope, or after _SECANT_STEPS steps; each returns the last point
    it scored."""
    a, b, fa, fb = list(lo), list(hi), list(at_lo), list(at_hi)
    x = [math.inf] * len(a)  # the point each bracket scored last, none yet
    moved = [0] * len(a)  # the end the last step replaced: -1 the lower, 1 the upper
    tol = [_XTOL * (q - p) for p, q in zip(a, b)]
    live = list(range(len(a)))
    for _ in range(_SECANT_STEPS):
        if not live:
            break
        last = [x[k] for k in live]
        for k in live:
            c = b[k] - fb[k] * (b[k] - a[k]) / (fb[k] - fa[k])
            x[k] = c if a[k] < c < b[k] else 0.5 * (a[k] + b[k])
        for k, g in zip(live, slope([x[k] for k in live], live)):
            if g > 0.0:
                a[k], fa[k] = x[k], g
                if moved[k] < 0:  # the same end twice: halve the other's slope
                    fb[k] *= 0.5
                moved[k] = -1
            elif g < 0.0:
                b[k], fb[k] = x[k], g
                if moved[k] > 0:
                    fa[k] *= 0.5
                moved[k] = 1
            else:
                a[k] = b[k] = x[k]
        live = [k for k, p in zip(live, last) if min(abs(x[k] - p), b[k] - a[k]) > tol[k]]
    return x


def _search(plan: _Plan, rs: list) -> list:
    """(log b, threshold) of the maximum over every b > 0 for each r in
    ``rs``, which lies on the segment [x0, x1] between the first and last
    kink.  One stacked call scores x0, x1, a probe _PROBE of the width inside
    each end (none for a one-point segment) and b = 1.  An end wins if it is
    at least its probe and the other end, x0 first, so a segment whose values
    are all exactly 0 is not refined.  On a segment neither end settles, one
    stacked call gives each r's slope at both ends; where they bracket a root
    (rising at x0, falling at x1) the secants of all such r run in lockstep,
    one stacked call a step, and one more call scores each root, which
    replaces the segment's best scored point (ends and probes, in that
    order) only when strictly higher.  b = 1 replaces the segment's point
    only when strictly higher."""

    kinks = plan.tables.kinks
    x0, x1 = kinks[0], kinks[-1]
    h = _PROBE * (x1 - x0)
    ends = [x0, x1, x0 + h, x1 - h] if x1 > x0 else [x0]
    xs = ends + [0.0]
    columns = list(zip(*_thresholds_at(plan, _scored_at(xs), [rs] * len(xs))))
    found, todo = {}, []
    for k, v in enumerate(columns):
        if len(ends) == 1 or v[0] >= max(v[1], v[2]):
            found[k] = (x0, v[0])
        elif v[1] >= max(v[0], v[3]):
            found[k] = (x1, v[1])
        else:
            found[k] = max(zip(ends, v), key=lambda point: point[1])  # the first of ties
            todo.append(k)
    if todo:
        want = [rs[k] for k in todo]
        slopes = dict(zip(todo, zip(*_slopes(plan, [x0, x1], [want, want]))))
        ks = [k for k in todo if slopes[k][0] > 0.0 > slopes[k][1]]
        if ks:
            roots = _secant(
                lambda points, live: [g for [g] in _slopes(plan, points, [[rs[ks[i]]] for i in live])],
                [x0] * len(ks), [x1] * len(ks), [slopes[k][0] for k in ks], [slopes[k][1] for k in ks])
            scored = _point_thresholds(plan, _scored_at(roots), [rs[k] for k in ks])
            for k, x, value in zip(ks, roots, scored):
                if value > max(columns[k][: len(ends)]):
                    found[k] = (x, value)
    return [(0.0, v[-1]) if v[-1] > found[k][1] else found[k] for k, v in enumerate(columns)]


def optimized_bounds(psi: FockVector, rs, cfg: SearchConfig) -> dict:
    """{r: OptimizedBound} maximizing the rescaled bound over (b, N), for r in ``rs``.

    The N search is exhaustive on [max(r, 1), cfg.N_max].  For b' <= b,
    H_{N,b'} = D H_{N,b} D with D = diag((b'/b)^i) and ||D||_2 = 1, so each
    sigma_l(H_{N,b}) is non-decreasing in b (Horn & Johnson, Topics in Matrix
    Analysis, 3.3: sigma_l(AXB) <= ||A||_2 sigma_l(X) ||B||_2); the same
    argument for b' >= b, where ||D||_2 = (b'/b)^N, shows that
    sigma_l(H_{N,b}) / b^{2N} is non-increasing.
    The denominator max_n m_n b^{2n} n! is the n = 0 term 1 left of its first
    kink and the n = 2N term (2N)! b^{4N} right of its last, so the objective
    rises up to the first kink and falls after the last: the maximum over
    every b > 0 lies on the segment between the two kinks (``_search``),
    which depend on N alone and lie in [0.0364, 1] for every N = 1..1023.
    From N = 3 on there is one kink (``_kinks``) and the segment is one
    point.  At N = 1 and 2 one local search of the segment is enough: there
    the denominator is one monomial proportional to b^{2N}; at r = 0 the
    objective is a sum of exponentials in log b, so convex, and an end wins;
    at N = 1, r = 1 the determinant of H_{N,b} / b is constant, so the
    objective is quasi-concave; at N = 2, r >= 1, unimodality is measured on
    the corpus, not proven.  The local search is a secant on the slope of
    log(threshold) in log b (``_slopes``, ``_secant``), run only where the
    slopes at the segment's ends bracket a root.  A zero tail stays
    zero at every b (H_{N,b} = B H_{N,1} B with B = diag(b^i) invertible).
    b = 1 is always scored too, so the optimized bound dominates the plain
    one at every searched N even on noise-level tails.  Each N takes one
    stacked call of at most five points for every r <= N, and a segment no
    end settles a handful more.

    Ties go to the segment over b = 1, then to smaller N, then smaller b.
    Every value is scored at b = exp(log b), as ``rescaled_bound`` scores it,
    so ``bound --check`` re-derives it bit for bit.

    The returned threshold keeps the global factor 1/2 inherited from the
    fidelity-to-distance relation.  Closed-form shortcuts for Fock states
    sometimes drop that factor and report a threshold twice as large; the
    conservative value is certified here.
    """
    rs = sorted(set(rs))
    if not rs:
        return {}
    if rs[0] < 0:
        raise ValueError("r must be non-negative")
    n_max = cfg.resolve_n_max(psi.cutoff)
    check_searchable(rs[-1], n_max)

    best = {r: OptimizedBound(0.0, 1.0, max(r, 1)) for r in rs}
    for N in range(max(rs[0], 1), n_max + 1):
        live = [r for r in rs if r <= N]
        for r, (log_b_star, val) in zip(live, _search(_Plan(psi, N), live)):
            b_star, old = math.exp(log_b_star), best[r]
            if val > old.value or (val == old.value and (N, b_star) < (old.N_star, old.b_star)):
                best[r] = OptimizedBound(float(val), float(b_star), N)
    return best


def optimized_bound(psi: FockVector, r: int, cfg: SearchConfig) -> OptimizedBound:
    """The optimized bound at one r (the one-r view of optimized_bounds)."""
    return optimized_bounds(psi, [r], cfg)[r]
