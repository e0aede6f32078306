"""Single-mode bosonic states in the truncated Fock basis.

States are stored as finite complex amplitude vectors (index n = Fock
number).  Coherent states follow a_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!),
squeezed states a_{2n} = (1/cosh r) lambda^n sqrt((2n)!) / (2^n n!) with
lambda = -e^{i phi} tanh(r).  All factorial-bearing amplitudes are assembled
in the log domain so large Fock numbers stay inside double range, from one
table of log k! (``log_factorials``).  ``CoherentSuperposition`` is the one
superposition type, for one mode and for coherent products.  One rule
(``_truncate``) picks a coherent or squeezed state's cutoff and the weight it
drops, from one reversed cumulative sum of the weights (``_tails``).  One
function (``state_from_descriptor``) decides the unit vector a descriptor names;
``superposition_to_fock`` is the raw expansion witnesses are scored by.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimit

# Largest cutoff (amplitude vector length MAX_CUTOFF + 1) a state may have.
MAX_CUTOFF = 100_000

# Displacements closer than this are treated as the same coherent state.
ALPHA_MERGE_TOL = 1e-12

# Cap on the truncation weight of an infinite-support state with an auto-chosen cutoff.
DEFAULT_MAX_TAIL = 1e-12

# cephes lgam: log sqrt(2 pi), and its Stirling-series coefficients for 13 <= x < 1000.
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _lgamma_of_integers(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for integer-valued floats 1 <= x <= 1e8 (past which cephes drops
    the series' correction term), bit for bit as cephes lgam (which scipy's gammaln
    runs) computes it: the log of the exact product (x-1)! below 13, the Stirling
    series over math.log (libm log; numpy's log differs in the last bit) above."""
    out = np.empty_like(x)
    small = x < 13
    out[small] = [math.log(math.factorial(int(v) - 1)) for v in x[small].tolist()]
    x = x[~small]
    q = (x - 0.5) * np.fromiter(map(math.log, x.tolist()), float, len(x)) - x + _LS2PI
    p = 1.0 / (x * x)
    series = _STIRLING[0]
    for a in _STIRLING[1:]:
        series = series * p + a
    asymptotic = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                  + 0.0833333333333333333333)
    correction = np.where(x >= 1000.0, asymptotic, series) / x
    out[~small] = q + correction
    return out


_log_factorial_table = np.zeros(0)


def log_factorials(k_max: int) -> np.ndarray:
    """log k! for k = 0..k_max (none for k_max < 0): a read-only view of the one
    table this process keeps, rebuilt at (at least) twice its size when a larger
    k_max is asked for."""
    global _log_factorial_table
    if k_max >= len(_log_factorial_table):
        size = max(k_max + 1, 2 * len(_log_factorial_table), 1024)
        table = _lgamma_of_integers(np.arange(1.0, size + 1))
        table.flags.writeable = False
        _log_factorial_table = table
    return _log_factorial_table[: max(k_max + 1, 0)]


def _check_non_negative(cutoff: int) -> None:
    if cutoff < 0:
        raise ValueError(f"cutoff must be non-negative, got {cutoff}")


@dataclass(frozen=True)
class FockVector:
    """A single-mode vector truncated at ``cutoff``, the weight the cutoff drops in
    ``tail_weight`` rather than renormalized away."""

    amplitudes: np.ndarray
    cutoff: int
    tail_weight: float | None = None

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a 1-d sequence")
        _check_non_negative(self.cutoff)
        if len(amps) != self.cutoff + 1:
            raise ValueError(
                f"length {len(amps)} does not match cutoff {self.cutoff}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")

    @functools.cached_property
    def phases(self) -> np.ndarray:
        """psi_n / |psi_n| (0 where psi_n = 0), each pair scaled by one power of two
        first: numpy multiplies by 1 / |psi_n|, which overflows if it is subnormal."""
        mags = np.abs(self.amplitudes)
        _, e = np.frexp(mags)
        scaled = np.ldexp(self.amplitudes.view(float), np.repeat(-e, 2)).view(complex)
        return np.divide(scaled, np.ldexp(mags, -e), out=np.zeros_like(scaled), where=mags > 0)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def highest_occupied(self) -> int:
        """Largest Fock index with a nonzero amplitude (-1 for the zero vector)."""
        nz = np.nonzero(self.amplitudes)[0]
        return int(nz[-1]) if len(nz) else -1

    def mean_fock_number(self) -> float:
        w = np.abs(self.amplitudes) ** 2
        total = w.sum()
        if total == 0:
            return 0.0
        return float(np.arange(self.cutoff + 1) @ w / total)

    def padded(self, cutoff: int) -> "FockVector":
        """Zero-pad up to a larger cutoff (no-op when already long enough)."""
        if cutoff <= self.cutoff:
            return self
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[: self.cutoff + 1] = self.amplitudes
        return FockVector(amps, cutoff, self.tail_weight)


class CoherentTerm(NamedTuple):
    """One branch c |alpha>; alpha is a number, or a row for a coherent product."""

    c: complex
    alpha: complex | np.ndarray


def merge_coincident(coeffs, alphas):
    """Merge terms whose displacements coincide within ALPHA_MERGE_TOL.

    ``coeffs`` is a complex (k,) array and ``alphas`` a complex (k, modes)
    array, one displacement row per term; rows are
    compared by their max-abs distance over the modes.  Scanning in order,
    each term joins the first kept row it matches, whose displacement stays,
    or becomes a kept row itself.  Returns the kept coefficients and rows.
    """
    sums = np.empty_like(coeffs)
    rows = np.empty_like(alphas)
    kept = 0
    for c, alpha in zip(coeffs, alphas):
        dist = np.abs(rows[:kept] - alpha).max(axis=1)
        hits = np.flatnonzero(dist <= ALPHA_MERGE_TOL)
        if hits.size:
            sums[hits[0]] += c
        else:
            sums[kept], rows[kept] = c, alpha
            kept += 1
    return sums[:kept], rows[:kept]


@dataclass(frozen=True, eq=False)
class CoherentSuperposition:
    """Finite superposition sum_k c_k |alpha_k> with pairwise distinct alpha, built
    from (c, alpha) pairs: read-only coefficients (k,) and displacements (k,) for
    one mode or (k, modes) for coherent products, every entry finite.  Terms whose
    displacements coincide within ALPHA_MERGE_TOL are merged (``merge_coincident``).
    """

    _coefficients: np.ndarray
    _displacements: np.ndarray

    def __init__(self, terms):
        terms = list(terms)
        coeffs = np.array([t[0] for t in terms], dtype=complex)
        try:
            alphas = np.array([t[1] for t in terms], dtype=complex)
        except ValueError:  # rows of unequal length, or numbers mixed with rows
            alphas = None
        if alphas is None or alphas.ndim > 2:
            raise ValueError("terms must share the mode count")
        if not np.isfinite(alphas).all():
            raise ValueError("alpha must be finite")
        with np.errstate(over="ignore", invalid="ignore"):  # a merged c may overflow
            coeffs, rows = merge_coincident(coeffs, alphas if alphas.ndim == 2 else alphas[:, None])
        if not np.isfinite(coeffs).all():
            raise ValueError("c must be finite")
        alphas = rows if alphas.ndim == 2 else rows[:, 0]
        coeffs.flags.writeable = alphas.flags.writeable = False
        object.__setattr__(self, "_coefficients", coeffs)
        object.__setattr__(self, "_displacements", alphas)

    def __len__(self) -> int:
        return len(self._coefficients)

    @functools.cached_property
    def terms(self) -> tuple:
        alphas = self._displacements
        return tuple(map(CoherentTerm, self._coefficients.tolist(),
                         alphas.tolist() if alphas.ndim == 1 else alphas))

    def coefficients(self) -> np.ndarray:
        return self._coefficients

    def displacements(self) -> np.ndarray:
        """(terms,) for one mode, (terms, modes) for coherent products."""
        return self._displacements

    @functools.cached_property
    def norm_sq(self) -> float:
        """Re c^H G c, G the exact coherent Gram matrix: formed once per superposition."""
        c, alphas = self._coefficients, self._displacements.reshape(len(self), -1)
        with np.errstate(over="ignore", invalid="ignore"):
            norm_sq = float(np.real(np.conj(c) @ coherent_gram(alphas) @ c))
        if not math.isfinite(norm_sq):
            raise ValueError("the superposition's squared norm is past the double range")
        return norm_sq


@dataclass(frozen=True)
class SqueezedParams:
    """Squeezing magnitude r >= 0 and phase phi, reduced to [0, 2 pi)."""

    r: float
    phi: float = 0.0

    def __post_init__(self):
        if not (self.r >= 0 and math.isfinite(self.r)):
            raise ValueError("squeezing magnitude r must be finite and >= 0")
        try:
            math.cosh(self.r)
        except OverflowError:
            raise ValueError(f"squeezing magnitude r={self.r!r} overflows cosh r") from None
        object.__setattr__(self, "phi", float(self.phi) % (2 * math.pi))

    @property
    def lam(self) -> complex:
        """lambda = -e^{i phi} tanh(r); |lambda| < 1 for finite r."""
        return -np.exp(1j * self.phi) * math.tanh(self.r)


def fock_state(n: int, cutoff: int | None = None) -> FockVector:
    """The Fock basis state |n>."""
    if n < 0:
        raise ValueError("Fock number must be non-negative")
    if cutoff is None:
        cutoff = n
    if n > cutoff:
        raise ValueError(f"n={n} exceeds cutoff={cutoff}")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[n] = 1.0
    return FockVector(amps, cutoff, tail_weight=0.0)


def core_state(amplitudes, cutoff: int | None = None) -> FockVector:
    """A normalized finite superposition of Fock states."""
    amps = np.asarray(amplitudes, dtype=complex)
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(amps)
    if amps.any() and not math.sqrt(np.finfo(float).tiny) <= norm < math.inf:
        # the squares leave the double range: divide each part by the largest one
        largest = np.abs(np.concatenate([amps.real, amps.imag])).max()
        amps = amps.real / largest + 1j * (amps.imag / largest)
        norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("core state must have a nonzero amplitude")
    amps = amps / norm
    if cutoff is not None and cutoff + 1 > len(amps):
        amps = np.concatenate([amps, np.zeros(cutoff + 1 - len(amps), dtype=complex)])
    return FockVector(amps, len(amps) - 1, tail_weight=0.0)


@functools.lru_cache(maxsize=64)
def _fock_index_column(cutoff: int) -> tuple:
    """(n, log sqrt(n!)) as read-only float (cutoff+1) x 1 columns."""
    n = np.arange(cutoff + 1.0)[:, None]
    half_log_fact = 0.5 * log_factorials(cutoff)[:, None]
    n.flags.writeable = half_log_fact.flags.writeable = False
    return n, half_log_fact


def coherent_columns(alphas, cutoff: int) -> np.ndarray:
    """(cutoff+1) x k matrix with column k the truncated coherent state
    e^{-|alpha_k|^2/2} alpha_k^n / sqrt(n!), n <= cutoff.

    Row n's magnitude is exp(n log|alpha| - |alpha|^2/2 - log sqrt(n!)), one
    np.log per column, and its phase the running product (np.multiply.accumulate
    down the rows) of the column's unit phasor alpha / |alpha|, whose parts are
    divided as reals so a subnormal alpha does not overflow.  An alpha = 0
    column takes |alpha| = 1 in the log and the division, so its phasor is 0
    and it is exactly the vacuum.  Every step is elementwise or runs down one
    column, so a column is the same bit for bit whatever batch it is built in."""
    alphas = np.ascontiguousarray(alphas, dtype=complex).reshape(-1)
    mags = np.abs(alphas)
    safe = np.where(mags > 0, mags, 1.0)
    n, half_log_fact = _fock_index_column(cutoff)
    log_mag = n * np.log(safe)
    log_mag -= 0.5 * mags**2
    log_mag -= half_log_fact
    cols = np.empty(log_mag.shape, dtype=complex)
    cols[0] = 1.0
    cols[1:] = (alphas.view(float).reshape(-1, 2) / safe[:, None]).view(complex)[:, 0]
    np.multiply.accumulate(cols, axis=0, out=cols)
    cols *= np.exp(log_mag, out=log_mag)
    return cols


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n <= cutoff."""
    return coherent_columns(alpha, cutoff)[:, 0]


def _tails(weights: np.ndarray) -> np.ndarray:
    """past[c] = sum_{n > c} weights[n] for every c, in one reversed cumulative
    sum that adds the smallest terms first, so nothing cancels."""
    past = np.zeros_like(weights)
    past[-2::-1] = np.cumsum(weights[:0:-1])
    return past


def _truncate(weights, k: int, cutoff: int | None, per: int, max_tail: float, what: str):
    """(cutoff, weight past it) for entries of ``per`` Fock indices each, weighing
    ``weights(start, stop)`` for entries start..stop, negligible past entry k.
    With ``cutoff=None``, the smallest cutoff whose tail is within ``max_tail``
    (ResourceLimit naming ``what`` above MAX_CUTOFF) and that tail, off one
    ``_tails`` table.  An explicit cutoff drops 1 - head where the head holds at
    most half the norm, so nothing cancels; else 0 past entry k; else the entries
    past it, summed in ``_tails``' order, so the table's entry bit for bit.  A
    negative cutoff is refused before anything is weighed."""
    if cutoff is None:
        past = _tails(weights(0, k))
        entry = int(np.argmax(past <= max_tail))
        if per * entry > MAX_CUTOFF:
            raise ResourceLimit(f"{what} needs a cutoff above {MAX_CUTOFF} "
                                f"for tail weight <= {max_tail:.3g}")
        return per * entry, float(past[entry])
    _check_non_negative(cutoff)
    entry = cutoff // per
    kept = float(weights(0, entry).sum())
    if kept <= 0.5:
        return cutoff, 1.0 - kept
    if entry >= k:
        return cutoff, 0.0
    return cutoff, float(np.cumsum(weights(entry + 1, k)[::-1])[-1])


def _poisson_weights(lam: float, start: int, stop: int) -> np.ndarray:
    """P(N = n), N ~ Poisson(lam >= 0), for n = start..stop."""
    n = np.arange(start, stop + 1)
    if lam == 0:
        return (n == 0).astype(float)
    return np.exp(n * math.log(lam) - lam - log_factorials(stop)[start:])


def _coherent_truncation(alpha: complex, cutoff: int | None, max_tail: float) -> tuple:
    """``_truncate`` on the Poisson(|alpha|^2) weights."""
    mag = abs(complex(alpha))
    try:
        lam = mag**2
    except OverflowError:
        lam = math.inf
    # A mean photon number |alpha|^2 above MAX_CUTOFF already needs a larger cutoff,
    # and one past the double range cannot be weighed at any cutoff.
    if mag > math.sqrt(MAX_CUTOFF) and (cutoff is None or lam == math.inf):
        raise ResourceLimit(f"|alpha| = {mag:.6g} needs a cutoff above {MAX_CUTOFF}")
    # every Poisson(lam) term past k is below e^-400 of the largest
    k = int(lam + 40 * math.sqrt(lam + 1) + 60) if lam else 0
    return _truncate(functools.partial(_poisson_weights, lam), k, cutoff, 1, max_tail,
                     f"|alpha| = {mag:.6g}")


def coherent_cutoff(alpha: complex, max_tail: float) -> int:
    """The smallest cutoff whose truncated Poisson weight is at most ``max_tail``."""
    return _coherent_truncation(alpha, None, max_tail)[0]


def coherent_state(alpha: complex, cutoff: int | None = None) -> FockVector:
    """Truncated coherent state |alpha>.

    With ``cutoff=None`` the smallest cutoff whose truncation weight does not
    exceed DEFAULT_MAX_TAIL is chosen (ResourceLimit if that is above MAX_CUTOFF).
    The attained tail weight is stored on the returned vector as a
    diagnostic; the vector is not renormalized.
    """
    cutoff, tail = _coherent_truncation(alpha, cutoff, DEFAULT_MAX_TAIL)
    return FockVector(coherent_amplitudes(alpha, cutoff), cutoff, tail_weight=tail)


def _squeezed_even_log_mags(params: SqueezedParams, n_pairs: int, start: int = 0) -> np.ndarray:
    """log |a_{2n}| for n = start..n_pairs, -inf entries for lambda = 0.

    The prefactor is 1/sqrt(cosh r), which makes sum_n |a_{2n}|^2 -> 1
    (sum_n |lam|^{2n} binom(2n, n) / 4^n equals cosh r for |lam| = tanh r).
    """
    lam = params.lam
    n = np.arange(start, n_pairs + 1)
    if lam == 0:
        return np.where(n == 0, 0.0, -np.inf)
    log_fact = log_factorials(2 * n_pairs)
    return (
        -0.5 * math.log(math.cosh(params.r))
        + n * math.log(abs(lam))
        + 0.5 * log_fact[2 * start :: 2]
        - n * math.log(2.0)
        - log_fact[start : n_pairs + 1]
    )


def _squeezed_pairs(params: SqueezedParams) -> int:
    """The pair count K past which the pairs weigh below the last bit of
    DEFAULT_MAX_TAIL: each pair weighs w_n <= t^n / cosh r with t = tanh^2 r,
    so those past K weigh at most t^(K+1) cosh r.  K is capped at MAX_CUTOFF
    pairs, where that bound is below 1e-20 for every r whose cutoff fits under
    MAX_CUTOFF."""
    log_t = 2 * math.log(math.tanh(params.r)) if params.r else -math.inf
    if log_t == 0:  # tanh r rounds to 1 from r = 19.1 on
        return MAX_CUTOFF
    negligible = math.log(2**-53 * DEFAULT_MAX_TAIL)
    return min(MAX_CUTOFF, int((math.log(math.cosh(params.r)) - negligible) / -log_t))


def squeezed_state(params: SqueezedParams, cutoff: int | None = None) -> FockVector:
    """Truncated squeezed vacuum a_{2n} = lam^n sqrt((2n)!) / (2^n n! sqrt(cosh r)).

    Odd amplitudes are exactly zero; with ``cutoff=None`` the smallest cutoff
    whose truncation weight does not exceed DEFAULT_MAX_TAIL is chosen
    (ResourceLimit if that is above MAX_CUTOFF).
    """
    cutoff, tail = _truncate(
        lambda start, stop: np.exp(2 * _squeezed_even_log_mags(params, stop, start)),
        _squeezed_pairs(params), cutoff, 2, DEFAULT_MAX_TAIL, f"squeezing r = {params.r:.6g}")
    n_pairs = cutoff // 2
    lam = params.lam
    phases = np.exp(1j * np.arange(n_pairs + 1) * np.angle(lam)) if lam != 0 else 1.0
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0 : 2 * n_pairs + 1 : 2] = np.exp(_squeezed_even_log_mags(params, n_pairs)) * phases
    return FockVector(amps, cutoff, tail_weight=tail)


def coherent_gram(alphas) -> np.ndarray:
    """Exact Gram matrix <alpha_j|alpha_l> of coherent products, alphas (k, modes)."""
    alphas = np.asarray(alphas, dtype=complex)
    sq = np.sum(np.abs(alphas) ** 2, axis=1)
    return np.exp(-0.5 * sq[:, None] - 0.5 * sq[None, :] + np.conj(alphas) @ alphas.T)


def superposition_to_fock(sup: CoherentSuperposition, cutoff: int | None = None) -> FockVector:
    """Fock expansion a_n = sum_k c_k e^{-|alpha_k|^2/2} alpha_k^n / sqrt(n!)."""
    if len(sup) == 0:
        raise ValueError("empty superposition")
    alphas = sup.displacements()
    if cutoff is None:
        # the Poisson tail grows with |alpha|, so the largest |alpha| sets the cutoff
        cutoff = coherent_cutoff(np.hypot(alphas.real, alphas.imag).max(), DEFAULT_MAX_TAIL)
    norm_sq = sup.norm_sq  # refuses a norm past the double range before the expansion
    amps = coherent_columns(alphas, cutoff) @ sup.coefficients()
    tail = max(0.0, norm_sq - float(np.vdot(amps, amps).real))
    return FockVector(amps, cutoff, tail_weight=tail)


def fidelity(a: FockVector, b: FockVector) -> float:
    """|<a|b>|^2 of the two truncations, renormalized before the overlap."""
    cutoff = max(a.cutoff, b.cutoff)
    x, y = a.padded(cutoff).amplitudes, b.padded(cutoff).amplitudes
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0 or ny == 0:
        raise ValueError("fidelity of a zero-norm vector is undefined")
    if nx * ny < 1e-150:  # (nx ny)^2 would underflow: divide by the norms first
        return min(1.0, float(abs(np.vdot(x / nx, y / ny)) ** 2))
    return min(1.0, float(abs(np.vdot(x, y)) ** 2 / (nx * ny) ** 2))


def complex_from_pair(pair) -> complex:
    """A descriptor's JSON [re, im] pair as a complex number."""
    if (
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and all(isinstance(x, (int, float)) for x in pair)
    ):
        try:
            return complex(*pair)
        except OverflowError:
            pass
    raise ValueError(f"expected a [re, im] pair of numbers, got {pair!r}")


def _typed(value, kinds, what: str, name: str):
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def int_field(value, name: str) -> int:
    """A descriptor's JSON integer; 2.0 reads as 2, while 1.5, true and "2" fail."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _typed(value, int, "an integer", name)


def real_field(value, name: str) -> float:
    """A descriptor's JSON number as a float."""
    try:
        return float(_typed(value, (int, float), "a number", name))
    except OverflowError:
        raise ValueError(f"{name}={value!r} is out of range") from None


def list_field(value, name: str) -> list:
    """A descriptor's JSON list."""
    return _typed(value, list, "a list", name)


def object_field(value, name: str) -> dict:
    """A descriptor's JSON object."""
    return _typed(value, dict, "an object", name)


def _check_cutoff(cutoff: int) -> None:
    if cutoff > MAX_CUTOFF:
        raise ResourceLimit(f"cutoff {cutoff} exceeds the supported {MAX_CUTOFF}")


def state_from_descriptor(descriptor: dict) -> FockVector:
    """The leading amplitudes of the unit vector a JSON descriptor names, at its cutoff.

    Supported forms (all with optional "cutoff"):
      {"type": "fock", "n": N}
      {"type": "core", "amps": [[re, im], ...]}
      {"type": "squeezed", "r": R, "phi": PHI}
      {"type": "superposition", "terms": [{"c": [re, im], "alpha": [re, im]}, ...]}
    """
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise ValueError("state descriptor must be an object with a 'type' field")
    kind = descriptor["type"]
    cutoff = descriptor.get("cutoff")
    if cutoff is not None:
        cutoff = int_field(cutoff, "cutoff")
        _check_non_negative(cutoff)
        _check_cutoff(cutoff)
    if kind == "fock":
        n = int_field(descriptor["n"], "n")
        _check_cutoff(n)
        return fock_state(n, cutoff)
    if kind == "core":
        amps = list_field(descriptor["amps"], "amps")
        _check_cutoff(len(amps) - 1)
        return core_state([complex_from_pair(a) for a in amps], cutoff)
    if kind == "squeezed":
        r = real_field(descriptor["r"], "r")
        params = SqueezedParams(r, real_field(descriptor.get("phi", 0.0), "phi"))
        return squeezed_state(params, cutoff)
    if kind == "superposition":
        terms = (object_field(t, "term") for t in list_field(descriptor["terms"], "terms"))
        sup = CoherentSuperposition(
            (complex_from_pair(t["c"]), complex_from_pair(t["alpha"])) for t in terms)
        psi, n = superposition_to_fock(sup, cutoff), sup.norm_sq
        # n = Re c^H G c is off by at most e = (12 s^2 + 2k + 16) u a^2 (u = 2^-53, a = sum|c_k|,
        # s = max|alpha_k| <= 8e6): each exponent of G sums terms of size <= s^2, off by at most
        # 11 u s^2 <= 1/11, so each entry (|G_jl| <= 1) by <= (12 s^2 + 5) u; the k-term products
        # c^H G and (c^H G) c add <= 2 (k + 2) u a^2, and 7 u a^2 is slack: sqrt(n + e) >= the norm.
        s = max(map(abs, sup.displacements().tolist()))
        a = sum(map(abs, sup.coefficients().tolist()))
        e = (12 * s * s + 2 * len(sup) + 16) * 2.0**-53 * a * a
        if not n > e:
            raise ValueError(f"terms cancel below rounding: squared norm {n:.3g} <= {e:.3g}")
        return FockVector(psi.amplitudes / math.sqrt(n + e), psi.cutoff, psi.tail_weight / (n + e))
    raise ValueError(f"unknown state type {kind!r}")
