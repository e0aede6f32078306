"""Single-mode bosonic states in the truncated Fock basis.

States are stored as finite complex amplitude vectors (index n = Fock
number).  Coherent states follow a_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!),
squeezed states a_{2n} = (1/cosh r) lambda^n sqrt((2n)!) / (2^n n!) with
lambda = -e^{i phi} tanh(r).  All factorial-bearing amplitudes are assembled
in the log domain so large Fock numbers stay inside double range.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln, xlogy

from .errors import ResourceLimit

NORM_TOL = 1e-12

# Largest cutoff (amplitude vector length MAX_CUTOFF + 1) a state may have.
MAX_CUTOFF = 100_000

# Displacements closer than this are treated as the same coherent state.
ALPHA_MERGE_TOL = 1e-12

# Cap on the truncation weight of an infinite-support state with an auto-chosen cutoff.
DEFAULT_MAX_TAIL = 1e-12


@dataclass(frozen=True)
class FockVector:
    """A single-mode pure state truncated at ``cutoff``.

    ``normalized`` marks vectors whose stored norm is 1 to within 1e-12;
    truncated infinite-support states keep the flag off and carry the
    truncation weight in ``tail_weight`` instead of being silently
    renormalized.
    """

    amplitudes: np.ndarray
    cutoff: int
    normalized: bool = False
    tail_weight: float | None = None

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a 1-d sequence")
        if len(amps) != self.cutoff + 1:
            raise ValueError(
                f"length {len(amps)} does not match cutoff {self.cutoff}"
            )
        if not np.all(np.isfinite(amps.real)) or not np.all(np.isfinite(amps.imag)):
            raise ValueError("amplitudes must be finite")
        if self.normalized:
            norm_sq = float(np.vdot(amps, amps).real)
            if abs(norm_sq - 1.0) > NORM_TOL:
                raise ValueError(f"normalized flag set but |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")

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
        return FockVector(amps, cutoff, self.normalized, self.tail_weight)


@dataclass(frozen=True)
class CoherentTerm:
    """One branch c |alpha> of a coherent superposition."""

    c: complex
    alpha: complex

    def __post_init__(self):
        for name in ("c", "alpha"):
            z = complex(getattr(self, name))
            object.__setattr__(self, name, z)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError(f"{name} must be finite")


def merge_coincident(coeffs, alphas):
    """Merge terms whose displacements coincide within ALPHA_MERGE_TOL.

    ``alphas`` is (k, modes), one displacement row per term; rows are
    compared by their max-abs distance over the modes.  Scanning in order,
    each term joins the first kept row it matches, whose displacement stays,
    or becomes a kept row itself.  Returns the kept coefficients and rows.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    alphas = np.asarray(alphas, dtype=complex)
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


@dataclass(frozen=True)
class CoherentSuperposition:
    """Finite superposition sum_k c_k |alpha_k> with pairwise distinct alpha.

    Terms whose displacements coincide within ALPHA_MERGE_TOL are merged at
    construction by summing their coefficients (see ``merge_coincident``).
    """

    terms: tuple

    def __init__(self, terms):
        terms = [t if isinstance(t, CoherentTerm) else CoherentTerm(*t) for t in terms]
        coeffs, alphas = merge_coincident([t.c for t in terms], [[t.alpha] for t in terms])
        object.__setattr__(self, "terms", tuple(map(CoherentTerm, coeffs, alphas.reshape(-1))))

    def __len__(self) -> int:
        return len(self.terms)

    def coefficients(self) -> np.ndarray:
        return np.array([t.c for t in self.terms], dtype=complex)

    def displacements(self) -> np.ndarray:
        return np.array([t.alpha for t in self.terms], dtype=complex)


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
    return FockVector(amps, cutoff, normalized=True, tail_weight=0.0)


def core_state(amplitudes, cutoff: int | None = None) -> FockVector:
    """A normalized finite superposition of Fock states."""
    amps = np.asarray(amplitudes, dtype=complex)
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("core state must have a nonzero amplitude")
    amps = amps / norm
    if cutoff is not None and cutoff + 1 > len(amps):
        amps = np.concatenate([amps, np.zeros(cutoff + 1 - len(amps), dtype=complex)])
    return FockVector(amps, len(amps) - 1, normalized=True, tail_weight=0.0)


@functools.lru_cache(maxsize=64)
def _fock_index_column(cutoff: int) -> tuple:
    """(n, log sqrt(n!)) as read-only (cutoff+1) x 1 columns."""
    n = np.arange(cutoff + 1)[:, None]
    half_log_fact = 0.5 * gammaln(n + 1)
    n.flags.writeable = half_log_fact.flags.writeable = False
    return n, half_log_fact


def coherent_columns(alphas, cutoff: int) -> np.ndarray:
    """(cutoff+1) x k matrix with column k the truncated coherent state
    e^{-|alpha_k|^2/2} alpha_k^n / sqrt(n!), n <= cutoff."""
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    mags = np.abs(alphas)
    n, half_log_fact = _fock_index_column(cutoff)
    # xlogy(0, 0) = 0 makes the alpha = 0 column exactly the vacuum
    log_mag = -0.5 * mags**2 + xlogy(n, mags) - half_log_fact
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alphas))


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n <= cutoff."""
    return coherent_columns(alpha, cutoff)[:, 0]


def coherent_tail_weight(alpha: complex, cutoff: int) -> float:
    """Probability weight of the truncated Poisson tail beyond ``cutoff``."""
    lam = abs(complex(alpha)) ** 2
    if lam == 0:
        return 0.0
    # P(N > cutoff) for N ~ Poisson(lam), via the regularized incomplete gamma.
    return float(gammainc(cutoff + 1, lam))


def _smallest_passing(passes, hi: int) -> int:
    """Smallest n in [0, hi] with passes(n), for a predicate that holds at hi
    and, once it holds, holds for every larger n (bisection)."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _auto_coherent_cutoff(alpha: complex, max_tail: float) -> int:
    mag = abs(complex(alpha))
    # A mean photon number |alpha|^2 above MAX_CUTOFF already needs a larger cutoff.
    if mag > math.sqrt(MAX_CUTOFF):
        raise ResourceLimit(f"|alpha| = {mag:.6g} needs a cutoff above {MAX_CUTOFF}")
    lam = mag**2
    c = min(max(8, int(lam + 10 * math.sqrt(lam + 1))), MAX_CUTOFF)
    while coherent_tail_weight(alpha, c) > max_tail:
        if c == MAX_CUTOFF:
            raise ResourceLimit(
                f"|alpha| = {mag:.6g} needs a cutoff above {MAX_CUTOFF} "
                f"for tail weight <= {max_tail:.3g}"
            )
        c = min(int(1.5 * c) + 8, MAX_CUTOFF)
    return _smallest_passing(lambda n: coherent_tail_weight(alpha, n) <= max_tail, c)


def coherent_state(alpha: complex, cutoff: int | None = None) -> FockVector:
    """Truncated coherent state |alpha>.

    With ``cutoff=None`` the smallest cutoff whose truncation weight does not
    exceed DEFAULT_MAX_TAIL is chosen (ResourceLimit if that is above MAX_CUTOFF).
    The attained tail weight is stored on the returned vector as a
    diagnostic; the vector is not renormalized.
    """
    if cutoff is None:
        cutoff = _auto_coherent_cutoff(alpha, DEFAULT_MAX_TAIL)
    tail = coherent_tail_weight(alpha, cutoff)
    return FockVector(
        coherent_amplitudes(alpha, cutoff), cutoff, normalized=False, tail_weight=tail
    )


def _squeezed_even_log_mags(params: SqueezedParams, n_pairs: int) -> np.ndarray:
    """log |a_{2n}| for n = 0..n_pairs, -inf entries for lambda = 0.

    The prefactor is 1/sqrt(cosh r), which makes sum_n |a_{2n}|^2 -> 1
    (sum_n |lam|^{2n} binom(2n, n) / 4^n equals cosh r for |lam| = tanh r).
    """
    lam = params.lam
    n = np.arange(n_pairs + 1)
    if lam == 0:
        out = np.full(n_pairs + 1, -np.inf)
        out[0] = 0.0
        return out
    return (
        -0.5 * math.log(math.cosh(params.r))
        + n * math.log(abs(lam))
        + 0.5 * gammaln(2 * n + 1)
        - n * math.log(2.0)
        - gammaln(n + 1)
    )


def squeezed_state(params: SqueezedParams, cutoff: int | None = None) -> FockVector:
    """Truncated squeezed vacuum a_{2n} = lam^n sqrt((2n)!) / (2^n n! sqrt(cosh r)).

    Odd amplitudes are exactly zero; with ``cutoff=None`` the smallest cutoff
    whose truncation weight does not exceed DEFAULT_MAX_TAIL is chosen
    (ResourceLimit if that is above MAX_CUTOFF).
    """
    if cutoff is None:
        max_pairs = MAX_CUTOFF // 2
        n_pairs = 4
        while True:
            weights = np.exp(2 * _squeezed_even_log_mags(params, n_pairs))
            if 1.0 - weights.sum() <= DEFAULT_MAX_TAIL:
                break
            if n_pairs == max_pairs:
                raise ResourceLimit(
                    f"squeezing r = {params.r:.6g} needs a cutoff above {MAX_CUTOFF} "
                    f"for tail weight <= {DEFAULT_MAX_TAIL:.3g}"
                )
            n_pairs = min(2 * n_pairs, max_pairs)
        # cutoff 2n keeps weights[:n + 1]
        cutoff = 2 * _smallest_passing(
            lambda n: 1.0 - weights[: n + 1].sum() <= DEFAULT_MAX_TAIL, n_pairs
        )
    n_pairs = cutoff // 2
    log_mags = _squeezed_even_log_mags(params, n_pairs)
    lam = params.lam
    phases = np.exp(1j * np.arange(n_pairs + 1) * np.angle(lam)) if lam != 0 else 1.0
    amps = np.zeros(cutoff + 1, dtype=complex)
    with np.errstate(over="ignore"):
        amps[0 : 2 * n_pairs + 1 : 2] = np.exp(log_mags) * phases
    tail = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    return FockVector(amps, cutoff, normalized=False, tail_weight=tail)


def coherent_gram(alphas) -> np.ndarray:
    """Exact Gram matrix <alpha_j|alpha_l> of coherent products, alphas (k, modes)."""
    alphas = np.asarray(alphas, dtype=complex)
    sq = np.sum(np.abs(alphas) ** 2, axis=1)
    return np.exp(-0.5 * sq[:, None] - 0.5 * sq[None, :] + np.conj(alphas) @ alphas.T)


def superposition_norm_sq(sup) -> float:
    """Exact squared norm of a single- or multimode coherent superposition."""
    c = sup.coefficients()
    gram = coherent_gram(sup.displacements().reshape(len(c), -1))
    return float(np.real(np.conj(c) @ gram @ c))


def superposition_to_fock(sup: CoherentSuperposition, cutoff: int | None = None) -> FockVector:
    """Fock expansion a_n = sum_k c_k e^{-|alpha_k|^2/2} alpha_k^n / sqrt(n!)."""
    if len(sup) == 0:
        raise ValueError("empty superposition")
    if cutoff is None:
        cutoff = max(_auto_coherent_cutoff(t.alpha, DEFAULT_MAX_TAIL) for t in sup.terms)
    amps = coherent_columns(sup.displacements(), cutoff) @ sup.coefficients()
    tail = max(0.0, superposition_norm_sq(sup) - float(np.vdot(amps, amps).real))
    return FockVector(amps, cutoff, normalized=False, tail_weight=tail)


def fidelity(a: FockVector, b: FockVector) -> float:
    """|<a|b>|^2 of the two truncations, renormalized before the overlap."""
    cutoff = max(a.cutoff, b.cutoff)
    x, y = a.padded(cutoff).amplitudes, b.padded(cutoff).amplitudes
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0 or ny == 0:
        raise ValueError("fidelity of a zero-norm vector is undefined")
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
    """Build a single-mode state from a JSON descriptor.

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
        if cutoff < 0:
            raise ValueError(f"cutoff must be non-negative, got {cutoff}")
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
        terms = []
        for t in list_field(descriptor["terms"], "terms"):
            t = object_field(t, "term")
            terms.append(CoherentTerm(complex_from_pair(t["c"]), complex_from_pair(t["alpha"])))
        return superposition_to_fock(CoherentSuperposition(terms), cutoff)
    raise ValueError(f"unknown state type {kind!r}")
