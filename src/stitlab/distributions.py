"""Closed-form jump-time/count distributions with cancellation-aware numerics.

Conventions used throughout:

* `lseq` is an LSequence: normalized cumulative hitting weights
  values[0] = 1 < values[1] < ... <= k, plus the window rate.
* Every gamma-function ratio whose arguments may be negative is expanded as
  a finite product of (m - value) factors; the gamma function itself is
  never evaluated.
* Alternating sums use fully compensated summation (math.fsum) on the
  scalar paths and pairwise summation (numpy) on the vector paths.  Their
  conditioning is measured on the probability scale: the sum of term
  magnitudes bounds the absolute rounding error via the machine epsilon,
  and evaluation refuses to proceed (IllConditioned) once that bound can
  exceed ~1e-8.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, IllConditioned, TruncationFailure
from .processes import LSequence

# Fixed precision limits of the alternating sums: the longest sequence the
# continuous (N_MAX) and the discrete (ELL_MAX) jump laws evaluate, and the
# largest condition number either accepts.  Past them they raise IllConditioned.
N_MAX = 15
ELL_MAX = 12
CONDITION_LIMIT = 1e8
_CHUNK = 1 << 16
_ROW_BLOCK = 64  # divides _CHUNK


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for infinite series: absolute tail bound + term budget."""

    tail_bound: float = 1e-10
    max_terms: int = 10**6

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_bound < 1e-6:
            raise DomainError(f"tail_bound must be in (0, 1e-6), got {self.tail_bound!r}")
        if self.max_terms < 10:
            raise DomainError(f"max_terms must be >= 10, got {self.max_terms!r}")


# ---------------------------------------------------------------------------
# hypoexponential jump-time laws (continuous time)


def _node_gaps(vals: np.ndarray) -> np.ndarray:
    """prod_{j != i} (v_i - v_j) for each node v_i of `vals`."""
    diff = vals[:, None] - vals[None, :]
    np.fill_diagonal(diff, 1.0)
    return np.prod(diff, axis=1)


def _times(t) -> np.ndarray:
    """`t` (a scalar or an array) as a float array; a negative or NaN time
    is outside every law's domain."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0.0):
        raise DomainError(f"t must be nonnegative and not NaN, got {t!r}")
    return t_arr


def _check_condition(condition: float) -> None:
    if condition > CONDITION_LIMIT:
        raise IllConditioned(
            f"alternating sum condition {condition:.3g} exceeds {CONDITION_LIMIT:.3g}"
        )


def _stit_coefficients(lseq: LSequence, n: int) -> np.ndarray:
    if not 1 <= n <= len(lseq):
        raise DomainError(f"n={n} outside 1..{len(lseq)}")
    if n > N_MAX:
        raise IllConditioned(f"n={n} above the precision limit N_MAX={N_MAX}")
    vals = np.asarray(lseq.values[:n], dtype=float)
    coef = (np.prod(vals) / vals) / _node_gaps(vals)
    _check_condition(1.0 + float(np.sum(np.abs(coef))))
    return coef


def _jump_time_sum(lseq: LSequence, n: int, t, density: bool):
    """The n-th jump time's CDF, 1 + sign * sum_i c_i exp(-rate * v_i * t), or
    with `density` its derivative, unclamped; a scalar `t` is summed with
    math.fsum, an array `t` by a matrix product."""
    coef = _stit_coefficients(lseq, n)
    vals = np.asarray(lseq.values[:n], dtype=float)
    t_arr = _times(t)
    sign = -1.0 if n % 2 else 1.0
    if density:  # d/dt multiplies each term by -rate * v_i
        sign, coef = -sign, lseq.rate * vals * coef
    if t_arr.ndim == 0:
        terms = sign * coef * np.exp(-lseq.rate * vals * float(t_arr))
        return math.fsum(terms) if density else math.fsum([1.0, *terms])
    out = sign * (np.exp(-lseq.rate * np.multiply.outer(t_arr, vals)) @ coef)
    return out if density else 1.0 + out


def stit_jump_cdf(lseq: LSequence, n: int, t):
    """P(n-th jump time <= t): alternating Lagrange-weighted exponential sum.

    Accepts a scalar or array `t`; values within 1e-9 of [0, 1] are clamped
    onto the boundary.
    """
    return _clamp(_jump_time_sum(lseq, n, t, density=False))


def stit_jump_pdf(lseq: LSequence, n: int, t):
    """Density of the n-th jump time; nonnegative, integrates to one."""
    return _clamp(_jump_time_sum(lseq, n, t, density=True), math.inf)


def _clamp(x, top: float = 1.0):
    """Round-off clamp of a float, or in place of an array: values in
    (-1e-9, 0) become 0 and values in (top, top + 1e-9) become top."""
    if np.ndim(x) == 0:
        return 0.0 if -1e-9 < x < 0.0 else top if top < x < top + 1e-9 else x
    x[(x > -1e-9) & (x < 0.0)] = 0.0
    x[(x > top) & (x < top + 1e-9)] = top
    return x


# ---------------------------------------------------------------------------
# the product recurrence behind both discrete laws


def _product_chunks(
    term: np.ndarray, vals: np.ndarray, m0: int, count: int | None, reduce: Callable | None = None
) -> Iterator[np.ndarray]:
    """Yield the rows term(m) = term(m-1) * (m-1-v)/m for m = m0, m0+1, ...,
    one column per value v in `vals`, from term(m0) = `term`, in pieces:
    `count` rows in all, or without end when count is None.

    The rows fall into fixed windows of _CHUNK rows from m0 + j*_CHUNK: a
    window's rows are its first row times the running product of the ratios
    since it.  With a count, each piece is the rest of a window.  Without
    one, a piece has as many rows as were built before it (at least
    _ROW_BLOCK), so the first window grows 64, 64, 128, ... rows at a time and
    later ones come whole; a piece picks up the window's running product
    where the last one left it, so every row is bit-identical to a one-piece
    build.  Pieces are built in whole blocks of _ROW_BLOCK rows, then cut to
    the count: a matrix product rounds its last rows differently when their
    number is not a whole number of the BLAS kernel's blocks.  So no value
    depends on how many were asked for.  The product runs in place over
    contiguous memory, in a (columns, rows) array; each piece is then copied
    out as (rows, columns) and passed through `reduce` when one is given.
    """
    col = vals[:, None]
    done = 0
    while count is None or done < count:
        at = done % _CHUNK
        size = min(_CHUNK - at, max(_ROW_BLOCK, done) if count is None else count - done)
        built = -(-size // _ROW_BLOCK) * _ROW_BLOCK
        ms = np.arange(m0 + done - 1, m0 + done - 1 + built, dtype=float)  # m - 1
        prod = ms - col
        ms += 1.0
        prod /= ms
        if at == 0:  # the window's first row is its seed
            prod[:, 0] = 1.0
        else:
            prod[:, 0] *= carry
        np.cumprod(prod, axis=1, out=prod)
        carry = prod[:, size - 1].copy()
        prod *= term[:, None]
        rows = np.ascontiguousarray(prod.T)
        done += size
        if done % _CHUNK == 0:  # seed of the next window
            m_last = float(m0 + done - 1)
            term = rows[size - 1] * ((m_last - vals) / (m_last + 1.0))
        out = (rows if reduce is None else reduce(rows))[:size]
        # the prefix cache keeps a suspended generator between pieces: hold
        # on to nothing the next piece does not need
        del ms, prod, rows
        yield out


def _mass(chunks: Iterator[np.ndarray], stop_mass: float | None) -> float:
    """Sum of the values in `chunks`.  With `stop_mass` the sum stops after
    the first chunk that brings it to stop_mass; it is then a lower bound on
    the full sum."""
    total = 0.0
    for chunk in chunks:
        total += float(chunk.sum())
        if stop_mass is not None and total >= stop_mass:
            break
    return total


def _last_row(chunks: Iterator[np.ndarray]) -> np.ndarray:
    """The last entry (a value, or a row of terms) of the last chunk."""
    for chunk in chunks:
        pass
    return chunk[-1]


# ---------------------------------------------------------------------------
# discrete waiting-time law


def _check_waiting_args(n: int, k: int, l_k: float) -> None:
    if n < 1:
        raise DomainError(f"decision base n must be >= 1, got {n}")
    if n == 1:
        if k != 1:
            raise DomainError("n=1 admits only k=1 (the bare window)")
        if abs(l_k - 1.0) > 1e-12:
            raise DomainError("the single-cell weight is exactly 1")
        return
    if not 2 <= k <= n:
        raise DomainError(f"k={k} outside 2..n={n}")
    if not 1.0 <= l_k <= k * (1.0 + 1e-12):
        raise DomainError(f"l_k={l_k!r} outside [1, k={k}]")


def _waiting_chunks(n: int, l_k: float, count: int) -> Iterator[np.ndarray]:
    """pmf chunks over waits 1..count, n >= 2: the pmf at wait w is the
    product recurrence at m = n + w - 1 with the one value l_k, from l_k/n."""
    return _product_chunks(np.array([l_k / n]), np.array([l_k]), n, count, np.ravel)


def discrete_waiting_pmf(n: int, k: int, l_k: float, wait: int) -> float:
    """P(state with k cells after n-1 decisions changes after exactly `wait` steps).

    Evaluated as l_k/n times the finite product of the factors
    (m - 1 - l_k)/m, m = n+1 .. n+wait-1; the equivalent factorial/gamma
    form is never used directly.
    """
    _check_waiting_args(n, k, l_k)
    if wait < 1:
        raise DomainError(f"wait must be >= 1, got {wait}")
    if n == 1:
        return 1.0 if wait == 1 else 0.0
    return float(_last_row(_waiting_chunks(n, l_k, wait)))


def discrete_waiting_pmf_sequence(n: int, k: int, l_k: float, max_wait: int) -> np.ndarray:
    """Vector of discrete_waiting_pmf(n, k, l_k, w) for w = 1..max_wait."""
    _check_waiting_args(n, k, l_k)
    if max_wait < 1:
        raise DomainError(f"max_wait must be >= 1, got {max_wait}")
    if n == 1:
        out = np.zeros(max_wait)
        out[0] = 1.0
        return out
    return np.concatenate(list(_waiting_chunks(n, l_k, max_wait)))


def discrete_waiting_pmf_mass(
    n: int, k: int, l_k: float, max_wait: int, *, stop_mass: float | None = None
) -> float:
    """Total waiting-time probability mass over waits 1..max_wait (chunked).

    With `stop_mass` set, accumulation stops early once the mass reaches it;
    the returned value is then a lower bound on the full truncated sum.
    """
    _check_waiting_args(n, k, l_k)
    if n == 1:
        return 1.0 if max_wait >= 1 else 0.0
    return _mass(_waiting_chunks(n, l_k, max_wait), stop_mass)


# ---------------------------------------------------------------------------
# discrete jump-time law


def _jump_pmf_setup(
    lseq: LSequence, ell: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Coefficients c_i, seed terms at n=ell, weight values, and the sign*lead factor."""
    if not 2 <= ell <= len(lseq):
        raise DomainError(f"ell={ell} outside 2..{len(lseq)}")
    if ell > ELL_MAX:
        raise IllConditioned(f"ell={ell} above the precision limit ELL_MAX={ELL_MAX}")
    vals = np.asarray(lseq.values[1:ell], dtype=float)  # positions 2..ell
    coef = 1.0 / _node_gaps(vals)
    lead = float(np.prod(vals)) * (1.0 if ell % 2 == 0 else -1.0)
    # seed: (1/ell) * prod_{m=2}^{ell-1} (1 - value/m), one per weight value
    term = np.full(vals.shape, 1.0 / ell)
    for m in range(2, ell):
        term *= 1.0 - vals / m
    _check_condition(abs(lead) * float(np.sum(np.abs(coef * term))))
    return coef, term, vals, lead


def _jump_pmf_chunks(lseq: LSequence, ell: int, count: int | None = None) -> Iterator[np.ndarray]:
    """pmf chunks for n = ell, ell+1, ...: `count` values, or without end.

    Each pmf value is lead * sum_i c_i term_i(n) over the product recurrence;
    far-tail rounding can take individual values a few ulps below zero, which
    is clipped.  The set-up, and so any refusal, happens at the call, before
    the first chunk is asked for.
    """
    coef, term, vals, lead = _jump_pmf_setup(lseq, ell)

    def pmf(rows: np.ndarray) -> np.ndarray:
        out = lead * (rows @ coef)
        return np.maximum(out, 0.0, out=out)

    return _product_chunks(term, vals, ell, count, pmf)


def discrete_jump_pmf(lseq: LSequence, ell: int, n: int) -> float:
    """P(ell-th jump happens at decision n | frozen weight sequence), ell >= 2.

    The gamma-ratio factor for each weight value is the finite product
    prod_{m=2}^{n-1}(m - value) folded into 1/n! for stability; the outer
    alternating sum is fully compensated.
    """
    coef, term, vals, lead = _jump_pmf_setup(lseq, ell)
    if n < ell:
        raise DomainError(f"n={n} must be >= ell={ell}")
    row = _last_row(_product_chunks(term, vals, ell, n - ell + 1))
    return _clamp(float(lead * math.fsum(coef * row)))


def discrete_jump_pmf_sequence(lseq: LSequence, ell: int, n_last: int) -> np.ndarray:
    """Vector of discrete_jump_pmf for n = ell..n_last."""
    if n_last < ell:
        raise DomainError(f"n_last={n_last} must be >= ell={ell}")
    return np.concatenate(list(_jump_pmf_chunks(lseq, ell, n_last - ell + 1)))


def discrete_jump_pmf_mass(
    lseq: LSequence, ell: int, n_last: int, *, stop_mass: float | None = None
) -> float:
    """Total jump-time probability mass over decisions ell..n_last (chunked)."""
    return _mass(_jump_pmf_chunks(lseq, ell, n_last - ell + 1), stop_mass)


class _PmfPrefix:
    """The endless pmf stream of one (weight values, ell) as far as it has
    been built, in the generator's windows of _CHUNK values, and the
    cumulative mass at the end of each whole window: the mass before the
    window plus the window's running sum, which is carried from piece to
    piece, so no value depends on how the stream was grown."""

    def __init__(self, pieces: Iterator[np.ndarray]) -> None:
        self.pieces = pieces
        self.pmf: list[np.ndarray] = []
        self.mass: list[float] = []  # one per whole window
        self.rows = 0
        self.run = 0.0  # running sum of the window being grown

    @property
    def floats(self) -> int:
        return self.rows + len(self.mass)

    def grow(self, rows: int) -> int:
        """Build at least `rows` values; returns the floats this added."""
        before = self.floats
        while self.rows < rows:
            pmf = next(self.pieces)
            run = pmf.copy()
            run[0] += self.run
            self.run = float(np.cumsum(run, out=run)[-1])
            if self.rows % _CHUNK:  # the last window is still growing
                self.pmf[-1] = np.concatenate((self.pmf[-1], pmf))
            else:
                self.pmf.append(pmf)
            self.rows += pmf.size
            if self.rows % _CHUNK == 0:
                self.mass.append((self.mass[-1] if self.mass else 0.0) + self.run)
                self.run = 0.0
        return self.floats - before


class _PrefixCache(OrderedDict):
    """Least-recently-used memo of _PmfPrefix entries, with a running count
    of the floats they hold."""

    def __init__(self) -> None:
        super().__init__()
        self.floats = 0

    def clear(self) -> None:
        super().clear()
        self.floats = 0


# Memo of materialized pmf prefixes keyed by (weight values, ell).  The tail
# evaluator is typically called for many horizons of one frozen sequence, and
# the pmf stream is identical across those calls; only the geometric weights
# change.  Results are bit-identical with or without a cache hit.  Past the
# budget of floats held (pmf and window masses), the least recently used
# entries go.
_PMF_PREFIX_CACHE = _PrefixCache()
_PMF_PREFIX_CACHE_LOCK = threading.Lock()
_PMF_PREFIX_CACHE_MAX_FLOATS = 12_000_000


def _jump_pmf_window(
    lseq: LSequence, ell: int, n0: int, n_hi: int
) -> tuple[np.ndarray, float | None]:
    """The pmf of the window of the pmf stream that starts at decision
    n0 = ell + j*_CHUNK, built at least to n_hi, and the cumulative mass
    through its end (None while the window is not whole); memoized."""
    key = (lseq.values, ell)
    cache = _PMF_PREFIX_CACHE
    with _PMF_PREFIX_CACHE_LOCK:
        entry = cache.get(key)
        if entry is None:  # a refusal raises here, before the entry exists
            entry = cache[key] = _PmfPrefix(_jump_pmf_chunks(lseq, ell))
        cache.move_to_end(key)
        cache.floats += entry.grow(n_hi - ell + 1)
        while len(cache) > 1 and cache.floats > _PMF_PREFIX_CACHE_MAX_FLOATS:
            cache.floats -= cache.popitem(last=False)[1].floats
        j = (n0 - ell) // _CHUNK
        return entry.pmf[j], entry.mass[j] if j < len(entry.mass) else None


def mecke_jump_tail(
    lseq: LSequence, ell: int, t: float, policy: TruncationPolicy | None = None
) -> float:
    """P(at least ell jumps by time t | frozen weight sequence).

    Evaluates sum_n a^n * discrete_jump_pmf(n) with a = 1 - exp(-rate * t),
    truncated once the remaining mass provably drops below the policy's
    tail bound.  Two valid bounds are combined: the geometric envelope
    a^(N+1)/(1-a) and the sharper a^(N+1) * (1 - partial pmf mass); without
    the second, horizons with rate*t around 10 would need tens of millions
    of terms.  When a rounds to 1 (rate*t above about 37) neither bound can
    close the series, and it raises TruncationFailure at once.
    """
    t = float(_times(t))
    if not 1 <= ell <= len(lseq):
        raise DomainError(f"ell={ell} outside 1..{len(lseq)}")
    policy = policy if policy is not None else TruncationPolicy()
    a = -math.expm1(-lseq.rate * t)
    if a <= 0.0:
        return 0.0
    if ell == 1:  # the first jump happens at the first decision, always
        return a
    if a == 1.0:
        raise TruncationFailure(
            f"rate*t={lseq.rate * t!r}: 1 - exp(-rate*t) rounds to 1, so the series has no "
            "geometric decay to truncate"
        )
    log_a = math.log(a)
    # geometric envelope: a^(N+1)/(1-a) < tail_bound
    n_geo = math.ceil((math.log(policy.tail_bound) + math.log1p(-a)) / log_a) - 1
    if n_geo < ell:  # the whole series is already below the tail bound
        return 0.0
    total = 0.0
    n0 = ell
    while True:  # one window of the pmf stream at a time
        n1 = min(n0 + _CHUNK, n_geo + 1)
        pmf, mass = _jump_pmf_window(lseq, ell, n0, n1 - 1)
        ns = np.arange(n0, n1, dtype=float)
        # einsum, not a BLAS dot, so the sum does not depend on the thread count
        total += float(np.einsum("i,i->", np.exp(log_a * ns), pmf[: n1 - n0]))
        if n1 > n_geo:
            break
        # the window is whole: mass is the pmf's mass through n1 - 1
        if math.exp(log_a * n1) * max(0.0, 1.0 - mass) < policy.tail_bound:
            break
        if n1 - ell >= policy.max_terms:
            raise TruncationFailure(
                f"needed more than max_terms={policy.max_terms} terms for t={t!r}"
            )
        n0 = n1
    return min(total, 1.0)


# ---------------------------------------------------------------------------
# geometric decision/jump counting laws


def nu_pmf(rate: float, t: float, k) -> float | np.ndarray:
    """P(number of decisions by time t = k): geometric with parameter e^(-rate*t)."""
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate!r}")
    t = float(_times(t))
    k_arr = np.asarray(k)
    if np.any(k_arr < 0):
        raise DomainError("k must be nonnegative")
    p = math.exp(-rate * t)
    a = -math.expm1(-rate * t)
    out = p * np.power(a, k_arr, dtype=float)
    return float(out) if out.ndim == 0 else out


def cowan_sum_cdf(rate: float, n: int, t) -> float | np.ndarray:
    """CDF of the sum of independent Exp(k * rate) waits, k = 1..n."""
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate!r}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    t_arr = _times(t)
    out = np.power(-np.expm1(-rate * t_arr), n)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# deterministic identity checkers (residuals, not booleans)


def _check_distinct(nodes: np.ndarray) -> None:
    if nodes.size < 1:
        raise DomainError("need at least one node")
    diff = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(diff, np.inf)
    if float(diff.min()) == 0.0:
        raise DomainError("nodes must be pairwise distinct")


def _lagrange_weights_at(nodes: np.ndarray, x_eval: float) -> np.ndarray:
    """w_k = prod_{i != k} (x_eval - x_i)/(x_k - x_i)."""
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    num = x_eval - nodes
    weights = np.empty_like(nodes)
    for k in range(nodes.size):
        row = num.copy()
        row[k] = 1.0
        weights[k] = np.prod(row / diff[k])
    return weights


def verify_lagrange_identity(nodes, x_eval: float) -> float:
    """Residual of: the Lagrange interpolant of f = 1 equals 1 everywhere.

    The residual is measured relative to the largest term magnitude (floored
    at one) so that it reflects precision actually lost to cancellation
    rather than the raw size of the interpolation weights.
    """
    arr = np.asarray(nodes, dtype=float)
    _check_distinct(arr)
    weights = _lagrange_weights_at(arr, float(x_eval))
    scale = max(1.0, float(np.max(np.abs(weights))))
    return abs(math.fsum(weights) - 1.0) / scale


def verify_lagrange_gamma_identity(nodes, x_eval: float) -> float:
    """Residual of interpolating f(x) = prod_{m=2}^{len(nodes)} (m - x).

    f has degree len(nodes) - 1, i.e. one less than the node count, so its
    interpolant reproduces it exactly; this is the polynomial form of the
    gamma-ratio extrapolation used by the discrete jump-time law.  The
    residual is scaled as in verify_lagrange_identity.
    """
    arr = np.asarray(nodes, dtype=float)
    _check_distinct(arr)
    x = float(x_eval)

    def f(v: float) -> float:
        out = 1.0
        for m in range(2, arr.size + 1):
            out *= m - v
        return out

    terms = _lagrange_weights_at(arr, x) * np.array([f(v) for v in arr])
    direct = f(x)
    scale = max(1.0, abs(direct), float(np.max(np.abs(terms))))
    return abs(math.fsum(terms) - direct) / scale


def verify_telescoping_identity(l_i: float, l_next: float, ell: int, n: int) -> float:
    """Residual of the gamma-ratio telescoping sum over decisions ell..n-1.

    Both sides are normalized by their common gamma prefactor so that only
    finite products of (m - value) factors are evaluated:
    sum_{k=ell}^{n-1} r(k)/s(k+1) = (1 - r(n)/s(n)) / (l_i - l_next)
    with r(k) = prod_{m=ell}^{k-1} (m - l_i) and s likewise for l_next.
    """
    if ell < 1 or n < ell + 1:
        raise DomainError(f"need n >= ell+1 >= 2, got ell={ell}, n={n}")
    if abs(l_i - l_next) < 1e-12:
        raise DomainError("weight values must be distinct")
    if any(abs(m - l_next) < 1e-12 for m in range(ell, n)):
        raise DomainError("l_next too close to an integer pole")
    r = 1.0
    s_next = ell - l_next  # s(k+1) at k = ell
    lhs_terms = []
    for k in range(ell, n):
        lhs_terms.append(r / s_next)
        r *= k - l_i
        s_next *= k + 1 - l_next
    s_n = s_next / (n - l_next)
    rhs = (1.0 - r / s_n) / (l_i - l_next)
    return abs(math.fsum(lhs_terms) - rhs)


def verify_binomial_gamma_identity(ell: int, k: int, l_value: float) -> float:
    """Residual of the binomial/gamma coefficient collapse used by the
    continuous-time comparison.

    Normalized by the common gamma prefactor:
    sum_{n=k}^{ell-1} q(n)/(n-k)! = q(ell) / ((ell-k-1)! * (k - l_value))
    with q(n) = prod_{m=k}^{n-1} (m - l_value).
    """
    if ell < 2 or not 0 <= k <= ell - 1:
        raise DomainError(f"need ell >= 2 and 0 <= k <= ell-1, got ell={ell}, k={k}")
    if any(abs(m - l_value) < 1e-12 for m in range(k, ell)):
        raise DomainError("l_value too close to an integer pole")
    q = 1.0
    lhs_terms = []
    fact = 1.0
    for n in range(k, ell):
        if n > k:
            fact *= n - k
        lhs_terms.append(q / fact)
        q *= n - l_value
    rhs = q / (math.factorial(ell - k - 1) * (k - l_value))
    return abs(math.fsum(lhs_terms) - rhs)
