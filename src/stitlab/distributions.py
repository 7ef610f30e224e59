"""Closed-form jump-time/count distributions with cancellation-aware numerics.

Conventions used throughout:

* `lseq` is an LSequence: normalized cumulative hitting weights
  values[0] = 1 <= values[1] <= ... <= k, plus the window rate.
* Every gamma-function ratio whose arguments may be negative is expanded as
  a finite product of (m - value) factors; the gamma function itself is
  never evaluated.
* Every law of a time takes a scalar or an array of times and evaluates a
  scalar as a grid of one, so a value is the same, bit for bit, alone or in
  any grid; the jump-time laws sum each time's terms by an einsum row, not
  by BLAS.  Each discrete law is one pmf stream, the product recurrence
  reduced by an einsum over its columns with round-off negatives clipped
  to 0; point values, sequences and masses read it.  The jump tail does not
  read the recurrence: Mecke's series over it has a finite closed form,
  ell - 1 weight columns of ell exponential terms each, and nothing is
  truncated.  Nothing is memoized between calls.  Conditioning is measured
  on the probability scale: the sum of term magnitudes bounds the absolute
  rounding error via the machine epsilon, and evaluation refuses to proceed
  (IllConditioned) once that bound can exceed ~1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, IllConditioned
from .processes import LSequence

# Fixed precision limits of the alternating sums: the longest sequence the
# continuous (N_MAX) and the discrete (ELL_MAX) jump laws evaluate, and the
# largest condition number either accepts.  Past them they raise IllConditioned.
N_MAX = 15
ELL_MAX = 12
CONDITION_LIMIT = 1e8
_CHUNK = 1 << 16


@dataclass(frozen=True)
class TruncationPolicy:
    """Stopping rule for an infinite series: absolute tail bound + term budget.

    No evaluator truncates a series: mecke_jump_tail sums its series in
    closed form and accepts a policy without using it.  A policy is still
    validated when it is made."""

    tail_bound: float = 1e-10
    max_terms: int = 10**7

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
    diff.flat[:: vals.size + 1] = 1.0  # the diagonal; np.fill_diagonal costs ten times more
    return diff.prod(axis=1)


def _times(t) -> np.ndarray:
    """`t` (a scalar or an array) as a float array; a negative or NaN time
    is outside every law's domain."""
    t_arr = np.asarray(t, dtype=float)
    if not (t_arr >= 0.0).all():
        raise DomainError(f"t must be nonnegative and not NaN, got {t!r}")
    return t_arr


def _check_condition(condition: float) -> None:
    if not condition <= CONDITION_LIMIT:  # NaN too: inf * 0 at equal nodes
        raise IllConditioned(
            f"alternating sum condition {condition:.3g} exceeds {CONDITION_LIMIT:.3g}"
        )


@np.errstate(divide="ignore")  # equal nodes: refused by the condition
def _stit_coefficients(lseq: LSequence, n: int) -> np.ndarray:
    if not 1 <= n <= len(lseq):
        raise DomainError(f"n={n} outside 1..{len(lseq)}")
    if n > N_MAX:
        raise IllConditioned(f"n={n} above the precision limit N_MAX={N_MAX}")
    vals = np.asarray(lseq.values[:n], dtype=float)
    coef = (np.prod(vals) / vals) / _node_gaps(vals)
    _check_condition(1.0 + float(np.sum(np.abs(coef))))
    return coef


def _jump_time_sum(lseq: LSequence, n: int, t, density: bool, top: float):
    """The n-th jump time's CDF, 1 + sign * sum_i c_i exp(-rate * v_i * t), or
    with `density` its derivative; values within 1e-9 outside [0, top] are
    clamped onto it.  A scalar `t` is a grid of one (and gives a float)."""
    coef = _stit_coefficients(lseq, n)
    vals = np.asarray(lseq.values[:n], dtype=float)
    t_arr = _times(t)
    sign = -1.0 if n % 2 else 1.0
    if density:  # d/dt multiplies each term by -rate * v_i
        sign, coef = -sign, lseq.rate * vals * coef
    terms = np.exp(-lseq.rate * np.multiply.outer(t_arr.ravel(), vals))
    out = sign * np.einsum("ij,j->i", terms, coef)
    if not density:
        out += 1.0
    out[(out > -1e-9) & (out < 0.0)] = 0.0  # round-off past either end
    out[(out > top) & (out < top + 1e-9)] = top
    return _as_given(out, t_arr)


def _as_given(values: np.ndarray, like: np.ndarray):
    """Flat `values` in the shape of the argument `like`: a float for a 0-d
    argument, else an array."""
    return float(values[0]) if like.ndim == 0 else values.reshape(like.shape)


def stit_jump_cdf(lseq: LSequence, n: int, t):
    """P(n-th jump time <= t): alternating Lagrange-weighted exponential sum.

    Accepts a scalar or array `t`; values within 1e-9 of [0, 1] are clamped
    onto the boundary.
    """
    return _jump_time_sum(lseq, n, t, density=False, top=1.0)


def stit_jump_pdf(lseq: LSequence, n: int, t):
    """Density of the n-th jump time; nonnegative, integrates to one."""
    return _jump_time_sum(lseq, n, t, density=True, top=math.inf)


# ---------------------------------------------------------------------------
# the product recurrence behind both discrete laws


def _product_chunks(
    term: np.ndarray, vals: np.ndarray, m0: int, count: int, reduce: Callable
) -> Iterator[np.ndarray]:
    """Yield the rows term(m) = term(m-1) * (m-1-v)/m for m = m0 .. m0+count-1,
    one column per value v in `vals`, from term(m0) = `term`, in pieces.

    The rows fall into fixed windows of _CHUNK rows from m0 + j*_CHUNK: a
    window's rows are its first row times the running product of the ratios
    since it, and each piece is the rest of a window, so no value depends on
    how many were asked for.  The product runs in place over contiguous
    memory, in a (columns, rows) array, which is passed as built through
    `reduce`.  At most a window of rows is held at a time.
    """
    col = vals[:, None]
    done = 0
    while done < count:
        size = min(_CHUNK, count - done)
        ms = np.arange(m0 + done - 1, m0 + done - 1 + size, dtype=float)  # m - 1
        prod = ms - col
        ms += 1.0
        prod /= ms
        del ms
        prod[:, 0] = 1.0  # the window's first row is its seed
        prod.cumprod(axis=1, out=prod)
        prod *= term[:, None]
        done += size
        if size == _CHUNK:  # seed of the next window
            m_last = float(m0 + done - 1)
            term = prod[:, size - 1] * ((m_last - vals) / (m_last + 1.0))
        out = reduce(prod)
        del prod
        yield out
        del out  # neither piece is held while the next one is built


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


def _count(last: int, first: int, name: str) -> int:
    """The number of stream values first..last; the range must not be empty."""
    if last < first:
        raise DomainError(f"{name}={last} must be >= {first}")
    return last - first + 1


def _values_at(chunks: Callable[[int], Iterator[np.ndarray]], x, first: int, name: str):
    """The values of a pmf stream at the indices `x` (an int or a sequence of
    ints, each >= first; the stream starts at index `first`): one pass over
    the stream's first max(x) - first + 1 values, chunks(count), picking each
    value out as its chunk passes.  A float for an int, else an array."""
    at = np.asarray(x)
    if at.size and not np.issubdtype(at.dtype, np.integer):
        raise DomainError(f"{name} must be of integer type, got {at.dtype} values")
    at = at - first
    if at.size and at.min() < 0:
        raise DomainError(f"{name}={first + int(at.min())} must be >= {first}")
    order = np.argsort(at, axis=None)
    want = at.ravel()[order]
    out = np.empty(at.size)
    i = lo = 0
    for chunk in chunks(int(want[-1]) + 1 if at.size else 0):
        hi = lo + chunk.size
        j = int(np.searchsorted(want, hi))
        out[order[i:j]] = chunk[want[i:j] - lo]
        i, lo = j, hi
        del chunk  # not held while the next chunk is built
    return float(out[0]) if at.ndim == 0 else out.reshape(at.shape)


# ---------------------------------------------------------------------------
# discrete waiting-time law


def _check_waiting_args(n: int, k: int, l_k: float) -> None:
    if n < 1:
        raise DomainError(f"decision base n must be >= 1, got {n}")
    if not min(n, 2) <= k <= n:
        raise DomainError(f"k={k} outside {min(n, 2)}..n={n}")
    if not 1.0 <= l_k <= k:
        raise DomainError(f"l_k={l_k!r} outside [1, k={k}]")


def _waiting_chunks(n: int, l_k: float, count: int) -> Iterator[np.ndarray]:
    """pmf chunks over waits 1..count: the pmf at wait w is the product
    recurrence at m = n + w - 1 with the one value l_k, from l_k/n."""
    return _product_chunks(np.array([l_k / n]), np.array([l_k]), n, count, np.ravel)


def discrete_waiting_pmf(n: int, k: int, l_k: float, wait) -> float | np.ndarray:
    """P(state with k cells after n-1 decisions changes after exactly `wait` steps).

    `wait` is an int (the answer is a float) or a sequence of ints (an
    array).  Evaluated as l_k/n times the finite product of the factors
    (m - 1 - l_k)/m, m = n+1 .. n+wait-1, read off the stream of
    discrete_waiting_pmf_sequence; the equivalent factorial/gamma form is
    never used directly.
    """
    _check_waiting_args(n, k, l_k)
    return _values_at(lambda count: _waiting_chunks(n, l_k, count), wait, 1, "wait")


def discrete_waiting_pmf_sequence(n: int, k: int, l_k: float, max_wait: int) -> np.ndarray:
    """Vector of discrete_waiting_pmf(n, k, l_k, w) for w = 1..max_wait."""
    _check_waiting_args(n, k, l_k)
    return np.concatenate(list(_waiting_chunks(n, l_k, _count(max_wait, 1, "max_wait"))))


def discrete_waiting_pmf_mass(
    n: int, k: int, l_k: float, max_wait: int, *, stop_mass: float | None = None
) -> float:
    """Total waiting-time probability mass over waits 1..max_wait (chunked).

    With `stop_mass` set, accumulation stops early once the mass reaches it;
    the returned value is then a lower bound on the full truncated sum.
    """
    _check_waiting_args(n, k, l_k)
    return _mass(_waiting_chunks(n, l_k, _count(max_wait, 1, "max_wait")), stop_mass)


# ---------------------------------------------------------------------------
# discrete jump-time law


@np.errstate(divide="ignore", invalid="ignore")  # equal nodes: refused by the condition
def _jump_pmf_setup(lseq: LSequence, ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Coefficients c_i, seed terms at n=ell, weight values, and the sign*lead factor."""
    if not 2 <= ell <= len(lseq):
        raise DomainError(f"ell={ell} outside 2..{len(lseq)}")
    if ell > ELL_MAX:
        raise IllConditioned(f"ell={ell} above the precision limit ELL_MAX={ELL_MAX}")
    vals = np.asarray(lseq.values[1:ell], dtype=float)  # positions 2..ell
    coef = 1.0 / _node_gaps(vals)
    lead = float(vals.prod()) * (1.0 if ell % 2 == 0 else -1.0)
    # seed: (1/ell) * prod_{m=2}^{ell-1} (1 - value/m), one per weight value
    term = np.full(vals.shape, 1.0 / ell)
    for m in range(2, ell):
        term *= 1.0 - vals / m
    _check_condition(abs(lead) * float(np.abs(coef * term).sum()))
    return coef, term, vals, lead


def _jump_pmf_chunks(lseq: LSequence, ell: int, count: int) -> Iterator[np.ndarray]:
    """pmf chunks for n = ell .. ell + count - 1.

    Each pmf value is lead * sum_i c_i term_i(n) over the product recurrence;
    far-tail rounding can take individual values a few ulps below zero, which
    is clipped.  The set-up, and so any refusal, happens at the call, before
    the first chunk is asked for.
    """
    coef, term, vals, lead = _jump_pmf_setup(lseq, ell)

    def pmf(block: np.ndarray) -> np.ndarray:
        out = np.einsum("ji,j->i", block, coef)
        out *= lead
        return np.maximum(out, 0.0, out=out)

    return _product_chunks(term, vals, ell, count, pmf)


def discrete_jump_pmf(lseq: LSequence, ell: int, n) -> float | np.ndarray:
    """P(ell-th jump happens at decision n | frozen weight sequence), ell >= 2.

    `n` is an int (the answer is a float) or a sequence of ints (an array).
    The gamma-ratio factor for each weight value is the finite product
    prod_{m=2}^{n-1}(m - value) folded into 1/n! for stability.  The values
    are read off the stream of discrete_jump_pmf_sequence in one pass, so
    they equal its values bit for bit.
    """
    return _values_at(lambda count: _jump_pmf_chunks(lseq, ell, count), n, ell, "n")


def discrete_jump_pmf_sequence(lseq: LSequence, ell: int, n_last: int) -> np.ndarray:
    """Vector of discrete_jump_pmf for n = ell..n_last."""
    return np.concatenate(list(_jump_pmf_chunks(lseq, ell, _count(n_last, ell, "n_last"))))


def discrete_jump_pmf_mass(
    lseq: LSequence, ell: int, n_last: int, *, stop_mass: float | None = None
) -> float:
    """Total jump-time probability mass over decisions ell..n_last (chunked)."""
    return _mass(_jump_pmf_chunks(lseq, ell, _count(n_last, ell, "n_last")), stop_mass)


def mecke_jump_tail(lseq: LSequence, ell: int, t, policy: TruncationPolicy | None = None):
    """P(at least ell jumps by time t | frozen weight sequence); `t` is a
    scalar (a float back) or an array (an array back).

    Mecke's series sum_n a^n * discrete_jump_pmf(n), a = 1 - q and
    q = exp(-rate * t), in closed form.  The pmf is lead * sum_i c_i T_i(n)
    over the weight columns of the product recurrence (`_jump_pmf_setup`),
    and each column is a^ell T_i(ell) 2F1(1, ell - v_i; ell + 1; a), which
    Euler's transformation turns into a finite sum of ell exponentials:
        sum_{n>=ell} a^n T_i(n)
          = ell T_i(ell) sum_{k<ell} C(ell-1, k) (-1)^k (q^v_i - q^k)/(k - v_i).
    Each term is computed as q^min(v_i, k) * -expm1(-rate*t*gap)/gap with
    gap = |v_i - k|, which has no overflow at any rate*t, t = inf included.
    A term with gap 0 (v_i = k, an integer below ell) takes its limit,
    q^k * rate*t; its column's seed T_i(ell) is 0 unless k = 1.  The tail is
    lead * sum_i c_i times the column sums, one einsum row per time, so a
    time's value is the same, bit for bit, alone or in any grid.

    The binomial sum cancels.  Its condition, the sum of the magnitudes of
    the terms of the tail, is checked at every time of the grid; past
    CONDITION_LIMIT the call raises IllConditioned, so a grid raises exactly
    when one of its times would.  Values are clipped to [0, 1].  Nothing is
    truncated: `policy` is accepted for callers that pass one and has no
    effect, and no TruncationFailure is raised.  Nothing is memoized.
    """
    t_arr = _times(t)
    if not 1 <= ell <= len(lseq):
        raise DomainError(f"ell={ell} outside 1..{len(lseq)}")
    times = t_arr.ravel()
    if ell == 1:  # the first jump happens at the first decision, always
        # math, not numpy: as each time alone
        return _as_given(np.array([-math.expm1(-lseq.rate * x) for x in times.tolist()]), t_arr)
    coef, term, vals, lead = _jump_pmf_setup(lseq, ell)
    ks = np.arange(ell, dtype=float)
    weights = (lead * ell) * np.multiply.outer(coef * term, [
        math.comb(ell - 1, k) * (-1.0) ** k for k in range(ell)
    ])
    rt = np.minimum(lseq.rate * times, np.finfo(float).max)  # t = inf as the largest float
    gap = np.abs(np.subtract.outer(vals, ks))
    with np.errstate(over="ignore"):  # rate*t*gap past the largest float: expm1 gives -1
        terms = -np.expm1(-np.multiply.outer(rt, gap))
        np.divide(terms, gap, out=terms, where=gap > 0.0)
        np.copyto(terms, rt[:, None, None], where=gap == 0.0)  # -expm1(-rt*gap)/gap as gap -> 0
        terms *= np.exp(-np.multiply.outer(rt, np.minimum.outer(vals, ks)))
    rows = terms.reshape(times.size, weights.size)
    _check_condition(float(np.einsum("ij,j->i", rows, np.abs(weights.ravel())).max(initial=0.0)))
    out = np.clip(np.einsum("ij,j->i", rows, weights.ravel()), 0.0, 1.0)
    return _as_given(out, t_arr)


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
    # a 0-d k would take numpy's scalar power, which can differ in the last bit
    return _as_given(p * np.power(a, k_arr.ravel(), dtype=float), k_arr)


def cowan_sum_cdf(rate: float, n: int, t) -> float | np.ndarray:
    """CDF of the sum of independent Exp(k * rate) waits, k = 1..n."""
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate!r}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    t_arr = _times(t)
    return _as_given(np.power(-np.expm1(-rate * t_arr.ravel()), n), t_arr)


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
    num = np.repeat((x_eval - nodes)[None, :], nodes.size, axis=0)  # row k: x_eval - x_i
    np.fill_diagonal(num, 1.0)
    return np.prod(num / diff, axis=1)


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
