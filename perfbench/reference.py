"""Independent reference values for the closed-form laws.

The benchmark checks stitlab's evaluators against these.  They use other
methods than the package does: the absorbing-chain matrix exponential for
the hypoexponential jump-time law, and a forward dynamic program over the
conditional decision chain for the discrete laws.  Every term is positive,
so they have no precision cap.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm


def _generator(values, rate: float, n: int) -> np.ndarray:
    """Generator of the chain 0 -> 1 -> ... -> n that leaves state k at rate * values[k]."""
    q = np.zeros((n + 1, n + 1))
    for k in range(n):
        lam = rate * values[k]
        q[k, k] = -lam
        q[k, k + 1] = lam
    return q


def jump_cdf(values, rate: float, n: int, ts) -> np.ndarray:
    """P(n-th jump time <= t): absorption probability of the chain by time t."""
    q = _generator(values, rate, n)
    return np.array([expm(q * t)[0, n] for t in ts])


def jump_pdf(values, rate: float, n: int, ts) -> np.ndarray:
    """Density of the n-th jump time: occupancy of the last state times its exit rate."""
    q = _generator(values, rate, n)
    lam = rate * values[n - 1]
    return np.array([expm(q * t)[0, n - 1] * lam for t in ts])


def discrete_jump_pmf(values, ell: int, n_max: int) -> np.ndarray:
    """P(ell-th jump at decision n) for n = ell..n_max.

    With j jumps so far, decision m is a jump with probability values[j] / m.
    """
    v = np.asarray(values[:ell], dtype=float)
    occ = np.zeros(ell)  # occ[j] = P(j jumps so far), j < ell
    occ[0] = 1.0
    out = np.zeros(n_max + 1)
    for m in range(1, n_max + 1):
        q = np.minimum(v / m, 1.0)
        moved = occ * q
        out[m] = moved[-1]
        occ = occ - moved
        occ[1:] += moved[:-1]
    return out[ell:]


def waiting_pmf(n: int, l_k: float, waits) -> np.ndarray:
    """P(the state left after decision n-1 first changes at decision n-1+w)."""
    out = []
    for w in waits:
        survive = 1.0
        for j in range(w - 1):
            survive *= 1.0 - l_k / (n + j)
        out.append(survive * l_k / (n + w - 1))
    return np.array(out)


def geometric_pmf(rate: float, t: float, ks) -> np.ndarray:
    """P(k decisions by time t) of the equally-likely clock."""
    a = -math.expm1(-rate * t)
    return np.array([math.exp(-rate * t) * a**k for k in ks])


def clock_sum_cdf(rate: float, n: int, ts) -> np.ndarray:
    """CDF of the sum of Exp(k * rate) waits, k = 1..n: the chain with exit rates k * rate."""
    return jump_cdf([float(k) for k in range(1, n + 1)], rate, n, ts)
