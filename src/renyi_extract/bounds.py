"""Closed-form divergence bounds, output-length thresholds, and auxiliaries.

Every calculator works in the base-q log domain, assembling sums with a
log-sum-exp so that exponents m - H up to a few hundred q-ary units never
overflow.  Stirling numbers are exact integers.
"""

from __future__ import annotations

import math
from functools import lru_cache

MAX_STIRLING_K = 64
SLACK = 1e-9
GAMMA_REL_TOL = 1e-12


def satisfied(empirical: float, bound: float) -> bool:
    """The one verdict rule: an empirical value meets its bound up to SLACK."""
    return empirical <= bound + SLACK


@lru_cache(maxsize=None)
def stirling2(k: int, l: int) -> int:
    """Partitions of a k-set into l nonempty blocks, exact integer."""
    if l < 0 or k < 0 or k > MAX_STIRLING_K:
        raise ValueError(f"need 0 <= l, 0 <= k <= {MAX_STIRLING_K}, got k={k}, l={l}")
    if l > k:
        return 0
    if k == 0:
        return 1
    if l == 0:
        return 0
    return l * stirling2(k - 1, l) + stirling2(k - 1, l - 1)


def logq_sum_exp(terms: list[float], q: int) -> float:
    """log_q(sum_i q^{t_i}) for base-q log-domain terms, overflow-safe."""
    if not terms:
        return -math.inf
    top = max(terms)
    if math.isinf(top):
        return top
    lnq = math.log(q)
    acc = math.fsum(math.exp((t - top) * lnq) for t in terms)
    return top + math.log(acc) / lnq


def _logq(x: float, q: int) -> float:
    return math.log(x) / math.log(q)


def _check_order(alpha: float, k: int, largest: int):
    """Refuse alpha outside (1, k] or above ``largest``, the last order whose
    Stirling numbers stay within MAX_STIRLING_K."""
    if not 1.0 < alpha <= k:
        raise ValueError(f"alpha must lie in (1, k], got alpha={alpha}, k={k}")
    if alpha > largest:
        raise ValueError(f"alpha={alpha} is too large; the largest allowed is {largest}")


def bound_real_alpha(q: int, m: int, k: int, alpha: float, entropy: float) -> float:
    """Bound on the joint D_alpha for real alpha in (1, k]:
    (1/(alpha-1)) log_q [ sum_{l=1}^{c-1} l S(c-1, l) q^{(alpha-l)(m-H)}
                        + sum_{l=2}^{c}  S(c-1, l-1) q^{(c-l)(m-H)} ],
    with c = ceil(alpha).  At integer alpha it is the moment-sum bound
    (1/(alpha-1)) log_q sum_{l=1}^{alpha} S(alpha, l) q^{(alpha-l)(m-H)},
    by S(c, l) = l S(c-1, l) + S(c-1, l-1).
    """
    _check_order(alpha, k, MAX_STIRLING_K + 1)
    c = math.ceil(alpha)
    gap = m - entropy
    terms = [
        _logq(l * stirling2(c - 1, l), q) + (alpha - l) * gap for l in range(1, c)
    ]
    # S(c-1, 0) = 0 drops the l = 1 term of the second sum.
    terms += [
        _logq(stirling2(c - 1, l - 1), q) + (c - l) * gap for l in range(2, c + 1)
    ]
    return logq_sum_exp(terms, q) / (alpha - 1.0)


def bound_real_alpha_simplified(
    q: int, m: int, k: int, alpha: float, entropy: float
) -> float:
    """Simplified (weaker) form: sum_{l=1}^{c} S(c, l) q^{e_l (m-H)} with
    e_l = alpha - l when m <= H, else e_l = ceil(alpha) - l.
    """
    _check_order(alpha, k, MAX_STIRLING_K)
    c = math.ceil(alpha)
    gap = m - entropy
    top = alpha if m <= entropy else float(c)
    terms = [_logq(stirling2(c, l), q) + (top - l) * gap for l in range(1, c + 1)]
    return logq_sum_exp(terms, q) / (alpha - 1.0)


def dk_bound_simple(q: int, m: int, k: int, entropy: float) -> float:
    """Exponential Poisson-moment majorant: k^2 / (2 q^{H-m} (k-1) ln q)."""
    if k < 2:
        raise ValueError("k >= 2 required")
    try:
        return k * k / (2.0 * q ** (entropy - m) * (k - 1) * math.log(q))
    except ZeroDivisionError:  # q^{H-m} underflowed: the bound is beyond floats
        return math.inf
    except OverflowError:  # q^{H-m} overflowed: the bound underflows
        return 0.0


def gamma_fn(y: float) -> float:
    """Inverse of x -> x / ln(x + 1) on y >= 1, by bracketed bisection."""
    if not y >= 1.0:
        raise ValueError(f"gamma_fn requires y >= 1, got {y}")
    if y == 1.0:
        return 0.0

    def forward(x: float) -> float:
        return x / math.log1p(x)

    hi = max(4.0, y * math.log(y + 1.0) * 4.0)
    while forward(hi) < y:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if forward(mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= GAMMA_REL_TOL * hi:  # relative to the root in [lo, hi]
            break
    return 0.5 * (lo + hi)


def _logq_x_over_ln1p(q: int, m: int, k: int, entropy: float) -> float:
    """log_q(x / ln(1 + x)) with x = k q^{m-H}, shared by the sharp bounds;
    its limit 0 where x underflows, and in logs where x overflows."""
    gap = m - entropy
    try:
        x = k * q**gap
    except OverflowError:
        x = math.inf
    if x == math.inf:  # ln(1 + x) = ln x to the last bit
        log_x = _logq(k, q) + gap
        return log_x - _logq(log_x * math.log(q), q)
    return _logq(x / math.log1p(x), q) if x > 0 else 0.0


def dk_bound_sharp(q: int, m: int, k: int, entropy: float) -> float:
    """Sharper moment bound: (k/(k-1)) log_q( k q^{m-H} / ln(k q^{m-H} + 1) )."""
    if k < 2:
        raise ValueError("k >= 2 required")
    return (k / (k - 1)) * _logq_x_over_ln1p(q, m, k, entropy)


def bound_alpha_above_k(q: int, m: int, k: int, alpha: float, entropy: float) -> float:
    """Conditional-divergence bound for alpha in (k, inf):
    (alpha-k) m / (k (alpha-1)) + (alpha/(alpha-1)) log_q(k q^{m-H} / ln(k q^{m-H}+1)).
    """
    if not alpha > k:
        raise ValueError(f"alpha must exceed k, got alpha={alpha}, k={k}")
    log_term = _logq_x_over_ln1p(q, m, k, entropy)
    return (alpha - k) * m / (k * (alpha - 1.0)) + alpha / (alpha - 1.0) * log_term


def bound_infty(q: int, m: int, k: int, entropy: float) -> float:
    """alpha -> inf limit: m/k + log_q(k q^{m-H} / ln(k q^{m-H} + 1))."""
    if k < 2:
        raise ValueError("k >= 2 required")
    return m / k + _logq_x_over_ln1p(q, m, k, entropy)


def _logq_ratio(num: float, den: float, q: int) -> float:
    """log_q(num / den) for num >= 0 and den > 0; +inf where den underflowed
    to 0 and -inf where the quotient did."""
    if den == 0:
        return math.inf
    ratio = num / den
    return -math.inf if ratio == 0 else _logq(ratio, q)


THRESHOLD_REGIMES = ("integer-alpha", "corollary", "min-entropy", "sharp-gamma")


def m_threshold(
    regime: str,
    q: int,
    entropy: float,
    epsilon: float,
    alpha: float | None = None,
    k: int | None = None,
) -> float:
    """Largest real m for which the regime's epsilon-guarantee applies.

    * ``integer-alpha``: integer alpha in [2, k]; guarantees joint D_alpha <= eps.
    * ``corollary``:   alpha in (1, 2];        guarantees joint D_alpha <= eps.
    * ``min-entropy``: needs k; guarantees conditional D_inf <= m/k + eps.
    * ``sharp-gamma``: needs k; sharper threshold for joint D_k <= eps.

    Where epsilon takes a quotient out of floating point, the threshold is
    its limit: -inf (no m) or +inf (every m).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    lnq = math.log(q)
    if regime == "integer-alpha":
        if alpha is None or alpha < 2 or alpha != int(alpha):
            raise ValueError("integer-alpha regime requires integer alpha >= 2")
        return entropy - _logq_ratio(alpha * alpha, 2.0 * epsilon * (alpha - 1) * lnq, q)
    if regime == "corollary":
        if alpha is None or not 1.0 < alpha <= 2.0:
            raise ValueError("corollary regime requires alpha in (1, 2]")
        return entropy - _logq_ratio(1.0, epsilon * (alpha - 1.0) * lnq, q) / (alpha - 1.0)
    if regime == "min-entropy":
        if k is None:
            raise ValueError("min-entropy regime requires k")
        return entropy - _logq_ratio(k, 2.0 * epsilon * lnq, q)
    if regime == "sharp-gamma":
        if k is None:
            raise ValueError("sharp-gamma regime requires k")
        try:
            y = q ** (epsilon * (k - 1) / k)
        except OverflowError:
            return math.inf
        return entropy + _logq_ratio(gamma_fn(y), k, q)
    raise ValueError(f"unknown regime {regime!r}; expected one of {THRESHOLD_REGIMES}")


def bucket_bound(q: int, m: int, k: int, subset_size: int) -> float:
    """Upper bound on the seed-averaged largest hash bucket:
    k q^{m/k} / ln(k q^m / |A| + 1).
    """
    if subset_size < 1:
        raise ValueError("subset_size must be >= 1")
    try:
        return k * q ** (m / k) / math.log1p(k * q**m / subset_size)
    except OverflowError:  # a power beyond floating point: the same in logs
        ln_load = math.log(k) + m * math.log(q) - math.log(subset_size)
        ln_1p = max(ln_load, 0.0) + math.log1p(math.exp(-abs(ln_load)))
        try:
            return math.exp(math.log(k) + m / k * math.log(q) - math.log(ln_1p))
        except OverflowError:
            return math.inf
