"""The Student-t tail behind ``stats.welch_p``, from the standard
library alone.

The two-sided tail P(|T| >= |t|) with df degrees of freedom is the
regularized incomplete beta I_x(df/2, 1/2) with x = df / (df + t^2). It
is evaluated in decimal arithmetic by Lentz's continued fraction
(Numerical Recipes 6.4), switching to I_x(a, b) = 1 - I_(1-x)(b, a) past
the fraction's switch point, with the prefactor x^a (1-x)^b / B(a, b)
taken in logs. Its largest term, (df/2) ln x with x near 1 at large df,
needs more digits than a double has: at df = 1e6 a double continued
fraction and ``math.lgamma`` were 1e-11 to 1e-9 off. The working
precision is 40 digits plus one per digit of df.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, DivisionByZero, InvalidOperation, Overflow, localcontext

from .errors import StatsError

_TAIL_CONTEXT = Context(prec=40, traps=[InvalidOperation, DivisionByZero, Overflow])
_HALF = Decimal("0.5")
_LN_SQRT_PI = Decimal("0.5723649429247000870717136756765293558236")  # ln Gamma(1/2)
# ln Gamma(z + 1/2) - ln Gamma(z) = ln(z)/2 + sum_j c_j z^(1 - 2j), with
# c_j = (2^(1 - 2j) - 2) B_2j / ((2j - 1) 2j) and B_2j the Bernoulli
# numbers; at z >= _RATIO_SERIES_FROM these terms reach 1e-40.
_RATIO_SERIES = tuple(_TAIL_CONTEXT.divide(num, den) for num, den in (
    (-1, 8), (1, 192), (-1, 640), (17, 14336), (-31, 18432), (691, 180224),
    (-5461, 425984), (929569, 15728640), (-3202291, 8912896), (221930581, 79691776),
    (-4722116521, 176160768), (968383680827, 3087007744), (-14717667114151, 3355443200),
))
_RATIO_SERIES_FROM = 64
_CF_EPS = Decimal("1e-36")
_CF_MAX_STEPS = 10_000


def _ln_gamma_ratio(z: Decimal) -> Decimal:
    """ln(Gamma(z + 1/2) / Gamma(z)) for z > 0: the asymptotic series
    after shifting z up by Gamma(z + 1) = z Gamma(z)."""
    num = den = Decimal(1)
    while z < _RATIO_SERIES_FROM:
        num *= z + _HALF
        den *= z
        z += 1
    inv = 1 / z
    inv2 = inv * inv
    total = z.ln() / 2 + (den / num).ln()
    for c in _RATIO_SERIES:
        total += c * inv
        inv *= inv2
    return total


def _beta_cf(a: Decimal, b: Decimal, x: Decimal) -> Decimal:
    """The continued fraction of I_x(a, b) by Lentz's method (Numerical
    Recipes 6.4); it converges fast for x < (a + 1) / (a + b + 2). The
    method's guard against a partial denominator of zero is left out:
    here one would raise DivisionByZero, not return a wrong value."""
    qab, qap, qam = a + b, a + 1, a - 1
    c = Decimal(1)
    d = h = 1 / (1 - qab * x / qap)
    for m in range(1, _CF_MAX_STEPS):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1 / (1 + aa * d)
            c = 1 + aa / c
            step = d * c
            h *= step
        if abs(step - 1) < _CF_EPS:
            return h
    raise StatsError(f"the incomplete beta continued fraction did not converge at a={a}, b={b}")


def t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom, as
    I_x(df/2, 1/2) with x = df / (df + t^2). The result is the double
    nearest a value good to about 36 digits, so it is 0.0 only when the
    true tail underflows. NaN in gives NaN, an infinite ``t`` gives 0.0,
    and a ``df`` that is not positive and finite is a StatsError."""
    if math.isnan(t) or math.isnan(df):
        return math.nan
    if not 0.0 < df < math.inf:
        raise StatsError(f"degrees of freedom must be positive and finite, got {df}")
    if math.isinf(t):
        return 0.0
    with localcontext(_TAIL_CONTEXT) as ctx:
        ctx.prec += max(0, int(math.log10(df)))
        nu = Decimal(df)
        t2 = Decimal(t) * Decimal(t)
        x = nu / (nu + t2)
        y = t2 / (nu + t2)  # 1 - x, without the cancellation
        a = nu / 2
        # x^a y^(1/2) / B(a, 1/2), in logs
        front = (a * x.ln() + y.ln() / 2 - _LN_SQRT_PI + _ln_gamma_ratio(a)).exp()
        if y > 3 / (nu + 5):  # x < (a + 1) / (a + b + 2)
            p = front * _beta_cf(a, _HALF, x) / a
        else:  # I_x(a, b) = 1 - I_(1-x)(b, a)
            p = 1 - front * _beta_cf(_HALF, a, y) / _HALF
        return float(p)
