"""Special functions for the modulation-series machinery.

Implementations on the standard library and numpy (no scipy.special) so
that domain handling matches what the harmonic-series code needs:
hypergeometric arguments restricted to [0, 1), and an explicit
convergence failure instead of a silent NaN.  Gamma itself is
``math.gamma``.  The Bessel functions work elementwise on arrays (a
scalar argument gives a float); the others are scalar.  Accuracy target is
1e-10 relative (absolute near Bessel zeros), checked in the test suite
against integral definitions, classical identities and mpmath.

Near z = 1, where the harmonic series evaluates 2F1 at z = ej_tilde^2 of a
nearly symmetric SQUID, :func:`hyp2f1` uses the connection formulas to
1 - z (DLMF 15.8.4 and 15.8.10) at a bounded number of terms, built on a
reciprocal Gamma for all reals and a digamma (private helpers).
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "rising_factorial",
    "bessel_j0",
    "bessel_j1",
    "hyp2f1",
    "ConvergenceError",
]


class ConvergenceError(RuntimeError):
    """A series failed to reach the requested accuracy."""


def rising_factorial(x: float, n: int) -> float:
    """Pochhammer symbol (x)_n = x (x+1) ... (x+n-1) = Gamma(x+n)/Gamma(x).

    Direct product, exact for the small n used by the harmonic series.
    This is the analytic continuation of the Gamma ratio: it is finite for
    x <= 0 and returns 0 when x is a non-positive integer with n > -x.
    """
    if n < 0:
        raise ValueError("rising_factorial requires n >= 0")
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


# Bessel functions: ascending series up to the crossover, Hankel asymptotic
# expansion beyond.  The crossover at |x| = 12 balances the series
# cancellation error (~5e-13 absolute) against the optimally truncated
# asymptotic tail (~8e-13).
_BESSEL_CROSSOVER = 12.0


def _bessel_series(x, nu: int):
    # ascending series, summed term by term over the whole array; a row
    # whose term has fallen below 1e-17 of its total keeps that total, as
    # every later term is smaller still and below half an ulp of it, so
    # each value is the one the term-by-term scalar loop gives.  The stop
    # rule is tested every 8 terms (|x| <= 12 needs at most ~32).
    negq = -0.25 * x * x
    term = np.ones_like(x) if nu == 0 else 0.5 * x
    total = term.copy()
    for k in range(1, 200):
        term *= negq / (k * (k + nu))
        total += term
        if k % 8 == 0 or k == 199:
            pending = ~(np.abs(term) <= 1e-17 * (np.abs(total) + 1e-300))
            if not pending.any():
                return total
    raise ConvergenceError(f"Bessel series did not converge for x={x[pending][0]}")


def _bessel_asymptotic(x, nu: int):
    # Hankel expansion: J_nu(x) = sqrt(2/(pi x)) (P cos(chi) - Q sin(chi)),
    # chi = x - (nu/2 + 1/4) pi, summed term by term over the whole array;
    # a row stops before its first term that is not smaller than the one
    # before it.  The loop ends (tested every 8 terms) once no live row has
    # a term above 1e-17 of both sums, as every later term it could add is
    # below half an ulp of either.
    # For huge x, 8 k x and pi x overflow to inf, and the terms and the
    # amplitude to the zeros they tend to.
    mu = 4.0 * nu * nu
    w = np.ones_like(x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    prev = np.full_like(x, math.inf)
    alive = np.ones(x.shape, dtype=bool)
    with np.errstate(over="ignore"):
        for k in range(1, 40):
            w *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
            size = np.abs(w)
            alive &= size < prev
            prev = size
            # odd terms go to Q, even ones to P, with the sign of (k // 2) % 2
            target = q if k % 2 else p
            (np.subtract if (k // 2) % 2 else np.add)(target, w, out=target, where=alive)
            if k % 8 == 0 and not (alive & (size > 1e-17 * np.minimum(np.abs(p), np.abs(q)))).any():
                break
        chi = x - (0.5 * nu + 0.25) * math.pi
        return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def _bessel(x, nu: int):
    # series up to the crossover, Hankel beyond; a scalar in, a float out
    xs = np.asarray(x, dtype=float)
    ax = np.abs(xs.ravel())
    out = np.empty_like(ax)
    small = ax <= _BESSEL_CROSSOVER
    if small.any():
        out[small] = _bessel_series(ax[small], nu)
    if not small.all():
        out[~small] = _bessel_asymptotic(ax[~small], nu)
    if nu == 1:
        out = np.where(xs.ravel() < 0.0, -out, out)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def bessel_j0(x):
    """Bessel function of the first kind, order zero, elementwise."""
    return _bessel(x, 0)


def bessel_j1(x):
    """Bessel function of the first kind, order one (odd in x), elementwise."""
    return _bessel(x, 1)


def _nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _sinpi(x: float) -> float:
    # sin(pi x) from the exact remainder x - n, |x - n| <= 1/2, so that
    # the product with pi keeps its relative accuracy near the zeros
    n = round(x)
    r = math.sin(math.pi * (x - n))
    return -r if n % 2 else r


def _rgamma(x: float) -> float:
    """1/Gamma(x) for every real x; exactly 0 at the poles 0, -1, -2, ..."""
    if x >= 0.5:
        return 1.0 / math.gamma(x)
    if _nonpositive_int(x):
        return 0.0
    # reflection, 1/Gamma(x) = Gamma(1 - x) sin(pi x) / pi, also for
    # 0 < x < 1/2: Gamma(x) overflows at a subnormal x
    return math.gamma(1.0 - x) * _sinpi(x) / math.pi


def _rgamma_product(*xs: float) -> float:
    # 1/(Gamma(x_1) Gamma(x_2) ...) left to right, 0 at a pole; off the poles
    # a partial product below the normal range has lost digits: OverflowError
    if any(_nonpositive_int(x) for x in xs):
        return 0.0
    out = 1.0
    for x in xs:
        out *= _rgamma(x)
        if abs(out) < sys.float_info.min:
            raise OverflowError(f"1/Gamma product underflows at x = {x}")
    return out


# B_2k / 2k for k = 1..7, the coefficients of the digamma asymptotic series
_DIGAMMA_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def _digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for real x off the poles 0, -1, -2, ...

    Reflection for x < 0, the recurrence psi(x) = psi(x + 1) - 1/x up to
    x >= 10, then the Bernoulli asymptotic series (seven terms; the first
    omitted one is 4e-17 at x = 10, against 2e-13 at x = 6).
    """
    if _nonpositive_int(x):
        raise ValueError(f"digamma pole at x={x}")
    if x < 0.0:
        # psi(x) = psi(1 - x) - pi cot(pi x), with x reduced modulo 1
        return _digamma(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for coef in reversed(_DIGAMMA_ASYMPTOTIC):
        tail = (tail + coef) * inv2
    return acc + math.log(x) - 0.5 / x - tail


# Within this distance of an integer, c - a - b is too close to a pole of
# the connection formula's Gamma factors for its rounding (~1e-15) not to
# show: the measured error is ~3e-15/|c - a - b - m|, 3e-12 at the bound.
HYP2F1_NEAR_INTEGER = 1e-3

# Largest cancellation the connection formulas may carry: the sum of the
# magnitudes of their terms over the magnitude of the result.  On 8000
# random parameter sets the error measured against mpmath stayed below
# 2.5e-12 up to this bound (and below 1e-11 up to 3000).
HYP2F1_MAX_CANCELLATION = 1000.0

# terms after which a series of hyp2f1 raises ConvergenceError
HYP2F1_MAX_TERMS = 100000


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for 0 <= z < 1.

    Branches, with w = 1 - z and s = c - a - b:

    - z <= 0.75: the plain power series in z.
    - a or b a non-positive integer -n: the terminating series in w,
      2F1(-n,b;c;z) = (c-b)_n/(c)_n 2F1(-n,b;b-c-n+1;w) (DLMF 15.8.7).
      Where (c-b)_n = 0 the Euler transformation first makes the zero at
      z = 1 explicit; where b - c - n + 1 is another non-positive integer
      the plain series in z is summed.
    - s an integer m (to within the rounding of c - a - b): the
      logarithmic case, DLMF 15.8.10, for m >= 0; m < 0 is first turned
      into -m by the Euler transformation 2F1(a,b;c;z) = w^s 2F1(c-a,c-b;c;z).
    - otherwise the connection to w, DLMF 15.8.4, in reciprocal Gammas so
      that poles of Gamma(a), Gamma(b), Gamma(c-a) and Gamma(c-b) give
      exact zeros.  Its two series in w < 0.25 take a few dozen terms at
      any z.
    - where s lies within HYP2F1_NEAR_INTEGER (delta = 1e-3) of an integer
      without being one, or the terms of the connection formula cancel by
      more than HYP2F1_MAX_CANCELLATION (large a and b at moderate z; for
      the modulation series' n = 8 below z ~ 0.85): the Euler-transformed
      power series in z, whose cost grows like 1/(1 - z).

    Every series raises ConvergenceError when HYP2F1_MAX_TERMS terms do not reach
    the target, and so does a Gamma factor of the connection formulas past
    math.gamma's range (an argument above ~171.6) or a product of their
    reciprocals below the normal float range.  Against mpmath.hyp2f1
    on z in [0.75, 1 - 1e-10] the relative error measured is below 4e-12
    for every (a, b, c) of the modulation series (n <= 12), and below
    1e-10 for generic parameters with integer s, with a terminating
    series, and with s just outside delta of an integer
    (tests/test_specfun.py).
    """
    if c <= 0.0 and c == int(c):
        raise ValueError(f"hyp2f1 pole: c={c} is a non-positive integer")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"hyp2f1 requires 0 <= z < 1, got z={z}")
    if z <= 0.75:
        return _hyp2f1_series(a, b, c, z)
    w = 1.0 - z
    if _nonpositive_int(b) and not (_nonpositive_int(a) and a >= b):
        a, b = b, a  # a terminates first
    if _nonpositive_int(a):
        if _nonpositive_int(c - b) and c - b > a:
            # (c-b)_n = 0: a zero of order c-a-b at z = 1, which the Euler
            # transformation makes explicit; that series ends sooner
            return w ** (c - a - b) * hyp2f1(c - a, c - b, c, z)
        c_w = b - c + a + 1.0
        if _nonpositive_int(c_w):
            return _hyp2f1_series(a, b, c, z)
        n = int(-a)
        scale = rising_factorial(c - b, n) / rising_factorial(c, n)
        return scale * _hyp2f1_series(a, b, c_w, w)
    s = c - a - b
    m = round(s)
    cancellation = math.inf
    try:
        if abs(s - m) <= 1e-15 * max(1.0, abs(a), abs(b), abs(c)):
            if m < 0:
                return w**s * hyp2f1(c - a, c - b, c, z)
            value, cancellation = _hyp2f1_log(a, b, c, m, w)
        elif abs(s - m) >= HYP2F1_NEAR_INTEGER:
            value, cancellation = _hyp2f1_connection(a, b, c, s, w)
        if cancellation <= HYP2F1_MAX_CANCELLATION:
            return value
        return w**s * _hyp2f1_series(c - a, c - b, c, z)
    except OverflowError:
        # math.gamma past ~171.6, or 1/Gamma products below the float range;
        # the Euler series returns a value at some such points, but not to 1e-10
        raise ConvergenceError(
            f"hyp2f1({a}, {b}; {c}; {z}): a Gamma factor or power of 1 - z leaves the float range"
        ) from None


def _hyp2f1_connection(a: float, b: float, c: float, s: float, w: float):
    # DLMF 15.8.4 for s = c - a - b not an integer, w = 1 - z:
    # sin(pi s)/pi 2F1(a,b;c;z)/Gamma(c)
    #   = 2F1(a,b;1-s;w) / (Gamma(c-a) Gamma(c-b) Gamma(1-s))
    #   - w^s 2F1(c-a,c-b;1+s;w) / (Gamma(a) Gamma(b) Gamma(1+s))
    # returns the value and the cancellation between the two terms
    first = _rgamma_product(c - a, c - b, 1.0 - s)
    second = _rgamma_product(a, b, 1.0 + s)
    if first:
        first *= _hyp2f1_series(a, b, 1.0 - s, w)
    if second:
        second *= w**s * _hyp2f1_series(c - a, c - b, 1.0 + s, w)
    diff = first - second
    value = math.pi / (_rgamma(c) * _sinpi(s)) * diff
    return value, (abs(first) + abs(second)) / abs(diff) if diff else math.inf


def _hyp2f1_log(a: float, b: float, c: float, m: int, w: float):
    # DLMF 15.8.10 for c = a + b + m, m >= 0, w = 1 - z, with a and b not
    # non-positive integers:
    # 2F1(a,b;c;z)/Gamma(c)
    #   = sum_{k<m} (a)_k (b)_k (m-k-1)!/k! (-w)^k / (Gamma(a+m) Gamma(b+m))
    #   - (-w)^m/(Gamma(a) Gamma(b)) sum_k (a+m)_k (b+m)_k / (k! (k+m)!) w^k h_k
    # h_k = ln w - psi(k+1) - psi(k+m+1) + psi(a+k+m) + psi(b+k+m);
    # returns the value and the cancellation among all the terms
    am, bm = a + m, b + m
    finite = _rgamma_product(am, bm) * sum(
        rising_factorial(a, k) * rising_factorial(b, k) * math.factorial(m - k - 1)
        / math.factorial(k) * (-w) ** k
        for k in range(m)
    )
    term = 1.0 / math.factorial(m)
    h = math.log(w) - _digamma(1.0) - _digamma(m + 1.0) + _digamma(am) + _digamma(bm)
    if not math.isfinite(h):  # psi overflows at a subnormal a + m or b + m: no cancellation bound
        return math.nan, math.inf
    total = term * h
    magnitude = abs(total)
    for k in range(HYP2F1_MAX_TERMS):
        term *= (am + k) * (bm + k) / ((k + 1.0) * (k + m + 1.0)) * w
        h += 1.0 / (am + k) + 1.0 / (bm + k) - 1.0 / (k + 1.0) - 1.0 / (k + m + 1.0)
        total += term * h
        magnitude += abs(term * h)
        # h_k crosses zero on the way to its limit, so the stop test
        # bounds the term by the size of its factor, not the product
        if abs(term) * (abs(h) + 1.0) <= 1e-16 * abs(total):
            scale = (-w) ** m * _rgamma(a) * _rgamma(b)
            diff = finite - scale * total
            spread = abs(finite) + abs(scale) * magnitude
            return diff / _rgamma(c), spread / abs(diff) if diff else math.inf
    raise ConvergenceError(
        f"hyp2f1 log series ({a}, {b}; m={m}; 1-z={w}) not converged after {HYP2F1_MAX_TERMS} terms"
    )


def _hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    term = 1.0
    total = 1.0
    for k in range(HYP2F1_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) <= 1e-16 * abs(total):
            return total
    raise ConvergenceError(
        f"hyp2f1({a}, {b}; {c}; {z}) not converged after {HYP2F1_MAX_TERMS} terms"
    )
