"""Special functions for the modulation-series machinery.

The Bessel functions J0 and J1 work elementwise on arrays (a scalar
argument gives a float) and need numpy alone: one fixed-degree polynomial
kernel on either side of |x| = 8, within 1e-15 absolute of mpmath.besselj
for |x| <= 100 and within 1.2e-16 for 8 < |x| <= 1e6, at ~0.1 ms for a call
on a few hundred arguments.  hyp2f1 is scalar, takes scipy.special for its
Gamma ratios and psi, loaded on first use, and is restricted to 0 <= z < 1.
It raises ConvergenceError instead of returning a NaN or an infinity; its
accuracy target is 1e-10 relative, checked in the test suite against mpmath
and classical identities, and :func:`hyp2f1` states where near z = 1 it
misses that target.

Near z = 1, where the paper's closed form for the flux harmonics evaluates
2F1 at z = ej_tilde^2 of a nearly symmetric SQUID, :func:`hyp2f1` uses the
connection formulas to 1 - z (DLMF 15.8.4 and 15.8.10) at a bounded number
of terms, each of their Gamma products formed as one ratio of log-Gammas.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import ConvergenceError  # defined by the package, re-exported here
from ._poly import horner

__all__ = ["rising_factorial", "bessel_j0", "bessel_j1", "hyp2f1", "ConvergenceError"]


def rising_factorial(x: float, n: int) -> float:
    """Pochhammer symbol (x)_n = x (x+1) ... (x+n-1) = Gamma(x+n)/Gamma(x).

    Direct product of n factors, for the degree or the integer c - a - b
    of hyp2f1's terminating and logarithmic branches.  This is the analytic
    continuation of the Gamma ratio: it is finite for x <= 0 and returns 0
    when x is a non-positive integer with n > -x.
    """
    if n < 0:
        raise ValueError("rising_factorial requires n >= 0")
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


# Bessel functions: a fixed-degree polynomial kernel on either side of
# |x| = X0, evaluated by Horner's rule in elementwise ufuncs, so that the
# cost of a call does not depend on its arguments, nor a value on its batch.
# |x| <= X0: J0 = 1 - t h(y) and J1 = x g(y), t = (x/X0)^2, y = 2t - 1.
# |x| > X0: Hankel's J_nu = sqrt(2/(pi x)) (P cos chi - Q sin chi) with
# chi = x - (2 nu + 1) pi/4 expanded into cos x and sin x (chi is never
# rounded), P and x Q polynomials in y = 2u - 1, u = (X0/x)^2.  Each is the
# Chebyshev interpolant of mpmath's J_nu and Y_nu in y (degree 14 for h and
# g, 11 for P and x Q) in monomials of y, highest power first, for nu = 0
# and 1; tests/test_specfun.py derives them again.
_BESSEL_X0 = 8.0
_J_SMALL = ((2.5678303855361236e-11, -7.013706420800181e-10, 1.6528969333594005e-08, -3.3564664718189263e-07,
             5.771149668147484e-06, -8.271754882079727e-05, 0.0009698093901870505, -0.009085967367061428,
             0.06603140459025683, -0.3580091017257377, 1.3729451934196368, -3.4497041157070516, 5.065881731046454,
             -3.7689431648720872, 1.9083406702803725),
            (1.1655948480687432e-11, -2.9580307437711144e-10, 6.431200760749394e-09, -1.1966856617233235e-07,
             1.8684525891685077e-06, -2.4045750380319615e-05, 0.0002494945813696478, -0.0020290394938667204,
             0.012456814392259903, -0.05474581821299503, 0.15858376432721896, -0.2595948652859166,
             0.15151665143806634, 0.08105866038589758, -0.05814382795599107))
_HANKEL_P = ((-9.956789357075715e-14, 3.4522133160706755e-13, -1.0238327024264009e-12, 4.674986189266031e-12,
              -2.490341621088381e-11, 1.5506348898107537e-10, -1.212113319927827e-09, 1.2803747958820875e-08,
              -2.052744819908975e-07, 6.13741608125692e-06, -0.000536367319212998, 0.9994572757882519),
             (1.0611465423215105e-13, -3.6942891113569033e-13, 1.104039648785332e-12, -5.072230977922283e-12,
              2.722599260495964e-11, -1.7137215568191013e-10, 1.360300632416571e-09, -1.4708498675907175e-08,
              2.4536766267949663e-07, -7.959694699656698e-06, 0.0008988049416705508, 1.0009070262780821))
_HANKEL_XQ = ((7.660588700004678e-13, -2.4959955008932025e-12, 6.607770877051606e-12, -2.7923981952762326e-11,
               1.3641381507528205e-10, -7.580593880943547e-10, 5.146189381541954e-09, -4.5349625953814164e-08,
               5.684971918787548e-07, -1.1817110670086365e-05, 0.0005466519279474679, -0.12444091103610802),
              (-8.143505271269731e-13, 2.6631204358691402e-12, -7.101699032519032e-12, 3.017315972619892e-11,
               -1.4835480609458966e-10, 8.320596653849234e-10, -5.7208462898679e-09, 5.1360951418540506e-08,
               -6.633568600166279e-07, 1.4569614819268144e-05, -0.0007697167057643086, 0.3742149922195917))


def _polys(tables, orders, y):
    # table[nu] at y for each table and each nu in orders, table by table.
    # One order: a Horner pass per polynomial on its Python floats, since
    # scalar operands are numpy's fastest loops.  More: one pass over their
    # coefficients stacked as columns, cheaper on the few hundred arguments
    # of a fit_beta evaluation, each row with its own operations.
    if len(orders) == 1:
        return [horner(table[orders[0]], y) for table in tables]
    return horner(_stacked(tables, orders), y)


@functools.lru_cache(maxsize=None)
def _stacked(tables, orders):
    return np.array([table[nu] for table in tables for nu in orders]).T[..., None]


def _bessel(x, orders):
    """[J_nu(x) for nu in orders], each nu 0 or 1, in one pass: the orders
    share the argument transform, the masks, cos x and sin x, each bit for
    bit what it gives alone.  A scalar in, floats out."""
    xs = np.asarray(x, dtype=float)
    ax = np.abs(xs.ravel())
    out = np.empty((len(orders), ax.size))
    small = ax <= _BESSEL_X0
    if small.any():
        xa = ax[small]
        t = np.square(xa / _BESSEL_X0)
        for row, nu, g in zip(out, orders, _polys((_J_SMALL,), orders, 2.0 * t - 1.0)):
            row[small] = xa * g if nu else 1.0 - t * g  # J0(0) = 1 exactly
    if not small.all():
        large = ~small
        xa = ax[large]
        r = _BESSEL_X0 / xa  # for huge x, r and r^2 underflow quietly towards 0
        pq = _polys((_HANKEL_P, _HANKEL_XQ), orders, 2.0 * r * r - 1.0)
        # J0 = ((P+Q) cos x + (P-Q) sin x)/sqrt(pi x), J1 = ((P+Q) sin x - (P-Q) cos x)/sqrt(pi x)
        cos, sin = np.cos(xa), np.sin(xa)
        scale = np.sqrt(r * (1.0 / (_BESSEL_X0 * math.pi)))
        for row, nu, p, xq in zip(out, orders, pq[: len(orders)], pq[len(orders) :]):
            q = xq / xa
            row[large] = ((p + q) * sin - (p - q) * cos if nu else (p + q) * cos + (p - q) * sin) * scale
    if 1 in orders:
        negative = xs.ravel() < 0.0
        for row, nu in zip(out, orders):
            if nu:
                np.negative(row, out=row, where=negative)
    return [float(row[0]) if xs.ndim == 0 else row.reshape(xs.shape) for row in out]


def bessel_j0(x):
    """Bessel function of the first kind, order zero, elementwise."""
    return _bessel(x, (0,))[0]


def bessel_j1(x):
    """Bessel function of the first kind, order one (odd in x), elementwise."""
    return _bessel(x, (1,))[0]


def _nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


# scipy.special is imported on hyp2f1's first call, so importing this
# module and running the Bessel kernels load no scipy
@functools.cache
def _scipy_special():
    from scipy.special import gammaln, gammasgn, psi

    return gammaln, gammasgn, psi


def _gamma_ratio(num, den, log_scale: float = 0.0) -> float:
    """prod Gamma(num) / prod Gamma(den) * exp(log_scale), exactly 0 at a
    pole of den; one exponent of log-Gammas, so that no factor leaves the
    float range on its own.  A result past it raises OverflowError; a
    subnormal x, whose log-Gamma scipy gives as inf, counts as a pole."""
    if any(_nonpositive_int(x) for x in den):
        return 0.0
    gammaln, gammasgn, _ = _scipy_special()
    log = sum(float(gammaln(x)) for x in num) - sum(float(gammaln(x)) for x in den)
    return math.prod(float(gammasgn(x)) for x in (*num, *den)) * math.exp(log + log_scale)


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
    - otherwise the connection to w, DLMF 15.8.4, each term's Gammas and
      power of w in one exponent of log-Gammas, so that no factor leaves
      the float range on its own, and poles of Gamma(a), Gamma(b),
      Gamma(c-a) and Gamma(c-b) give exact zeros.  Its two series in
      w < 0.25 take a few dozen terms at any z.
    - where s lies within HYP2F1_NEAR_INTEGER (delta = 1e-3) of an integer
      without being one, or the terms of the connection formula cancel by
      more than HYP2F1_MAX_CANCELLATION (large a and b at moderate z; for
      the modulation series' n = 8 below z ~ 0.85): the Euler-transformed
      power series in z, whose cost grows like 1/(1 - z).

    Every series raises ConvergenceError when HYP2F1_MAX_TERMS terms do
    not reach the target, and so does a Gamma ratio or power of 1 - z of
    the connection formulas past the float range, a factorial (m - k - 1)!
    of the logarithmic case (m above ~170), and a result that is not
    finite (a value past the float range at a subnormal c).  Against mpmath.hyp2f1 on z in
    [0.75, 1 - 1e-10] the relative error measured is below 4e-12 for every
    (a, b, c) of the modulation series (n <= 12), and below 1e-10 with a
    terminating series, with s just outside delta of an integer and on the
    integer-s and Gamma-range cases of tests/test_specfun.py.

    It is not below 1e-10 in general.  Of 2000 random points (a, b
    uniform in +-20, or b = c - a - m with integer m in [-3, 3] in a fifth
    of the draws; c in [0.1, 30], z in [0.75, 0.999]) 110 and 130 (numpy
    seeds 1 and 0) miss it without raising.  Nearly all have integer s
    and a, b of opposite sign with |a|, |b| >= 5 and max(|a|, |b|) >= 12;
    60-70% of them are off by more than 1e-6, the worst by 6.6e3 relative.
    """
    if c <= 0.0 and c == int(c):
        raise ValueError(f"hyp2f1 pole: c={c} is a non-positive integer")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"hyp2f1 requires 0 <= z < 1, got z={z}")
    value = _hyp2f1(a, b, c, z)
    if not math.isfinite(value):
        raise ConvergenceError(f"hyp2f1({a}, {b}; {c}; {z}) = {value} is not a finite float")
    return value


def _hyp2f1(a: float, b: float, c: float, z: float) -> float:
    if z <= 0.75:
        return _hyp2f1_series(a, b, c, z)
    w = 1.0 - z
    if _nonpositive_int(b) and not (_nonpositive_int(a) and a >= b):
        a, b = b, a  # a terminates first
    if _nonpositive_int(a):
        if _nonpositive_int(c - b) and c - b > a:
            # (c-b)_n = 0: a zero of order c-a-b at z = 1, which the Euler
            # transformation makes explicit; that series ends sooner
            return w ** (c - a - b) * _hyp2f1(c - a, c - b, c, z)
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
                return w**s * _hyp2f1(c - a, c - b, c, z)
            value, cancellation = _hyp2f1_log(a, b, c, m, w)
        elif abs(s - m) >= HYP2F1_NEAR_INTEGER:
            value, cancellation = _hyp2f1_connection(a, b, c, s, w)
        if cancellation <= HYP2F1_MAX_CANCELLATION:
            return value
        return w**s * _hyp2f1_series(c - a, c - b, c, z)
    except OverflowError:
        # a Gamma ratio or a power of 1 - z past the float range, or the
        # log case's (m - k - 1)! past ~170; the Euler series returns a value
        # at some such points, but not to 1e-10
        raise ConvergenceError(
            f"hyp2f1({a}, {b}; {c}; {z}): a Gamma factor or power of 1 - z leaves the float range"
        ) from None


def _hyp2f1_connection(a: float, b: float, c: float, s: float, w: float):
    # DLMF 15.8.4 for s = c - a - b not an integer, w = 1 - z:
    # 2F1(a,b;c;z) = Gamma(c) Gamma(s)/(Gamma(c-a) Gamma(c-b)) 2F1(a,b;1-s;w)
    #   + w^s Gamma(c) Gamma(-s)/(Gamma(a) Gamma(b)) 2F1(c-a,c-b;1+s;w)
    # returns the value and the cancellation between the two terms
    first = _gamma_ratio((c, s), (c - a, c - b))
    second = _gamma_ratio((c, -s), (a, b), s * math.log(w))
    if first:
        first *= _hyp2f1_series(a, b, 1.0 - s, w)
    if second:
        second *= _hyp2f1_series(c - a, c - b, 1.0 + s, w)
    value = first + second
    return value, (abs(first) + abs(second)) / abs(value) if value else math.inf


def _hyp2f1_log(a: float, b: float, c: float, m: int, w: float):
    # DLMF 15.8.10 for c = a + b + m, m >= 0, w = 1 - z, with a and b not
    # non-positive integers:
    # 2F1(a,b;c;z)
    #   = Gamma(c)/(Gamma(a+m) Gamma(b+m)) sum_{k<m} (a)_k (b)_k (m-k-1)!/k! (-w)^k
    #   - (-w)^m Gamma(c)/(Gamma(a) Gamma(b)) sum_k (a+m)_k (b+m)_k / (k! (k+m)!) w^k h_k
    # h_k = ln w - psi(k+1) - psi(k+m+1) + psi(a+k+m) + psi(b+k+m);
    # returns the value and the cancellation among all the terms
    am, bm = a + m, b + m
    finite = _gamma_ratio((c,), (am, bm)) * sum(
        rising_factorial(a, k) * rising_factorial(b, k) * math.factorial(m - k - 1)
        / math.factorial(k) * (-w) ** k
        for k in range(m)
    )
    scale = (-1) ** m * _gamma_ratio((c,), (a, b), m * math.log(w))
    term = 1.0 / math.factorial(m)
    psi = _scipy_special()[2]
    h = math.log(w) - float(psi(1.0)) - float(psi(m + 1.0)) + float(psi(am)) + float(psi(bm))
    if not math.isfinite(h):  # psi is -inf at a subnormal a + m or b + m: no cancellation bound
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
            diff = finite - scale * total
            spread = abs(finite) + abs(scale) * magnitude
            return diff, spread / abs(diff) if diff else math.inf
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
