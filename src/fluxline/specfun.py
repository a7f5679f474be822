"""Special functions for the modulation-series machinery.

The Bessel functions J0 and J1 work elementwise on arrays (a scalar
argument gives a float) and need numpy alone: one fixed-degree polynomial
kernel on either side of |x| = 8, within 1e-15 absolute of mpmath.besselj
for |x| <= 100 and within 1.2e-16 for 8 < |x| <= 1e6, at ~0.1 ms for a call
on a few hundred arguments.

hyp2f1 is scalar, restricted to 0 <= z < 1 and taken from mpmath, which
is imported on its first call; no program path calls it, but the paper
writes each flux harmonic s_n with a 2F1 at z = ej_tilde^2, which nears
1 for a nearly symmetric SQUID.  It raises ConvergenceError instead of
returning a NaN or an infinity.
"""

from __future__ import annotations

import math

import numpy as np

from . import ConvergenceError  # defined by the package, re-exported here
from ._poly import horner

__all__ = ["bessel_j0", "bessel_j1", "hyp2f1", "ConvergenceError"]


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


def _bessel(x, nu):
    """J_nu(x) for nu 0 or 1, elementwise; a scalar in, a float out."""
    xs = np.asarray(x, dtype=float)
    ax = np.abs(xs.ravel())
    out = np.empty(ax.size)
    small = ax <= _BESSEL_X0
    if small.any():
        xa = ax[small]
        t = np.square(xa / _BESSEL_X0)
        g = horner(_J_SMALL[nu], 2.0 * t - 1.0)
        out[small] = xa * g if nu else 1.0 - t * g  # J0(0) = 1 exactly
    if not small.all():
        large = ~small
        xa = ax[large]
        r = _BESSEL_X0 / xa  # for huge x, r and r^2 underflow quietly towards 0
        y = 2.0 * r * r - 1.0
        p, q = horner(_HANKEL_P[nu], y), horner(_HANKEL_XQ[nu], y) / xa
        # J0 = ((P+Q) cos x + (P-Q) sin x)/sqrt(pi x), J1 = ((P+Q) sin x - (P-Q) cos x)/sqrt(pi x)
        cos, sin = np.cos(xa), np.sin(xa)
        scale = np.sqrt(r * (1.0 / (_BESSEL_X0 * math.pi)))
        out[large] = ((p + q) * sin - (p - q) * cos if nu else (p + q) * cos + (p - q) * sin) * scale
    if nu:
        np.negative(out, out=out, where=xs.ravel() < 0.0)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def bessel_j0(x):
    """Bessel function of the first kind, order zero, elementwise."""
    return _bessel(x, 0)


def bessel_j1(x):
    """Bessel function of the first kind, order one (odd in x), elementwise."""
    return _bessel(x, 1)


# A parameter below this magnitude enters 2F1 - 1 = (a b / c) S(a, b; c; z)
# through the prefactor alone: S is analytic in a, b and c about 0, so S
# at a stand-in of this magnitude and the parameter's sign is within
# ~5e-20 |d ln S / d param| relative of S at the parameter.  Given the
# parameter itself, mpmath past z = 0.8 raises its working precision by the
# parameter's -log2 (to ~2200 bits for two subnormals), and its first call
# there builds Gamma tables at that precision for up to ~1 s.
_HYP2F1_TINY = 2.0**-64
_HYP2F1_MAX_PREC = 4096


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for 0 <= z < 1, as mpmath.hyp2f1
    gives it at 53 bits.

    mpmath sums the series in z, or past z ~ 0.75 its transformations to
    1 - z, raising its working precision where the terms cancel.  On 2000
    random points (a, b in +-20, c in [0.1, 30], z in [0.75, 0.999],
    integer c - a - b in a fifth of the draws; numpy seeds 0 and 1) it is
    within 1.5e-16 relative of mpmath at 50 digits.  A parameter below
    _HYP2F1_TINY in magnitude is taken through 2F1 - 1 = (a b / c) S, see
    _hyp2f1_scaled.  A series mpmath cannot sum (hyp2f1(1e5, 1e5, 1.0, 0.9))
    and a result past the float range (a subnormal c) raise ConvergenceError
    naming the arguments.
    """
    for name, x in (("a", a), ("b", b), ("c", c)):
        if not math.isfinite(x):
            raise ValueError(f"hyp2f1 requires finite a, b and c, got {name}={x}")
    if c <= 0.0 and c == int(c):
        raise ValueError(f"hyp2f1 pole: c={c} is a non-positive integer")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"hyp2f1 requires 0 <= z < 1, got z={z}")
    import mpmath  # on the first call, so that the Bessel kernels load no mpmath

    stand_in = tuple(x if abs(x) >= _HYP2F1_TINY else math.copysign(_HYP2F1_TINY, x) for x in (a, b, c))
    try:
        if stand_in == (a, b, c):
            with mpmath.workprec(53):
                value = float(mpmath.hyp2f1(a, b, c, z))
        else:
            value = _hyp2f1_scaled(mpmath, a, b, c, z, stand_in)
    except mpmath.libmp.NoConvergence as exc:
        raise ConvergenceError(f"hyp2f1({a}, {b}; {c}; {z}) not converged: {exc}") from None
    if not math.isfinite(value):
        raise ConvergenceError(f"hyp2f1({a}, {b}; {c}; {z}) = {value} is not a finite float")
    return value


def _hyp2f1_scaled(mpmath, a, b, c, z, stand_in):
    """2F1 = 1 + (a b / c) S(a, b; c; z), with S = (2F1 - 1) c / (a b) taken
    at the stand-in parameters; S is analytic in a, b and c about 0.

    The working precision rises until the error of mpmath's 2F1 at the
    stand-ins, carried through the prefactor, is below 2^-64 of the result.
    """
    a2, b2, c2 = stand_in
    prec = 64
    while prec <= _HYP2F1_MAX_PREC:
        with mpmath.workprec(prec):
            f = mpmath.hyp2f1(a2, b2, c2, z)
            scale = mpmath.mpf(a) * b * c2 / (mpmath.mpf(c) * a2 * b2)
            value = 1 + scale * (f - 1)
            if not value:
                prec *= 2
                continue
            short = 64 + mpmath.mag(scale * f) - mpmath.mag(value) - prec
            if short <= 0:
                return float(value)
        prec += short + 16
    raise ConvergenceError(f"hyp2f1({a}, {b}; {c}; {z}) not resolved at {_HYP2F1_MAX_PREC} bits")
