"""Asymmetric-SQUID transmon spectrum.

All energies are stored as frequency equivalents E/h in MHz and all fluxes
in units of the flux quantum, matching the usual device datasheets.  The
module provides the closed-form flux dependence of the Josephson energy,
the standard transmon asymptotic frequency, and the exact f01/f12 on flux
arrays at zero offset charge, where a transmon's charge dispersion is
exponentially small.  There the levels are Mathieu characteristic values
(Koch et al., PRA 76, 042319 (2007)), which :func:`levels` takes from
fixed-degree polynomial tables in numpy alone, within 1e-13 relative of a
40-digit solve for every q = E_J/(2 E_C) >= 0, and the slope df01/dq for
the tuning fit from the derivative of each f01 polynomial, within 1e-12
f01/q.  The test suite derives the tables again and keeps a charge-basis
diagonalization as the oracle.

A 0-d flux (a Python or numpy number, or a 0-d array) goes through E_J,
the closed form and the level tables on Python floats, with math's cos,
sin and sqrt, free of numpy's per-call overhead, which costs more than the
arithmetic at one point.  :func:`effective_ej`, :func:`f01_asymptotic`
and :func:`levels` still return numpy scalars, each bit for bit the
element of an array call at that flux, as long as numpy's float64 cos and
sin round as libm's do (the test suite sweeps 10^5 fluxes to check it).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple

import numpy as np

# the pure-data parameter type lives with the other document types, so that
# loading a config needs no numpy; re-exported here under its old name
from .config import TransmonParams
from ._poly import horner

__all__ = [
    "TransmonParams",
    "FluxPoint",
    "SpectrumResult",
    "TransmonRegimeError",
    "effective_ej",
    "f01_asymptotic",
    "levels",
    "diagonalize",
]

# Exact levels at n_g = 0: f01 = E_C (b_2 - a_0) and f12 = E_C (a_2 - b_2),
# Mathieu characteristic values at q = E_J/(2 E_C), in seven segments of q,
# each with a degree-16 polynomial per level evaluated by Horner's rule.
# Segment k holds the q below _LEVEL_Q_EDGES[k] and at or above the edge
# before it; the last holds q >= 64.  Below q = 16 the polynomials are in
# q: f01/E_C = P01(y), f12/E_C = q^2 P12(y) (a_2 - b_2 -> q^2/2 as q -> 0).
# From q = 16 on they are in t = q^(-1/2), t in [1/8, 1/4] and [0, 1/8]:
# f01/E_C = sqrt(q) P01(y), f12/E_C = sqrt(q) P12(y), where DLMF 28.8.1
# gives a_m ~ -2q + 2(2m+1) sqrt(q) - ...  y maps the segment onto [-1, 1].
# Each polynomial is the Chebyshev interpolant of the levels solved from the
# charge-basis tridiagonal at 40 digits, in monomials of y, highest power
# first; tests/test_transmon.py derives them again
_LEVEL_Q_EDGES = (1.0, 2.5, 5.0, 9.5, 16.0, 64.0)
_LEVEL_SEGMENTS = ((0.0, 1.0), (1.0, 2.5), (2.5, 5.0), (5.0, 9.5), (9.5, 16.0), (0.125, 0.25), (0.0, 0.125))
_LEVEL_T_FROM = 5  # the first segment in t; q = 16 starts it
# kernel calls on at most this many q go point by point on Python floats
_LEVELS_PER_POINT_MAX = 16
# y = x a + b on each segment, x being q or t
_LEVEL_AFFINE = tuple((2.0 / (hi - lo), -(hi + lo) / (hi - lo)) for lo, hi in _LEVEL_SEGMENTS)
_F01 = (
    (-4.17737580638167e-11, 9.32589967514099e-10, -1.3963963006705e-09, -1.1759193244341415e-08,
     4.349445827054731e-08, 5.385731771886464e-08, -6.840633806403223e-07, 9.058597222776365e-07,
     7.21550582472168e-06, -3.1162825938236774e-05, -3.018880038347811e-05, 0.0006097741123966005,
     -0.0012410744853493707, -0.010326137881879341, 0.0863916176475028, 0.19582826625792768,
     4.1009547606924395),
    (-5.389506776645507e-10, 6.730042069722841e-10, 4.955373390295047e-09, -2.459198488569642e-08,
     6.785582533758242e-08, -8.437989306968625e-08, -3.7628012812943444e-07, 3.1795648218889338e-06,
     -1.3046333831714918e-05, 3.194759398382692e-05, -3.1473373191637e-07, -0.0005232051933334258,
     0.0037184746445166885, -0.017374391038930608, 0.041118367412044235, 0.6545572432097326,
     4.964034865962171),
    (-3.4659405493849634e-10, 1.450440044588874e-09, -3.790753181285647e-09, 1.0495950378159701e-08,
     -2.4122289345576372e-08, 1.8094773466743183e-08, 2.0819832967337894e-07, -1.7244009239052485e-06,
     9.468770447686133e-06, -4.4727364131604264e-05, 0.00019659959106721128, -0.0008168417157194915,
     0.0029886789847807945, -0.006718588526621, -0.0325027658850904, 1.1345587307449723, 6.801837426159534),
    (2.43110022921377e-10, -1.1264690831184268e-09, 3.774061028873391e-09, -1.459860689018653e-08,
     5.6685624891375256e-08, -2.1365372017566463e-07, 8.182188786078585e-07, -3.23303712763391e-06,
     1.293800495537454e-05, -4.9943526377835456e-05, 0.00017144918136739523, -0.00043565792448734583,
     5.2251659337903724e-05, 0.009983324149455037, -0.11065297963185762, 1.6574079249257836,
     9.676824113411145),
    (2.33933566502157e-11, -1.0553268980506106e-10, 3.964813265743521e-10, -1.923403652483268e-09,
     9.297527861224023e-09, -4.1981999073395644e-08, 1.75812172109704e-07, -6.57299241098265e-07,
     1.998528163502354e-06, -3.2150640343683116e-06, -1.6856757925421096e-05, 0.00023714849390637656,
     -0.0019245881090603385, 0.014139498354970978, -0.1166349790534081, 1.8312567168140803,
     13.197514523906474),
    (-1.1344856243913818e-10, 1.9347382089650236e-11, 1.4412353522657902e-09, -1.6477073666616595e-09,
     -1.183133458438884e-08, 2.5048608590029915e-08, 9.759039593242e-08, -2.2298876138887787e-07,
     -1.0107751289721049e-06, 6.389395701119715e-07, 1.0114628360595591e-05, 2.6555400119363375e-05,
     3.238627616915336e-05, -5.517366005038923e-05, -0.0015022648631433726, -0.06976619563711399,
     3.802397495006023),
    (2.0451495933696985e-12, 2.338484819161647e-11, 5.2250267828396025e-11, 1.8338262896300535e-11,
     -4.800511350006756e-11, -3.049145985353711e-11, 2.2372822849232802e-11, -1.3599253742881145e-11,
     -2.7994326053419025e-10, -2.402165332136987e-09, -2.3363716307195377e-08, -2.5656071400125293e-07,
     -3.2655999237917644e-06, -5.094740304181791e-05, -0.0011120699879999729, -0.06458320268915305,
     3.9364809501454783),
)
# df01/dq: the derivative of each _F01 polynomial in y, highest power first
_DF01 = tuple(tuple(c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])) for p in _F01)
_F12 = (
    (2.145120103398773e-11, -3.55346132763799e-10, 4.309784278062952e-10, 4.551635000432031e-09,
     -1.4960290248383742e-08, -2.3991626487692766e-08, 2.367732064137743e-07, -2.3196803793711461e-07,
     -2.509010012679718e-06, 8.872321584192554e-06, 1.3625960427346855e-05, -0.00016077937505937164,
     0.0001877422123643255, 0.002227840121437234, -0.009906495796311223, -0.024937576436279654,
     0.4868455192364938),
    (1.772389618244492e-10, -1.0407370071009112e-10, -2.190690774239065e-09, 8.91337100405328e-09,
     -1.954087367247049e-08, 4.321142890078628e-09, 2.056350481809231e-07, -1.1381621447760965e-06,
     3.523344192063867e-06, -4.591325517609452e-06, -2.095080526457882e-05, 0.00017952175015055927,
     -0.0007218947963215675, 0.0014991097468753912, 0.003082385601690418, -0.059165682557854204,
     0.39444019489354365),
    (1.4487422655048403e-10, -5.123058593022968e-10, 9.306534857743453e-10, -1.5517129071561195e-09,
     -3.4040321983838153e-10, 2.5271268662603005e-08, -1.6700280123950116e-07, 7.814692756078238e-07,
     -3.011497434842933e-06, 1.0089107091236394e-05, -2.7823764440581265e-05, 4.132628214518339e-05,
     0.00011766096814773201, -0.0013336192774182037, 0.009510303467641871, -0.061370952357748615,
     0.2670413604248684),
    (1.3104125773484838e-10, 1.1782333396689497e-09, -5.545852318669426e-09, 2.0787206357670413e-09,
     2.5837263902426834e-08, -1.9598081244847503e-08, -2.749582372029523e-07, 9.64789285227785e-07,
     -1.9935167258641987e-08, -9.55166874483437e-06, 3.434750233007595e-05, -6.820311983129132e-05,
     0.00024112932379533562, -0.001945395462816167, 0.011973790087256795, -0.05106862619604867,
     0.14864615131998524),
    (-9.221398138770781e-11, 8.012571003177414e-11, 8.726861336691323e-10, -3.609264677237751e-09,
     9.546644384425946e-09, -1.750514857934734e-08, 2.763040400001246e-10, 1.5503487698084572e-07,
     -6.795406771376416e-07, 1.197570373183962e-06, 4.9402200528984555e-06, -5.982089286047053e-05,
     0.00036435402860106856, -0.0017346909587302528, 0.007089313922804932, -0.025340730825170143,
     0.07321246542313127),
    (1.070193688725604e-09, 1.1906515225262198e-08, -2.736570434126618e-08, -1.0898765856600733e-07,
     3.003160345890646e-07, 4.784559065175718e-07, -2.7476285243675e-06, -2.0175620806814783e-06,
     2.4808178677500628e-05, 4.377815547601855e-05, -0.00010399488242869615, -0.0005351630892395701,
     -0.0010792268077989052, -0.0017721553893119686, -0.007257307240146213, -0.15228324303851118,
     3.5893022012069142),
    (3.409395348180356e-10, -3.8991178517058686e-10, -3.3698753306744107e-09, -2.7933704077944273e-09,
     2.5649262927100686e-09, 2.9112911954904352e-09, -1.6488242787063478e-09, -3.2776167403945404e-09,
     -8.800640147302894e-09, -5.795778281832637e-08, -4.045734842731304e-07, -3.0898259150643153e-06,
     -2.6778897191156045e-05, -0.0002772217291260997, -0.003870666264729602, -0.13200341373950178,
     3.8716140738469496),
)


class TransmonRegimeError(ValueError):
    """Inputs outside the regime where the requested formula is meaningful."""


# the external flux, in units of Phi0
FluxPoint = namedtuple("FluxPoint", "phi")

SpectrumResult = namedtuple("SpectrumResult", "f01 f12 anharmonicity converged")


def effective_ej(params: TransmonParams, phi):
    """Flux-dependent Josephson energy of the asymmetric SQUID (MHz).

    E_J(phi) = E_Jsum sqrt(cos^2(pi phi) + d^2 sin^2(pi phi)); 1-periodic
    and even in phi, maximal at phi = 0, minimal at phi = 0.5; elementwise,
    a 0-d flux giving a numpy scalar.  A non-finite flux, or one whose
    pi phi overflows, raises ValueError naming it.
    """
    return _numpy(_ej_over(params, phi, 1.0))


def _squid_ej(a, b, phi, xp):
    """E_J(phi), cos pi phi and sin pi phi; junction energies a, b >= 0 in
    either order, phi an array with xp numpy or a Python float with xp
    math; NaN where pi phi is not finite (with xp numpy)."""
    d = (b - a) / (a + b)
    x = xp.pi * phi
    c = xp.cos(x)
    s = xp.sin(x)
    return (a + b) * xp.sqrt(c * c + d * d * s * s), c, s


def _ej_over(params: TransmonParams, phi, per):
    """E_J(phi)/per at the fluxes phi, with _reject's ValueError for the
    first flux where that is not finite.  A 0-d flux (a Python or numpy
    number, or a 0-d array) goes on Python floats and gives a Python float,
    bit for bit the element of an array call at that flux (numpy's float64
    cos and sin round as libm's do); any other gives a float array."""
    if not isinstance(phi, (float, int)):
        phi = np.asarray(phi, dtype=float)
        if phi.ndim:
            # a flux past ~5.7e307 overflows pi phi into a NaN E_J
            with np.errstate(over="ignore", invalid="ignore"):
                value = _squid_ej(params.e_j1, params.e_j2, phi, np)[0] / per
            # E_J >= 0, and its max is NaN or inf where any element is
            if not math.isfinite(value.max(initial=0.0)):
                _reject(phi, np.flatnonzero(~np.isfinite(value.ravel()))[0])
            return value
    phi = float(phi)
    # math.cos and math.sin raise on an infinite pi phi
    if math.isfinite(math.pi * phi):
        value = _squid_ej(params.e_j1, params.e_j2, phi, math)[0] / per
        if math.isfinite(value):
            return value
    _reject(phi, 0)


def _numpy(value):
    # a Python float as a numpy scalar; an array as it is
    return value if isinstance(value, np.ndarray) else np.float64(value)


def f01_asymptotic(params: TransmonParams, phi):
    """Leading-order transmon frequency sqrt(8 E_J E_C) - E_C (MHz),
    elementwise, with :func:`effective_ej`'s types and flux check."""
    ej = _ej_over(params, phi, 1.0)
    array = isinstance(ej, np.ndarray)
    # no flux at all passes the check
    lowest = ej.min(initial=np.inf) if array else ej
    if lowest <= params.e_c / 8.0:
        raise TransmonRegimeError(
            f"effective E_J = {lowest:.3g} MHz at phi = {np.ravel(phi)[np.argmin(ej)]} is "
            "outside the transmon regime (degenerate SQUID near half flux?)"
        )
    if array:
        return _closed_form_f01(ej, params.e_c)
    return np.float64(_closed_form_f01(ej, params.e_c, math.sqrt))


def _closed_form_f01(ej, e_c, sqrt=np.sqrt):
    """sqrt(8 E_J E_C) - E_C, elementwise and unchecked; math.sqrt for a Python float."""
    return sqrt(8.0 * ej * e_c) - e_c


def levels(params: TransmonParams, phi):
    """Exact f01, f12 (MHz) at n_g = 0 and a convergence flag, arrays of the shape of phi.

    f01 = E_C (b_2 - a_0) and f12 = E_C (a_2 - b_2), Mathieu characteristic
    values at q = E_J(phi)/(2 E_C), from the module's polynomial tables:
    within 1e-13 relative of a 40-digit solve at every q >= 0, with no
    basis to truncate, so the flag is always true.  A non-finite flux, or
    one whose pi phi overflows, raises ValueError naming it.  A 0-d flux
    goes through E_J and the tables on Python floats and gives numpy
    scalars, each bit for bit the element of an array call at that flux.
    """
    f01, f12 = _levels(params, phi, "f12")
    if isinstance(f01, np.ndarray):
        return f01, f12, np.ones(f01.shape, dtype=bool)
    return np.float64(f01), np.float64(f12), np.True_


def _f01(params: TransmonParams, phi):
    """levels(params, phi)[0], bit for bit, without evaluating the f12 table."""
    return _numpy(_levels(params, phi, None)[0])


def _levels(params: TransmonParams, phi, second):
    # f01 and the second quantity of _at_q at the fluxes phi: Python floats
    # for a 0-d flux, else arrays
    e_c = params.e_c
    q = _ej_over(params, phi, 2.0 * e_c)
    if isinstance(q, np.ndarray):
        return _at_q(q, e_c, second)
    return _segment_levels(bisect_right(_LEVEL_Q_EDGES, q), q, e_c, second, math.sqrt)


def _reject(phi, i):
    value = np.ravel(phi)[i]
    requirement = "keep pi phi finite" if math.isfinite(value) else "be finite"
    raise ValueError(f"flux must {requirement}, got phi = {value}")


def _at_q(q, e_c, second):
    """f01 (MHz) at q = E_J/(2 E_C) >= 0, a numpy array of at least one
    dimension, and f12, df01/dq or None for second "f12", "slope" or None;
    NaN where q is."""
    if q.size <= _LEVELS_PER_POINT_MAX:
        # point by point on Python floats, ~1 us a point against ~15 us for
        # a numpy pass of any size
        rows = [_segment_levels(bisect_right(_LEVEL_Q_EDGES, x), x, e_c, second, math.sqrt)
                for x in q.ravel().tolist()]
        f01 = np.array([row[0] for row in rows]).reshape(q.shape)
        return f01, None if second is None else np.array([row[1] for row in rows]).reshape(q.shape)
    lo, hi = q.min(), q.max()
    # a NaN q makes both NaN: then every segment gets a pass, the NaN the last
    first, last = bisect_right(_LEVEL_Q_EDGES, lo if lo <= hi else 0.0), bisect_right(_LEVEL_Q_EDGES, hi)
    if first == last:
        return _segment_levels(first, q, e_c, second, np.sqrt)
    # one numpy pass per segment present
    segment = np.searchsorted(_LEVEL_Q_EDGES, q, side="right")
    f01, more = np.empty_like(q), None if second is None else np.empty_like(q)
    for k in range(first, last + 1):
        at = segment == k
        if at.any():
            f01[at], more_k = _segment_levels(k, q[at], e_c, second, np.sqrt)
            if more is not None:
                more[at] = more_k
    return f01, more


def _segment_levels(k, q, e_c, second, sqrt):
    # f01 and the second quantity of _at_q on segment k, q a float or an array
    a, b = _LEVEL_AFFINE[k]
    if k < _LEVEL_T_FROM:
        y = q * a + b
        scale01, scale12 = e_c, q * q * e_c
    else:
        s = sqrt(q)
        y = a / s + b
        scale01 = scale12 = s * e_c
    p01 = horner(_F01[k], y)
    if second != "slope":
        return p01 * scale01, horner(_F12[k], y) * scale12 if second else None
    # f01 = E_C P(y): y = a q + b gives E_C a P'(y), y = a/sqrt(q) + b with
    # the factor sqrt(q) gives E_C (P - a P'(y)/sqrt(q)) / (2 sqrt(q))
    dp = horner(_DF01[k], y) * a
    return p01 * scale01, dp * e_c if k < _LEVEL_T_FROM else (p01 - dp / s) * e_c / (2.0 * s)


def diagonalize(params: TransmonParams, point: FluxPoint) -> SpectrumResult:
    """The two lowest transitions at one flux point, as :func:`levels` gives them."""
    f01, f12 = _levels(params, point.phi, "f12")
    return SpectrumResult(float(f01), float(f12), float(f12 - f01), True)
