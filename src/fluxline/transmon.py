"""Asymmetric-SQUID transmon spectrum.

All energies are stored as frequency equivalents E/h in MHz and all fluxes
in units of the flux quantum, matching the usual device datasheets.  The
module provides the closed-form flux dependence of the Josephson energy,
the standard transmon asymptotic frequency, and the exact f01/f12 on flux
arrays at zero offset charge, where a transmon's charge dispersion is
exponentially small: Mathieu characteristic values (Koch et al., PRA 76,
042319 (2007)), with the charge-basis diagonalization above MATHIEU_Q_MAX
and where a Mathieu value is NaN.  The charge basis also serves as the
numerical oracle for everything built on top.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# the pure-data parameter type lives with the other document types, so that
# loading a config needs no numpy; re-exported here under its old name
from .config import TransmonParams

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

MIN_BASIS_SIZE = 41

# the low levels spread over ~q^(1/4) charge states; half-widths of 4.3 to
# 4.6 q^(1/4) (q = 300 to 1e5) reach 1e-8 MHz, so 6 q^(1/4) has margin
BASIS_HALF_WIDTH_PER_Q4 = 6.0

# scipy's Mathieu values hold up to here (checked against a 241-state
# charge-basis solve); at q = 2980 its a_2 is off by 434 E_C
MATHIEU_Q_MAX = 1000.0

# |f01(N) - f01(N-4)| below this marks the diagonalization as converged
CONVERGENCE_TOL_MHZ = 1e-3


# scipy.special and scipy.linalg are imported on first use (about 0.4 and
# 0.06 s), so the parts of the package that never need a level do not pay
# for them; the caches keep that import off the per-call path of levels
@functools.cache
def _mathieu():
    from scipy.special import mathieu_a, mathieu_b

    return mathieu_a, mathieu_b


@functools.cache
def _eigh_tridiagonal():
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal


class TransmonRegimeError(ValueError):
    """Inputs outside the regime where the requested formula is meaningful."""


@dataclass(frozen=True)
class FluxPoint:
    """External flux, in units of Phi0."""

    phi: float


@dataclass(frozen=True)
class SpectrumResult:
    f01: float
    f12: float
    anharmonicity: float
    converged: bool


def effective_ej(params: TransmonParams, phi):
    """Flux-dependent Josephson energy of the asymmetric SQUID (MHz).

    E_J(phi) = E_Jsum sqrt(cos^2(pi phi) + d^2 sin^2(pi phi)); 1-periodic
    and even in phi, maximal at phi = 0, minimal at phi = 0.5; elementwise.
    """
    return _squid_ej(params.e_j1, params.e_j2, phi)[0]


def _squid_ej(a, b, phi):
    """E_J(phi), cos pi phi and sin pi phi; junction energies a, b >= 0 in either order."""
    d = (b - a) / (a + b)
    c = np.cos(np.pi * phi)
    s = np.sin(np.pi * phi)
    return (a + b) * np.sqrt(c * c + d * d * s * s), c, s


def f01_asymptotic(params: TransmonParams, phi):
    """Leading-order transmon frequency sqrt(8 E_J E_C) - E_C (MHz), elementwise."""
    ej = effective_ej(params, phi)
    # a scalar flux gives a numpy scalar, compared as it is: its .min()
    # would cost as much as the formula
    lowest = ej.min() if isinstance(ej, np.ndarray) else ej
    if lowest <= params.e_c / 8.0:
        raise TransmonRegimeError(
            f"effective E_J = {lowest:.3g} MHz at phi = {np.ravel(phi)[np.argmin(ej)]} is "
            "outside the transmon regime (degenerate SQUID near half flux?)"
        )
    return _closed_form_f01(ej, params.e_c)


def _closed_form_f01(ej, e_c):
    """sqrt(8 E_J E_C) - E_C, elementwise and unchecked."""
    return np.sqrt(8.0 * ej * e_c) - e_c


def _charge_basis_levels(e_c: float, ej: float, size: int) -> np.ndarray:
    # H = 4 E_C n^2 - E_J/2 (|n><n+1| + h.c.) in the charge basis at n_g = 0
    half = size // 2
    n = np.arange(-half, half + 1, dtype=float)
    diag = 4.0 * e_c * n**2
    off = np.full(size - 1, -0.5 * ej)
    return _eigh_tridiagonal()(diag, off, select="i", select_range=(0, 2))[0]


def levels(params: TransmonParams, phi):
    """Exact f01, f12 (MHz) at n_g = 0 and a convergence flag, arrays of the shape of phi.

    A point is exact when q = E_J/(2 E_C) <= MATHIEU_Q_MAX and scipy's
    Mathieu values there are finite; its levels are f01 = E_C (b_2 - a_0)
    and f12 = E_C (a_2 - b_2), flagged converged.  Every other point is
    diagonalized in a charge basis of 2 ceil(BASIS_HALF_WIDTH_PER_Q4 q^(1/4)) + 1
    states, and at least MIN_BASIS_SIZE, and flagged unconverged when
    f01 moves by CONVERGENCE_TOL_MHZ with four fewer states; that is
    flagged, not raised.  A non-finite flux, or one whose pi phi
    overflows, raises ValueError naming it.

    A call whose points are all exact returns the Mathieu values as they
    come, and a scalar flux gives numpy scalars.
    """
    return _levels(params, phi, True)


def _f01(params: TransmonParams, phi):
    """levels(params, phi)[0], bit for bit, without computing the a_2 of f12."""
    return _levels(params, phi, False)[0]


def _levels(params: TransmonParams, phi, upper: bool):
    # f01, f12 (None unless upper) and the flags of levels
    # a flux past ~5.7e307 overflows pi phi into a NaN q, rejected by name below
    with np.errstate(over="ignore", invalid="ignore"):
        ej = effective_ej(params, np.asarray(phi, dtype=float))
    q = ej / (2.0 * params.e_c)
    mathieu_a, mathieu_b = _mathieu()
    e0, e1 = mathieu_a(0, q), mathieu_b(2, q)
    f01 = params.e_c * (e1 - e0)
    f12 = params.e_c * (mathieu_a(2, q) - e1) if upper else None
    # scipy returns NaN for a_0 on part of q in [667.25, 733.07] and for b_2
    # near q = 820.57.  Its a_2 was finite wherever f01 was on q in [0, 1000]
    # (steps of 5e-4, and 1e-5 and 1e-6 in those windows), so f01 alone
    # marks the same points.  The sum is finite when both levels are; one
    # isfinite on it, and no .all() on a numpy scalar, keep a scalar call
    # ~3 us cheaper
    exact = (q <= MATHIEU_Q_MAX) & np.isfinite(f01 + f12 if upper else f01)
    if exact.all() if isinstance(exact, np.ndarray) else exact:
        return f01, f12, exact
    ej, q = np.ravel(ej), np.ravel(q)
    f01, converged = np.ravel(f01), np.ravel(exact)
    f12 = np.ravel(f12) if upper else None
    for i in np.flatnonzero(~converged):
        if not math.isfinite(q[i]):
            value = np.ravel(phi)[i]
            requirement = "keep pi phi finite" if math.isfinite(value) else "be finite"
            raise ValueError(f"flux must {requirement}, got phi = {value}")
        size = max(MIN_BASIS_SIZE, 2 * math.ceil(BASIS_HALF_WIDTH_PER_Q4 * q[i] ** 0.25) + 1)
        lv = _charge_basis_levels(params.e_c, ej[i], size)
        smaller = _charge_basis_levels(params.e_c, ej[i], size - 4)
        f01[i] = lv[1] - lv[0]
        if upper:
            f12[i] = lv[2] - lv[1]
        converged[i] = abs(f01[i] - (smaller[1] - smaller[0])) < CONVERGENCE_TOL_MHZ
    shape = np.shape(phi)
    return f01.reshape(shape), None if f12 is None else f12.reshape(shape), converged.reshape(shape)


def diagonalize(params: TransmonParams, point: FluxPoint) -> SpectrumResult:
    """The two lowest transitions at one flux point, as :func:`levels` gives them."""
    f01, f12, converged = levels(params, point.phi)
    return SpectrumResult(float(f01), float(f12), float(f12 - f01), bool(converged))
