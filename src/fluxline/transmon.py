"""Asymmetric-SQUID transmon spectrum.

All energies are stored as frequency equivalents E/h in MHz and all fluxes
in units of the flux quantum, matching the usual device datasheets.  The
module provides the closed-form flux dependence of the Josephson energy,
the standard transmon asymptotic frequency, and the exact f01/f12 on flux
arrays: Mathieu characteristic values at n_g = 0 (Koch et al., PRA 76,
042319 (2007)), and the charge-basis diagonalization, which serves as the
numerical oracle for everything built on top.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

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

DEFAULT_BASIS_SIZE = 41

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
class TransmonParams:
    """Charging energy and the two junction energies of a SQUID transmon.

    The constructor normalizes to e_j1 <= e_j2 and records whether the
    inputs were swapped.  Warns (does not fail) when e_j_sum/e_c < 20,
    i.e. outside the usual transmon regime.
    """

    e_c: float
    e_j1: float
    e_j2: float
    swapped: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not (self.e_c > 0 and self.e_j1 > 0 and self.e_j2 > 0):
            raise ValueError(
                f"energies must be positive: e_c={self.e_c}, "
                f"e_j1={self.e_j1}, e_j2={self.e_j2}"
            )
        if self.e_j1 > self.e_j2:
            object.__setattr__(self, "swapped", True)
            ej1, ej2 = self.e_j2, self.e_j1
            object.__setattr__(self, "e_j1", ej1)
            object.__setattr__(self, "e_j2", ej2)
        if self.e_j_sum / self.e_c < 20.0:
            warnings.warn(
                f"e_j_sum/e_c = {self.e_j_sum / self.e_c:.1f} < 20: "
                "outside the transmon regime, asymptotic formulas degrade",
                stacklevel=2,
            )

    @property
    def e_j_sum(self) -> float:
        return self.e_j1 + self.e_j2

    @property
    def asymmetry(self) -> float:
        """d = (e_j2 - e_j1)/(e_j1 + e_j2), in [0, 1)."""
        return (self.e_j2 - self.e_j1) / self.e_j_sum


@dataclass(frozen=True)
class FluxPoint:
    """External flux (units of Phi0) and offset charge."""

    phi: float
    n_g: float = 0.0


@dataclass(frozen=True)
class SpectrumResult:
    f01: float
    f12: float
    anharmonicity: float
    basis_size: int | None  # None: the default path of :func:`levels`
    converged: bool


def effective_ej(params: TransmonParams, phi):
    """Flux-dependent Josephson energy of the asymmetric SQUID (MHz).

    E_J(phi) = E_Jsum sqrt(cos^2(pi phi) + d^2 sin^2(pi phi)); 1-periodic
    and even in phi, maximal at phi = 0, minimal at phi = 0.5; elementwise.
    """
    d = params.asymmetry
    c = np.cos(np.pi * phi)
    s = np.sin(np.pi * phi)
    return params.e_j_sum * np.sqrt(c * c + d * d * s * s)


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
    return np.sqrt(8.0 * ej * params.e_c) - params.e_c


def _charge_basis_levels(e_c: float, ej: float, n_g: float, basis_size: int) -> np.ndarray:
    # H = 4 E_C (n - n_g)^2 - E_J/2 (|n><n+1| + h.c.) in the charge basis
    half = basis_size // 2
    n = np.arange(-half, half + 1, dtype=float)
    diag = 4.0 * e_c * (n - n_g) ** 2
    off = np.full(basis_size - 1, -0.5 * ej)
    return _eigh_tridiagonal()(diag, off, select="i", select_range=(0, 2))[0]


def levels(params: TransmonParams, phi, n_g: float = 0.0, basis_size: int | None = None):
    """Exact f01, f12 (MHz) and a convergence flag, arrays of the shape of phi.

    At n_g = 0 with no basis size given these are Mathieu values,
    f01 = E_C (b_2 - a_0) and f12 = E_C (a_2 - b_2) at q = E_J/(2 E_C).
    Points with q > MATHIEU_Q_MAX, and every point when n_g != 0 or a basis
    size is given, are diagonalized in the charge basis and flagged
    unconverged when f01 moves by CONVERGENCE_TOL_MHZ with four fewer
    states; that is flagged, not raised.  Unless given, the basis has
    2 ceil(BASIS_HALF_WIDTH_PER_Q4 q^(1/4)) + 1 states, and at least
    DEFAULT_BASIS_SIZE.  A non-finite flux, or one whose pi phi overflows,
    raises ValueError naming it.

    When every point is a Mathieu point the values come straight from q,
    with no masks or copies, and a scalar flux gives numpy scalars.  That
    path is bit-identical to the masked one below and costs 9-17 us for a
    scalar on a shared 2-core host (the masked path 22-45 us), of which
    the three Mathieu calls are ~4.5 us.
    """
    if basis_size is not None and (basis_size < 11 or basis_size % 2 == 0):
        raise ValueError(f"basis_size must be odd and >= 11, got {basis_size}")
    # a flux past ~5.7e307 overflows pi phi into a NaN q, rejected by name below
    with np.errstate(over="ignore", invalid="ignore"):
        ej = effective_ej(params, np.asarray(phi, dtype=float))
    q = ej / (2.0 * params.e_c)
    within = q <= MATHIEU_Q_MAX  # False for a NaN q
    mathieu_a, mathieu_b = _mathieu()
    if n_g == 0.0 and basis_size is None and (within.all() if isinstance(within, np.ndarray) else within):
        e0, e1, e2 = mathieu_a(0, q), mathieu_b(2, q), mathieu_a(2, q)
        # within is all True here, so it is the convergence flag
        return params.e_c * (e1 - e0), params.e_c * (e2 - e1), within
    ej, q = np.ravel(ej), np.ravel(q)
    exact = np.ravel(within) & (n_g == 0.0 and basis_size is None)
    e0, e1, e2 = mathieu_a(0, q[exact]), mathieu_b(2, q[exact]), mathieu_a(2, q[exact])
    f01, f12, converged = np.empty_like(q), np.empty_like(q), exact.copy()
    f01[exact], f12[exact] = params.e_c * (e1 - e0), params.e_c * (e2 - e1)
    for i in np.flatnonzero(~exact):
        if not math.isfinite(q[i]):
            value = np.ravel(phi)[i]
            requirement = "keep pi phi finite" if math.isfinite(value) else "be finite"
            raise ValueError(f"flux must {requirement}, got phi = {value}")
        size = basis_size or max(DEFAULT_BASIS_SIZE, 2 * math.ceil(BASIS_HALF_WIDTH_PER_Q4 * q[i] ** 0.25) + 1)
        lv = _charge_basis_levels(params.e_c, ej[i], n_g, size)
        smaller = _charge_basis_levels(params.e_c, ej[i], n_g, size - 4)
        f01[i], f12[i] = lv[1] - lv[0], lv[2] - lv[1]
        converged[i] = abs(f01[i] - (smaller[1] - smaller[0])) < CONVERGENCE_TOL_MHZ
    return tuple(a.reshape(np.shape(phi)) for a in (f01, f12, converged))


def diagonalize(params: TransmonParams, point: FluxPoint, basis_size: int | None = None) -> SpectrumResult:
    """The two lowest transitions at one flux point, as :func:`levels` gives them."""
    f01, f12, converged = levels(params, point.phi, point.n_g, basis_size)
    return SpectrumResult(float(f01), float(f12), float(f12 - f01), basis_size, bool(converged))
