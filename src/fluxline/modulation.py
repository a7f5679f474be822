"""Time-averaged transmon frequency under sinusoidal flux modulation.

The static tuning curve f01(phi) is expanded in flux harmonics,

    f_avg = sum_n  s_n cos(2 pi n phi_dc) J0(2 pi n phi_ac),

where the coefficients s_n depend only on (E_C, E_J1, E_J2) through a
nine-term perturbation series in xi = sqrt(2 E_C / E_Jrms) with
hypergeometric resummation over the SQUID asymmetry.  A brute-force
time-averaging oracle built on the exact levels (:func:`transmon.levels`)
is provided to validate the truncated series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specfun import bessel_j0, hyp2f1, rising_factorial
from .transmon import TransmonParams, levels

__all__ = [
    "FluxDrive",
    "HarmonicSeries",
    "ModulationConstants",
    "SymmetricSquidError",
    "c_vector",
    "modulation_constants",
    "s_coeff",
    "harmonic_series",
    "avg_frequency",
    "second_order_shift",
    "time_average_oracle",
]

DEFAULT_ORDER = 8
MAX_ORDER = 12


class SymmetricSquidError(ValueError):
    """Perturbation series boundary for a fully symmetric SQUID."""


@dataclass(frozen=True)
class FluxDrive:
    """DC flux bias plus AC modulation, flux in units of Phi0.

    The time-domain flux is phi(t) = phi_dc + phi_ac cos(2 pi f_d t); the
    drive frequency f_d (MHz) only sets the oracle's averaging period and
    drops out of every result.
    """

    phi_dc: float
    phi_ac: float
    f_d: float = 100.0

    def __post_init__(self):
        for name in ("phi_dc", "phi_ac", "f_d"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.phi_ac < 0:
            raise ValueError(f"phi_ac must be >= 0, got {self.phi_ac}")
        if self.f_d <= 0:
            raise ValueError(f"f_d must be > 0, got {self.f_d}")


@dataclass(frozen=True)
class ModulationConstants:
    """Expansion parameter xi and normalized junction product ej_tilde."""

    xi: float
    ej_tilde: float


@dataclass(frozen=True)
class HarmonicSeries:
    """Coefficients s_0..s_p of the flux-harmonic expansion, in MHz."""

    s: tuple[float, ...]
    order: int


def c_vector() -> list[float]:
    """The nine series constants; dyadic rationals, exact as floats."""
    return [
        4.0,
        -1.0,
        -1.0 / 2**2,
        -21.0 / 2**7,
        -19.0 / 2**7,
        -5319.0 / 2**15,
        -6649.0 / 2**15,
        -1180581.0 / 2**22,
        -446287.0 / 2**20,
    ]


def modulation_constants(params: TransmonParams) -> ModulationConstants:
    # direct squares, not hypot: ej_tilde must be exactly 1.0 for a
    # symmetric SQUID so the series boundary is detected reliably
    sq = params.e_j1 * params.e_j1 + params.e_j2 * params.e_j2
    xi = math.sqrt(2.0 * params.e_c / math.sqrt(sq))
    ej_tilde = 2.0 * params.e_j1 * params.e_j2 / sq
    return ModulationConstants(xi=xi, ej_tilde=ej_tilde)


def s_coeff(params: TransmonParams, n: int) -> float:
    """Harmonic coefficient s_n in MHz.

    The k-th series constant pairs with xi^(k-1), so the leading entry
    carries sqrt(8 E_Jrms E_C); the k = 1 entry is the flux-independent
    -E_C term and therefore drops out of every n >= 1 harmonic (its
    Gamma-ratio factor (0)_n vanishes).
    """
    if n < 0:
        raise ValueError(f"harmonic index must be >= 0, got {n}")
    const = modulation_constants(params)
    z = const.ej_tilde**2
    if z >= 1.0:
        raise SymmetricSquidError(
            "symmetric SQUID: harmonic series boundary z=1; use "
            "time_average_oracle instead"
        )
    cvec = c_vector()
    total = 0.0
    if n == 0:
        for k, ck in enumerate(cvec):
            a = (k - 1) / 8.0
            total += ck * const.xi ** (k - 1) * hyp2f1(a, a + 0.5, 1.0, z)
        return params.e_c * total
    for k, ck in enumerate(cvec):
        ratio = rising_factorial((k - 1) / 4.0, n)
        if ratio == 0.0:
            continue
        a = 0.5 * n + (k - 1) / 8.0
        b = 0.5 * (n + 1) + (k - 1) / 8.0
        total += ck * const.xi ** (k - 1) * ratio * hyp2f1(a, b, n + 1.0, z)
    return (2.0 / math.factorial(n)) * params.e_c * (-0.5 * const.ej_tilde) ** n * total


@lru_cache(maxsize=128)
def _harmonic_tuple(params: TransmonParams, order: int) -> tuple[float, ...]:
    return tuple(s_coeff(params, n) for n in range(order + 1))


def harmonic_series(params: TransmonParams, order: int = DEFAULT_ORDER) -> HarmonicSeries:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    return HarmonicSeries(s=_harmonic_tuple(params, order), order=order)


def avg_frequency(params: TransmonParams, drive: FluxDrive, p: int = DEFAULT_ORDER) -> float:
    """Time-averaged qubit frequency (MHz) from the truncated series."""
    s = np.array(harmonic_series(params, p).s)
    wn = 2.0 * np.pi * np.arange(p + 1)
    terms = s * np.cos(wn * drive.phi_dc) * bessel_j0(wn * drive.phi_ac)
    return float(np.cumsum(terms)[-1])  # the harmonics added in order


def second_order_shift(params: TransmonParams, phi_ac: float) -> float:
    """Small-amplitude frequency shift in Hz, quadratic in phi_ac.

    delta_f = -pi^2 r / (2 (1+r)^2) sqrt(8 E_Jsum E_C) phi_ac^2 with
    r = E_J1/E_J2; invariant under r -> 1/r, always <= 0.
    """
    if phi_ac < 0:
        raise ValueError(f"phi_ac must be >= 0, got {phi_ac}")
    r = params.e_j1 / params.e_j2
    scale = math.sqrt(8.0 * params.e_j_sum * params.e_c)
    shift_mhz = -(math.pi**2 * r / (2.0 * (1.0 + r) ** 2)) * scale * phi_ac**2
    return shift_mhz * 1e6


def time_average_oracle(
    params: TransmonParams,
    drive: FluxDrive,
    n_steps: int = 512,
    basis_size: int | None = None,
) -> float:
    """Average of the exact f01 over one modulation period (MHz).

    Uniform sampling in drive phase (the periodic trapezoidal rule, which
    is spectrally accurate here); by construction independent of f_d.
    All samples come from one :func:`levels` call and are summed by one
    ``np.sum`` over the array, a fixed summation order, so results are
    bit-reproducible.
    """
    if n_steps < 256:
        raise ValueError(f"n_steps must be >= 256, got {n_steps}")
    theta = 2.0 * np.pi * np.arange(n_steps) / n_steps
    phi = drive.phi_dc + drive.phi_ac * np.cos(theta)
    return float(np.sum(levels(params, phi, basis_size=basis_size)[0])) / n_steps
