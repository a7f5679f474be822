"""Time-averaged transmon frequency under sinusoidal flux modulation.

The static tuning curve f01(phi) is expanded in flux harmonics,

    f_avg = sum_n  s_n cos(2 pi n phi_dc) J0(2 pi n phi_ac),

where the coefficients s_n are the Fourier cosine coefficients of the
nine-term perturbation series F(phi) = E_C sum_k C_k xi(phi)^(k-1) in
xi(phi) = sqrt(2 E_C / E_J(phi)), taken from one rfft of F on a uniform
flux grid (the paper's hypergeometric form of the same coefficients is
the tests' reference).  The sum stops at n = ORDER = 8, as in the
paper.  A brute-force time-averaging oracle built on the exact f01 at
n_g = 0 (that of :func:`transmon.levels`, the Mathieu values from numpy
tables) is provided to validate the truncated series.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .config import _Validated
from .specfun import ConvergenceError, bessel_j0
from .transmon import TransmonParams, _f01, effective_ej

__all__ = [
    "FluxDrive",
    "C_VECTOR",
    "s_coeff",
    "harmonic_series",
    "avg_frequency",
    "second_order_shift",
    "time_average_oracle",
]

# the top harmonic of the series, as in the paper: s_0..s_8
ORDER = 8


class FluxDrive(_Validated, namedtuple("FluxDrive", "phi_dc phi_ac")):
    """DC flux bias plus AC modulation, flux in units of Phi0.

    The time-domain flux is phi(t) = phi_dc + phi_ac cos(2 pi f_d t); the
    drive frequency f_d drops out of every time average, so no field holds
    it.  phi_dc and phi_ac may be arrays (held as float arrays); every
    result is then elementwise over their broadcast.
    Only a scalar drive compares and hashes by value.
    """

    __slots__ = ()

    def __new__(cls, phi_dc: float | np.ndarray, phi_ac: float | np.ndarray):
        if np.ndim(phi_dc):
            phi_dc = np.asarray(phi_dc, dtype=float)
        _require("phi_dc", phi_dc, np.isfinite, "must be finite")
        if np.ndim(phi_ac):
            phi_ac = np.asarray(phi_ac, dtype=float)
        _require("phi_ac", phi_ac, np.isfinite, "must be finite")
        _require("phi_ac", phi_ac, lambda v: v >= 0, "must be >= 0")
        return super().__new__(cls, phi_dc, phi_ac)


def _require(name: str, value, ok, requirement: str) -> None:
    """ValueError naming the first entry of a scalar or array value that fails ok."""
    value = np.asarray(value, dtype=float)
    bad = ~ok(value)
    if bad.any():
        raise ValueError(f"{name} {requirement}, got {float(value[bad].flat[0])}")


def _float_or_array(a):
    # a scalar drive gets a float, an array drive an array of its shape
    return float(a) if np.ndim(a) == 0 else a


# the nine series constants; dyadic rationals, exact as floats
C_VECTOR = (
    4.0,
    -1.0,
    -1.0 / 2**2,
    -21.0 / 2**7,
    -19.0 / 2**7,
    -5319.0 / 2**15,
    -6649.0 / 2**15,
    -1180581.0 / 2**22,
    -446287.0 / 2**20,
)


# past this many flux samples (r = E_J1/E_J2 ~ 0.99984, and r = 1) the
# series raises; a power of two, so need > MAX_SAMPLES iff M > MAX_SAMPLES
MAX_SAMPLES = 2**18


def _sample_count(params: TransmonParams) -> int:
    """The rfft size for harmonics 0..ORDER: a power of two set by E_J1/E_J2."""
    r = params.e_j1 / params.e_j2  # the constructor orders e_j1 <= e_j2
    # harmonic n carries the alias s_(M-n) ~ r^(M-n) s_0, which M - n >=
    # ln(1e-18)/ln r puts below rounding; no M does at r = 1
    need = max(64, ORDER + math.log(1e-18) / math.log(r)) if r < 1 else math.inf
    if need > MAX_SAMPLES:
        raise ConvergenceError(
            f"harmonic series of E_J1/E_J2 = {r:.6g} needs more than {MAX_SAMPLES} "
            "flux samples; use time_average_oracle instead"
        )
    return 1 << (math.ceil(need) - 1).bit_length()


@lru_cache(maxsize=128)
def harmonic_series(params: TransmonParams) -> tuple[float, ...]:
    """The coefficients s_0..s_ORDER of the flux-harmonic expansion (MHz), cached.

    ConvergenceError past MAX_SAMPLES, a symmetric SQUID (E_J1 = E_J2) included.
    """
    m = _sample_count(params)
    xi = np.sqrt(2.0 * params.e_c / effective_ej(params, np.arange(m) / m))
    # sum_k C_k xi^(k-1) = (sum_k C_k xi^k) / xi, by Horner
    total = np.full(m, C_VECTOR[-1])
    for ck in C_VECTOR[-2::-1]:
        total = total * xi + ck
    # F is real and even: its coefficients are the real parts, and the
    # harmonics +n and -n pair up for n >= 1
    c = np.fft.rfft(params.e_c * total / xi)[: ORDER + 1].real / m
    c[1:] *= 2.0
    return tuple(c.tolist())


def s_coeff(params: TransmonParams, n: int) -> float:
    """Harmonic coefficient s_n in MHz, n = 0..ORDER, from :func:`harmonic_series`.

    s_n is the n-th Fourier cosine coefficient of the nine-term series
    F(phi) = E_C sum_k C_k xi(phi)^(k-1), taken with the others from one
    rfft of F; the k = 1 entry, -E_C, enters s_0 alone.
    """
    if not 0 <= n <= ORDER:
        raise ValueError(f"harmonic index must be in [0, {ORDER}], got {n}")
    return harmonic_series(params)[n]


def avg_frequency(params: TransmonParams, drive: FluxDrive) -> float | np.ndarray:
    """Time-averaged qubit frequency (MHz) from the truncated series.

    Elementwise over the drive's phi_dc and phi_ac; a scalar drive gives a
    float.  phi_dc is taken modulo 1 (np.fmod, exact, the identity on
    (-1, 1)), as f01 is 1-periodic; an amplitude whose harmonic phases
    2 pi n phi_ac overflow raises ValueError naming it, before the Bessel
    kernel could warn on an infinite argument.
    """
    s = np.array(harmonic_series(params))
    phi_dc, phi_ac = np.broadcast_arrays(drive.phi_dc, drive.phi_ac)
    # harmonics along the first axis; the cumulative sum adds them in order
    # at every shape, where a sum over a short axis would pair them up
    column = (-1,) + (1,) * phi_dc.ndim
    wn = (2.0 * np.pi * np.arange(ORDER + 1)).reshape(column)
    with np.errstate(over="ignore"):
        phase_ac = wn * phi_ac
    _require("phi_ac", phi_ac, lambda v: np.isfinite(phase_ac[-1]), f"must keep 2 pi n phi_ac finite for n <= {ORDER}")
    terms = s.reshape(column) * np.cos(wn * np.fmod(phi_dc, 1.0)) * bessel_j0(phase_ac)
    return _float_or_array(np.cumsum(terms, axis=0)[-1])


def second_order_shift(params: TransmonParams, phi_ac) -> float | np.ndarray:
    """Small-amplitude frequency shift in Hz, quadratic in phi_ac.

    delta_f = -pi^2 r / (2 (1+r)^2) sqrt(8 E_Jsum E_C) phi_ac^2 with
    r = E_J1/E_J2; invariant under r -> 1/r, always <= 0.  Elementwise
    over an array phi_ac; a scalar gives a float.  An amplitude whose
    shift overflows raises ValueError naming it.
    """
    _require("phi_ac", phi_ac, lambda v: ~(v < 0), "must be >= 0")  # a NaN gives a NaN shift
    phi_ac = np.asarray(phi_ac, dtype=float)
    r = params.e_j1 / params.e_j2
    scale = math.sqrt(8.0 * params.e_j_sum * params.e_c)
    with np.errstate(over="ignore"):
        shift_mhz = -(math.pi**2 * r / (2.0 * (1.0 + r) ** 2)) * scale * (phi_ac * phi_ac)
        shift_hz = shift_mhz * 1e6
    _require("phi_ac", phi_ac, lambda v: ~np.isinf(shift_hz), "must keep the second-order shift finite")
    return _float_or_array(shift_hz)


def time_average_oracle(params: TransmonParams, drive: FluxDrive, n_steps: int = 512) -> float | np.ndarray:
    """Average of the exact f01 over one modulation period (MHz).

    Uniform sampling in drive phase theta_j = 2 pi j / n_steps (the
    periodic trapezoidal rule, which is spectrally accurate here); no
    drive frequency enters.  phi_dc is taken modulo 1 (np.fmod) before
    phi_ac cos theta_j is added.  The flux phi_dc + phi_ac cos theta_j is
    even in theta, so only j = 0..n_steps // 2 are evaluated, and every
    sample but theta = 0 and theta = pi (even n_steps only) counts twice.
    All samples of every drive come from one call for the exact f01 (that
    of :func:`transmon.levels`, without its f12), with the drive phase
    along the last axis; each drive's weighted samples are summed by
    ``np.sum`` over that axis, a fixed summation order that does not
    depend on the other drives of the batch, so a drive of an array gives
    the bits of the same drive alone.  Elementwise over the drive's phi_dc
    and phi_ac; a scalar drive gives a float.
    """
    if n_steps < 256:
        raise ValueError(f"n_steps must be >= 256, got {n_steps}")
    half = n_steps // 2
    theta = 2.0 * np.pi * np.arange(half + 1) / n_steps
    weight = np.full(half + 1, 2.0)
    weight[0] = 1.0
    if n_steps % 2 == 0:
        weight[-1] = 1.0  # theta = pi is its own mirror
    phi_dc, phi_ac = np.broadcast_arrays(drive.phi_dc, drive.phi_ac)
    phi = np.fmod(phi_dc, 1.0)[..., None] + phi_ac[..., None] * np.cos(theta)
    return _float_or_array(np.sum(_f01(params, phi) * weight, axis=-1) / n_steps)
