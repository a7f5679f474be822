"""Crosstalk budget through a shared microwave/flux signal chain.

Chains a room-temperature drive amplitude through line attenuation to the
current at the shorted on-chip termination, converts it to SQUID flux via
the mutual inductance, and evaluates the resulting spurious frequency
shift.  Peak (not RMS) amplitude convention throughout.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .config import AttenuationChain  # a line's stack is a config document type
from .config import _Validated
from .modulation import second_order_shift
from .transmon import TransmonParams

__all__ = [
    "PHI0_WB",
    "LineBudget",
    "AttenuationChain",
    "ChainReport",
    "SpuriousShiftReport",
    "attenuation_factor",
    "drive_current",
    "flux_from_current",
    "spurious_shift_report",
    "chain_total",
]

# Magnetic flux quantum h/2e in webers.
PHI0_WB = 2.067833848e-15

DEFAULT_LINEWIDTH_HZ = 10_000.0


class LineBudget(_Validated, namedtuple("LineBudget", "gamma_db v_p r_ohm m_fH")):
    """Attenuation, impedance, mutual inductance and RT drive amplitude."""

    __slots__ = ()

    def __new__(cls, gamma_db: float, v_p: float, r_ohm: float = 50.0, m_fH: float = 500.0):
        self = super().__new__(cls, gamma_db, v_p, r_ohm, m_fH)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if gamma_db < 0:
            raise ValueError(f"gamma_db must be >= 0, got {gamma_db}")
        if v_p < 0:  # a peak amplitude
            raise ValueError(f"v_p must be >= 0, got {v_p}")
        if r_ohm <= 0:
            raise ValueError(f"r_ohm must be > 0, got {r_ohm}")
        if m_fH <= 0:
            raise ValueError(f"m_fH must be > 0, got {m_fH}")
        return self


# breakdown holds (label, dB, cumulative dB) per segment
ChainReport = namedtuple("ChainReport", "total_db breakdown reference_frequency_mhz")

SpuriousShiftReport = namedtuple("SpuriousShiftReport", "phi_ac delta_f_hz detectable")


def attenuation_factor(gamma_db: float) -> float:
    """Voltage attenuation alpha = 10^(-gamma/20)."""
    if not (math.isfinite(gamma_db) and gamma_db >= 0):
        raise ValueError(f"gamma_db must be finite and >= 0, got {gamma_db}")
    return 10.0 ** (-gamma_db / 20.0)


def drive_current(budget: LineBudget) -> float:
    """Peak current in amperes at the shorted line termination.

    I = 2 alpha V_p / R; the factor of two is the current doubling at a
    short-circuit termination.
    """
    return 2.0 * attenuation_factor(budget.gamma_db) * budget.v_p / budget.r_ohm


def flux_from_current(m_fH: float, i_amp: float) -> float:
    """SQUID flux in units of Phi0 from a current through the line."""
    if not (math.isfinite(m_fH) and m_fH > 0):
        raise ValueError(f"m_fH must be finite and > 0, got {m_fH}")
    return m_fH * 1e-15 * i_amp / PHI0_WB


def spurious_shift_report(
    params: TransmonParams,
    budget: LineBudget,
    linewidth_hz: float = DEFAULT_LINEWIDTH_HZ,
) -> SpuriousShiftReport:
    """Full budget: RT amplitude -> current -> flux -> frequency shift."""
    if not (math.isfinite(linewidth_hz) and linewidth_hz > 0):
        raise ValueError(f"linewidth_hz must be finite and > 0, got {linewidth_hz}")
    phi_ac = flux_from_current(budget.m_fH, drive_current(budget))
    if not math.isfinite(phi_ac):
        raise ValueError(f"{budget} overflows the line flux 2 alpha V_p / R * M / Phi0")
    try:
        delta_f = second_order_shift(params, phi_ac)
    except ValueError:  # phi_ac >= 0 here: its shift overflowed
        raise ValueError(f"{budget} overflows the second-order shift of {params}") from None
    return SpuriousShiftReport(
        phi_ac=phi_ac,
        delta_f_hz=delta_f,
        detectable=abs(delta_f) > linewidth_hz,
    )


def chain_total(chain: AttenuationChain) -> ChainReport:
    """Total attenuation of a chain with per-segment cumulative breakdown."""
    if not chain.segments:
        raise ValueError("attenuation chain has no segments")
    breakdown = []
    running = 0.0
    for label, db in chain.segments:
        running += db
        breakdown.append((label, db, running))
    return ChainReport(
        total_db=running,
        breakdown=tuple(breakdown),
        reference_frequency_mhz=chain.reference_frequency_mhz,
    )
