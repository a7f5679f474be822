"""Lumped-element ladder networks, ABCD/S evaluation, diplexer model.

Butterworth low-pass and band-pass ladders are synthesized series-element
first, so odd-order designs face the diplexer junction with a series branch
(inductive for the low-pass, capacitive for the band-pass).  That keeps
each branch near-open in the other branch's passband, which is what makes
the common-junction diplexer work.

Every response comes from one kernel, ``_ladder``, which takes each element's
impedance once over the frequency array and carries the ladder's ABCD as four
complex arrays from the identity, input first (series Z: B += A Z, D += C Z;
shunt Y: A += B Y, C += D Y), a scalar frequency as a one-element array.  The
diplexer adds its node and output steps alike, and one entrywise 2 x 2 product.

Frequencies are in MHz at the interfaces (finite and > 0); element values
are SI (H, F, Ohm).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import DiplexerSpec  # the band plan is a config document type

__all__ = [
    "Element",
    "LadderNetwork",
    "TwoPortResponse",
    "DiplexerSpec",
    "DiplexerResponse",
    "SpecCheckItem",
    "SpecCheckReport",
    "butterworth_g",
    "element_abcd",
    "network_abcd",
    "network_response",
    "synth_lowpass",
    "synth_bandpass",
    "diplexer_eval",
    "check_spec",
    "default_frequency_grid",
    "two_port_sweep_csv",
    "network_to_json",
]

HALF_POWER_DB = 10.0 * math.log10(0.5)  # -3.0103 dB
# relative distance from its target within which a half-power edge passes
EDGE_TOLERANCE = 0.10


@dataclass(frozen=True)
class Element:
    kind: str  # "series" | "shunt"
    component: str  # "L" | "C" | "R"
    value: float  # henries, farads, or ohms

    def __post_init__(self):
        if self.kind not in ("series", "shunt"):
            raise ValueError(f"element kind must be series|shunt, got {self.kind!r}")
        if self.component not in ("L", "C", "R"):
            raise ValueError(f"component must be L|C|R, got {self.component!r}")
        if not self.value > 0:
            raise ValueError(f"element value must be > 0, got {self.value}")

    def impedance(self, f_mhz):
        """Impedance at f_mhz (a float or an array; an R stays a scalar)."""
        w = 2.0 * math.pi * f_mhz * 1e6
        if self.component == "L":
            return 1j * w * self.value
        if self.component == "C":
            return 1.0 / (1j * w * self.value)
        return complex(self.value)


@dataclass(frozen=True)
class LadderNetwork:
    elements: tuple[Element, ...]
    z0: float = 50.0

    def __post_init__(self):
        if not self.elements:
            raise ValueError("ladder network must have at least one element")
        if self.z0 <= 0:
            raise ValueError(f"z0 must be > 0, got {self.z0}")


@dataclass(frozen=True)
class TwoPortResponse:
    frequency_mhz: float
    abcd: np.ndarray
    s11: complex
    s21: complex


@dataclass(frozen=True)
class DiplexerResponse:
    """Three-port S subset at the common junction (port 3).

    s31: band-pass input (port 1) to combined port, s32: low-pass input
    (port 2) to combined port, s12: leakage between the two inputs.
    """

    frequencies_mhz: np.ndarray
    s31: np.ndarray
    s32: np.ndarray
    s12: np.ndarray


@dataclass(frozen=True)
class SpecCheckItem:
    name: str
    passed: bool
    measured: float
    target: float
    margin: float
    worst_freq_mhz: float


@dataclass(frozen=True)
class SpecCheckReport:
    passed: bool
    items: tuple[SpecCheckItem, ...]


def butterworth_g(n: int) -> list[float]:
    """Maximally-flat prototype values g_k = 2 sin((2k-1) pi / 2n)."""
    if not 1 <= n <= 11:
        raise ValueError(f"filter order must be in [1, 11], got {n}")
    return [2.0 * math.sin((2 * k - 1) * math.pi / (2 * n)) for k in range(1, n + 1)]


def _stack(shape: tuple, a, b, c, d) -> np.ndarray:
    """(*shape, 2, 2) stack of [[a, b], [c, d]]."""
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _series(a, b, c, d, z) -> tuple:
    """[[a, b], [c, d]] followed by a series impedance z, entrywise."""
    return a, a * z + b, c, c * z + d


def _shunt(a, b, c, d, y) -> tuple:
    """[[a, b], [c, d]] followed by a shunt admittance y, entrywise."""
    return a + b * y, b, c + d * y, d


def _product(m: tuple, n: tuple) -> tuple:
    """The 2 x 2 product m n of two entry tuples, entrywise."""
    (a, b, c, d), (p, q, r, s) = m, n
    return a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s


def _ladder(net: LadderNetwork, f_mhz) -> tuple:
    """A, B, C, D of the ladder at every frequency: complex arrays, one element for a scalar."""
    f = np.atleast_1d(np.asarray(f_mhz, dtype=float))
    ok = (f > 0) & (f < math.inf)
    if not np.all(ok):
        raise ValueError(f"frequency must be finite and > 0, got {f[~ok][0]} MHz")
    one, zero = np.ones(f.shape, dtype=complex), np.zeros(f.shape, dtype=complex)
    m = (one, zero, zero, one)
    for el in net.elements:
        z = el.impedance(f)
        m = _series(*m, z) if el.kind == "series" else _shunt(*m, 1.0 / z)
    return m


def _s_params(a, b, c, d, z0: float):
    """(s11, s21) of the ABCD entries a, b, c, d between equal real port impedances z0."""
    if z0 <= 0:
        raise ValueError(f"z0 must be > 0, got {z0}")
    den = a + b / z0 + c * z0 + d
    if np.any(den == 0):
        raise ValueError("non-physical network: singular ABCD->S conversion")
    return (a + b / z0 - c * z0 - d) / den, 2.0 / den


def element_abcd(element: Element, f_mhz) -> np.ndarray:
    return network_abcd(LadderNetwork((element,)), f_mhz)


def network_abcd(net: LadderNetwork, f_mhz) -> np.ndarray:
    return _stack(np.shape(f_mhz), *_ladder(net, f_mhz))


def network_response(net: LadderNetwork, f_mhz) -> TwoPortResponse:
    """Response at a frequency, or at an array of them (fields take its shape)."""
    m, shape = _ladder(net, f_mhz), np.shape(f_mhz)
    s11, s21 = (s.reshape(shape)[()] for s in _s_params(*m, net.z0))
    return TwoPortResponse(frequency_mhz=f_mhz, abcd=_stack(shape, *m), s11=s11, s21=s21)


def synth_lowpass(n: int, f_cutoff_mhz: float, z0: float = 50.0) -> LadderNetwork:
    """Butterworth low-pass ladder, series-L first."""
    if f_cutoff_mhz <= 0:
        raise ValueError(f"cutoff must be > 0, got {f_cutoff_mhz}")
    wc = 2.0 * math.pi * f_cutoff_mhz * 1e6
    els: list[Element] = []
    for i, g in enumerate(butterworth_g(n)):
        if i % 2 == 0:
            els.append(Element("series", "L", g * z0 / wc))
        else:
            els.append(Element("shunt", "C", g / (z0 * wc)))
    return LadderNetwork(elements=tuple(els), z0=z0)


def synth_bandpass(n: int, f_low_mhz: float, f_high_mhz: float, z0: float = 50.0) -> LadderNetwork:
    """Butterworth band-pass ladder via the low-pass transformation.

    Series prototype elements become series LC resonators, shunt elements
    shunt LC resonators, all resonant at f0 = sqrt(f_low f_high).
    """
    if not 0 < f_low_mhz < f_high_mhz:
        raise ValueError(f"need 0 < f_low < f_high, got {f_low_mhz}, {f_high_mhz}")
    w1 = 2.0 * math.pi * f_low_mhz * 1e6
    w2 = 2.0 * math.pi * f_high_mhz * 1e6
    w0 = math.sqrt(w1 * w2)
    dw = w2 - w1
    els: list[Element] = []
    for i, g in enumerate(butterworth_g(n)):
        if i % 2 == 0:
            els.append(Element("series", "L", g * z0 / dw))
            els.append(Element("series", "C", dw / (g * z0 * w0 * w0)))
        else:
            els.append(Element("shunt", "C", g / (dw * z0)))
            els.append(Element("shunt", "L", dw * z0 / (g * w0 * w0)))
    return LadderNetwork(elements=tuple(els), z0=z0)


def diplexer_eval(
    lp: LadderNetwork,
    bp: LadderNetwork,
    z0: float,
    frequencies_mhz: np.ndarray,
    eccosorb_ohm_per_ghz: float = 0.0,
) -> DiplexerResponse:
    """Three-port response of the two branches joined at a common node.

    Port 1 drives the band-pass branch, port 2 the low-pass branch, port 3
    is the junction.  For each path the other branch appears as a shunt
    admittance at the node (terminated in z0 at its own input); for the
    1 -> 2 leakage the port-3 termination loads the node instead.  An
    optional series resistance R = k f[GHz] between node and port 3 models
    an absorptive output filter; k must be finite and >= 0.
    """
    if lp.z0 != z0 or bp.z0 != z0:
        raise ValueError("both branches must be synthesized for the junction z0")
    if not (math.isfinite(eccosorb_ohm_per_ghz) and eccosorb_ohm_per_ghz >= 0.0):
        raise ValueError(f"eccosorb_ohm_per_ghz must be finite and >= 0, got {eccosorb_ohm_per_ghz}")
    freqs = np.atleast_1d(np.asarray(frequencies_mhz, dtype=float))
    if freqs.size == 0:
        raise ValueError("empty frequency grid")
    m_bp, m_lp = _ladder(bp, freqs), _ladder(lp, freqs)
    # the admittance of each branch seen from the node (ports swapped), input in z0
    y_bp, y_lp = ((c * z0 + a) / (d * z0 + b) for a, b, c, d in (m_bp, m_lp))
    r_out = eccosorb_ohm_per_ghz * freqs / 1000.0
    s31, s32 = (_s_params(*_series(*_shunt(*m, y), r_out), z0)[1] for m, y in ((m_bp, y_lp), (m_lp, y_bp)))
    a, b, c, d = m_bp
    s12 = _s_params(*_product(_shunt(*m_lp, 1.0 / (z0 + r_out)), (d, b, c, a)), z0)[1]
    return DiplexerResponse(frequencies_mhz=freqs, s31=s31, s32=s32, s12=s12)


def default_frequency_grid(n_points: int = 2000) -> np.ndarray:
    """Logarithmic sweep, 10 MHz to 15 GHz."""
    return np.logspace(math.log10(10.0), math.log10(15000.0), n_points)


def _db(x: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.abs(x) + 1e-300)


def _crossing(freqs: np.ndarray, vals_db: np.ndarray, level: float, rising: bool) -> float | None:
    """Log-interpolated frequency where vals_db first crosses level."""
    a, b = vals_db[:-1], vals_db[1:]
    hits = np.flatnonzero((a < level) & (level <= b) if rising else (a >= level) & (level > b))
    if hits.size == 0:
        return None
    i = hits[0]
    t = (level - a[i]) / (b[i] - a[i])
    return freqs[i] * (freqs[i + 1] / freqs[i]) ** t


def check_spec(response: DiplexerResponse, spec: DiplexerSpec = DiplexerSpec()) -> SpecCheckReport:
    """Itemized pass/fail of a diplexer response against band requirements.

    Checks the half-power cutoff of the low-pass path, the half-power band
    edges of the band-pass path (both within EDGE_TOLERANCE relative), and
    the worst port-1 <-> port-2 isolation up to the spec limit frequency.
    """
    freqs = response.frequencies_mhz
    if freqs.size < 2:
        raise ValueError("frequency grid too small for a spec check")
    if freqs[0] > spec.lp_cutoff_mhz / 2 or freqs[-1] < spec.isolation_max_freq_mhz:
        raise ValueError(
            "frequency grid must span from below the low-pass band to the "
            f"isolation limit {spec.isolation_max_freq_mhz} MHz"
        )
    mask = freqs <= spec.isolation_max_freq_mhz
    if not mask.any():
        raise ValueError(
            f"isolation limit {spec.isolation_max_freq_mhz} MHz lies below the "
            f"frequency grid's start {freqs[0]:g} MHz"
        )
    bp_db = _db(response.s31)
    i0 = int(np.argmin(np.abs(freqs - math.sqrt(spec.bp_low_mhz * spec.bp_high_mhz))))
    lp = _crossing(freqs, _db(response.s32), HALF_POWER_DB, rising=False)
    lo = _crossing(freqs[: i0 + 1], bp_db[: i0 + 1], HALF_POWER_DB, rising=True)
    hi = _crossing(freqs[i0:], bp_db[i0:], HALF_POWER_DB, rising=False)
    items = []
    for name, edge, target in (
        ("lp_cutoff", lp, spec.lp_cutoff_mhz),
        ("bp_low_edge", lo, spec.bp_low_mhz),
        ("bp_high_edge", hi, spec.bp_high_mhz),
    ):
        measured = float(edge) if edge is not None else math.nan
        err = abs(measured / target - 1.0) if edge is not None else math.inf
        items.append(
            SpecCheckItem(
                name=name,
                passed=bool(err <= EDGE_TOLERANCE),
                measured=measured,
                target=target,
                margin=float(EDGE_TOLERANCE - err),
                worst_freq_mhz=measured,
            )
        )

    iso_db = _db(response.s12[mask])
    worst_i = int(np.argmax(iso_db))
    items.append(
        SpecCheckItem(
            name="isolation",
            passed=bool(iso_db[worst_i] < spec.isolation_db),
            measured=float(iso_db[worst_i]),
            target=spec.isolation_db,
            margin=float(spec.isolation_db - iso_db[worst_i]),
            worst_freq_mhz=float(freqs[mask][worst_i]),
        )
    )

    return SpecCheckReport(passed=all(i.passed for i in items), items=tuple(items))


def two_port_sweep_csv(net: LadderNetwork, frequencies_mhz: np.ndarray) -> str:
    """CSV text (frequency_mhz, s21_db, s11_db) for plotting a two-port."""
    freqs = np.atleast_1d(np.asarray(frequencies_mhz, dtype=float))
    s11, s21 = _s_params(*_ladder(net, freqs), net.z0)
    # per-cell scalar abs and math.log10 (np.abs and np.log10 differ from them
    # in the last ulp, which 12 digits can show), then one % format for all
    cells = [None] * (3 * freqs.size)
    cells[0::3] = freqs.tolist()
    for k, s in ((1, s21), (2, s11)):
        cells[k::3] = [20.0 * math.log10(abs(x) + 1e-300) for x in s.tolist()]
    return "frequency_mhz,s21_db,s11_db\n" + ("%.12g,%.12g,%.12g\n" * freqs.size) % tuple(cells)


def network_to_json(net: LadderNetwork) -> str:
    doc = {
        "z0": net.z0,
        "elements": [
            {"kind": el.kind, "component": el.component, "value": el.value}
            for el in net.elements
        ],
    }
    return json.dumps(doc, indent=2)

