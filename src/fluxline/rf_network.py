"""Lumped-element ladder networks, ABCD/S evaluation, diplexer model.

Butterworth low-pass and band-pass ladders are synthesized series-element
first, so odd-order designs face the diplexer junction with a series branch
(inductive for the low-pass, capacitive for the band-pass).  That keeps
each branch near-open in the other branch's passband, which is what makes
the common-junction diplexer work.

Every response comes from one evaluator, ``_abcd_stack``, which takes each
element's impedance once over the whole frequency array and multiplies the
(F, 2, 2) factor stacks with ``@``, identity and input first (``cascade``).

Frequencies are in MHz at the interfaces (finite and > 0); element values
are SI (H, F, Ohm).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

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
    "cascade",
    "to_s_params",
    "network_abcd",
    "network_response",
    "synth_lowpass",
    "synth_bandpass",
    "diplexer_eval",
    "check_spec",
    "default_frequency_grid",
    "two_port_sweep_csv",
    "network_to_json",
    "network_from_json",
]

HALF_POWER_DB = 10.0 * math.log10(0.5)  # -3.0103 dB


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

    @property
    def det(self) -> complex:
        """A·D − B·C of the cascade, 1 if reciprocal, to ~eps·(|A·D| + |B·C|)."""
        m = self.abcd
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


@dataclass(frozen=True)
class DiplexerSpec:
    lp_cutoff_mhz: float = 1500.0
    bp_low_mhz: float = 3000.0
    bp_high_mhz: float = 7000.0
    isolation_db: float = -20.0
    isolation_max_freq_mhz: float = 15000.0

    def __post_init__(self):
        if not self.bp_low_mhz > self.lp_cutoff_mhz:
            raise ValueError("band-pass low edge must sit above the low-pass cutoff")
        if not self.bp_high_mhz > self.bp_low_mhz:
            raise ValueError("band-pass high edge must sit above its low edge")


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
    """Contiguous (*shape, 2, 2) stack of [[a, b], [c, d]], so that ``@`` takes
    the BLAS kernel of a single 2 x 2 product and matches it bit for bit."""
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _abcd_stack(net: LadderNetwork, f_mhz) -> np.ndarray:
    """ABCD of the ladder at every frequency: shape f_mhz.shape + (2, 2)."""
    f = np.asarray(f_mhz, dtype=float)
    ok = (f > 0) & (f < math.inf)
    if not np.all(ok):
        raise ValueError(f"frequency must be finite and > 0, got {f[~ok][0]} MHz")

    def factor(el: Element) -> np.ndarray:
        z = el.impedance(f)
        if el.kind == "series":
            return _stack(f.shape, 1.0, z, 0.0, 1.0)
        return _stack(f.shape, 1.0, 0.0, 1.0 / z, 1.0)

    return cascade(*map(factor, net.elements))


def element_abcd(element: Element, f_mhz) -> np.ndarray:
    return _abcd_stack(LadderNetwork((element,)), f_mhz)


def cascade(*abcds: np.ndarray) -> np.ndarray:
    """Product of ABCD matrices (or (..., 2, 2) stacks) in port order, input first."""
    out = np.eye(2, dtype=complex)
    for m in abcds:
        out = out @ m
    return out


def to_s_params(abcd: np.ndarray, z0: float):
    """(s11, s21) for equal real port impedances, per matrix of a stack."""
    if z0 <= 0:
        raise ValueError(f"z0 must be > 0, got {z0}")
    a, b, c, d = abcd[..., 0, 0], abcd[..., 0, 1], abcd[..., 1, 0], abcd[..., 1, 1]
    den = a + b / z0 + c * z0 + d
    if np.any(den == 0):
        raise ValueError("non-physical network: singular ABCD->S conversion")
    return (a + b / z0 - c * z0 - d) / den, 2.0 / den


def network_abcd(net: LadderNetwork, f_mhz) -> np.ndarray:
    return _abcd_stack(net, f_mhz)


def network_response(net: LadderNetwork, f_mhz) -> TwoPortResponse:
    """Response at a frequency, or at an array of them (fields take its shape)."""
    abcd = _abcd_stack(net, f_mhz)
    s11, s21 = to_s_params(abcd, net.z0)
    return TwoPortResponse(frequency_mhz=f_mhz, abcd=abcd, s11=s11, s21=s21)


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


def _reverse_abcd(abcd: np.ndarray) -> np.ndarray:
    # port swap for a reciprocal (det = 1) two-port
    return _stack(abcd.shape[:-2], abcd[..., 1, 1], abcd[..., 0, 1], abcd[..., 1, 0], abcd[..., 0, 0])


def _input_admittance_from_junction(abcd: np.ndarray, z_load: float):
    """Admittance looking into a branch from its junction side.

    The branch ABCD is defined input-port -> junction; seen from the
    junction the ports swap, and the input port is terminated in z_load.
    """
    a, b, c, d = abcd[..., 0, 0], abcd[..., 0, 1], abcd[..., 1, 0], abcd[..., 1, 1]
    return 1.0 / ((d * z_load + b) / (c * z_load + a))


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
    freqs = np.asarray(frequencies_mhz, dtype=float)
    if freqs.size == 0:
        raise ValueError("empty frequency grid")
    m_bp, m_lp = _abcd_stack(bp, freqs), _abcd_stack(lp, freqs)
    shunt = lambda y: _stack(freqs.shape, 1.0, 0.0, y, 1.0)
    if eccosorb_ohm_per_ghz > 0.0:
        r_out = eccosorb_ohm_per_ghz * freqs / 1000.0
        out = (_stack(freqs.shape, 1.0, r_out, 0.0, 1.0),)
        y_port3 = 1.0 / (z0 + r_out)
    else:
        out, y_port3 = (), 1.0 / z0
    _, s31 = to_s_params(cascade(m_bp, shunt(_input_admittance_from_junction(m_lp, z0)), *out), z0)
    _, s32 = to_s_params(cascade(m_lp, shunt(_input_admittance_from_junction(m_bp, z0)), *out), z0)
    _, s12 = to_s_params(cascade(m_lp, shunt(y_port3), _reverse_abcd(m_bp)), z0)
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


def check_spec(
    response: DiplexerResponse,
    spec: DiplexerSpec = DiplexerSpec(),
    edge_tolerance: float = 0.10,
) -> SpecCheckReport:
    """Itemized pass/fail of a diplexer response against band requirements.

    Checks the half-power cutoff of the low-pass path, the half-power band
    edges of the band-pass path (both within edge_tolerance relative), and
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
                passed=bool(err <= edge_tolerance),
                measured=measured,
                target=target,
                margin=float(edge_tolerance - err),
                worst_freq_mhz=measured,
            )
        )

    mask = freqs <= spec.isolation_max_freq_mhz
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
    freqs = np.asarray(frequencies_mhz, dtype=float)
    s11, s21 = to_s_params(_abcd_stack(net, freqs), net.z0)
    # per-cell scalar abs and math.log10: np.abs and np.log10 differ from
    # them in the last ulp, which the 12-digit cells can show
    db = lambda s: 20.0 * math.log10(abs(s) + 1e-300)
    lines = ["frequency_mhz,s21_db,s11_db"]
    for f, a, b in zip(freqs.tolist(), s11.tolist(), s21.tolist()):
        lines.append(f"{f:.12g},{db(b):.12g},{db(a):.12g}")
    return "\n".join(lines) + "\n"


def network_to_json(net: LadderNetwork) -> str:
    doc = {
        "z0": net.z0,
        "elements": [
            {"kind": el.kind, "component": el.component, "value": el.value}
            for el in net.elements
        ],
    }
    return json.dumps(doc, indent=2)


def network_from_json(text: str) -> LadderNetwork:
    doc = json.loads(text)
    els = tuple(
        Element(kind=e["kind"], component=e["component"], value=float(e["value"]))
        for e in doc["elements"]
    )
    return LadderNetwork(elements=els, z0=float(doc.get("z0", 50.0)))
