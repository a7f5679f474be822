"""Independent references for the benchmark's output checks.

Nothing here imports fluxline.  Every value comes from the physics in
closed form or from scipy, mpmath and numpy, so a fault in the program
cannot cancel out of a check.  ``self_check`` tests each reference against
a second, unrelated computation before any workload runs.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import j0, j1, mathieu_a, mathieu_b

PHI0_WB = 2.067833848e-15  # h/2e
HALF_POWER_DB = 10.0 * math.log10(0.5)


# --- transmon levels ---------------------------------------------------------

def josephson_energy(e_j1, e_j2, phi):
    """E_J(phi) = E_Jsum sqrt(cos^2 pi phi + d^2 sin^2 pi phi) of the SQUID."""
    e_sum = e_j1 + e_j2
    d = abs(e_j2 - e_j1) / e_sum
    c, s = np.cos(np.pi * np.asarray(phi)), np.sin(np.pi * np.asarray(phi))
    return e_sum * np.sqrt(c * c + d * d * s * s)


def mathieu_levels(e_c, e_j1, e_j2, phi):
    """(f01, f12) at n_g = 0 from Mathieu characteristic values.

    Koch et al., PRA 76, 042319 (2007): E_0 = E_C a_0(q), E_1 = E_C b_2(q),
    E_2 = E_C a_2(q) with q = E_J(phi) / (2 E_C).
    """
    q = josephson_energy(e_j1, e_j2, phi) / (2.0 * e_c)
    a0, b2, a2 = mathieu_a(0, q), mathieu_b(2, q), mathieu_a(2, q)
    return e_c * (b2 - a0), e_c * (a2 - b2)


def f01_closed_form(e_c, e_j1, e_j2, phi):
    """Leading-order transmon frequency sqrt(8 E_J E_C) - E_C."""
    return np.sqrt(8.0 * josephson_energy(e_j1, e_j2, phi) * e_c) - e_c


def period_average(e_c, e_j1, e_j2, phi_dc, phi_ac, n_steps=512):
    """Mean of the Mathieu f01 over one drive period, for each phi_ac.

    Uniform samples in drive phase: the periodic trapezoidal rule, which
    converges spectrally for the smooth f01(phi).
    """
    theta = 2.0 * np.pi * np.arange(n_steps) / n_steps
    phi = phi_dc + np.outer(np.atleast_1d(phi_ac), np.cos(theta))
    return mathieu_levels(e_c, e_j1, e_j2, phi)[0].mean(axis=1)


def series_budget_mhz(e_c, e_j1, e_j2):
    """Allowed |series - exact average|: 0.5% of the tuning span.

    The acceptance bound of the nine-term series against the period
    average (criterion 3 of the test suite).
    """
    f = mathieu_levels(e_c, e_j1, e_j2, np.array([0.0, 0.5]))[0]
    return 0.005 * float(f[0] - f[1])


def charge_basis_levels(e_c, e_j, n_states=61):
    """Three lowest levels of 4 E_C n^2 - E_J cos(phi), dense solve."""
    n = np.arange(n_states) - n_states // 2
    h = np.diag(4.0 * e_c * n.astype(float) ** 2)
    h -= 0.5 * e_j * (np.eye(n_states, k=1) + np.eye(n_states, k=-1))
    return np.linalg.eigvalsh(h)[:3]


# --- crosstalk chain -----------------------------------------------------------

def line_flux(gamma_db, v_p, r_ohm, m_fh):
    """SQUID flux (Phi0) of a drive through the line.

    I = 2 10^(-gamma/20) V_p / R at the shorted termination, phi = M I / Phi0.
    """
    current = 2.0 * 10.0 ** (-gamma_db / 20.0) * v_p / r_ohm
    return m_fh * 1e-15 * current / PHI0_WB


def quadratic_shift_hz(e_c, e_j1, e_j2, phi_ac):
    """delta_f = -pi^2 r / (2 (1+r)^2) sqrt(8 E_Jsum E_C) phi^2, r = E_J1/E_J2."""
    r = min(e_j1, e_j2) / max(e_j1, e_j2)
    scale = math.sqrt(8.0 * (e_j1 + e_j2) * e_c)
    return -math.pi**2 * r / (2.0 * (1.0 + r) ** 2) * scale * phi_ac**2 * 1e6


# --- special functions ---------------------------------------------------------

def hyp2f1(a, b, c, z):
    """Gauss 2F1(a, b; c; z) from mpmath at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.hyp2f1(a, b, c, z))


def bessel(x):
    """(J0(x), J1(x)) from scipy."""
    return j0(x), j1(x)


# --- lumped networks -----------------------------------------------------------

def _admittance(component, value, w):
    return 1.0 / (1j * w * value) if component == "L" else 1j * w * value


def _prototype(order):
    return [2.0 * math.sin((2 * k - 1) * math.pi / (2 * order)) for k in range(1, order + 1)]


def lowpass_elements(order, f_cut, z0):
    """Butterworth low-pass ladder, series L first (textbook synthesis)."""
    wc = 2.0 * math.pi * f_cut * 1e6
    return [("series", "L", g * z0 / wc) if i % 2 == 0 else ("shunt", "C", g / (z0 * wc))
            for i, g in enumerate(_prototype(order))]


def bandpass_elements(order, f_low, f_high, z0):
    """Butterworth band-pass ladder by the low-pass to band-pass transform."""
    w1, w2 = 2.0 * math.pi * f_low * 1e6, 2.0 * math.pi * f_high * 1e6
    w0sq, dw = w1 * w2, w2 - w1
    out = []
    for i, g in enumerate(_prototype(order)):
        if i % 2 == 0:
            out += [("series", "L", g * z0 / dw), ("series", "C", dw / (g * z0 * w0sq))]
        else:
            out += [("shunt", "C", g / (dw * z0)), ("shunt", "L", dw * z0 / (g * w0sq))]
    return out


def nodal_s(branches, z0, freqs_mhz, out_r_per_ghz=0.0):
    """S-parameters of ladders joined at one node, by a nodal solve.

    branches: one (kind, component, value) list per input port, each
    ordered from its port to the common node.  The last port is the node
    itself, or sits behind a series R = k f[GHz] when out_r_per_ghz > 0.
    Every port is terminated in z0.  Returns S[f, j, k] over all ports.
    """
    freqs_mhz = np.asarray(freqs_mhz, dtype=float)
    if freqs_mhz.size > 256:
        # bounded blocks keep the reference's memory below the program's
        return np.concatenate([nodal_s(branches, z0, block, out_r_per_ghz)
                               for block in np.array_split(freqs_mhz, -(-freqs_mhz.size // 256))])
    w = 2.0 * np.pi * freqs_mhz * 1e6
    junction = "J"
    stamps = []  # (node a, node b or None for ground, admittance array)
    ports = []
    for i, elements in enumerate(branches):
        nodes = [(i, 0)]
        for kind, comp, value in elements:
            if kind == "series":
                nodes.append((i, len(nodes)))
                stamps.append((nodes[-2], nodes[-1], _admittance(comp, value, w)))
            else:
                stamps.append((nodes[-1], None, _admittance(comp, value, w)))
        last = nodes[-1]
        # the ladder ends on the common node
        stamps = [(junction if a == last else a, junction if b == last else b, y) for a, b, y in stamps]
        ports.append(junction if nodes[0] == last else nodes[0])
    if out_r_per_ghz > 0.0:
        stamps.append((junction, "out", 1.0 / (out_r_per_ghz * w / (2.0 * np.pi * 1e9))))
        ports.append("out")
    else:
        ports.append(junction)

    index = {}
    for a, b, _ in stamps:
        for n in (a, b):
            if n is not None:
                index.setdefault(n, len(index))
    y = np.zeros((w.size, len(index), len(index)), dtype=complex)
    for a, b, adm in stamps:
        ia = index[a]
        y[:, ia, ia] += adm
        if b is not None:
            ib = index[b]
            y[:, ib, ib] += adm
            y[:, ia, ib] -= adm
            y[:, ib, ia] -= adm
    port_idx = [index[p] for p in ports]
    for p in port_idx:
        y[:, p, p] += 1.0 / z0
    # a unit source behind z0 at port k is a Norton current 1/z0 there
    rhs = np.zeros((w.size, len(index), len(ports)), dtype=complex)
    for k, p in enumerate(port_idx):
        rhs[:, p, k] = 1.0 / z0
    v = np.linalg.solve(y, rhs)
    s = 2.0 * v[:, port_idx, :]
    s[:, range(len(ports)), range(len(ports))] -= 1.0
    return s


def butterworth_s21_sq(freqs_mhz, order, f_low, f_high=None):
    """|S21|^2 = 1/(1 + Omega^2n) of a Butterworth low-pass or band-pass.

    Omega = f/f_c for the low-pass, (f/f0 - f0/f) f0/(f_high - f_low) with
    f0 = sqrt(f_low f_high) for the band-pass transform.
    """
    f = np.asarray(freqs_mhz, dtype=float)
    if f_high is None:
        omega = f / f_low
    else:
        f0 = math.sqrt(f_low * f_high)
        omega = (f / f0 - f0 / f) * f0 / (f_high - f_low)
    return 1.0 / (1.0 + omega ** (2 * order))


def crossing(freqs, vals_db, level, rising):
    """First log-interpolated crossing of level, or None."""
    a, b = vals_db[:-1], vals_db[1:]
    hit = (a < level) & (level <= b) if rising else (a >= level) & (level > b)
    idx = np.flatnonzero(hit)
    if idx.size == 0:
        return None
    i = int(idx[0])
    t = (level - a[i]) / (b[i] - a[i])
    return float(freqs[i] * (freqs[i + 1] / freqs[i]) ** t)


def spec_report(freqs, s31, s32, s12, spec, edge_tolerance=0.10):
    """{item: (measured, margin, worst_freq)} of the band-plan check.

    measured and margin are None for a band edge with no crossing.
    """
    db = lambda s: 20.0 * np.log10(np.abs(s) + 1e-300)
    i0 = int(np.argmin(np.abs(freqs - math.sqrt(spec["bp_low_mhz"] * spec["bp_high_mhz"]))))
    bp = db(s31)
    edges = {
        "lp_cutoff": (crossing(freqs, db(s32), HALF_POWER_DB, rising=False), spec["lp_cutoff_mhz"]),
        "bp_low_edge": (crossing(freqs[: i0 + 1], bp[: i0 + 1], HALF_POWER_DB, rising=True), spec["bp_low_mhz"]),
        "bp_high_edge": (crossing(freqs[i0:], bp[i0:], HALF_POWER_DB, rising=False), spec["bp_high_mhz"]),
    }
    out = {}
    for name, (edge, target) in edges.items():
        margin = None if edge is None else edge_tolerance - abs(edge / target - 1.0)
        out[name] = (edge, margin, edge)
    mask = freqs <= spec["isolation_max_freq_mhz"]
    iso = db(s12[mask])
    k = int(np.argmax(iso))
    out["isolation"] = (float(iso[k]), spec["isolation_db"] - float(iso[k]), float(freqs[mask][k]))
    return out


# --- self-checks -------------------------------------------------------------

def self_check() -> list[str]:
    """Test every reference against an unrelated computation."""
    errors = []

    # Mathieu levels against a dense charge-basis solve, deep transmon to
    # near-degenerate SQUID
    for e_c, e_j1, e_j2, phi in [(182.0, 2140.0, 9040.0, 0.0), (182.0, 2140.0, 9040.0, 0.5),
                                 (190.0, 5500.0, 5612.0, 0.47), (175.0, 1500.0, 10000.0, 0.31)]:
        f01, f12 = mathieu_levels(e_c, e_j1, e_j2, phi)
        lv = charge_basis_levels(e_c, float(josephson_energy(e_j1, e_j2, phi)))
        dev = max(abs(f01 - (lv[1] - lv[0])), abs(f12 - (lv[2] - lv[1])))
        if not dev < 1e-7:
            errors.append(f"Mathieu vs charge basis at {e_c, e_j1, e_j2, phi}: {dev:.3g} MHz")

    # period average: 512 samples already converged against 2048
    a = period_average(182.0, 2140.0, 9040.0, 0.03, [0.05, 0.25])
    b = period_average(182.0, 2140.0, 9040.0, 0.03, [0.05, 0.25], n_steps=2048)
    if not np.abs(a - b).max() < 1e-8:
        errors.append(f"period average not converged: {np.abs(a - b).max():.3g} MHz")

    # crosstalk chain: pi-pulse leakage of the paper, 85 dB and 0.3 V on q0
    # give phi_ac = 1.6e-4 (3%), and 1.6e-4 gives -79 Hz (2 Hz)
    phi = line_flux(85.0, 0.3, 50.0, 500.0)
    shift = quadratic_shift_hz(182.0, 2140.0, 9040.0, 1.6e-4)
    if abs(phi / 1.6e-4 - 1.0) > 0.03 or abs(shift + 79.0) > 2.0:
        errors.append(f"crosstalk chain: phi {phi:.4g}, shift {shift:.4g} Hz")

    # hypergeometric reference against closed forms near z -> 1
    for z in (0.5, 0.999, 0.99999):
        log_form = -math.log1p(-z) / z
        power_form = (1.0 - z) ** -0.625
        if abs(hyp2f1(1.0, 1.0, 2.0, z) / log_form - 1.0) > 1e-13:
            errors.append(f"mpmath 2F1(1,1;2;{z})")
        if abs(hyp2f1(0.625, 1.5, 1.5, z) / power_form - 1.0) > 1e-13:
            errors.append(f"mpmath 2F1(a,b;b;{z})")

    # scipy Bessel against mpmath
    for x in (0.3, 2.404825557695773, 7.0, 13.5, 40.0):
        r0, r1 = bessel(x)
        if abs(r0 - float(mpmath.besselj(0, x))) > 1e-14 or abs(r1 - float(mpmath.besselj(1, x))) > 1e-14:
            errors.append(f"scipy Bessel at x={x}")

    # nodal solve of a lone Butterworth ladder against its closed form, and
    # power conservation of a lossless junction
    z0 = 50.0
    f = np.logspace(1.0, math.log10(15000.0), 200)
    for order in (3, 6):
        elements = lowpass_elements(order, 1500.0, z0)
        s = nodal_s([elements], z0, f)
        # one ladder, node = port 2: S21 of the two-port
        dev = np.abs(np.abs(s[:, 1, 0]) ** 2 - butterworth_s21_sq(f, order, 1500.0)).max()
        if not dev < 1e-12:
            errors.append(f"nodal low-pass order {order} vs Butterworth: {dev:.3g}")
    s = nodal_s([bandpass_elements(5, 3000.0, 7000.0, z0), lowpass_elements(5, 1500.0, z0)], z0, f)
    power = (np.abs(s[:, :, 0]) ** 2).sum(axis=1)
    if not np.abs(power - 1.0).max() < 1e-10:
        errors.append(f"nodal junction loses power: {np.abs(power - 1.0).max():.3g}")
    if not np.abs(s - s.transpose(0, 2, 1)).max() < 1e-12:
        errors.append("nodal junction is not reciprocal")
    return errors
