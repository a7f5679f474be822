"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.

Erratum: criterion 1 checks q1 against a corrected f_max of 3922 MHz.  The
recorded 3786 MHz disagreed with q1's own energies, while its f_min and
anharmonicity agree; the diagnosis is at the entry in `conftest.py`, and
`test_transmon.py` checks the diagonalization against exact Mathieu levels.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import fluxline.rf_network as rf
from fluxline.cli import main as cli_main
from fluxline.fitting import (
    RAMSEY_MODEL,
    RB_MODEL,
    T1_MODEL,
    DataSeries,
    beta_model,
    fit_beta,
    fit_rb,
    fit_ramsey,
    fit_t1,
    fit_tuning_curve,
    tuning_curve_model,
)
from fluxline.modulation import (
    FluxDrive,
    avg_frequency,
    second_order_shift,
    time_average_oracle,
)
from fluxline.signal_chain import LineBudget, drive_current, flux_from_current
from fluxline.specfun import bessel_j0, hyp2f1
from fluxline.transmon import levels

from conftest import DEVICE_TABLE, EXAMPLE_CONFIG, FIXTURES

SEED = 987654321


def report(index: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {index}] {status}: {label} | {detail}")


def test_criterion_1_device_table_joint_reproduction(device_params):
    t0 = time.perf_counter()
    rows = []
    for name, (e_c, e_j1, e_j2, f_max, f_min, eta) in DEVICE_TABLE.items():
        p = device_params[name]
        top, top_f12, _ = levels(p, 0.0)
        bottom, _, _ = levels(p, 0.5)
        errs = []
        if abs(top - f_max) >= 10.0:
            errs.append(f"f_max {top:.2f} vs {f_max}±10")
        if abs(bottom - f_min) >= 15.0:
            errs.append(f"f_min {bottom:.2f} vs {f_min}±15")
        if abs(top_f12 - top - eta) >= 10.0:
            errs.append(f"eta {top_f12 - top:.2f} vs {eta}±10")
        rows.append((name, errs))
    elapsed = time.perf_counter() - t0
    failures = [f"{name}: {'; '.join(errs)}" for name, errs in rows if errs]
    ok = not failures and elapsed < 1.0
    detail = (
        f"runtime {elapsed * 1e3:.0f} ms; "
        + ("all qubits within tolerance" if not failures else " | ".join(failures))
    )
    report(1, "device-table joint reproduction (diagonalization)", ok, detail)
    assert elapsed < 1.0
    assert not failures, detail


def test_criterion_2_crosstalk_budget(q0):
    t0 = time.perf_counter()
    budget = LineBudget(gamma_db=85.0, v_p=0.3, r_ohm=50.0, m_fH=500.0)
    phi_ac = flux_from_current(budget.m_fH, drive_current(budget))
    shift = second_order_shift(q0, 1.6e-4)
    elapsed = time.perf_counter() - t0
    flux_ok = abs(phi_ac / 1.6e-4 - 1.0) <= 0.03
    shift_ok = abs(shift - (-79.0)) <= 2.0
    ok = flux_ok and shift_ok and elapsed < 0.010
    report(
        2,
        "drive-line crosstalk budget",
        ok,
        f"phi_ac = {phi_ac:.4e} Phi0 (target 1.6e-4 ±3%), "
        f"shift = {shift:.2f} Hz (target -79 ±2), runtime {elapsed * 1e6:.0f} us",
    )
    assert flux_ok and shift_ok
    assert elapsed < 0.010


def test_criterion_3_series_vs_time_average_oracle(device_params):
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_series_excess = 0.0
    failures = []
    for name, p in device_params.items():
        f_max = float(levels(p, 0.0)[0])
        f_min = float(levels(p, 0.5)[0])
        span = f_max - f_min
        for phi_ac in (0.05, 0.10, 0.20, 0.25):
            drive = FluxDrive(0.0, phi_ac)
            series = avg_frequency(p, drive, p=8)
            oracle = time_average_oracle(p, drive, n_steps=512)
            rel = abs(series - oracle) / span
            worst_rel = max(worst_rel, rel)
            if rel >= 0.005:
                failures.append(f"{name}@{phi_ac}: dev {rel * 100:.3f}%")
            if not (f_min - 1e-9 <= oracle <= f_max + 1e-9):
                failures.append(f"{name}@{phi_ac}: oracle outside [f_min, f_max]")
            excess = max(f_min - series, series - f_max, 0.0)
            worst_series_excess = max(worst_series_excess, excess)
            if excess >= 1.0:
                failures.append(f"{name}@{phi_ac}: series exceeds band by {excess:.2f} MHz")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    report(
        3,
        "harmonic series vs numeric time average",
        ok,
        f"worst deviation {worst_rel * 100:.4f}% of span, worst series band "
        f"excess {worst_series_excess:.2e} MHz, runtime {elapsed:.1f} s",
    )
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_4_small_amplitude_consistency(device_params):
    failures = []
    worst = (1.0, "")
    for name, p in device_params.items():
        f_ref = avg_frequency(p, FluxDrive(0.0, 0.0), p=8)
        for phi_ac in (2e-4, 5e-4, 1e-3):
            shift = (avg_frequency(p, FluxDrive(0.0, phi_ac), p=8) - f_ref) * 1e6
            ratio = shift / second_order_shift(p, phi_ac)
            if abs(ratio - 1.0) > abs(worst[0] - 1.0):
                worst = (ratio, f"{name}@{phi_ac}")
            if not 0.99 <= ratio <= 1.01:
                failures.append(f"{name}@{phi_ac}: ratio {ratio:.4f}")
    ok = not failures
    report(
        4,
        "small-amplitude quadratic consistency",
        ok,
        f"worst ratio {worst[0]:.5f} at {worst[1]} (allowed 0.99..1.01)",
    )
    assert not failures, failures


def test_criterion_5_diplexer_spec():
    lp = rf.synth_lowpass(5, 1500.0)
    bp = rf.synth_bandpass(5, 3000.0, 7000.0)
    grid = rf.default_frequency_grid(2000)
    resp = rf.diplexer_eval(lp, bp, 50.0, grid)
    check = rf.check_spec(resp, rf.DiplexerSpec())

    worst_unitarity = 0.0
    worst_det = 0.0
    for net in (lp, bp):
        r = rf.network_response(net, grid)
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(np.abs(r.s11) ** 2 + np.abs(r.s21) ** 2 - 1.0)))
        )
        # reciprocity of the cascaded product: A·D − B·C = 1 up to its
        # rounding, which scales with |A·D| + |B·C| (~1e12 far from band)
        m = r.abcd
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        scale = np.abs(m[:, 0, 0] * m[:, 1, 1]) + np.abs(m[:, 0, 1] * m[:, 1, 0])
        worst_det = max(worst_det, float(np.max(np.abs(det - 1.0) / scale)))
    clean = worst_unitarity < 1e-9 and worst_det < 1e-9
    ok = check.passed and clean
    items = {i.name: i.measured for i in check.items}
    report(
        5,
        "diplexer synthesis meets band plan",
        ok,
        f"lp cutoff {items['lp_cutoff']:.0f} MHz, bp edges "
        f"{items['bp_low_edge']:.0f}/{items['bp_high_edge']:.0f} MHz, worst "
        f"isolation {items['isolation']:.1f} dB, unitarity residual "
        f"{worst_unitarity:.1e}, relative det residual {worst_det:.1e}",
    )
    assert check.passed, check
    assert clean


def test_criterion_6_special_functions():
    rng = np.random.default_rng(SEED)
    failures = []

    for a, b, c in [(0.3, 1.7, 2.2), (-0.5, 0.9, 1.0), (1.25, 0.125, 3.0)]:
        if hyp2f1(a, b, c, 0.0) != 1.0:
            failures.append("2F1 z=0")
        for z in rng.uniform(0.0, 0.9, 25):
            if abs(hyp2f1(a, b, c, z) - hyp2f1(b, a, c, z)) > 1e-10 * abs(
                hyp2f1(a, b, c, z)
            ):
                failures.append(f"2F1 symmetry at z={z}")
    for z in rng.uniform(0.0, 0.95, 50):
        if abs(hyp2f1(1.0, 3.0, 3.0, z) * (1.0 - z) - 1.0) > 1e-10:
            failures.append(f"2F1 geometric at z={z}")

    worst_j0 = 0.0
    for x in rng.uniform(0.0, 20.0, 40):
        integral, _ = quad(lambda th: math.cos(x * math.sin(th)), 0.0, math.pi, limit=200)
        worst_j0 = max(worst_j0, abs(bessel_j0(x) - integral / math.pi))
    if worst_j0 > 1e-8:
        failures.append(f"J0 integral definition: {worst_j0:.2e}")

    zero_residual = abs(bessel_j0(2.4048255577))
    # |J0'| ~ 0.52 at the zero: being within 1e-9 of the zero in argument
    # means |J0| there below ~5.2e-10
    if zero_residual > 5.2e-10:
        failures.append(f"J0 first zero residual {zero_residual:.2e}")

    ok = not failures
    report(
        6,
        "special-function identities",
        ok,
        f"2F1 identities on random draws, J0 integral residual "
        f"{worst_j0:.1e}, |J0(first zero)| = {zero_residual:.1e}",
    )
    assert not failures, failures


def test_criterion_7_fit_roundtrips(q0):
    rng = np.random.default_rng(SEED)
    failures = []
    timings = {}

    def run(label, fit, data, checks):
        t0 = time.perf_counter()
        res = fit(data)
        timings[label] = time.perf_counter() - t0
        if timings[label] >= 1.0:
            failures.append(f"{label}: runtime {timings[label]:.2f} s")
        if not res.converged:
            failures.append(f"{label}: not converged")
        for key, target, tol, absolute in checks:
            got = res.params[key]
            err = abs(got - target) if absolute else abs(got / target - 1.0)
            if err > tol:
                failures.append(f"{label}: {key} = {got:.6g} vs {target} (err {err:.2e})")
        return res

    noise = lambda y: y + rng.normal(0.0, 0.02 * np.ptp(y), y.size)

    # T1 = 53 us
    t = np.linspace(1.0, 260.0, 80)
    clean = T1_MODEL.fn(t, np.array([0.95, 53.0, 0.03]))
    run("t1 clean", fit_t1, DataSeries(x=t, y=clean), [("T1", 53.0, 0.01, False)])
    run("t1 noisy", fit_t1, DataSeries(x=t, y=noise(clean)), [("T1", 53.0, 0.05, False)])

    # T2* = 10 us, detuning 0.5 MHz
    t = np.linspace(0.05, 30.0, 151)
    clean = RAMSEY_MODEL.fn(t, np.array([0.4, 10.0, 0.5, 0.3, 0.5]))
    run(
        "ramsey clean",
        fit_ramsey,
        DataSeries(x=t, y=clean),
        [("T2_star", 10.0, 0.01, False), ("delta_f", 0.5, 0.01, False)],
    )
    run(
        "ramsey noisy",
        fit_ramsey,
        DataSeries(x=t, y=noise(clean)),
        [("T2_star", 10.0, 0.05, False), ("delta_f", 0.5, 0.05, False)],
    )

    # benchmarking decay p = 0.9954 -> F = 99.77 % (+-0.05 absolute in %)
    n = np.arange(1.0, 801.0, 25.0)
    clean = RB_MODEL.fn(n, np.array([0.5, 0.9954, 0.5]))
    run(
        "rb clean",
        fit_rb,
        DataSeries(x=n, y=clean),
        [("p", 0.9954, 0.01, False), ("fidelity", 0.9977, 0.0005, True)],
    )
    run(
        "rb noisy",
        fit_rb,
        DataSeries(x=n, y=np.clip(noise(clean), 0.0, 1.05)),
        [("fidelity", 0.9977, 0.0005, True)],
    )

    # tuning curve from the q0 record (noisy variant holds e_c fixed: the
    # flux dependence alone leaves e_c vs E_J nearly degenerate under noise)
    cur = np.linspace(-0.75e-3, 0.75e-3, 160)
    clean = tuning_curve_model().fn(cur, np.array([2140.0, 9040.0, 182.0, 1.2e-3, 0.05]))
    run(
        "tuning clean",
        fit_tuning_curve,
        DataSeries(x=cur, y=clean),
        [
            ("e_j1", 2140.0, 0.01, False),
            ("e_j2", 9040.0, 0.01, False),
            ("e_c", 182.0, 0.01, False),
            ("amps_per_phi0", 1.2e-3, 0.01, False),
        ],
    )
    run(
        "tuning noisy",
        lambda d: fit_tuning_curve(d, fixed_e_c=182.0),
        DataSeries(x=cur, y=noise(clean)),
        [
            ("e_j1", 2140.0, 0.05, False),
            ("e_j2", 9040.0, 0.05, False),
            ("amps_per_phi0", 1.2e-3, 0.05, False),
        ],
    )

    # flux-pulse amplitude calibration beta = 0.510 Phi0/V
    amps = np.linspace(0.0, 1.4, 57)
    clean = beta_model(q0, 0.0).fn(amps, np.array([0.510]))
    run(
        "beta clean",
        lambda d: fit_beta(d, q0, 0.0),
        DataSeries(x=amps, y=clean),
        [("beta", 0.510, 0.01, False)],
    )
    run(
        "beta noisy",
        lambda d: fit_beta(d, q0, 0.0),
        DataSeries(x=amps, y=noise(clean)),
        [("beta", 0.510, 0.05, False)],
    )

    ok = not failures
    slowest = max(timings.values())
    report(
        7,
        "fit roundtrips (clean 1%, 2%-noise 5%)",
        ok,
        f"10 fits, slowest {slowest * 1e3:.0f} ms"
        + ("" if ok else "; " + " | ".join(failures)),
    )
    assert not failures, failures


def test_criterion_8_cli_determinism(tmp_path):
    commands = {
        "spectrum": lambda base, tag: (
            [
                "spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "21",
                "--out", str(base / f"spec_{tag}.csv"),
            ],
            [base / f"spec_{tag}.csv"],
        ),
        "modulate": lambda base, tag: (
            [
                "modulate", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "5",
                "--amp-max", "0.2", "--with-oracle", "--oracle-steps", "256",
                "--out", str(base / f"mod_{tag}.csv"),
            ],
            [base / f"mod_{tag}.csv"],
        ),
        "crosstalk": lambda base, tag: (
            [
                "crosstalk", str(EXAMPLE_CONFIG), "--qubit", "q0", "--gamma-db",
                "85", "--v-p", "0.3", "--out", str(base / f"x_{tag}.json"),
            ],
            [base / f"x_{tag}.json"],
        ),
        "diplexer": lambda base, tag: (
            [
                "diplexer", str(EXAMPLE_CONFIG), "--points", "500",
                "--out", str(base / f"d_{tag}.csv"),
                "--report-out", str(base / f"d_{tag}.json"),
            ],
            [base / f"d_{tag}.csv", base / f"d_{tag}.json"],
        ),
        "fit": lambda base, tag: (
            [
                "fit", "rb", str(FIXTURES / "rb_decay.csv"),
                "--out", str(base / f"f_{tag}.json"),
                "--residuals-out", str(base / f"f_{tag}.csv"),
            ],
            [base / f"f_{tag}.json", base / f"f_{tag}.csv"],
        ),
    }
    mismatches = []
    for name, build in commands.items():
        blobs = []
        for tag in ("a", "b"):
            argv, paths = build(tmp_path, tag)
            assert cli_main(argv) == 0
            blobs.append(tuple(p.read_bytes() for p in paths))
        if blobs[0] != blobs[1]:
            mismatches.append(name)
    ok = not mismatches
    report(
        8,
        "repeated CLI runs are byte-identical",
        ok,
        f"{len(commands)} commands checked"
        + ("" if ok else f"; mismatches: {mismatches}"),
    )
    assert not mismatches, mismatches
