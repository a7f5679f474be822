"""The benchmark's workloads: seeded inputs, the timed item, its checks.

Each workload generates its inputs in rounds from the seed alone; every
round attempts the same operations, so the share of failed items is the
same in every run.  ``run`` is the only timed part of an item and calls
the program through its module attributes, so a tracer installed later
sees the calls.  ``check`` compares the item's outputs with the
independent references and returns a list of problems.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import references as ref
from fluxline import config, fitting, modulation, rf_network, signal_chain, specfun, transmon

# |program - Mathieu| for f01 and f12: the 41-state charge basis agrees with
# the Mathieu values to ~1e-10 MHz; 1e-6 MHz leaves room for the 12-digit
# CSV rounding of values near 5000 MHz and still catches any change of the
# Hamiltonian (a 0.25% charging-energy error moves f01 by MHz)
LEVEL_TOL_MHZ = 1e-6
# fitted parameter against its generating truth, in standard errors (see
# _fit_within): 6 sigma of Gaussian noise fails once in 5e8
FIT_SIGMAS = 6.0
# |S| of the program against the nodal solve (seen: 5e-13)
S_TOL = 1e-9
# relative tolerance of the quantities that have a closed form
CLOSED_FORM_RTOL = 1e-9


@dataclasses.dataclass
class Item:
    kind: str
    inputs: dict
    expect_failure: str | None = None  # exception name of a known program fault
    outputs: object = None
    error: Exception | None = None  # raised by the program, if any
    seconds: float = 0.0


def _close(errors, label, got, want, tol):
    if not abs(got - want) <= tol:
        errors.append(f"{label}: {float(got):.12g} vs reference {float(want):.12g} (tol {tol:.3g})")


def _fit_within(errors, label, fit: dict, truths, noise, n_points):
    """Each fitted parameter within FIT_SIGMAS standard errors of its truth.

    fit is FitResult.to_dict() or the CLI's JSON.  The fit scales its
    standard errors by the residual norm, which few degrees of freedom can
    make small by chance; an error is never taken below what the known
    noise of the data gives.
    """
    if not fit["converged"]:
        errors.append(f"{label}: fit did not converge")
    params, sigmas = dict(fit["params"]), dict(fit["std_errors"])
    if "e_j1" in params and params["e_j1"] < 0 and params["e_j2"] < 0:
        # the tuning model depends on the junction energies only through
        # E_J1^2 + E_J2^2 and E_J1 E_J2, and fit_tuning_curve can return the
        # mirror solution with both negated: compare the magnitudes
        params["e_j1"], params["e_j2"] = -params["e_j2"], -params["e_j1"]
        sigmas["e_j1"], sigmas["e_j2"] = sigmas["e_j2"], sigmas["e_j1"]
    noise_scale = noise * math.sqrt(n_points - FIT_PARAMS[label]) / fit["residual_norm"]
    for name, truth in truths.items():
        got, sigma = params[name], sigmas[name]
        if sigma is None or not math.isfinite(sigma):
            errors.append(f"{label}.{name}: no standard error")
            continue
        sigma = max(sigma, sigma * noise_scale)
        if not abs(got - truth) <= FIT_SIGMAS * sigma:
            errors.append(f"{label}.{name}: {got:.6g} vs truth {truth:.6g}, sigma {sigma:.3g}")


# number of fitted parameters of each fit kind, and the noise each dataset
# is drawn with
FIT_PARAMS = {"t1": 3, "ramsey": 5, "rb": 3, "tuning": 5, "beta": 1}
FIT_NOISE = {"t1": 0.003, "ramsey": 0.003, "rb": 0.002, "tuning": 1.0, "beta": 0.5}
# chi^2 quantile of 5 degrees of freedom at the two-sided 6-sigma level
# (scipy.stats.chi2.isf(1.97e-9, 5))
TUNING_DCHI2 = 49.25


def _tuning_within(errors, fit: dict, current, y, truths):
    """The device tuning fit against its truth, by the known noise.

    With 13 points the sum of squares is far from quadratic in E_C and the
    junction energies, so the fit's linear standard errors do not bound
    its distance from the truth (seen: E_C 257 for a truth of 177 MHz, a
    4-sigma miss, with a residual below the truth's).  Instead the truth
    must lie in the fit's joint confidence region, chi2(truth) - chi2(fit)
    <= TUNING_DCHI2, and the fit must be as good as the truth, both chi2
    taken with the Mathieu f01 and the known noise.
    """
    if not fit["converged"]:
        errors.append("tuning: fit did not converge")

    def chi2(p):
        phi = current / p["amps_per_phi0"] + p["phi_offset"]
        f01 = ref.mathieu_levels(abs(p["e_c"]), abs(p["e_j1"]), abs(p["e_j2"]), phi)[0]
        return float(np.sum((f01 - y) ** 2)) / FIT_NOISE["tuning"] ** 2

    fitted, truth = chi2(fit["params"]), chi2(truths)
    # a fit that stops 0.01 short of its minimum is still converged
    if not -0.01 <= truth - fitted <= TUNING_DCHI2:
        errors.append(f"tuning: chi2 {fitted:.4g} at the fit, {truth:.4g} at the truth, params {fit['params']}")


def _device(rng, ratio):
    """(E_C, E_J1, E_J2) in MHz of a new device with E_J1/E_J2 = ratio."""
    e_c = rng.uniform(170.0, 200.0)
    total = rng.uniform(9500.0, 12500.0)
    e_j2 = total / (1.0 + ratio)
    return e_c, total - e_j2, e_j2


def _check_series_rows(errors, label, e, phi_dc, amps, series, oracle=None):
    exact = ref.period_average(*e, phi_dc, np.asarray(amps))
    budget = ref.series_budget_mhz(*e)
    for a, s, x in zip(amps, series, exact):
        _close(errors, f"{label} series at phi_ac={a:.4g}", s, x, budget)
    if oracle is not None:
        for a, o, x in zip(amps, oracle, exact):
            _close(errors, f"{label} oracle at phi_ac={a:.4g}", o, x, LEVEL_TOL_MHZ)


def _check_levels(errors, e, grid, spectrum, asymptotic):
    f01, f12 = ref.mathieu_levels(*e, grid)
    closed = ref.f01_closed_form(*e, grid)
    for i, s in enumerate(spectrum):
        _close(errors, f"f01 at phi={grid[i]:.4g}", s.f01, f01[i], LEVEL_TOL_MHZ)
        _close(errors, f"f12 at phi={grid[i]:.4g}", s.f12, f12[i], LEVEL_TOL_MHZ)
        _close(errors, "anharmonicity", s.anharmonicity, f12[i] - f01[i], 2 * LEVEL_TOL_MHZ)
        if not s.converged:
            errors.append(f"diagonalization not converged at phi={grid[i]:.4g}")
        _close(errors, "f01_asymptotic", asymptotic[i], closed[i], CLOSED_FORM_RTOL * closed[i])


def _check_crosstalk(errors, e, gamma_db, v_p, r_ohm, m_fh, phi, shift, detectable):
    want_phi = ref.line_flux(gamma_db, v_p, r_ohm, m_fh)
    want_shift = ref.quadratic_shift_hz(*e, want_phi)
    _close(errors, "crosstalk phi_ac", phi, want_phi, CLOSED_FORM_RTOL * want_phi)
    _close(errors, "crosstalk delta_f_hz", shift, want_shift, CLOSED_FORM_RTOL * abs(want_shift))
    if detectable != (abs(want_shift) > 1e4):
        errors.append(f"crosstalk detectable={detectable} for a {want_shift:.4g} Hz shift")


# --- device ------------------------------------------------------------------

# (harmonic n, series term k) of every hyp2f1 call in s_coeff: the k = 1 term
# carries (0)_n and drops out of every n >= 1 harmonic
SERIES_ARGS = [(n, k) for n in range(9) for k in range(9) if n == 0 or k != 1]


class Device:
    """Bring-up and characterization of new devices.

    Each device gets a tuning fit with the diagonalization refinement,
    fit_beta, T1, Ramsey and benchmarking fits, then the characterization
    of scripts/characterize_device.py in brief: diagonalize and
    f01_asymptotic on 201 flux points, one modulation row with the series
    and the averaging oracle, and the crosstalk budget.

    One device per asymmetry stratum E_J1/E_J2 in ``ratios`` per round,
    with seeded energies and datasets, so the cost of the cold series
    (set by the ratio alone) is the same in every round; an odd number of
    strata puts the median item inside the middle stratum.  The lowest
    stratum is the ratio of every shipped device (data/example_device.json
    and the test device table, 0.23-0.26); the others, and one device per
    stratum, are an assumption of no measured source.  One device with
    ratio 0.99 and seed-independent inputs closes each round; its series
    raises ConvergenceError today.
    """

    name = "device"
    ratios = (0.24, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98)
    failing = {"ratio": 0.99, "e_c": 185.0, "e_sum": 11300.0}
    tuning_points = 13
    phi_grid = np.linspace(-0.5, 0.5, 201)
    # at 0.2 the series misses its budget on the 0.98 stratum by a margin
    # that depends on the seeded energies (see CHANGES.md)
    phi_ac = 0.1
    trace_rounds = 2
    min_rounds = 1

    def __init__(self, root, seed):
        self.root, self.seed = root, seed

    def prepare(self):
        self.m_fh = config.load_config(self.root / "data" / "example_device.json").qubits[0].m_fH

    def _inputs(self, rng, e):
        a_per = rng.uniform(0.8e-3, 1.5e-3)
        offset = rng.uniform(-0.1, 0.1)
        # the flux grid holds 0 and +-1/2, so f_max and f_min are both
        # measured: without f_min a near-symmetric SQUID's asymmetry, and
        # with it E_C, is not determined by the data
        phi = np.linspace(-0.6, 0.6, self.tuning_points)
        current = (phi - offset) * a_per
        tuning_y = ref.mathieu_levels(*e, phi)[0] + rng.normal(0.0, FIT_NOISE["tuning"], phi.size)
        beta = rng.uniform(0.4, 0.55)
        amps = np.linspace(0.0, 0.45, 41)
        beta_y = ref.period_average(*e, 0.0, beta * amps) + rng.normal(0.0, FIT_NOISE["beta"], amps.size)
        t1 = {"A": rng.uniform(0.8, 1.0), "T1": rng.uniform(20.0, 80.0), "B": rng.uniform(0.0, 0.1)}
        t1_x = np.linspace(1.0, 5.0 * t1["T1"], 53)
        t1_y = t1["A"] * np.exp(-t1_x / t1["T1"]) + t1["B"] + rng.normal(0.0, FIT_NOISE["t1"], t1_x.size)
        ram = {"A": rng.uniform(0.3, 0.5), "T2_star": rng.uniform(5.0, 20.0),
               "delta_f": rng.uniform(0.3, 1.0), "phase": rng.uniform(-0.5, 0.5), "B": 0.5}
        ram_x = np.linspace(0.05, 3.0 * ram["T2_star"], 151)
        ram_y = (ram["A"] * np.exp(-ram_x / ram["T2_star"])
                 * np.cos(2.0 * np.pi * ram["delta_f"] * ram_x + ram["phase"]) + ram["B"]
                 + rng.normal(0.0, FIT_NOISE["ramsey"], ram_x.size))
        rb = {"A": rng.uniform(0.4, 0.5), "p": rng.uniform(0.990, 0.998), "B": 0.5}
        rb_x = np.arange(1.0, 801.0, 25.0)
        rb_y = rb["A"] * rb["p"] ** rb_x + rb["B"] + rng.normal(0.0, FIT_NOISE["rb"], rb_x.size)
        return {
            "e": e,
            "tuning": (current, tuning_y, {"e_j1": e[1], "e_j2": e[2], "e_c": e[0],
                                           "amps_per_phi0": a_per, "phi_offset": offset}),
            "beta": (amps, beta_y, {"beta": beta}),
            "t1": (t1_x, t1_y, t1), "ramsey": (ram_x, ram_y, ram), "rb": (rb_x, rb_y, rb),
            "series_sample": [SERIES_ARGS[i] for i in rng.choice(len(SERIES_ARGS), 2, replace=False)],
            "gamma_db": rng.uniform(60.0, 90.0), "v_p": rng.uniform(0.1, 0.5),
        }

    def make_round(self, r):
        rng = np.random.default_rng([self.seed, r])
        items = [Item(f"ratio-{ratio}", self._inputs(rng, _device(rng, ratio))) for ratio in self.ratios]
        f = self.failing
        e_j2 = f["e_sum"] / (1.0 + f["ratio"])
        fixed = self._inputs(np.random.default_rng(0), (f["e_c"], f["e_sum"] - e_j2, e_j2))
        items.append(Item(f"ratio-{f['ratio']}", fixed, expect_failure="ConvergenceError"))
        return items

    def run(self, item):
        x = item.inputs
        p = transmon.TransmonParams(*x["e"])
        series = lambda key: fitting.DataSeries(x=x[key][0], y=x[key][1])
        out = {
            "tuning": fitting.fit_tuning_curve(series("tuning"), use_diagonalization=True),
            "beta": fitting.fit_beta(series("beta"), p),
            "t1": fitting.fit_t1(series("t1")),
            "ramsey": fitting.fit_ramsey(series("ramsey")),
            "rb": fitting.fit_rb(series("rb")),
        }
        out["spectrum"] = [transmon.diagonalize(p, transmon.FluxPoint(phi=float(phi))) for phi in self.phi_grid]
        out["asymptotic"] = [transmon.f01_asymptotic(p, float(phi)) for phi in self.phi_grid]
        drive = modulation.FluxDrive(0.0, self.phi_ac)
        out["row"] = (modulation.avg_frequency(p, drive), modulation.time_average_oracle(p, drive))
        budget = signal_chain.LineBudget(gamma_db=x["gamma_db"], v_p=x["v_p"], m_fH=self.m_fh)
        out["crosstalk"] = signal_chain.spurious_shift_report(p, budget)
        return out

    def check(self, item):
        x, out, errors = item.inputs, item.outputs, []
        _tuning_within(errors, out["tuning"].to_dict(), *x["tuning"])
        for key in ("t1", "ramsey", "rb", "beta"):
            truths = {k: v for k, v in x[key][2].items() if k != "phase"}
            _fit_within(errors, key, out[key].to_dict(), truths, FIT_NOISE[key], x[key][0].size)
        _check_levels(errors, x["e"], self.phi_grid, out["spectrum"], out["asymptotic"])
        _check_series_rows(errors, "modulation", x["e"], 0.0, [self.phi_ac], [out["row"][0]], [out["row"][1]])
        report = out["crosstalk"]
        _check_crosstalk(errors, x["e"], x["gamma_db"], x["v_p"], 50.0, self.m_fh,
                         report.phi_ac, report.delta_f_hz, report.detectable)
        # the special functions on a sample of the arguments the series used
        e_c, e_j1, e_j2 = x["e"]
        z = (2.0 * e_j1 * e_j2 / (e_j1**2 + e_j2**2)) ** 2
        for n, k in x["series_sample"]:
            a = 0.5 * n + (k - 1) / 8.0
            b = a + 0.5
            c = n + 1.0
            got, want = specfun.hyp2f1(a, b, c, z), ref.hyp2f1(a, b, c, z)
            _close(errors, f"hyp2f1({a}, {b}; {c}; {z:.6f})", got, want, 1e-10 * abs(want))
        beta = out["beta"].params["beta"]
        for amp in x["beta"][0][1::10]:
            for n in (1, 4, 8):
                arg = 2.0 * math.pi * n * beta * amp
                w0, w1 = ref.bessel(arg)
                _close(errors, f"bessel_j0({arg:.6g})", specfun.bessel_j0(arg), w0, 1e-10)
                _close(errors, f"bessel_j1({arg:.6g})", specfun.bessel_j1(arg), w1, 1e-10)
        return errors


# --- tools ---------------------------------------------------------------------

# ground truths of the committed fixtures, as scripts/make_fixtures.py draws
# them (with the noise levels of FIT_NOISE)
FIXTURE_TRUTHS = {
    "t1": ("t1_53us.csv", {"A": 0.95, "T1": 53.0, "B": 0.03}),
    "ramsey": ("ramsey_10us.csv", {"A": 0.40, "T2_star": 10.0, "delta_f": 0.5, "B": 0.5}),
    "rb": ("rb_decay.csv", {"A": 0.5, "p": 0.9954, "B": 0.5}),
    "tuning": ("tuning_q0.csv", {"e_j1": 2140.0, "e_j2": 9040.0, "e_c": 182.0,
                                 "amps_per_phi0": 1.2e-3, "phi_offset": 0.05}),
    "beta": ("beta_q0.csv", {"beta": 0.510}),
}


class Tools:
    """Diplexer designs in the library, then the command line.

    Each round first evaluates five diplexer designs with odd branch orders
    and seeded band edges in-process: each on the dense default grid with
    and without the absorptive output resistance, spec-checked both ways,
    with both branch sweeps written.  The order pairs are fixed per round,
    so the element count, which sets a design's cost, is the same in every
    round.  Then the same ten ``fluxline`` invocations run as subprocesses
    on the committed example config and fixtures, one at a time, output to
    a scratch directory; each output is compared byte for byte with the
    previous round's, so a run does two rounds at least.
    """

    name = "tools"
    orders = ((3, 3), (3, 5), (5, 5), (7, 5), (5, 7))
    points = 2000
    trace_rounds = 2
    min_rounds = 2

    def __init__(self, root, seed):
        self.root, self.seed = root, seed
        self.out = root / "bench" / "out" / f"cli-{os.getpid()}"
        self.first = {}
        self.child_rss_kb = 0

    def prepare(self):
        self.cfg = config.load_config(self.root / "data" / "example_device.json")
        dpx = self.cfg.diplexer
        self.z0, self.isolation_db = dpx.z0, dpx.spec.isolation_db
        self.isolation_max = dpx.spec.isolation_max_freq_mhz
        self.out.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        names = [q.name for q in self.cfg.qubits]
        pick = lambda: str(rng.choice(names))
        table = lambda sub: ["--out", str(self.out / f"{sub}.csv")]
        mod = lambda: {"qubit": pick(), "phi_dc": rng.uniform(0.0, 0.1), "amp_max": rng.uniform(0.15, 0.3)}
        spec, m1, m2 = {"qubit": pick()}, mod(), mod()
        xt = {"qubit": pick(), "gamma_db": rng.uniform(60.0, 90.0), "v_p": rng.uniform(0.1, 0.5)}
        modulate = lambda m: ["modulate", "--qubit", m["qubit"], "--phi-dc", repr(m["phi_dc"]),
                              "--amp-max", repr(m["amp_max"])]
        fixture = lambda kind: str(self.root / "data" / "fixtures" / FIXTURE_TRUTHS[kind][0])
        # (kind, inputs for the check, argv); the same every round
        self.invocations = [
            ("spectrum", spec, ["spectrum", "--qubit", spec["qubit"], "--points", "201", *table("spectrum")]),
            ("modulate", m1, [*modulate(m1), "--points", "26", *table("modulate")]),
            ("modulate_oracle", m2, [*modulate(m2), "--points", "11", "--with-oracle", *table("modulate_oracle")]),
            ("crosstalk", xt, ["crosstalk", "--qubit", xt["qubit"], "--gamma-db", repr(xt["gamma_db"]),
                               "--v-p", repr(xt["v_p"])]),
            ("diplexer", {}, ["diplexer", "--report-out", "-", *table("diplexer")]),
        ] + [(f"fit_{kind}", {"kind": kind}, ["fit", kind, fixture(kind)] + (["--qubit", "q0"] if kind == "beta" else []))
             for kind in ("t1", "ramsey", "rb", "tuning", "beta")]

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def make_round(self, r):
        rng = np.random.default_rng([self.seed, r])
        designs = [Item("design", {
            "lp_order": n_lp, "bp_order": n_bp,
            "lp_cutoff_mhz": rng.uniform(1200.0, 1700.0),
            "bp_low_mhz": rng.uniform(2700.0, 3300.0), "bp_high_mhz": rng.uniform(6300.0, 7700.0),
            "r_per_ghz": rng.uniform(0.5, 2.0),
        }) for n_lp, n_bp in self.orders]
        return designs + [Item(kind, x | {"argv": ["--json", *argv]}) for kind, x, argv in self.invocations]

    def run(self, item):
        if item.kind == "design":
            return self._run_design(item.inputs)
        return self._run_invocation(item)

    def check(self, item):
        if item.kind == "design":
            return self._check_design(item.inputs, item.outputs)
        return self._check_invocation(item)

    def _run_design(self, x):
        lp = rf_network.synth_lowpass(x["lp_order"], x["lp_cutoff_mhz"], self.z0)
        bp = rf_network.synth_bandpass(x["bp_order"], x["bp_low_mhz"], x["bp_high_mhz"], self.z0)
        spec = rf_network.DiplexerSpec(x["lp_cutoff_mhz"], x["bp_low_mhz"], x["bp_high_mhz"],
                                       self.isolation_db, self.isolation_max)
        grid = rf_network.default_frequency_grid(self.points)
        evaluated = []
        for k in (0.0, x["r_per_ghz"]):
            resp = rf_network.diplexer_eval(lp, bp, self.z0, grid, eccosorb_ohm_per_ghz=k)
            evaluated.append((k, resp, rf_network.check_spec(resp, spec)))
        return evaluated, rf_network.two_port_sweep_csv(lp, grid), rf_network.two_port_sweep_csv(bp, grid)

    def _spec(self, x):
        return {key: x[key] for key in ("lp_cutoff_mhz", "bp_low_mhz", "bp_high_mhz")} | {
            "isolation_db": self.isolation_db, "isolation_max_freq_mhz": self.isolation_max}

    def _check_design(self, x, outputs):
        errors = []
        evaluated, lp_csv, bp_csv = outputs
        lp_el = ref.lowpass_elements(x["lp_order"], x["lp_cutoff_mhz"], self.z0)
        bp_el = ref.bandpass_elements(x["bp_order"], x["bp_low_mhz"], x["bp_high_mhz"], self.z0)
        for k, resp, report in evaluated:
            freqs = resp.frequencies_mhz
            s = ref.nodal_s([bp_el, lp_el], self.z0, freqs, k)
            label = f"R={k:.3g} Ohm/GHz"
            for name, got, want in (("s31", resp.s31, s[:, 2, 0]), ("s32", resp.s32, s[:, 2, 1]),
                                    ("s12", resp.s12, s[:, 0, 1])):
                dev = float(np.abs(got - want).max())
                if not dev <= S_TOL:
                    errors.append(f"{label} {name}: |S - nodal| up to {dev:.3g}")
            _check_report(errors, label, [dataclasses.asdict(it) for it in report.items], report.passed,
                          ref.spec_report(freqs, s[:, 2, 0], s[:, 2, 1], s[:, 0, 1], self._spec(x)))
        grid = evaluated[0][1].frequencies_mhz
        _check_branch_csv(errors, "low-pass", lp_csv, grid, ref.butterworth_s21_sq(grid, x["lp_order"], x["lp_cutoff_mhz"]))
        _check_branch_csv(errors, "band-pass", bp_csv, grid,
                          ref.butterworth_s21_sq(grid, x["bp_order"], x["bp_low_mhz"], x["bp_high_mhz"]))
        return errors

    def _run_invocation(self, item):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   FLUXLINE_CONFIG=str(self.root / "data" / "example_device.json"))
        out = self.out / f"{item.kind}.csv"
        if out.exists():
            out.unlink()
        stdout_path = self.out / "stdout.txt"
        with open(stdout_path, "wb") as fh:
            proc = subprocess.Popen([sys.executable, "-m", "fluxline.cli", *item.inputs["argv"]],
                                    stdout=fh, stderr=subprocess.PIPE, env=env, cwd=self.out)
            stderr = proc.stderr.read()
            proc.stderr.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {stderr.decode(errors='replace').strip()}")
        return stdout_path.read_bytes(), out.read_bytes() if out.exists() else b""

    def _check_invocation(self, item):
        x, errors = item.inputs, []
        stdout, out = item.outputs
        first = self.first.setdefault(item.kind, (stdout, out))
        if (stdout, out) != first:
            errors.append(f"{item.kind}: output differs from the previous identical invocation")
        try:
            getattr(self, f"_check_{item.kind.split('_')[0]}")(errors, x, stdout, out)
        except (ValueError, KeyError, IndexError) as exc:
            errors.append(f"{item.kind}: unreadable output ({exc!r})")
        return errors

    def _energies(self, name):
        p = self.cfg.qubit(name).params
        return p.e_c, p.e_j1, p.e_j2

    def _check_spectrum(self, errors, x, stdout, out):
        e = self._energies(x["qubit"])
        rows = _csv(out, ["phi", "f01_asymptotic_mhz", "f01_diag_mhz", "anharmonicity_mhz"])
        f01, f12 = ref.mathieu_levels(*e, rows[:, 0])
        closed = ref.f01_closed_form(*e, rows[:, 0])
        _max_dev(errors, "spectrum f01_diag_mhz", rows[:, 2], f01, LEVEL_TOL_MHZ)
        _max_dev(errors, "spectrum anharmonicity_mhz", rows[:, 3], f12 - f01, 2 * LEVEL_TOL_MHZ)
        _max_dev(errors, "spectrum f01_asymptotic_mhz", rows[:, 1], closed, 1e-11 * closed.max())
        summary = json.loads(stdout)
        f01s, f12s = ref.mathieu_levels(*e, np.array([0.0, 0.5]))
        _close(errors, "spectrum f_max_mhz", summary["f_max_mhz"], f01s[0], LEVEL_TOL_MHZ)
        _close(errors, "spectrum f_min_mhz", summary["f_min_mhz"], f01s[1], LEVEL_TOL_MHZ)
        _close(errors, "spectrum anharmonicity_mhz", summary["anharmonicity_mhz"], f12s[0] - f01s[0],
               2 * LEVEL_TOL_MHZ)

    def _check_modulate(self, errors, x, stdout, out):
        e = self._energies(x["qubit"])
        oracle = "f_avg_oracle_mhz" if "--with-oracle" in x["argv"] else None
        header = ["phi_ac", "f_avg_series_mhz"] + ([oracle] if oracle else []) + ["shift_series_hz", "shift_2nd_order_hz"]
        rows = _csv(out, header)
        amps = rows[:, 0]
        _check_series_rows(errors, "modulate", e, x["phi_dc"], amps, rows[:, 1], rows[:, 2] if oracle else None)
        summary = json.loads(stdout)
        f_ref = summary["f_ref_mhz"]
        _close(errors, "modulate f_ref_mhz", f_ref, float(ref.mathieu_levels(*e, x["phi_dc"])[0]),
               ref.series_budget_mhz(*e))
        # both frequencies carry 12 significant digits: ~0.01 Hz near 5 GHz
        _max_dev(errors, "modulate shift_series_hz", rows[:, -2], (rows[:, 1] - f_ref) * 1e6,
                 1e-5 * (np.abs(rows[:, 1]).max() + abs(f_ref)))
        want = np.array([ref.quadratic_shift_hz(*e, a) for a in amps])
        _max_dev(errors, "modulate shift_2nd_order_hz", rows[:, -1], want, 1e-10 * np.abs(want).max())
        if oracle:
            _close(errors, "modulate max_series_oracle_dev_mhz", summary["max_series_oracle_dev_mhz"],
                   float(np.abs(rows[:, 1] - rows[:, 2]).max()), 1e-8)

    def _check_crosstalk(self, errors, x, stdout, out):
        doc = json.loads(stdout)
        _check_crosstalk(errors, self._energies(x["qubit"]), x["gamma_db"], x["v_p"], 50.0,
                         self.cfg.qubit(x["qubit"]).m_fH, doc["phi_ac"], doc["delta_f_hz"], doc["detectable"])

    def _check_diplexer(self, errors, x, stdout, out):
        dpx = self.cfg.diplexer
        rows = _csv(out, ["frequency_mhz", "s31_db", "s32_db", "s12_db"])
        freqs = rows[:, 0]
        s = ref.nodal_s([ref.bandpass_elements(dpx.bp_order, dpx.spec.bp_low_mhz, dpx.spec.bp_high_mhz, dpx.z0),
                         ref.lowpass_elements(dpx.lp_order, dpx.spec.lp_cutoff_mhz, dpx.z0)], dpx.z0, freqs)
        for col, want in ((1, s[:, 2, 0]), (2, s[:, 2, 1]), (3, s[:, 0, 1])):
            dev = float(np.abs(10.0 ** (rows[:, col] / 20.0) - np.abs(want)).max())
            if not dev <= S_TOL:
                errors.append(f"diplexer column {col}: |S| off the nodal solve by {dev:.3g}")
        spec = {"lp_cutoff_mhz": dpx.spec.lp_cutoff_mhz, "bp_low_mhz": dpx.spec.bp_low_mhz,
                "bp_high_mhz": dpx.spec.bp_high_mhz, "isolation_db": dpx.spec.isolation_db,
                "isolation_max_freq_mhz": dpx.spec.isolation_max_freq_mhz}
        doc = json.loads(stdout)
        # the report carries 12 significant digits, and the grid is the CSV's
        _check_report(errors, "cli diplexer", doc["items"], doc["passed"],
                      ref.spec_report(freqs, s[:, 2, 0], s[:, 2, 1], s[:, 0, 1], spec))

    def _check_fit(self, errors, x, stdout, out):
        kind = x["kind"]
        rows = len((self.root / "data" / "fixtures" / FIXTURE_TRUTHS[kind][0]).read_text().splitlines()) - 1
        _fit_within(errors, kind, json.loads(stdout), FIXTURE_TRUTHS[kind][1], FIT_NOISE[kind], rows)


def _check_report(errors, label, items, passed, want):
    """Program spec-check items (dicts) against the reference crossings."""
    if [it["name"] for it in items] != list(want):
        errors.append(f"{label}: spec items {items} vs {list(want)}")
        return
    verdicts = []
    for it in items:
        name = it["name"]
        measured, margin, worst = want[name]
        if measured is None:
            errors.append(f"{label} {name}: no crossing in the reference response")
            continue
        _close(errors, f"{label} {name} measured", it["measured"], measured, 1e-9 * abs(measured))
        _close(errors, f"{label} {name} margin", it["margin"], margin, 1e-9)
        _close(errors, f"{label} {name} worst_freq", it["worst_freq_mhz"], worst, 1e-9 * abs(worst))
        # a verdict within rounding of its threshold is not compared
        if abs(margin) > 1e-9 and it["passed"] != (margin > 0):
            errors.append(f"{label} {name}: passed={it['passed']} with margin {margin:.4g}")
        verdicts.append(it["passed"])
    if passed != all(verdicts):
        errors.append(f"{label}: report passed={passed} but items {verdicts}")


def _check_branch_csv(errors, label, text, grid, s21_sq):
    rows = np.array([[float(c) for c in line.split(",")] for line in text.splitlines()[1:]])
    if text.splitlines()[0] != "frequency_mhz,s21_db,s11_db" or rows.shape != (grid.size, 3):
        errors.append(f"{label} sweep: unexpected layout")
        return
    if not np.allclose(rows[:, 0], grid, rtol=1e-11, atol=0.0):
        errors.append(f"{label} sweep: frequency column differs from the grid")
    dev = float(np.abs(rows[:, 1] - 10.0 * np.log10(s21_sq)).max())
    if not dev <= 1e-6:
        errors.append(f"{label} sweep: s21_db off the Butterworth closed form by {dev:.3g} dB")
    power = 10.0 ** (rows[:, 1] / 10.0) + 10.0 ** (rows[:, 2] / 10.0)
    if not np.abs(power - 1.0).max() <= 1e-9:
        errors.append(f"{label} sweep: |S11|^2 + |S21|^2 - 1 up to {np.abs(power - 1.0).max():.3g}")


def _csv(data: bytes, header):
    lines = data.decode().splitlines()
    if lines[0].split(",") != header:
        raise ValueError(f"header {lines[0]!r}, expected {','.join(header)}")
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


def _max_dev(errors, label, got, want, tol):
    dev = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    if not dev <= tol:
        errors.append(f"{label}: off the reference by up to {dev:.3g} (tol {tol:.3g})")



WORKLOADS = {w.name: w for w in (Device, Tools)}
