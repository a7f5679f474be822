"""Nonlinear least-squares engine and the standard characterization fits.

A small numpy Levenberg-Marquardt (Moré 1978; Madsen, Nielsen & Tingleff
2004) behind a deterministic wrapper, with no randomized restarts:

- damped normal equations (J^T J + lam D^2) step = -J^T r, with D the
  running maximum of the Jacobian column norms (MINPACK's mode 1) and the
  gain-ratio damping update of Nielsen;
- MINPACK's three stopping tests: relative drop in cost, actual and
  predicted, within FUNCTION_TOL = 1e-12; scaled step within STEP_TOL =
  1e-12 of the scaled point; every cosine between the residual and a
  Jacobian column within GRADIENT_TOL = 1e-10;
- at most MAX_ITERATIONS * (n_par + 1) residual evaluations, after which
  the fit reports converged=False;
- covariance from the Jacobian at the optimum, scaled for unweighted data
  by the residual variance; with no more points than parameters that is
  undefined, and the standard errors are NaN with a flag.

Every model ships its Jacobian (``Model.jac`` is required), and the test
suite cross-checks each against forward differences.  All are analytic
but the one of the tuning refinement on exact levels, which differentiates
the levels in E_J with one extra levels call; both tuning models share the
chain rule through E_J(phi) for the rest.  The engine loads no scipy; the
test suite checks it against MINPACK's lmder through scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .modulation import DEFAULT_ORDER, _harmonic_phases, harmonic_series
from .specfun import bessel_j0, bessel_j1
from .transmon import TransmonParams, levels

__all__ = [
    "DataSeries",
    "FitResult",
    "FitError",
    "Model",
    "T1_MODEL",
    "RAMSEY_MODEL",
    "RB_MODEL",
    "LINEAR_MODEL",
    "tuning_curve_model",
    "beta_model",
    "least_squares",
    "fit_t1",
    "fit_ramsey",
    "fit_rb",
    "fit_tuning_curve",
    "fit_beta",
]

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10
FUNCTION_TOL = 1e-12
STEP_TOL = 1e-12
# initial damping relative to D^2, whose diagonal is that of J^T J at the
# start: Madsen et al.'s value for a start believed close, as every fit
# here starts from a data-driven guess
_DAMPING_0 = 1e-6


class FitError(RuntimeError):
    """Structural fit failure (not mere non-convergence)."""


@dataclass(frozen=True)
class DataSeries:
    """(x, y) samples with optional per-point standard deviations."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None
    x_unit: str = ""
    y_unit: str = ""

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("data contains non-finite values")
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            object.__setattr__(self, "sigma", s)
            if s.shape != x.shape:
                raise ValueError("sigma must match x in length")
            if not (s > 0).all():
                raise ValueError("sigma values must be > 0")


@dataclass(frozen=True)
class FitResult:
    """A fit's parameters and diagnostics, with the model that produced them."""

    params: dict[str, float]
    std_errors: dict[str, float]
    residual_norm: float
    converged: bool
    iterations: int
    flags: tuple[str, ...] = field(default=())
    # every fit_* result has one; None only for a result built by hand
    model: Model | None = field(default=None, compare=False, repr=False)

    def curve(self, x) -> np.ndarray:
        """The fitted model at the abscissae x."""
        theta = np.array([self.params[name] for name in self.model.names])
        return self.model.fn(np.asarray(x, dtype=float), theta)

    def to_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "std_errors": dict(self.std_errors),
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "iterations": self.iterations,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class Model:
    """Parametric curve y = fn(x, theta) with analytic Jacobian d fn/d theta."""

    names: tuple[str, ...]
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _levenberg_marquardt(residuals, jacobian, theta, max_nfev: int):
    """Minimize |residuals(theta)|^2; returns (theta, r, J, nfev, converged).

    The method and its tests are in the module docstring (Nielsen's update:
    Madsen, Nielsen & Tingleff 2004, sec. 3.2).  A trial point is taken
    when it achieves more than 1e-4 of the predicted drop, as in MINPACK.
    J is returned at the final point.
    """
    r = residuals(theta)
    if not np.isfinite(r).all():
        raise ValueError("residuals are not finite at the initial guess")
    nfev = 1
    cost = float(r @ r)
    jac = jacobian(theta)
    scale = np.zeros(theta.size)
    lam, nu = _DAMPING_0, 2.0
    while True:
        jtj = jac.T @ jac
        col_norm = np.sqrt(np.diag(jtj))
        neg_grad = -(jac.T @ r)
        if (np.abs(neg_grad) <= GRADIENT_TOL * math.sqrt(cost) * col_norm).all():
            return theta, r, jac, nfev, True
        scale = np.maximum(scale, col_norm)
        scale[scale == 0.0] = 1.0
        d2 = scale * scale
        damping = np.diag(d2)
        while True:
            step = np.linalg.solve(jtj + lam * damping, neg_grad)
            trial = theta + step
            r_trial = residuals(trial)
            nfev += 1
            cost_trial = float(r_trial @ r_trial)
            # relative drops in cost, as MINPACK's lmder forms them; a trial
            # 10x the residual norm away (or non-finite) counts as a rise
            actual = 1.0 - cost_trial / cost if cost_trial < 100.0 * cost else -1.0
            jstep = jac @ step
            step_sq = float(d2 @ (step * step))
            predicted = (float(jstep @ jstep) + 2.0 * lam * step_sq) / cost
            ratio = actual / predicted if predicted > 0.0 else 0.0
            accepted = ratio > 1e-4
            if accepted:
                theta, r, cost = trial, r_trial, cost_trial
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
                nu = 2.0
            else:
                lam *= nu
                nu *= 2.0
            done = (
                abs(actual) <= FUNCTION_TOL and predicted <= FUNCTION_TOL and ratio <= 2.0
            ) or step_sq <= STEP_TOL**2 * float(d2 @ (theta * theta))
            if accepted:
                jac = jacobian(theta)
            if done or nfev >= max_nfev:
                return theta, r, jac, nfev, done
            if accepted:
                break


def least_squares(
    model: Model,
    data: DataSeries,
    initial_guess,
    flags: tuple[str, ...] = (),
) -> FitResult:
    """Weighted Levenberg-Marquardt fit of a model to a data series."""
    theta0 = np.asarray(initial_guess, dtype=float)
    n_par = len(model.names)
    if theta0.shape != (n_par,):
        raise ValueError(f"initial guess must have {n_par} entries, got {theta0.shape}")
    if data.x.size < n_par:
        raise ValueError(
            f"need at least {n_par} points for {n_par} parameters, got {data.x.size}"
        )
    sig = data.sigma if data.sigma is not None else np.ones_like(data.y)

    def residuals(theta):
        return (model.fn(data.x, theta) - data.y) / sig

    jacobian = lambda theta: model.jac(data.x, theta) / sig[:, None]
    theta, r, jac, nfev, converged = _levenberg_marquardt(
        residuals, jacobian, theta0, MAX_ITERATIONS * (n_par + 1)
    )

    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError as exc:
        raise FitError("singular Jacobian at the optimum") from exc
    if not np.isfinite(cov).all():
        raise FitError("singular Jacobian at the optimum")
    if data.sigma is None:
        # the residuals set the noise scale, which n_par points fitted
        # exactly do not determine
        dof = data.x.size - n_par
        if dof == 0:
            flags = flags + (
                "standard errors undefined: an unweighted fit needs more points "
                "than parameters, or sigma",
            )
        cov = cov * (float(r @ r) / dof if dof else math.nan)
    errs = np.sqrt(np.maximum(np.diag(cov), 0.0))

    return FitResult(
        params=dict(zip(model.names, (float(v) for v in theta))),
        std_errors=dict(zip(model.names, (float(e) for e in errs))),
        residual_norm=float(np.linalg.norm(r)),
        converged=converged,
        iterations=nfev,
        flags=flags,
        model=model,
    )


def _sorted_by_x(data: DataSeries) -> tuple[np.ndarray, np.ndarray]:
    """x and y in ascending x.  The start guesses regress on x or divide by
    its spacing, and no model here is identifiable from a single abscissa."""
    if np.ptp(data.x) == 0.0:
        raise ValueError(f"{data.x_unit or 'x'} column is constant: the fit needs distinct values")
    order = np.argsort(data.x)
    return data.x[order], data.y[order]


def _dominant_component(x: np.ndarray, centered: np.ndarray):
    """Frequency and amplitude of the top non-DC rfft bin, x sorted and near uniform."""
    spec = np.fft.rfft(centered)
    freqs = np.fft.rfftfreq(x.size, float(np.mean(np.diff(x))))
    k = 1 + int(np.argmax(np.abs(spec[1:])))
    return float(freqs[k]), spec[k]


def _degenerate(y: np.ndarray) -> bool:
    return float(np.ptp(y)) <= 1e-12 * max(1.0, float(np.abs(y).max()))


def _degenerate_result(model: Model, theta0, data: DataSeries) -> FitResult:
    """The start guess theta0 as an unconverged, flagged fit of constant data."""
    resid = model.fn(data.x, np.asarray(theta0, dtype=float)) - data.y
    return FitResult(
        params=dict(zip(model.names, (float(v) for v in theta0))),
        std_errors={name: math.nan for name in model.names},
        residual_norm=float(np.linalg.norm(resid)),
        converged=False,
        iterations=0,
        flags=("degenerate data: constant signal",),
        model=model,
    )


# --- exponential relaxation: y = A exp(-t/T1) + B ---------------------------

def _t1_fn(t, th):
    a, t1, b = th
    return a * np.exp(-t / t1) + b


def _t1_jac(t, th):
    a, t1, b = th
    e = np.exp(-t / t1)
    return np.column_stack([e, a * e * t / t1**2, np.ones_like(t)])


T1_MODEL = Model(names=("A", "T1", "B"), fn=_t1_fn, jac=_t1_jac)


# --- Ramsey fringe: y = A exp(-t/T2*) cos(2 pi delta t + phase) + B ----------

def _ramsey_fn(t, th):
    a, t2, delta, phase, b = th
    return a * np.exp(-t / t2) * np.cos(2.0 * np.pi * delta * t + phase) + b


def _ramsey_jac(t, th):
    a, t2, delta, phase, b = th
    e = np.exp(-t / t2)
    arg = 2.0 * np.pi * delta * t + phase
    c, s = np.cos(arg), np.sin(arg)
    return np.column_stack(
        [
            e * c,
            a * e * c * t / t2**2,
            -a * e * s * 2.0 * np.pi * t,
            -a * e * s,
            np.ones_like(t),
        ]
    )


RAMSEY_MODEL = Model(names=("A", "T2_star", "delta_f", "phase", "B"), fn=_ramsey_fn, jac=_ramsey_jac)


# --- benchmarking decay: y = A p^n + B ---------------------------------------

def _rb_fn(n, th):
    a, p, b = th
    return a * np.power(p, n) + b


def _rb_jac(n, th):
    a, p, b = th
    pn = np.power(p, n)
    return np.column_stack([pn, a * n * np.power(p, n - 1), np.ones_like(n)])


RB_MODEL = Model(names=("A", "p", "B"), fn=_rb_fn, jac=_rb_jac)


# --- straight line (engine sanity checks) ------------------------------------

LINEAR_MODEL = Model(
    names=("slope", "intercept"),
    fn=lambda x, th: th[0] * x + th[1],
    jac=lambda x, th: np.column_stack([x, np.ones_like(x)]),
)


def fit_t1(data: DataSeries) -> FitResult:
    """Relaxation fit; time axis in microseconds."""
    t, y = _sorted_by_x(data)
    if _degenerate(data.y):
        return _degenerate_result(T1_MODEL, [0.0, 1.0, float(np.mean(data.y))], data)
    b0 = float(y.min())
    w = y - b0
    keep = w > 0.05 * w.max()
    # log-linear regression on the shifted decay for (A, T1)
    slope, intercept = np.polyfit(t[keep], np.log(w[keep] + 1e-300), 1)
    t1_0 = -1.0 / slope if slope < 0 else float(t[-1] - t[0]) or 1.0
    a0 = math.exp(intercept)
    return least_squares(T1_MODEL, data, [a0, t1_0, b0])


def fit_ramsey(data: DataSeries) -> FitResult:
    """Decaying-cosine fit; time in microseconds, delta_f in MHz."""
    t, y = _sorted_by_x(data)
    if _degenerate(data.y):
        return _degenerate_result(RAMSEY_MODEL, [0.0, 1.0, 0.0, 0.0, float(np.mean(data.y))], data)
    b0 = float(np.mean(y))
    centered = y - b0
    delta0, peak = _dominant_component(t, centered)
    phase0 = float(np.angle(peak))
    a0 = math.sqrt(2.0) * float(np.std(centered))
    t2_0 = float(t[-1] - t[0]) / 3.0 or 1.0
    return least_squares(RAMSEY_MODEL, data, [a0, t2_0, delta0, phase0, b0])


def fit_rb(data: DataSeries) -> FitResult:
    """Benchmarking decay fit plus the derived average gate fidelity.

    The decay parameter maps to a single-qubit average fidelity
    F = 1 - (1-p)/2 with its standard error propagated from p.
    """
    n, y = _sorted_by_x(data)
    if not ((data.y >= 0.0).all() and (data.y <= 1.05).all()):
        raise ValueError("benchmarking data must lie in [0, 1.05]")
    if _degenerate(data.y):
        return _degenerate_result(RB_MODEL, [0.0, 0.9, float(np.mean(data.y))], data)
    b0 = float(y[-1])
    a0 = float(y[0] - b0)
    mid = len(n) // 2
    if a0 != 0.0 and (y[mid] - b0) / a0 > 0:
        ratio = (y[mid] - b0) / a0
        p0 = float(np.clip(ratio ** (1.0 / max(n[mid] - n[0], 1.0)), 0.5, 0.99999))
    else:
        p0 = 0.99
    if a0 == 0.0:
        a0 = float(np.ptp(y))
    result = least_squares(RB_MODEL, data, [a0, p0, b0])

    p = result.params["p"]
    flags = result.flags
    if not 0.0 < p <= 1.0:
        flags = flags + (f"decay parameter p={p:.6g} outside (0, 1]",)
    params = dict(result.params)
    errs = dict(result.std_errors)
    params["fidelity"] = 1.0 - (1.0 - p) / 2.0
    errs["fidelity"] = errs["p"] / 2.0
    return replace(result, params=params, std_errors=errs, flags=flags)


# --- flux tuning curve -------------------------------------------------------

def _tuning_theta(th, fixed_e_c: float | None):
    """(e_j1, e_j2, e_c, amps_per_phi0, phi_offset) from a parameter vector."""
    if fixed_e_c is None:
        return tuple(th)
    ej1, ej2, amps_per_phi0, off = th
    return ej1, ej2, fixed_e_c, amps_per_phi0, off


def _tuning_jac(fixed_e_c: float | None, derivatives) -> Callable:
    """The Jacobian of a tuning model f(E_J(phi), E_C).

    derivatives(current, th, ec, ej) gives df/dE_J and df/dE_C at each
    current; the chain rule through
    E_J(phi) = sqrt(E_J1^2 + E_J2^2 + 2 E_J1 E_J2 cos 2 pi phi) and
    phi = I/a + phi_0 gives the columns.  The junction energies enter as
    magnitudes, so their columns carry their signs.
    """

    def jac(current, th):
        ej1, ej2, ec, amps_per_phi0, off = _tuning_theta(th, fixed_e_c)
        phi = current / amps_per_phi0 + off
        c2 = np.cos(2.0 * np.pi * phi)
        s2 = np.sin(2.0 * np.pi * phi)
        a1, a2 = abs(ej1), abs(ej2)
        ej = np.sqrt(np.maximum(a1**2 + a2**2 + 2.0 * a1 * a2 * c2, 1e-12))
        df_dej, df_dec = derivatives(current, th, ec, ej)
        dej_d1 = (ej1 + math.copysign(a2, ej1) * c2) / ej
        dej_d2 = (ej2 + math.copysign(a1, ej2) * c2) / ej
        dej_dphi = -2.0 * np.pi * a1 * a2 * s2 / ej
        dphi_da = -current / amps_per_phi0**2
        cols = [df_dej * dej_d1, df_dej * dej_d2]
        if fixed_e_c is None:
            cols.append(df_dec)
        cols.extend([df_dej * dej_dphi * dphi_da, df_dej * dej_dphi])
        return np.column_stack(cols)

    return jac


def tuning_curve_model(fixed_e_c: float | None = None) -> Model:
    def fn(current, th):
        ej1, ej2, ec, amps_per_phi0, off = _tuning_theta(th, fixed_e_c)
        phi = current / amps_per_phi0 + off
        a1, a2 = abs(ej1), abs(ej2)
        ej_sq = a1**2 + a2**2 + 2.0 * a1 * a2 * np.cos(2.0 * np.pi * phi)
        ej = np.sqrt(np.maximum(ej_sq, 1e-12))
        # clip keeps the residuals finite while the optimizer explores
        return np.sqrt(np.maximum(8.0 * ec * ej, 1e-12)) - ec

    def derivatives(current, th, ec, ej):
        f_plus_ec = np.sqrt(8.0 * ec * ej)
        return f_plus_ec / (2.0 * ej), f_plus_ec / (2.0 * ec) - 1.0

    names = ("e_j1", "e_j2") + (() if fixed_e_c is not None else ("e_c",)) + ("amps_per_phi0", "phi_offset")
    return Model(names=names, fn=fn, jac=_tuning_jac(fixed_e_c, derivatives))


# relative step in E_J of the Jacobian of the exact-levels model.  The
# forward difference of the Mathieu f01 in ln E_J is off by ~0.3 h from
# truncation and ~2e-15/h from rounding: on bench-like devices (E_J1/E_J2
# 0.24-0.98, 13 fluxes) at most 3.0e-6 relative at h = 1e-5, 3.0e-7 at
# 1e-6 and 4.8e-8 at 1e-7.  Smaller steps cost more rejected trials at the
# end of the refinement, which runs at the rounding floor of the levels:
# 128 bench devices took 2234, 2315 and 2427 residual evaluations at these
# three steps (2452 with forward differences).  1e-6 keeps the columns far
# below any reported digit of a standard error at near the lower count
_LEVELS_EJ_STEP = 1e-6


# a fixed E_C below this fraction of the data's f_max puts the start guess
# at E_J/E_C = (f_max/E_C + 1)^2/8 > 1e11, eight decades past any transmon
# (with the fixture's f_max, E_J^2 overflows below E_C ~ 1e-148 MHz).
# Above f_max/4 no E_J fits: the exact f01 at n_g = 0 is at least 4 E_C,
# its value at E_J = 0
_FIXED_EC_MIN_PER_FMAX = 1e-6

# the start guess squares the data's frequencies, E_J ~ (f + E_C)^2/(8 E_C),
# and the model squares E_J: numpy overflows from |f| ~ 1e78 MHz, and the
# start guess raises OverflowError from ~1.3e154 MHz
_FREQUENCY_MAX_MHZ = 1e60


def _levels_tuning_model(fixed_e_c: float | None, names: tuple[str, ...]) -> Model:
    """The tuning curve on the exact f01 of :func:`transmon.levels`.

    At n_g = 0, f01 = E_C g(q) with q = E_J(phi)/(2 E_C), so one more
    levels call with both junction energies scaled by (1 + h) gives
    df/dE_J = (f1 - f0)/(h E_J) at every flux, and df/dE_C at fixed E_J is
    f0/E_C - (f1 - f0)/(h E_C); _tuning_jac takes the chain rule.
    """

    def f01(current, th, scale=1.0):
        ej1, ej2, ec, amps_per_phi0, off = _tuning_theta(th, fixed_e_c)
        params = TransmonParams(e_c=ec, e_j1=abs(ej1) * scale, e_j2=abs(ej2) * scale)
        return levels(params, current / amps_per_phi0 + off)[0]

    def derivatives(current, th, ec, ej):
        f0 = f01(current, th)
        df = f01(current, th, 1.0 + _LEVELS_EJ_STEP) - f0
        return df / (_LEVELS_EJ_STEP * ej), f0 / ec - df / (_LEVELS_EJ_STEP * ec)

    return Model(names=names, fn=f01, jac=_tuning_jac(fixed_e_c, derivatives))


def _normalize_tuning(params: dict, errs: dict) -> tuple[dict, dict]:
    """Canonical form of a tuning-curve solution.

    The model depends on the junction energies only through
    E_J1^2 + E_J2^2 and E_J1 E_J2, so the optimizer may land on the mirror
    solution with both negated: take magnitudes, order e_j1 <= e_j2 (their
    standard errors follow), make the current-to-flux scale positive and
    fold the flux offset into (-0.5, 0.5].
    """
    params, errs = dict(params), dict(errs)
    params["e_j1"], params["e_j2"] = abs(params["e_j1"]), abs(params["e_j2"])
    if params["e_j1"] > params["e_j2"]:
        params["e_j1"], params["e_j2"] = params["e_j2"], params["e_j1"]
        errs["e_j1"], errs["e_j2"] = errs["e_j2"], errs["e_j1"]
    if params["amps_per_phi0"] < 0:
        params["amps_per_phi0"] = -params["amps_per_phi0"]
        params["phi_offset"] = -params["phi_offset"]
    params["phi_offset"] -= round(params["phi_offset"])
    return params, errs


def fit_tuning_curve(
    data: DataSeries,
    fixed_e_c: float | None = None,
    use_diagonalization: bool = False,
) -> FitResult:
    """Fit f01 vs bias current with a linear current-to-flux map.

    The closed-form transmon frequency is used for the main optimization;
    with use_diagonalization=True a refinement pass replaces it by the
    exact f01 of :func:`transmon.levels`, and the result carries that
    refinement's model.  The refinement's Jacobian costs two levels
    calls, at the parameters and with both junction energies scaled by
    1 + 1e-6, plus the chain rule (see _tuning_jac), where
    forward differences took one per parameter; a levels call on the 13
    fluxes of a bench device costs 35-55 us on a shared 2-core host.  The
    frequencies must lie within +-1e60 MHz, and a fixed E_C between 1e-6
    and 1/4 of the data's largest frequency.
    """
    if data.x.size < 6:
        raise ValueError("tuning-curve fit needs at least 6 points")
    if fixed_e_c is not None and not (math.isfinite(fixed_e_c) and fixed_e_c > 0):
        raise ValueError(f"fixed_e_c must be finite and > 0, got {fixed_e_c}")
    cur, f = _sorted_by_x(data)
    model = tuning_curve_model(fixed_e_c)

    # period of f(I) from the dominant discrete-spectrum component
    freq0 = _dominant_component(cur, f - np.mean(f))[0]
    a0 = 1.0 / freq0 if freq0 > 0 else float(cur[-1] - cur[0])
    off0 = -cur[int(np.argmax(f))] / a0
    fmax0, fmin0 = float(f.max()), float(f.min())
    if not max(fmax0, -fmin0) < _FREQUENCY_MAX_MHZ:
        raise ValueError(
            f"frequencies must lie within +-{_FREQUENCY_MAX_MHZ:g} MHz, got f_min = {fmin0:.6g}, f_max = {fmax0:.6g} MHz"
        )
    if fixed_e_c is not None and not fmax0 * _FIXED_EC_MIN_PER_FMAX <= fixed_e_c <= fmax0 / 4.0:
        raise ValueError(
            f"fixed_e_c must lie in [{fmax0 * _FIXED_EC_MIN_PER_FMAX:.6g}, {fmax0 / 4.0:.6g}] MHz "
            f"(f_max * {_FIXED_EC_MIN_PER_FMAX:g} to f_max / 4 of the data), got {fixed_e_c}"
        )
    ec0 = fixed_e_c if fixed_e_c is not None else 200.0
    ej_sum0 = (fmax0 + ec0) ** 2 / (8.0 * ec0)
    ej_diff0 = (fmin0 + ec0) ** 2 / (8.0 * ec0)
    ej1_0 = max(0.5 * (ej_sum0 - ej_diff0), 1.0)
    ej2_0 = 0.5 * (ej_sum0 + ej_diff0)

    theta0 = [ej1_0, ej2_0] + ([] if fixed_e_c is not None else [ec0]) + [a0, off0]
    result = least_squares(model, data, theta0)

    # span judged with the fitted period: the discrete-spectrum guess can
    # only resolve whole oscillations and is blind to sub-period data.
    # Sub-period data may also alias to a bogus short period, which shows
    # up as an exploding junction-energy covariance instead.
    span_phi0 = (cur[-1] - cur[0]) / abs(result.params["amps_per_phi0"])
    ej_rel_err = max(
        abs(result.std_errors["e_j1"]) / max(abs(result.params["e_j1"]), 1e-12),
        abs(result.std_errors["e_j2"]) / max(abs(result.params["e_j2"]), 1e-12),
    )
    flags: tuple[str, ...] = ()
    if span_phi0 < 0.3 or not math.isfinite(ej_rel_err) or ej_rel_err > 0.5:
        flags = (
            f"insufficient flux span ({span_phi0:.3g} Phi0) or ill-conditioned "
            "fit: junction energies are not reliable",
        )

    if use_diagonalization:
        result = least_squares(
            _levels_tuning_model(fixed_e_c, model.names), data, [result.params[n] for n in model.names]
        )

    params, errs = _normalize_tuning(result.params, result.std_errors)
    return replace(result, params=params, std_errors=errs, flags=flags)


# --- flux-pulse amplitude calibration ----------------------------------------

def beta_model(params: TransmonParams, phi_dc: float, p: int = DEFAULT_ORDER) -> Model:
    """Time-averaged frequency vs instrument amplitude, parameter beta."""
    series = harmonic_series(params, p)
    wn = 2.0 * np.pi * np.arange(p + 1)
    cn = np.array(series.s) * np.cos(_harmonic_phases("phi_dc", phi_dc, wn))

    # the harmonics n along axis 0, the samples along the last; the sums
    # over axis 0 add the harmonics in order, one row at a time.  beta may
    # be an array of candidates: fn then gives one curve per candidate, in
    # one Bessel call, each equal to the curve of that beta alone
    def fn(amp, th):
        beta = np.abs(th[0])
        column = (-1,) + (1,) * np.ndim(beta)
        arg = (wn.reshape(column) * beta)[..., None] * amp
        return (cn.reshape(column + (1,)) * bessel_j0(arg)).sum(axis=0)

    def jac(amp, th):
        sign = 1.0 if th[0] >= 0 else -1.0
        arg = (wn[1:] * abs(th[0]))[:, None] * amp
        col = (cn[1:, None] * (-bessel_j1(arg) * wn[1:, None] * amp)).sum(axis=0)
        return (sign * col)[:, None]

    return Model(names=("beta",), fn=fn, jac=jac)


def _beta_scan(model: Model, data: DataSeries, amp_max: float):
    """Deterministic coarse scan, as the chi^2 landscape in beta is
    multimodal: 30 candidate betas and their weighted sums of squares,
    scored by one model evaluation over all of them."""
    candidates = np.linspace(0.05, 1.5, 30) / amp_max
    sig = data.sigma if data.sigma is not None else np.ones_like(data.y)
    curves = model.fn(data.x, (candidates,))
    return candidates, np.sum(((curves - data.y) / sig) ** 2, axis=1)


def fit_beta(
    data: DataSeries,
    params: TransmonParams,
    phi_dc: float = 0.0,
    p: int = DEFAULT_ORDER,
) -> FitResult:
    """Calibrate phi_ac = beta * A_p against measured average frequencies."""
    if not math.isfinite(phi_dc):
        raise ValueError(f"phi_dc must be finite, got {phi_dc}")
    model = beta_model(params, phi_dc, p)
    amp_max = float(np.abs(data.x).max())
    if amp_max == 0:
        raise ValueError("amplitude axis is identically zero")
    candidates, sse = _beta_scan(model, data, amp_max)
    beta0 = float(candidates[int(np.argmin(sse))])
    result = least_squares(model, data, [beta0])
    beta = abs(result.params["beta"])
    flags = result.flags + (
        f"only the product beta*A_p is constrained; max |phi_ac| covered = {beta * amp_max:.4g} Phi0",
    )
    return replace(result, params={"beta": beta}, flags=flags)
