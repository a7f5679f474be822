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
  undefined, and the standard errors are NaN with a flag, as is a negative
  variance (J^T J singular to rounding).

Every model ships its analytic Jacobian (``Model.jac`` is required), and
the test suite cross-checks each against forward differences.  Both
tuning models come from one factory, _tuning_model, which takes f and its
partials in E_J and E_C and adds the chain rule through E_J(phi); the
tuning refinement on exact levels takes f01 and its slope in
q = E_J/(2 E_C) from one call of transmon's level kernel.  E_J(phi) and
the closed-form f01 come from transmon.  Both stages walk U_i = 8 E_C E_Ji
in place of the junction energies, where the closed form's E_C-E_J valley
is nearly straight, and report the energies.  Both tuning models take
(e_j1, e_j2, e_c, amps_per_phi0, phi_offset); a fixed E_C is held in one
place, _hold_e_c, which _fit_in_u wraps around them.  The engine loads
no scipy; the test suite checks it against MINPACK's lmder through scipy.
The model factories that need modulation, specfun or transmon import them,
so the T1, Ramsey and benchmarking fits load none of them, nor config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import ConvergenceError

if TYPE_CHECKING:
    from .transmon import TransmonParams

__all__ = [
    "DataSeries",
    "FitResult",
    "FitError",
    "Model",
    "T1_MODEL",
    "RAMSEY_MODEL",
    "RB_MODEL",
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


class FitError(ConvergenceError):
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
            if not (np.isfinite(s) & (s > 0)).all():
                raise ValueError("sigma values must be finite and > 0")


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
    if not (math.isfinite(cost) and np.isfinite(jac.T @ jac).all()):
        raise ValueError("r.r or J^T J is not finite at the initial guess: rescale the data or sigma")
    scale = np.zeros(theta.size)
    lam, nu = _DAMPING_0, 2.0
    while True:
        jtj = jac.T @ jac
        col_norm = np.sqrt(jtj.diagonal())
        neg_grad = -(jac.T @ r)
        if (np.abs(neg_grad) <= GRADIENT_TOL * math.sqrt(cost) * col_norm).all():
            return theta, r, jac, nfev, True
        scale = np.maximum(scale, col_norm)
        scale[scale == 0.0] = 1.0
        d2 = scale * scale
        while True:
            damped = jtj.copy()
            damped.flat[:: theta.size + 1] += lam * d2
            try:
                step = np.linalg.solve(damped, neg_grad)
            except np.linalg.LinAlgError as exc:
                raise FitError("singular damped normal equations J^T J + lam D^2") from exc
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


def least_squares(model: Model, data: DataSeries, initial_guess) -> FitResult:
    """Weighted Levenberg-Marquardt fit of a model to a data series."""
    theta0 = np.asarray(initial_guess, dtype=float)
    n_par = len(model.names)
    if theta0.shape != (n_par,):
        raise ValueError(f"initial guess must have {n_par} entries, got {theta0.shape}")
    if data.x.size < n_par:
        raise ValueError(
            f"need at least {n_par} points for {n_par} parameters, got {data.x.size}"
        )
    sig = data.sigma

    def residuals(theta):
        r = model.fn(data.x, theta) - data.y
        return r if sig is None else r / sig

    def jacobian(theta):
        jac = model.jac(data.x, theta)
        return jac if sig is None else jac / sig[:, None]

    # a far trial step may overflow the residuals and their cost: no warning,
    # since the engine counts a non-finite trial as a rise, a non-finite start an error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta, r, jac, nfev, converged = _levenberg_marquardt(
            residuals, jacobian, theta0, MAX_ITERATIONS * (n_par + 1)
        )

    errs = _standard_errors(jac, float(r @ r), data)
    if data.sigma is None and data.x.size == n_par:
        flags = ("standard errors undefined: an unweighted fit needs more points than parameters, or sigma",)
    else:
        flags = ("standard errors undefined: J^T J is singular to rounding",) if np.isnan(errs).any() else ()

    return FitResult(
        params=dict(zip(model.names, (float(v) for v in theta))),
        std_errors=dict(zip(model.names, (float(e) for e in errs))),
        residual_norm=float(np.linalg.norm(r)),
        converged=converged,
        iterations=nfev,
        flags=flags,
        model=model,
    )


def _standard_errors(jac: np.ndarray, cost: float, data: DataSeries) -> np.ndarray:
    """Standard errors from the weighted Jacobian at the optimum, where the
    cost is the weighted sum of squares; for unweighted data the residual
    variance sets the noise scale, which as many points as parameters do
    not determine (NaN errors then).  A negative variance, from a J^T J
    singular to rounding, gives a NaN error too, not 0; a J^T J that
    overflows raises FitError, as a singular one does."""
    with np.errstate(over="ignore", invalid="ignore"):
        jtj = jac.T @ jac
    if not np.isfinite(jtj).all():
        raise FitError("J^T J is not finite at the optimum")
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError as exc:
        raise FitError("singular Jacobian at the optimum") from exc
    if not np.isfinite(cov).all():
        raise FitError("singular Jacobian at the optimum")
    if data.sigma is None:
        dof = data.x.size - jac.shape[1]
        cov = cov * (cost / dof if dof else math.nan)
    return np.sqrt(np.where(np.diag(cov) >= 0.0, np.diag(cov), math.nan))


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
    return _flag_nonpositive(least_squares(T1_MODEL, data, [a0, t1_0, b0]), "T1")


def fit_ramsey(data: DataSeries) -> FitResult:
    """Decaying-cosine fit; time in microseconds, delta_f in MHz."""
    t, y = _sorted_by_x(data)
    if _degenerate(data.y):
        return _degenerate_result(RAMSEY_MODEL, [0.0, 1.0, 0.0, 0.0, float(np.mean(data.y))], data)
    b0 = float(np.mean(y))
    centered = y - b0
    delta0, peak = _dominant_component(t, centered)
    phase0 = float(np.angle(peak))
    with np.errstate(over="ignore"):  # an infinite a0 fails as a non-finite start
        a0 = math.sqrt(2.0) * float(np.std(centered))
    t2_0 = float(t[-1] - t[0]) / 3.0 or 1.0
    return _flag_nonpositive(least_squares(RAMSEY_MODEL, data, [a0, t2_0, delta0, phase0, b0]), "T2_star")


def _flag_nonpositive(result: FitResult, name: str) -> FitResult:
    """result, flagged when its decay time `name` is not positive: a
    concave decay fits best as a rise with a negative time constant."""
    value = result.params[name]
    if value > 0.0:
        return result
    return replace(result, flags=result.flags + (f"decay time {name}={value:.6g} not positive",))


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

_TUNING_NAMES = ("e_j1", "e_j2", "e_c", "amps_per_phi0", "phi_offset")


def _tuning_model(level, partials) -> Model:
    """The tuning model f(E_J(phi), E_C) whose f is level(ej, ec), with
    df/dE_J and df/dE_C at fixed E_J from partials(ej, ec).  The chain rule
    through transmon's E_J(phi) of |E_J1|, |E_J2| at phi = I/a + phi_0
    gives the columns, with S, D = |E_J2| +- |E_J1|: dE_J/d|E_J1|, d|E_J2|
    = (S cos^2 pi phi -+ D sin^2 pi phi) / E_J, dE_J/dphi = -4 pi |E_J1
    E_J2| sin pi phi cos pi phi / E_J.  The junction columns carry their signs.
    """
    from .transmon import _squid_ej

    def fn(current, th):
        ej1, ej2, ec, amps_per_phi0, off = th
        return level(_squid_ej(abs(ej1), abs(ej2), current / amps_per_phi0 + off, np)[0], ec)

    def jac(current, th):
        ej1, ej2, ec, amps_per_phi0, off = th
        a1, a2 = abs(ej1), abs(ej2)
        ej, c, s = _squid_ej(a1, a2, current / amps_per_phi0 + off, np)
        df_dej, df_dec = partials(ej, ec)
        sum_c2, diff_s2 = (a1 + a2) * c * c, (a2 - a1) * s * s
        dej_d1 = math.copysign(1.0, ej1) * (sum_c2 - diff_s2) / ej
        dej_d2 = math.copysign(1.0, ej2) * (sum_c2 + diff_s2) / ej
        dej_dphi = -4.0 * np.pi * a1 * a2 * s * c / ej
        dphi_da = -current / amps_per_phi0**2
        return np.column_stack(
            [df_dej * dej_d1, df_dej * dej_d2, df_dec, df_dej * dej_dphi * dphi_da, df_dej * dej_dphi]
        )

    return Model(names=_TUNING_NAMES, fn=fn, jac=jac)


def tuning_curve_model() -> Model:
    from .transmon import _closed_form_f01

    # unclipped: E_C E_J < 0 gives NaN, which the engine counts as a rise
    def partials(ej, ec):
        f_plus_ec = np.sqrt(8.0 * ec * ej)
        return f_plus_ec / (2.0 * ej), f_plus_ec / (2.0 * ec) - 1.0

    return _tuning_model(_closed_form_f01, partials)


def _levels_tuning_model() -> Model:
    """The tuning curve on the exact f01 of :func:`transmon.levels`.

    At n_g = 0, f01 = f(q) with q = E_J(phi)/(2 E_C), and transmon's level
    kernel gives f and its slope f'(q) in one call: df/dE_J = f'/(2 E_C)
    and df/dE_C = (f - q f')/E_C at fixed E_J.  E_C <= 0 gives NaN (no
    table holds q < 0), as the closed form does below 0.
    """
    from .transmon import _at_q

    def at_q(ej, ec, second):
        q = ej / (2.0 * ec) if ec > 0 else np.full(np.shape(ej), np.nan)
        return q, _at_q(q, ec, second)

    def partials(ej, ec):
        q, (f, slope) = at_q(ej, ec, "slope")
        return slope / (2.0 * ec), (f - q * slope) / ec

    return _tuning_model(lambda ej, ec: at_q(ej, ec, None)[1][0], partials)


def _hold_e_c(model: Model, e_c: float) -> Model:
    """A tuning model with E_C held at e_c: the model less its third
    parameter, e_c, and that column of its Jacobian."""

    def full(th):
        return np.concatenate([th[:2], [e_c], th[2:]])

    return Model(model.names[:2] + model.names[3:], lambda current, th: model.fn(current, full(th)),
                 lambda current, th: np.delete(model.jac(current, full(th)), 2, axis=1))


# Both stages of the tuning fit walk U_i = 8 E_C E_Ji in place of the
# junction energies.  There 8 E_C E_J(phi) depends on U1, U2 and phi alone,
# so E_C enters the closed form only as an offset, and the curved E_C-E_J
# valley of the energies, where the closed-form stage took 33 residual
# evaluations on average on bench devices and up to 221, becomes nearly
# straight (Transtrum & Sethna 2012 on such changes of variables for
# Levenberg-Marquardt).

def _energies(u) -> np.ndarray:
    """Tuning-model parameters from their U form: E_Ji = U_i / (8 E_C)."""
    theta = np.array(u, dtype=float)
    theta[:2] /= 8.0 * theta[2]
    return theta


def _in_u(model: Model) -> Model:
    """model with its junction energies replaced by U_i = 8 E_C E_Ji.

    One column map serves both tuning models: d/dU_i = (d/dE_Ji) / 8 E_C,
    and at fixed U, d/dE_C = d/dE_C - sum_i E_Ji (d/dE_Ji) / E_C.
    """

    def jac(current, u):
        theta = _energies(u)
        j = model.jac(current, theta)
        ec = theta[2]
        u_jac = j.copy()
        u_jac[:, :2] /= 8.0 * ec
        u_jac[:, 2] -= (j[:, :2] @ theta[:2]) / ec
        return u_jac

    return Model(("u1", "u2") + model.names[2:], lambda current, u: model.fn(current, _energies(u)), jac)


def _fit_in_u(model: Model, data: DataSeries, theta0, fixed_e_c: float | None) -> FitResult:
    """least_squares on a tuning model from the five-vector theta0, walked in
    U, with E_C held at fixed_e_c if set; the result in the model's own
    parameters (less e_c if held), with standard errors from their Jacobian
    at the optimum.  That is the value of the energy Jacobian's latest call:
    the engine evaluates J only at its start and after an accepted step, so
    at the point it returns, and so does MINPACK."""
    last = []

    def jac(current, th, full_jac=model.jac):  # bound now: model is held below
        last[:] = [full_jac(current, th)]
        return last[0]

    walk = _in_u(replace(model, jac=jac))
    u0 = np.array(theta0, dtype=float)
    u0[:2] *= 8.0 * u0[2]
    if fixed_e_c is not None:
        model, walk, u0 = _hold_e_c(model, fixed_e_c), _hold_e_c(walk, fixed_e_c), np.delete(u0, 2)
    fit = least_squares(walk, data, u0)
    theta = np.array(list(fit.params.values()))
    theta[:2] /= 8.0 * (theta[2] if fixed_e_c is None else fixed_e_c)
    energy_jac = last[0] if fixed_e_c is None else np.delete(last[0], 2, axis=1)
    if data.sigma is not None:
        energy_jac = energy_jac / data.sigma[:, None]
    errs = _standard_errors(energy_jac, fit.residual_norm**2, data)
    return replace(
        fit,
        params=dict(zip(model.names, (float(v) for v in theta))),
        std_errors=dict(zip(model.names, (float(e) for e in errs))),
        model=model,
    )


# a fixed E_C below this fraction of the data's f_max puts the start guess
# at E_J/E_C = (f_max/E_C + 1)^2/8 > 1e11, eight decades past any transmon
# (with the fixture's f_max, E_J^2 overflows below E_C ~ 1e-148 MHz).
# Above f_max/4 no E_J fits: the exact f01 at n_g = 0 is at least 4 E_C,
# its value at E_J = 0
_FIXED_EC_MIN_PER_FMAX = 1e-6

# the start guess squares the data's frequencies, E_J ~ (f + E_C)^2/(8 E_C),
# as does the sinusoid fit of the period, and the model squares E_J: numpy
# overflows from |f| ~ 1e78 MHz, and the start guess raises OverflowError
# from ~1.3e154 MHz
_FREQUENCY_MAX_MHZ = 1e60


# the frequencies _sinusoid_peak tries, in rfft bins from the top bin: a
# grid of 1/20 bin, zero frequency excluded
_SINUSOID_GRID_BINS = np.linspace(-1.0, 1.0, 41)[1:]


def _sinusoid_peak(x: np.ndarray, centered: np.ndarray):
    """Frequency nu, and (a, b) of the sinusoid a cos 2 pi nu x + b sin 2 pi nu x
    plus a constant, that fits centered(x) best by least squares: the peak of
    the generalized Lomb-Scargle periodogram (Zechmeister & Kuerster 2009),
    searched on a grid of 1/20 bin within a bin of the top rfft bin.

    Over a few periods the rfft bins are too coarse (with 13 samples over 1.2
    periods the top one puts the period ~30% off) and the plain periodogram's
    peak is pulled off the frequency by the overlap of the two signed
    frequencies; the fitted sinusoid is not.  Grid points where the cosine
    and sine columns are nearly parallel (the Nyquist frequency of uniform
    samples) are skipped.
    """
    top = _dominant_component(x, centered)[0]
    # the rfft's bin width, 1/(n mean spacing); the top bin is bin 1 or higher
    grid = top + _SINUSOID_GRID_BINS * ((x.size - 1) / (x.size * float(x[-1] - x[0])))
    arg = 2.0 * np.pi * np.outer(grid, x)
    # the free constant: regress on the columns less their means
    c, s = np.cos(arg), np.sin(arg)
    c -= c.mean(axis=1, keepdims=True)
    s -= s.mean(axis=1, keepdims=True)
    cc, ss, cs = (c * c).sum(axis=1), (s * s).sum(axis=1), (c * s).sum(axis=1)
    yc, ys = c @ centered, s @ centered
    det = cc * ss - cs * cs
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (yc * ss - ys * cs) / det
        b = (ys * cc - yc * cs) / det
        explained = np.where(det > 1e-9 * cc * ss, a * yc + b * ys, -np.inf)
    k = int(np.argmax(explained))
    return float(grid[k]), float(a[k]), float(b[k])


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
    refinement's model.  Both stages walk U_i = 8 E_C E_Ji in place of the
    junction energies, where the closed form's E_C-E_J valley is nearly
    straight, and report the energies, with standard errors from the
    energies' Jacobian at the optimum.  The period and flux offset start
    from the sinusoid that fits the data best (_sinusoid_peak).  A
    refinement residual costs one exact-f01 call of transmon's level kernel
    (without its f12), and a refinement Jacobian one call that gives f01
    with its slope in q, plus the chain rule (see _tuning_model).
    The frequencies must lie within +-1e60 MHz, and a fixed E_C between
    1e-6 and 1/4 of the data's largest frequency.
    """
    if data.x.size < 6:
        raise ValueError("tuning-curve fit needs at least 6 points")
    if fixed_e_c is not None and not (math.isfinite(fixed_e_c) and fixed_e_c > 0):
        raise ValueError(f"fixed_e_c must be finite and > 0, got {fixed_e_c}")
    cur, f = _sorted_by_x(data)

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
    # f01 peaks at phi = I/a + phi_0 = 0, and its first flux harmonic is
    # positive: the period and the offset from the best-fitting sinusoid,
    # cos(2 pi (I/a + phi_0)) = cos(2 pi I/a - atan2(b, a_cos))
    freq0, a_cos, b_sin = _sinusoid_peak(cur, f - np.mean(f))
    a0 = 1.0 / freq0
    off0 = -math.atan2(b_sin, a_cos) / (2.0 * np.pi)
    ec0 = fixed_e_c if fixed_e_c is not None else 200.0
    ej_sum0 = (fmax0 + ec0) ** 2 / (8.0 * ec0)
    ej_diff0 = (fmin0 + ec0) ** 2 / (8.0 * ec0)
    ej1_0 = max(0.5 * (ej_sum0 - ej_diff0), 1.0)
    ej2_0 = 0.5 * (ej_sum0 + ej_diff0)

    result = _fit_in_u(tuning_curve_model(), data, [ej1_0, ej2_0, ec0, a0, off0], fixed_e_c)
    if use_diagonalization:
        start = [result.params.get(name, fixed_e_c) for name in _TUNING_NAMES]
        result = _fit_in_u(_levels_tuning_model(), data, start, fixed_e_c)

    # the flags judge the stage returned.  Span judged with the fitted
    # period: the start guess searches only within a bin of the top rfft
    # bin and is blind to sub-period data.  Sub-period data may also alias
    # to a bogus short period, which shows up as an exploding
    # junction-energy covariance instead.
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

    params, errs = _normalize_tuning(result.params, result.std_errors)
    return replace(result, params=params, std_errors=errs, flags=flags)


# --- flux-pulse amplitude calibration ----------------------------------------

def beta_model(params: TransmonParams, phi_dc: float) -> Model:
    """Time-averaged frequency vs instrument amplitude, parameter beta, from
    the harmonic series of order DEFAULT_ORDER.  An evaluation takes J0 of
    its arguments and the Jacobian J1, each in its own kernel pass."""
    from .modulation import DEFAULT_ORDER, _harmonic_phases, harmonic_series
    from .specfun import bessel_j0, bessel_j1

    wn = 2.0 * np.pi * np.arange(DEFAULT_ORDER + 1)
    cn = np.array(harmonic_series(params, DEFAULT_ORDER)) * np.cos(_harmonic_phases("phi_dc", phi_dc, wn))

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
        j1 = bessel_j1((wn[1:] * abs(th[0]))[:, None] * amp)
        col = (cn[1:, None] * (-j1 * wn[1:, None] * amp)).sum(axis=0)
        return (sign * col)[:, None]

    return Model(names=("beta",), fn=fn, jac=jac)


def _beta_scan(model: Model, data: DataSeries, amp_max: float):
    """Deterministic coarse scan, as the chi^2 landscape in beta is
    multimodal: 30 candidate betas and their weighted sums of squares,
    scored by one model evaluation over all of them."""
    candidates = np.linspace(0.05, 1.5, 30) / amp_max
    residuals = model.fn(data.x, (candidates,)) - data.y
    if data.sigma is not None:
        residuals = residuals / data.sigma
    with np.errstate(over="ignore"):  # the engine rejects a start whose cost overflows
        return candidates, np.sum(residuals**2, axis=1)


def fit_beta(data: DataSeries, params: TransmonParams, phi_dc: float = 0.0) -> FitResult:
    """Calibrate phi_ac = beta * A_p against measured average frequencies."""
    if not math.isfinite(phi_dc):
        raise ValueError(f"phi_dc must be finite, got {phi_dc}")
    model = beta_model(params, phi_dc)
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
