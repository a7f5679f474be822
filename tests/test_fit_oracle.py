"""The numpy Levenberg-Marquardt engine against MINPACK.

scipy.optimize is the oracle here and only here.  ``minpack_least_squares``
is the engine the fits ran on before: scipy's ``least_squares`` with
method "lm", the same tolerances and evaluation cap, MINPACK's scaling by
the Jacobian column norms (x_scale="jac", pinned because the default
changed in scipy 1.16) and the same covariance.  Each fit runs on both
engines through the ``fitting.least_squares`` module global.
"""

import json

import numpy as np
import pytest
import scipy.optimize

from fluxline import fitting
from fluxline.config import load_config
from fluxline.transmon import TransmonParams, levels

from conftest import EXAMPLE_CONFIG, FIXTURES

# |ours - MINPACK| per parameter, in MINPACK's standard errors
PARAM_SIGMAS = 1e-3
# relative residual norm
NORM_RTOL = 1e-9


def minpack_least_squares(model, data, initial_guess, flags=()):
    theta0 = np.asarray(initial_guess, dtype=float)
    n_par = len(model.names)
    sig = data.sigma if data.sigma is not None else np.ones_like(data.y)

    def residuals(theta):
        return (model.fn(data.x, theta) - data.y) / sig

    res = scipy.optimize.least_squares(
        residuals, theta0, jac=lambda theta: model.jac(data.x, theta) / sig[:, None],
        method="lm", x_scale="jac",
        gtol=fitting.GRADIENT_TOL, xtol=1e-12, ftol=1e-12,
        max_nfev=fitting.MAX_ITERATIONS * (n_par + 1),
    )
    cov = np.linalg.inv(res.jac.T @ res.jac)
    if data.sigma is None:
        cov = cov * (2.0 * res.cost / max(data.x.size - n_par, 1))
    return fitting.FitResult(
        params=dict(zip(model.names, map(float, res.x))),
        std_errors=dict(zip(model.names, map(float, np.sqrt(np.diag(cov))))),
        residual_norm=float(np.linalg.norm(res.fun)),
        converged=res.status > 0,
        iterations=int(res.nfev),
        flags=flags,
    )


def both_engines(monkeypatch, fit):
    ours = fit()
    with monkeypatch.context() as m:
        m.setattr(fitting, "least_squares", minpack_least_squares)
        ref = fit()
    return ours, ref


def assert_agrees(ours, ref, label, noise_floor=False):
    """Same optimum as MINPACK.

    With noise_floor the residuals carry rounding noise above the 1e-12
    cost tolerance (the exact levels in the tuning refinement): MINPACK may
    stop up to ~1e-8 short of the minimum there, so the residual norm may
    only not be larger than MINPACK's.
    """
    assert ours.converged == ref.converged, label
    for name, value in ref.params.items():
        assert abs(ours.params[name] - value) <= PARAM_SIGMAS * ref.std_errors[name], (label, name)
    assert ours.residual_norm <= ref.residual_norm * (1.0 + NORM_RTOL), label
    if not noise_floor:
        assert ours.residual_norm >= ref.residual_norm * (1.0 - NORM_RTOL), label


def read_fixture(name):
    table = np.loadtxt(FIXTURES / name, delimiter=",", skiprows=1)
    return fitting.DataSeries(x=table[:, 0], y=table[:, 1])


def test_fixtures(monkeypatch):
    q0 = load_config(EXAMPLE_CONFIG).qubit("q0").params
    fits = {
        "t1": lambda: fitting.fit_t1(read_fixture("t1_53us.csv")),
        "ramsey": lambda: fitting.fit_ramsey(read_fixture("ramsey_10us.csv")),
        "rb": lambda: fitting.fit_rb(read_fixture("rb_decay.csv")),
        "tuning": lambda: fitting.fit_tuning_curve(read_fixture("tuning_q0.csv")),
        "beta": lambda: fitting.fit_beta(read_fixture("beta_q0.csv"), q0),
    }
    for kind, fit in fits.items():
        assert_agrees(*both_engines(monkeypatch, fit), kind)


def device_fits(ratio, rng):
    """The five fits of one new device's bring-up, on seeded data."""
    e_c, total = rng.uniform(170.0, 200.0), rng.uniform(9500.0, 12500.0)
    e_j2 = total / (1.0 + ratio)
    params = TransmonParams(e_c=e_c, e_j1=total - e_j2, e_j2=e_j2)
    # tuning: 13 currents over 1.2 flux periods, 1 MHz noise
    a_per, offset = rng.uniform(0.8e-3, 1.5e-3), rng.uniform(-0.1, 0.1)
    phi = np.linspace(-0.6, 0.6, 13)
    tuning = fitting.DataSeries(
        x=(phi - offset) * a_per, y=levels(params, phi)[0] + rng.normal(0.0, 1.0, phi.size)
    )
    amps = np.linspace(0.0, 0.45, 41)
    beta_y = fitting.beta_model(params, 0.0).fn(amps, np.array([rng.uniform(0.4, 0.55)]))
    beta = fitting.DataSeries(x=amps, y=beta_y + rng.normal(0.0, 0.5, amps.size))
    t1_truth = [rng.uniform(0.8, 1.0), rng.uniform(20.0, 80.0), rng.uniform(0.0, 0.1)]
    t = np.linspace(1.0, 5.0 * t1_truth[1], 53)
    t1 = fitting.DataSeries(x=t, y=fitting.T1_MODEL.fn(t, np.array(t1_truth)) + rng.normal(0.0, 3e-3, t.size))
    ram_truth = [rng.uniform(0.3, 0.5), rng.uniform(5.0, 20.0), rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5), 0.5]
    t = np.linspace(0.05, 3.0 * ram_truth[1], 151)
    ramsey = fitting.DataSeries(
        x=t, y=fitting.RAMSEY_MODEL.fn(t, np.array(ram_truth)) + rng.normal(0.0, 3e-3, t.size)
    )
    n = np.arange(1.0, 801.0, 25.0)
    rb_y = fitting.RB_MODEL.fn(n, np.array([rng.uniform(0.4, 0.5), rng.uniform(0.99, 0.998), 0.5]))
    rb = fitting.DataSeries(x=n, y=rb_y + rng.normal(0.0, 2e-3, n.size))
    return {
        "tuning": lambda: fitting.fit_tuning_curve(tuning),
        "tuning refined": lambda: fitting.fit_tuning_curve(tuning, use_diagonalization=True),
        "beta": lambda: fitting.fit_beta(beta, params),
        "t1": lambda: fitting.fit_t1(t1),
        "ramsey": lambda: fitting.fit_ramsey(ramsey),
        "rb": lambda: fitting.fit_rb(rb),
    }


@pytest.mark.parametrize("ratio", [0.24, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98])
def test_device_bring_up(monkeypatch, ratio):
    rng = np.random.default_rng([20210901, int(round(100 * ratio))])
    for kind, fit in device_fits(ratio, rng).items():
        ours, ref = both_engines(monkeypatch, fit)
        label = json.dumps({"ratio": ratio, "fit": kind})
        assert_agrees(ours, ref, label, noise_floor=kind == "tuning refined")
