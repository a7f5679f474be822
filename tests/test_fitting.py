"""Fit engine and model roundtrips: noise-free, noisy (fixed seed), Jacobians."""

import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fluxline import fitting
from fluxline.fitting import (
    RAMSEY_MODEL,
    RB_MODEL,
    T1_MODEL,
    DataSeries,
    Model,
    beta_model,
    fit_beta,
    fit_rb,
    fit_ramsey,
    fit_t1,
    fit_tuning_curve,
    least_squares,
    tuning_curve_model,
    _normalize_tuning,
)
from fluxline.modulation import harmonic_series
from fluxline.specfun import bessel_j0, bessel_j1
from fluxline.transmon import TransmonParams, f01_asymptotic, levels

from conftest import CONCAVE_T1_ROWS, FIXTURES

SEED = 20210901
NOISE_FRACTION = 0.02  # of the signal span, per the roundtrip contract

# a straight line, for the engine's sanity checks
LINEAR_MODEL = Model(
    names=("slope", "intercept"),
    fn=lambda x, th: th[0] * x + th[1],
    jac=lambda x, th: np.column_stack([x, np.ones_like(x)]),
)


def noisy(y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return y + rng.normal(0.0, NOISE_FRACTION * np.ptp(y), y.size)


class TestEngine:
    def test_linear_exact(self):
        x = np.linspace(0.0, 10.0, 20)
        data = DataSeries(x=x, y=2.0 * x + 1.0)
        res = least_squares(LINEAR_MODEL, data, [1.0, 0.0])
        assert res.converged
        assert res.params["slope"] == pytest.approx(2.0, rel=1e-10)
        assert res.params["intercept"] == pytest.approx(1.0, abs=1e-9)
        assert res.residual_norm < 1e-10

    def test_deterministic(self):
        x = np.linspace(0.0, 100.0, 40)
        y = T1_MODEL.fn(x, np.array([1.0, 30.0, 0.1]))
        y = y + np.sin(13.0 * x) * 0.01  # deterministic pseudo-noise
        data = DataSeries(x=x, y=y)
        a = least_squares(T1_MODEL, data, [0.9, 25.0, 0.0])
        b = least_squares(T1_MODEL, data, [0.9, 25.0, 0.0])
        assert a == b

    def test_weighted_residuals(self):
        x = np.linspace(0.0, 10.0, 12)
        y = 2.0 * x + 1.0
        sig = np.full_like(x, 0.5)
        res = least_squares(LINEAR_MODEL, DataSeries(x=x, y=y, sigma=sig), [1.5, 0.5])
        assert res.params["slope"] == pytest.approx(2.0, rel=1e-10)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="points"):
            least_squares(T1_MODEL, DataSeries(x=np.array([1.0, 2.0]), y=np.array([1.0, 2.0])), [1, 1, 1])

    def test_exact_determination_has_undefined_errors(self):
        # as many points as parameters: the residuals vanish and set no
        # noise scale, so unweighted errors are undefined, not ~1e-16
        data = DataSeries(x=np.array([1.0, 20.0, 60.0]), y=np.array([0.9, 0.5, 0.2]))
        res = fit_t1(data)
        assert res.converged
        assert all(math.isnan(e) for e in res.std_errors.values())
        assert res.flags == (
            "standard errors undefined: an unweighted fit needs more points than parameters, or sigma",
        )
        # with sigma the errors come from the weights alone
        weighted = fit_t1(replace(data, sigma=np.full(3, 0.01)))
        assert weighted.params == pytest.approx(res.params, rel=1e-9) and weighted.flags == ()
        assert all(0.0 < e < math.inf for e in weighted.std_errors.values())
        # one point more and the unweighted errors are defined again
        more = fit_t1(DataSeries(x=np.array([1.0, 20.0, 40.0, 60.0]), y=np.array([0.9, 0.5, 0.31, 0.2])))
        assert more.flags == () and all(0.0 < e < math.inf for e in more.std_errors.values())

    def test_negative_variance_is_nan_with_flag(self):
        # columns (1, 1, 1) and (1, 1 + 2^-27, 1 + 2^-26): J^T J rounds to
        # [[3, 3 + 3 2^-27], [3 + 3 2^-27, 3 + 3 2^-26]], whose determinant
        # is -9 2^-54, so both diagonal entries of its inverse are negative;
        # an error of 0.0 there would claim an exactly known parameter
        x = np.array([0.0, 1.0, 2.0])
        jac = np.column_stack([np.ones(3), 1.0 + x * 2.0**-27])
        model = Model(("a", "b"), lambda x, th: jac @ th, lambda x, th: jac)
        data = DataSeries(x=x, y=jac @ np.array([1.0, 2.0]), sigma=np.ones(3))
        assert (np.diag(np.linalg.inv(jac.T @ jac)) < 0.0).all()
        assert np.isnan(fitting._standard_errors(jac, 0.0, data)).all()
        res = least_squares(model, data, [1.0, 2.0])
        assert res.converged and all(math.isnan(e) for e in res.std_errors.values())
        assert res.flags == ("standard errors undefined: J^T J is singular to rounding",)

    def test_arity_check(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="initial guess"):
            least_squares(LINEAR_MODEL, DataSeries(x=x, y=x), [1.0])

    def test_evaluation_cap_is_not_converged(self, monkeypatch):
        from fluxline import fitting

        x = np.linspace(1.0, 200.0, 31)
        data = DataSeries(x=x, y=T1_MODEL.fn(x, np.array([0.9, 47.0, 0.07])))
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        res = least_squares(T1_MODEL, data, [0.2, 5.0, 0.5])
        assert not res.converged
        assert res.iterations == 4  # MAX_ITERATIONS * (n_par + 1)
        monkeypatch.undo()
        assert least_squares(T1_MODEL, data, [0.2, 5.0, 0.5]).converged

    @pytest.mark.parametrize("max_iterations,start", [(fitting.MAX_ITERATIONS, [0.2, 5.0, 0.5]), (2, [0.2, 0.5, 0.5])],
                             ids=["converged", "evaluation-cap"])
    def test_last_jacobian_is_at_the_returned_point(self, monkeypatch, max_iterations, start):
        # the engine evaluates J only at its start and after an accepted
        # step, so its latest J is at the point it returns, bit for bit: the
        # tuning fit takes its standard errors from that J
        x = np.linspace(1.0, 200.0, 31)
        data = DataSeries(x=x, y=T1_MODEL.fn(x, np.array([0.9, 47.0, 0.07])))
        fn_at, jac_at = [], []

        def recorded(fn, at):
            return lambda t, th: at.append(th.tobytes()) or fn(t, th)

        model = Model(T1_MODEL.names, recorded(T1_MODEL.fn, fn_at), recorded(T1_MODEL.jac, jac_at))
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", max_iterations)
        res = least_squares(model, data, start)
        theta = np.array([res.params[name] for name in model.names]).tobytes()
        assert jac_at[-1] == theta
        if max_iterations == 2:
            # the cap stops it after an accepted step and a rejected trial
            assert not res.converged and res.iterations == 8 and len(jac_at) == 2
            assert fn_at[-1] != theta
        else:
            assert res.converged

    def test_singular_damped_step_is_a_fit_error(self):
        # negated sequence lengths drive p to 1, where the amplitude's column
        # p^n equals the offset's to rounding: a numerical failure, not bad input
        n, y = np.loadtxt(FIXTURES / "rb_decay.csv", delimiter=",", skiprows=1, unpack=True)
        with pytest.raises(fitting.FitError, match=r"^singular damped normal equations J\^T J \+ lam D\^2$"):
            fit_rb(DataSeries(x=-n, y=y))

    def test_nonfinite_initial_residuals_rejected(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="not finite at the initial guess"):
            least_squares(LINEAR_MODEL, DataSeries(x=x, y=x), [math.nan, 0.0])

    @pytest.mark.parametrize("kind, seed", [("t1", 86), ("t1", 193), ("ramsey", 168)])
    def test_far_trial_steps_are_silent(self, kind, seed):
        # noisy decays on which a trial step sends T1 or T2* far enough to
        # overflow exp or the trial cost; the trial counts as a rise, with
        # no numpy warning (the suite turns RuntimeWarning into an error)
        rng = np.random.default_rng(seed)
        if kind == "t1":
            t = np.linspace(1.0, 250.0, 53)
            decay = rng.uniform(42.0, 44.0)
            truth = [rng.uniform(0.8, 1.0), decay, rng.uniform(0.0, 0.1)]
            model, fit = T1_MODEL, fit_t1
        else:
            t = np.linspace(0.05, 40.0, 151)
            decay = rng.uniform(5.0, 20.0)
            truth = [0.4, decay, rng.uniform(0.3, 1.0), rng.uniform(-0.5, 0.5), 0.5]
            model, fit = RAMSEY_MODEL, fit_ramsey
        y = model.fn(t, np.array(truth)) + rng.normal(0.0, 0.02, t.size)
        res = fit(DataSeries(x=t, y=y))
        assert res.converged
        assert res.params[model.names[1]] == pytest.approx(decay, rel=0.2)

    def test_sigma_validation(self):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="sigma"):
            DataSeries(x=x, y=x, sigma=np.zeros_like(x))

    @pytest.mark.parametrize("sigma", [np.full(5, np.inf), np.array([0.1, 0.1, np.inf, 0.1, 0.1])],
                             ids=["all-inf", "one-inf"])
    def test_nonfinite_sigma_rejected(self, sigma):
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="^sigma values must be finite and > 0$"):
            DataSeries(x=x, y=x, sigma=sigma)

    def test_scale_equivariance(self):
        x = np.linspace(0.0, 150.0, 50)
        y = T1_MODEL.fn(x, np.array([0.8, 40.0, 0.1]))
        scale = 7.5
        a = fit_t1(DataSeries(x=x, y=y))
        b = fit_t1(DataSeries(x=x, y=scale * y))
        assert b.params["T1"] == pytest.approx(a.params["T1"], rel=1e-8)
        assert b.params["A"] == pytest.approx(scale * a.params["A"], rel=1e-8)
        assert b.params["B"] == pytest.approx(scale * a.params["B"], abs=1e-8)
        assert b.std_errors["A"] == pytest.approx(scale * a.std_errors["A"], rel=1e-6)


def finite_difference_jacobian(model: Model, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    cols = []
    for j in range(theta.size):
        h = 1e-7 * max(abs(theta[j]), 1e-3)
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        cols.append((model.fn(x, up) - model.fn(x, dn)) / (2.0 * h))
    return np.column_stack(cols)


def forward_jacobian(residuals, theta: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian with step sqrt(eps)*|theta_j| (sqrt(eps) at 0)."""
    r, h = residuals(theta), math.sqrt(np.finfo(float).eps)
    cols = []
    for j in range(theta.size):
        shifted = theta.copy()
        shifted[j] += h * abs(theta[j]) or h
        # the step as represented, so the quotient is exact in its denominator
        cols.append((residuals(shifted) - r) / (shifted[j] - theta[j]))
    return np.column_stack(cols)


class TestJacobians:
    CASES = [
        (T1_MODEL, np.linspace(1.0, 200.0, 31), np.array([0.9, 47.0, 0.07])),
        (RAMSEY_MODEL, np.linspace(0.1, 25.0, 41), np.array([0.4, 9.0, 0.45, 0.2, 0.5])),
        (RB_MODEL, np.arange(1.0, 700.0, 30.0), np.array([0.5, 0.995, 0.5])),
        (LINEAR_MODEL, np.linspace(-3.0, 3.0, 13), np.array([1.7, -0.3])),
        (
            tuning_curve_model(),
            np.linspace(-0.7e-3, 0.7e-3, 25),
            np.array([2140.0, 9040.0, 182.0, 1.2e-3, 0.05]),
        ),
        (
            fitting._hold_e_c(tuning_curve_model(), 182.0),
            np.linspace(-0.7e-3, 0.7e-3, 25),
            np.array([2140.0, 9040.0, 1.2e-3, 0.05]),
        ),
        # junction energies enter as magnitudes: their columns carry their signs
        (
            tuning_curve_model(),
            np.linspace(-0.7e-3, 0.7e-3, 25),
            np.array([-2140.0, 9040.0, 182.0, 1.2e-3, 0.05]),
        ),
        (
            fitting._hold_e_c(tuning_curve_model(), 182.0),
            np.linspace(-0.7e-3, 0.7e-3, 25),
            np.array([2140.0, -9040.0, 1.2e-3, 0.05]),
        ),
    ]

    @pytest.mark.parametrize("model,x,theta", CASES, ids=lambda v: getattr(v, "names", None) and "-".join(v.names) or None)
    def test_analytic_matches_finite_difference(self, model, x, theta):
        analytic = model.jac(x, theta)
        numeric = finite_difference_jacobian(model, x, theta)
        # per column: a wrong small column hides under the largest one's scale
        scale = np.abs(analytic).max(axis=0)
        assert np.allclose(analytic, numeric, atol=1e-6 * scale, rtol=1e-6)

    def test_beta_model_jacobian(self, q0):
        model = beta_model(q0, 0.0)
        x = np.linspace(0.05, 1.4, 15)
        theta = np.array([0.51])
        analytic = model.jac(x, theta)
        numeric = finite_difference_jacobian(model, x, theta)
        scale = np.abs(analytic).max()
        assert np.allclose(analytic, numeric, atol=1e-6 * scale, rtol=1e-6)


class TestT1:
    def test_noise_free_roundtrip(self):
        t = np.linspace(1.0, 260.0, 53)
        data = DataSeries(x=t, y=T1_MODEL.fn(t, np.array([0.95, 53.0, 0.03])))
        res = fit_t1(data)
        assert res.converged
        assert res.params["T1"] == pytest.approx(53.0, rel=0.005)

    def test_noisy_roundtrip(self):
        rng = np.random.default_rng(SEED)
        t = np.linspace(1.0, 260.0, 80)
        y = noisy(T1_MODEL.fn(t, np.array([0.95, 53.0, 0.03])), rng)
        res = fit_t1(DataSeries(x=t, y=y))
        assert res.converged
        assert res.params["T1"] == pytest.approx(53.0, rel=0.05)

    def test_flat_data_flagged(self):
        t = np.linspace(0.0, 10.0, 20)
        res = fit_t1(DataSeries(x=t, y=np.full_like(t, 0.7)))
        assert not res.converged
        assert any("degenerate" in f for f in res.flags)

    def test_concave_decay_flagged(self):
        t, y = np.array(CONCAVE_T1_ROWS).T
        res = fit_t1(DataSeries(x=t, y=y))
        t1 = res.params["T1"]
        # converged, parameters as the engine left them: only the flag is new
        assert res.converged and t1 < 0.0 and res.params["A"] < 0.0
        assert res.flags == (f"decay time T1={t1:.6g} not positive",)

    def test_decay_not_flagged(self):
        t = np.linspace(1.0, 260.0, 53)
        assert fit_t1(DataSeries(x=t, y=T1_MODEL.fn(t, np.array([0.95, 53.0, 0.03])))).flags == ()


class TestRamsey:
    TRUTH = np.array([0.40, 10.0, 0.5, 0.3, 0.5])

    def test_noise_free_roundtrip(self):
        t = np.linspace(0.05, 30.0, 151)
        res = fit_ramsey(DataSeries(x=t, y=RAMSEY_MODEL.fn(t, self.TRUTH)))
        assert res.converged
        assert res.params["T2_star"] == pytest.approx(10.0, rel=0.005)
        assert res.params["delta_f"] == pytest.approx(0.5, rel=0.005)

    def test_noisy_roundtrip(self):
        rng = np.random.default_rng(SEED)
        t = np.linspace(0.05, 30.0, 151)
        y = noisy(RAMSEY_MODEL.fn(t, self.TRUTH), rng)
        res = fit_ramsey(DataSeries(x=t, y=y))
        assert res.converged
        assert res.params["T2_star"] == pytest.approx(10.0, rel=0.05)
        assert res.params["delta_f"] == pytest.approx(0.5, rel=0.05)

    def test_flat_data_flagged(self):
        t = np.linspace(0.0, 10.0, 30)
        res = fit_ramsey(DataSeries(x=t, y=np.ones_like(t)))
        assert not res.converged

    @pytest.mark.parametrize("sign", [1.0, -1.0, 0.0])
    def test_nonpositive_t2_flagged(self, monkeypatch, sign):
        # an engine optimum with T2* scaled by sign: the fit adds a flag
        # exactly when T2* <= 0, and keeps the parameters
        engine = fitting.least_squares

        def scaled(model, data, theta0):
            res = engine(model, data, theta0)
            return replace(res, params={**res.params, "T2_star": sign * res.params["T2_star"]})

        monkeypatch.setattr(fitting, "least_squares", scaled)
        t = np.linspace(0.05, 30.0, 151)
        res = fit_ramsey(DataSeries(x=t, y=RAMSEY_MODEL.fn(t, self.TRUTH)))
        t2 = res.params["T2_star"]
        assert res.converged and t2 == pytest.approx(sign * 10.0, rel=0.005, abs=0.0)
        assert res.flags == (() if sign > 0 else (f"decay time T2_star={t2:.6g} not positive",))


class TestRb:
    def test_fidelity_formula(self):
        n = np.arange(1.0, 801.0, 25.0)
        y = RB_MODEL.fn(n, np.array([0.5, 0.9954, 0.5]))
        res = fit_rb(DataSeries(x=n, y=y))
        assert res.converged
        assert res.params["p"] == pytest.approx(0.9954, rel=1e-6)
        assert res.params["fidelity"] == pytest.approx(0.9977, abs=1e-6)
        assert res.std_errors["fidelity"] == pytest.approx(res.std_errors["p"] / 2.0)

    def test_perfect_gate_limit(self):
        # p -> 1 maps to unit fidelity; exactly constant data is degenerate
        n = np.arange(1.0, 200.0, 10.0)
        y = RB_MODEL.fn(n, np.array([0.45, 1.0 - 1e-7, 0.5]))
        res = fit_rb(DataSeries(x=n, y=y))
        p = res.params["p"]
        assert res.params["fidelity"] == 1.0 - (1.0 - p) / 2.0
        assert res.params["fidelity"] == pytest.approx(1.0, abs=1e-4)

    def test_constant_data_degenerate(self):
        n = np.arange(1.0, 200.0, 10.0)
        res = fit_rb(DataSeries(x=n, y=np.full_like(n, 0.95)))
        assert not res.converged

    def test_conclusion_grade_fidelity_roundtrip(self):
        rng = np.random.default_rng(SEED)
        n = np.arange(1.0, 801.0, 25.0)
        y = RB_MODEL.fn(n, np.array([0.5, 0.9986, 0.5]))
        y = y + rng.normal(0.0, 0.002, n.size)
        res = fit_rb(DataSeries(x=n, y=np.clip(y, 0.0, 1.05)))
        assert res.params["fidelity"] == pytest.approx(0.9993, abs=1e-4)

    def test_range_validation(self):
        n = np.arange(1.0, 100.0, 10.0)
        with pytest.raises(ValueError, match="0, 1.05"):
            fit_rb(DataSeries(x=n, y=np.full_like(n, 1.5)))

    def test_p_above_one_flagged(self):
        rng = np.random.default_rng(3)
        n = np.arange(1.0, 100.0, 5.0)
        # rising "decay": optimum has p slightly above 1
        y = np.clip(0.5 + 0.0005 * n + rng.normal(0.0, 0.001, n.size), 0.0, 1.05)
        res = fit_rb(DataSeries(x=n, y=y))
        if res.params["p"] > 1.0:
            assert any("outside (0, 1]" in f for f in res.flags)


class TestTuningCurve:
    TRUTH = np.array([2140.0, 9040.0, 182.0, 1.2e-3, 0.05])

    def make_data(self, noise_rng=None, n=80):
        cur = np.linspace(-0.75e-3, 0.75e-3, n)
        y = tuning_curve_model().fn(cur, self.TRUTH)
        if noise_rng is not None:
            y = noisy(y, noise_rng)
        return DataSeries(x=cur, y=y)

    # ratio 0.999 within 0.02 of half flux, where f01_asymptotic is still
    # defined and E_J(phi) written with cos 2 pi phi cancels
    NEAR_HALF = 0.5 + np.concatenate([-np.geomspace(0.02, 1e-3, 20), np.geomspace(1e-3, 0.02, 20)])

    @pytest.mark.parametrize("e_c,a,b,amps_per_phi0,off,phi", [
        (182.0, 2140.0, 9040.0, 1.2e-3, 0.05, np.linspace(-0.6, 0.7, 41)),
        (185.0, 11256.0 * 0.999 / 1.999, 11256.0 / 1.999, 0.9e-3, 0.48, NEAR_HALF),
    ], ids=["fixture-device", "ratio-0.999-near-half-flux"])
    def test_closed_form_is_transmons(self, e_c, a, b, amps_per_phi0, off, phi):
        # one formula: the model is f01_asymptotic bit for bit, for junction
        # energies of either sign in either order
        current = (phi - off) * amps_per_phi0
        for ej1, ej2 in [(a, b), (b, a)]:
            want = f01_asymptotic(TransmonParams(e_c, ej1, ej2), current / amps_per_phi0 + off)
            for s1, s2 in [(1, 1), (-1, 1), (1, -1), (-1, -1)]:
                theta = np.array([s1 * ej1, s2 * ej2, e_c, amps_per_phi0, off])
                assert np.array_equal(tuning_curve_model().fn(current, theta), want), (ej1, ej2, s1, s2)

    def test_noise_free_roundtrip_free_ec(self):
        res = fit_tuning_curve(self.make_data())
        assert res.converged
        assert res.params["e_j1"] == pytest.approx(2140.0, rel=0.01)
        assert res.params["e_j2"] == pytest.approx(9040.0, rel=0.01)
        assert res.params["e_c"] == pytest.approx(182.0, rel=0.01)
        assert res.params["amps_per_phi0"] == pytest.approx(1.2e-3, rel=0.01)

    def test_noisy_roundtrip_fixed_ec(self):
        # with e_c free the junction energies and e_c trade off under noise
        # (the flux dependence constrains mostly their products), so the
        # noisy contract is checked on the fixed-e_c variant
        rng = np.random.default_rng(SEED)
        res = fit_tuning_curve(self.make_data(noise_rng=rng, n=160), fixed_e_c=182.0)
        assert res.converged
        assert res.params["e_j1"] == pytest.approx(2140.0, rel=0.05)
        assert res.params["e_j2"] == pytest.approx(9040.0, rel=0.05)
        assert res.params["amps_per_phi0"] == pytest.approx(1.2e-3, rel=0.05)

    def test_fitted_extrema_match_published(self):
        res = fit_tuning_curve(self.make_data())
        p = TransmonParams(
            e_c=res.params["e_c"], e_j1=res.params["e_j1"], e_j2=res.params["e_j2"]
        )
        from fluxline.transmon import f01_asymptotic

        assert f01_asymptotic(p, 0.0) == pytest.approx(3852.6, abs=1.0)
        assert f01_asymptotic(p, 0.5) == pytest.approx(2987.6, abs=1.0)

    def test_period_shift_degeneracy(self):
        base = self.make_data()
        shifted = DataSeries(x=base.x + 1.2e-3, y=base.y)  # one full period
        a = fit_tuning_curve(base)
        b = fit_tuning_curve(shifted)
        assert b.params["e_j1"] == pytest.approx(a.params["e_j1"], rel=1e-4)
        assert b.params["e_j2"] == pytest.approx(a.params["e_j2"], rel=1e-4)
        # offsets are reported folded into (-0.5, 0.5], so they coincide
        assert b.params["phi_offset"] == pytest.approx(a.params["phi_offset"], abs=1e-6)

    def test_diagonalization_refinement(self):
        data = self.make_data(n=24)
        res = fit_tuning_curve(data, use_diagonalization=True)
        assert res.converged
        # data generated from the asymptotic formula: the exact-spectrum
        # refinement shifts the energies but must still track the curve
        assert res.params["e_j2"] == pytest.approx(9040.0, rel=0.15)
        assert res.residual_norm / math.sqrt(data.x.size) < 5.0

    @pytest.mark.parametrize("fixed_e_c", [0.0, -5.0, math.nan, math.inf])
    def test_fixed_ec_must_be_finite_and_positive(self, fixed_e_c):
        with pytest.raises(ValueError, match="fixed_e_c must be finite and > 0"):
            fit_tuning_curve(self.make_data(n=24), fixed_e_c=fixed_e_c)

    @pytest.mark.parametrize("fixed_e_c", [1e308, 1e-300, 1000.0])
    def test_fixed_ec_outside_the_data_range_rejected(self, fixed_e_c):
        # f_max of the data is 3849.4 MHz: above f_max/4 no E_J reaches it,
        # and far below it the start guess overflowed (1e308 raised
        # OverflowError, 1e-300 warned before its error)
        message = f"fixed_e_c must lie in [0.0038494, 962.35] MHz (f_max * 1e-06 to f_max / 4 of the data), got {fixed_e_c}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                fit_tuning_curve(self.make_data(n=24), fixed_e_c=fixed_e_c)
        assert caught == []

    def test_minimum_points(self):
        cur = np.linspace(-1e-3, 1e-3, 5)
        with pytest.raises(ValueError, match="6 points"):
            fit_tuning_curve(DataSeries(x=cur, y=np.ones_like(cur) * 3000.0))

    def test_short_span_flagged(self):
        cur = np.linspace(0.0, 0.1e-3, 30)
        y = tuning_curve_model().fn(cur, self.TRUTH)
        res = fit_tuning_curve(DataSeries(x=cur, y=y))
        assert any("span" in f for f in res.flags)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_ill_conditioned_refinement_flagged(self, seed):
        # ratio-0.99 devices whose closed-form stage is well conditioned
        # but whose refinement lands near E_J1 = E_J2: the flags judge the
        # stage that is returned
        data, _ = bench_like_tuning(0.99, np.random.default_rng([seed, 990]))
        res = fit_tuning_curve(data, use_diagonalization=True)
        assert max(res.std_errors[k] / res.params[k] for k in ("e_j1", "e_j2")) > 0.5
        assert any("ill-conditioned" in f for f in res.flags)


class TestBeta:
    def make_data(self, q0, beta=0.510, noise_rng=None):
        amps = np.linspace(0.0, 1.4, 57)
        y = beta_model(q0, 0.0).fn(amps, np.array([beta]))
        if noise_rng is not None:
            y = noisy(y, noise_rng)
        return DataSeries(x=amps, y=y)

    def test_noise_free_roundtrip(self, q0):
        res = fit_beta(self.make_data(q0), q0)
        assert res.converged
        assert res.params["beta"] == pytest.approx(0.510, rel=0.01)

    def test_noisy_roundtrip(self, q0):
        rng = np.random.default_rng(SEED)
        res = fit_beta(self.make_data(q0, noise_rng=rng), q0)
        assert res.converged
        assert res.params["beta"] == pytest.approx(0.510, rel=0.05)

    def test_zero_amplitude_point_is_f_max(self, q0):
        from fluxline.modulation import FluxDrive, avg_frequency

        f_max = avg_frequency(q0, FluxDrive(0.0, 0.0), 8)
        for beta in (0.1, 0.5, 1.0):
            val = beta_model(q0, 0.0).fn(np.array([0.0]), np.array([beta]))[0]
            assert val == pytest.approx(f_max, abs=1e-9)

    def test_product_degeneracy(self, q0):
        base = self.make_data(q0, beta=0.510)
        rescaled = DataSeries(x=base.x / 2.0, y=base.y)
        res = fit_beta(rescaled, q0)
        assert res.params["beta"] == pytest.approx(1.02, rel=0.01)
        assert any("beta*A_p" in f for f in res.flags)

    @pytest.mark.parametrize("phi_dc", [math.nan, math.inf])
    def test_nonfinite_phi_dc_rejected(self, q0, phi_dc):
        with pytest.raises(ValueError, match="phi_dc must be finite"):
            fit_beta(self.make_data(q0), q0, phi_dc=phi_dc)

    def test_overflowing_phi_dc_named_without_warnings(self, q0):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^phi_dc must keep 2 pi n phi_dc finite for n <= 8, got 1e\+308$"):
                fit_beta(self.make_data(q0), q0, phi_dc=1e308)
        assert caught == []

    def test_zero_axis_rejected(self, q0):
        with pytest.raises(ValueError, match="amplitude"):
            fit_beta(DataSeries(x=np.zeros(5), y=np.ones(5)), q0)


class TestBetaScan:
    """The coarse scan scores all 30 candidates in one model evaluation."""

    @staticmethod
    def loop_scan(model, data):
        # the per-candidate loop the one-call scan replaced
        candidates = np.linspace(0.05, 1.5, 30) / float(np.abs(data.x).max())
        sig = data.sigma if data.sigma is not None else np.ones_like(data.y)
        sse = [
            float(np.sum(((model.fn(data.x, np.array([b])) - data.y) / sig) ** 2))
            for b in candidates
        ]
        return candidates, sse

    @staticmethod
    def fixture(sigma=False):
        x, y = np.loadtxt(FIXTURES / "beta_q0.csv", delimiter=",", skiprows=1, unpack=True)
        return DataSeries(x=x, y=y, sigma=0.05 + 0.01 * np.arange(x.size) if sigma else None)

    @pytest.mark.parametrize("case", ["fixture", "sigma", "phi_dc", "ratio-0.98"])
    def test_equals_per_candidate_loop(self, q0, case):
        from fluxline.fitting import _beta_scan

        data, params, phi_dc = self.fixture(case == "sigma"), q0, 0.0
        if case == "phi_dc":
            phi_dc = 0.13
        elif case == "ratio-0.98":
            params = TransmonParams(e_c=185.0, e_j1=0.98 * 11000.0 / 1.98, e_j2=11000.0 / 1.98)
        model = beta_model(params, phi_dc)
        candidates, sse = _beta_scan(model, data, float(np.abs(data.x).max()))
        want_candidates, want_sse = self.loop_scan(model, data)
        assert np.array_equal(candidates, want_candidates)
        assert sse.tolist() == want_sse
        # and so the start beta0
        assert candidates[np.argmin(sse)] == want_candidates[np.argmin(want_sse)]

    def test_one_bessel_call(self, q0, monkeypatch):
        from fluxline import fitting, specfun

        calls, per_residual, per_jacobian = [], [], []

        def counting(name, kernel):
            def call(x):
                calls.append((name, np.shape(x)))
                return kernel(x)

            return call

        def recording(into, fn):
            def call(x, th):
                before = len(calls)
                value = fn(x, th)
                into.append(calls[before:])
                return value

            return call

        engine = fitting.least_squares

        def counting_engine(model, data, initial_guess):
            model = replace(model, fn=recording(per_residual, model.fn), jac=recording(per_jacobian, model.jac))
            return engine(model, data, initial_guess)

        monkeypatch.setattr(specfun, "bessel_j0", counting("j0", specfun.bessel_j0))
        monkeypatch.setattr(specfun, "bessel_j1", counting("j1", specfun.bessel_j1))
        monkeypatch.setattr(fitting, "least_squares", counting_engine)
        data = self.fixture()
        n = data.x.size
        fit_beta(data, q0)
        # the scan takes J0 alone, over all candidates at once
        assert calls[0] == ("j0", (9, 30, n))
        # each residual evaluation of the solve takes J0 alone, and each
        # Jacobian J1 alone, without the n = 0 harmonic
        assert per_residual and per_residual == [[("j0", (9, n))]] * len(per_residual)
        assert per_jacobian and per_jacobian == [[("j1", (8, n))]] * len(per_jacobian)
        assert len(calls) == 1 + len(per_residual) + len(per_jacobian)


class TestResultCarriesModel:
    @pytest.mark.parametrize("source,fit", [
        ("t1_53us.csv", fit_t1),
        ("ramsey_10us.csv", fit_ramsey),
        ("rb_decay.csv", fit_rb),
        ("tuning_q0.csv", fit_tuning_curve),
        ("tuning_q0.csv", lambda data: fit_tuning_curve(data, fixed_e_c=182.0)),
        ("tuning_q0.csv", lambda data: fit_tuning_curve(data, use_diagonalization=True)),
        ("beta_q0.csv", "beta"),
    ], ids=["t1", "ramsey", "rb", "tuning", "tuning-fixed-ec", "tuning-refined", "beta"])
    def test_curve_reproduces_the_optimum(self, q0, source, fit):
        x, y = np.loadtxt(FIXTURES / source, delimiter=",", skiprows=1, unpack=True)
        data = DataSeries(x=x, y=y)
        res = fit_beta(data, q0) if fit == "beta" else fit(data)
        # the reported (normalized) parameters on the carried model give
        # back the residuals the engine minimized
        assert np.linalg.norm(res.curve(x) - y) == pytest.approx(res.residual_norm, rel=1e-8)
        theta = np.array([res.params[name] for name in res.model.names])
        assert np.array_equal(res.curve(x), res.model.fn(x, theta))
        assert "model" not in res.to_dict()
        assert replace(res, model=None) == res

    def test_each_fit_carries_its_model(self):
        t = np.linspace(1.0, 260.0, 53)
        assert fit_t1(DataSeries(x=t, y=T1_MODEL.fn(t, np.array([0.95, 53.0, 0.03])))).model is T1_MODEL
        # a degenerate result carries its model too: the constant start guess
        flat = fit_rb(DataSeries(x=t, y=np.full_like(t, 0.7)))
        assert flat.model is RB_MODEL and np.allclose(flat.curve(t), 0.7, rtol=0, atol=1e-15)


class TestOverflowingInputs:
    """Finite data whose weighted cost or J^T J overflows, or whose start
    guess divides by an underflowed square: a typed error, never a fit that
    "converges" at its start, and no numpy warning on the way.  fit_t1's
    start guess fails on scaled times before the engine runs (see README)."""

    FITS = {"t1_53us.csv": fit_t1, "ramsey_10us.csv": fit_ramsey, "rb_decay.csv": fit_rb,
            "tuning_q0.csv": fit_tuning_curve, "beta_q0.csv": "beta"}
    CASES = {
        "sigma-1e-300": lambda x, y: (x, y, np.full(y.size, 1e-300)),
        "sigma-1e-160": lambda x, y: (x, y, np.full(y.size, 1e-160)),
        "y-1e300": lambda x, y: (x, y * 1e300, None),
        "x-1e300": lambda x, y: (x * 1e300, y, None),
        "x-1e-300": lambda x, y: (x * 1e-300, y, None),
    }

    @pytest.mark.parametrize("source,case", [
        (source, case) for source, case in itertools.product(FITS, CASES)
        if not (source == "t1_53us.csv" and case[0] == "x")
    ])
    def test_raises_without_warning(self, q0, source, case):
        x, y, sigma = self.CASES[case](*np.loadtxt(FIXTURES / source, delimiter=",", skiprows=1, unpack=True))
        data, fit = DataSeries(x=x, y=y, sigma=sigma), self.FITS[source]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises((ValueError, fitting.FitError)):
                fit_beta(data, q0) if fit == "beta" else fit(data)
        assert [str(w.message) for w in caught] == []

    def test_nonfinite_j_t_j_at_the_optimum_is_a_fit_error(self):
        # inverted, J^T J = [[inf]] gave a standard error of 0
        data = DataSeries(x=np.arange(3.0), y=np.zeros(3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(fitting.FitError, match=r"^J\^T J is not finite at the optimum$"):
                fitting._standard_errors(np.full((3, 1), 1e200), 0.0, data)
        assert [str(w.message) for w in caught] == []


class TestUnitWeights:
    FITS = [
        ("t1_53us.csv", fit_t1),
        ("ramsey_10us.csv", fit_ramsey),
        ("rb_decay.csv", fit_rb),
        ("tuning_q0.csv", fit_tuning_curve),
        ("tuning_q0.csv", lambda data: fit_tuning_curve(data, fixed_e_c=182.0)),
        ("tuning_q0.csv", lambda data: fit_tuning_curve(data, use_diagonalization=True)),
        ("beta_q0.csv", "beta"),
    ]
    IDS = ["t1", "ramsey", "rb", "tuning", "tuning-fixed-ec", "tuning-refined", "beta"]

    @staticmethod
    def run(q0, source, fit, sigma):
        x, y = np.loadtxt(FIXTURES / source, delimiter=",", skiprows=1, unpack=True)
        data = DataSeries(x=x, y=y, sigma=None if sigma is None else sigma(y))
        return x, data.sigma, fit_beta(data, q0) if fit == "beta" else fit(data)

    @pytest.mark.parametrize("source,fit", FITS, ids=IDS)
    def test_sigma_ones_walks_the_unweighted_path(self, q0, source, fit):
        # an unweighted fit skips the division by sigma; sigma = 1 divides
        # by ones, which changes no bit of the path
        _, _, plain = self.run(q0, source, fit, None)
        _, _, ones = self.run(q0, source, fit, np.ones_like)
        assert (ones.params, ones.residual_norm, ones.iterations) == (plain.params, plain.residual_norm, plain.iterations)

    @pytest.mark.parametrize("source,fit", FITS, ids=IDS)
    def test_weighted_errors_come_from_the_jacobian(self, q0, source, fit):
        # weighted, the errors are those of the weighted Jacobian alone, in
        # the reported parameters (the energies, for a tuning fit walked in U)
        x, sigma, res = self.run(q0, source, fit, lambda y: 0.05 + 0.01 * np.arange(y.size))
        theta = np.array([res.params[name] for name in res.model.names])
        jac = res.model.jac(x, theta) / sigma[:, None]
        want = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
        np.testing.assert_allclose([res.std_errors[name] for name in res.model.names], want, rtol=1e-6)


class TestTuningNormalization:
    def test_mirror_solution_made_positive_and_ordered(self):
        # the model sees the junction energies only through E_J1^2 + E_J2^2
        # and E_J1 E_J2, so (-6195.96, -4956.81) fits as well as the truth
        params = {"e_j1": -6195.96, "e_j2": -4956.81, "e_c": 180.0,
                  "amps_per_phi0": -1.2e-3, "phi_offset": 0.7}
        errs = {"e_j1": 3.0, "e_j2": 2.0, "e_c": 1.0, "amps_per_phi0": 1e-6, "phi_offset": 1e-3}
        p, e = _normalize_tuning(params, errs)
        assert (p["e_j1"], p["e_j2"]) == (4956.81, 6195.96)
        assert (e["e_j1"], e["e_j2"]) == (2.0, 3.0)
        assert p["amps_per_phi0"] == 1.2e-3 and p["phi_offset"] == pytest.approx(0.3)
        assert params["e_j1"] == -6195.96  # inputs left alone


class TestBetaModelArrays:
    def test_equals_per_sample_harmonic_loop(self, q0):
        # the scalar loop the array model replaced, as the reference
        s = harmonic_series(q0, 8)
        amps = np.linspace(0.0, 1.4, 29)
        for phi_dc, beta in [(0.0, 0.51), (0.2, -0.3)]:
            model = beta_model(q0, phi_dc)
            fn, jac = np.zeros_like(amps), np.zeros_like(amps)
            for n, sn in enumerate(s):
                cn = sn * math.cos(2.0 * math.pi * n * phi_dc)
                wn = 2.0 * math.pi * n
                fn += cn * np.array([bessel_j0(wn * abs(beta) * a) for a in amps])
                jac += cn * np.array([-bessel_j1(wn * abs(beta) * a) * wn * a for a in amps])
            np.testing.assert_allclose(model.fn(amps, np.array([beta])), fn, rtol=1e-14)
            np.testing.assert_allclose(
                model.jac(amps, np.array([beta]))[:, 0], np.sign(beta) * jac, rtol=1e-14, atol=1e-12
            )


class TestExactLevelsJacobian:
    # the chain-rule Jacobian of the refinement against forward differences
    # of its residuals, which are good to ~1e-6 of a column's largest entry
    # (measured: at most 8.2e-7 on these devices)
    COLUMN_RTOL = 1e-5

    @pytest.mark.parametrize("fixed", [False, True], ids=["free-ec", "fixed-ec"])
    @pytest.mark.parametrize("ratio", [0.24, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98])
    def test_matches_forward_differences(self, ratio, fixed):
        # a bench-like device: 13 currents over 1.2 flux periods, 1 MHz noise
        rng = np.random.default_rng([SEED, int(round(100 * ratio))])
        e_c, total = rng.uniform(170.0, 200.0), rng.uniform(9500.0, 12500.0)
        e_j2 = total / (1.0 + ratio)
        a_per, offset = rng.uniform(0.8e-3, 1.5e-3), rng.uniform(-0.1, 0.1)
        phi = np.linspace(-0.6, 0.6, 13)
        x = (phi - offset) * a_per
        y = levels(TransmonParams(e_c, total - e_j2, e_j2), phi)[0] + rng.normal(0.0, 1.0, phi.size)
        res = fit_tuning_curve(DataSeries(x=x, y=y), fixed_e_c=e_c if fixed else None, use_diagonalization=True)
        model = res.model
        theta = np.array([res.params[name] for name in model.names])
        # at the optimum, off it, and on the mirror solution with both
        # junction energies negated, where the columns change sign
        mirror = theta.copy()
        mirror[:2] *= -1.0
        for th in (theta, theta * (1.0 + 0.01 * rng.standard_normal(theta.size)), mirror):
            residuals = lambda t: model.fn(x, t) - y
            reference = forward_jacobian(residuals, th)
            jac = model.jac(x, th)
            scale = np.abs(reference).max(axis=0)
            assert (np.abs(jac - reference).max(axis=0) <= self.COLUMN_RTOL * scale).all(), (th, jac, reference)


def bench_like_tuning(ratio, rng):
    """A Mathieu-drawn tuning curve: 13 currents over 1.2 flux periods, 1 MHz noise."""
    e_c, total = rng.uniform(170.0, 200.0), rng.uniform(9500.0, 12500.0)
    e_j2 = total / (1.0 + ratio)
    a_per, offset = rng.uniform(0.8e-3, 1.5e-3), rng.uniform(-0.1, 0.1)
    phi = np.linspace(-0.6, 0.6, 13)
    y = levels(TransmonParams(e_c, total - e_j2, e_j2), phi)[0] + rng.normal(0.0, 1.0, phi.size)
    return DataSeries(x=(phi - offset) * a_per, y=y), e_c


class TestTuningInU:
    """Both tuning stages walk U_i = 8 E_C E_Ji in place of the junction energies."""

    X = np.linspace(-0.7e-3, 0.7e-3, 25)
    # (fixed E_C, parameters in U): free and fixed E_C, and mixed signs,
    # where the junction columns carry their signs
    CASES = [
        (None, np.array([8.0 * 182.0 * 2140.0, 8.0 * 182.0 * 9040.0, 182.0, 1.2e-3, 0.05])),
        (182.0, np.array([8.0 * 182.0 * 2140.0, 8.0 * 182.0 * 9040.0, 1.2e-3, 0.05])),
        (None, np.array([-8.0 * 182.0 * 2140.0, 8.0 * 182.0 * 9040.0, 182.0, 1.2e-3, 0.05])),
        (182.0, np.array([8.0 * 182.0 * 2140.0, -8.0 * 182.0 * 9040.0, 1.2e-3, 0.05])),
    ]
    IDS = ["free-ec", "fixed-ec", "free-ec-mixed-sign", "fixed-ec-mixed-sign"]

    @staticmethod
    def walk(model, fixed):
        """model walked in U, with E_C held at fixed unless that is None."""
        model = fitting._in_u(model)
        return model if fixed is None else fitting._hold_e_c(model, fixed)

    @pytest.mark.parametrize("fixed,u", CASES, ids=IDS)
    def test_closed_form_u_columns_match_finite_differences(self, fixed, u):
        model = self.walk(tuning_curve_model(), fixed)
        analytic = model.jac(self.X, u)
        numeric = finite_difference_jacobian(model, self.X, u)
        # per column, as in TestJacobians
        assert np.allclose(analytic, numeric, atol=1e-6 * np.abs(analytic).max(axis=0), rtol=1e-6)

    @pytest.mark.parametrize("fixed,u", CASES, ids=IDS)
    def test_exact_levels_u_columns_match_forward_differences(self, fixed, u):
        model = self.walk(fitting._levels_tuning_model(), fixed)
        reference = forward_jacobian(lambda t: model.fn(self.X, t), u)
        jac = model.jac(self.X, u)
        # the tolerance of TestExactLevelsJacobian, per column
        scale = np.abs(reference).max(axis=0)
        assert (np.abs(jac - reference).max(axis=0) <= 1e-5 * scale).all(), (jac, reference)

    def test_u_coordinates_map_back_to_the_energies(self):
        u = self.CASES[0][1]
        theta = fitting._energies(u)
        np.testing.assert_allclose(theta, [2140.0, 9040.0, 182.0, 1.2e-3, 0.05], rtol=1e-15)
        # the closed form in U: f = (U1^2 + U2^2 + 2 U1 U2 cos 2 pi phi)^(1/4) - E_C
        phi = self.X / 1.2e-3 + 0.05
        closed = (u[0] ** 2 + u[1] ** 2 + 2.0 * u[0] * u[1] * np.cos(2.0 * np.pi * phi)) ** 0.25 - 182.0
        np.testing.assert_allclose(fitting._in_u(tuning_curve_model()).fn(self.X, u), closed, rtol=1e-13)

    @pytest.mark.parametrize("make", [tuning_curve_model, fitting._levels_tuning_model],
                             ids=["closed-form", "exact-levels"])
    @pytest.mark.parametrize("theta", [np.array([2140.0, 9040.0, 1.2e-3, 0.05]), np.array([-2140.0, 9040.0, 1.2e-3, 0.05])],
                             ids=["same-sign", "mixed-sign"])
    def test_held_e_c_is_the_five_parameter_model(self, make, theta):
        # bit for bit: the model at E_C = 182 inserted third, less its E_C column
        model, held = make(), fitting._hold_e_c(make(), 182.0)
        full = np.array([theta[0], theta[1], 182.0, theta[2], theta[3]])
        assert held.names == ("e_j1", "e_j2", "amps_per_phi0", "phi_offset")
        assert np.array_equal(held.fn(self.X, theta), model.fn(self.X, full))
        assert np.array_equal(held.jac(self.X, theta), model.jac(self.X, full)[:, [0, 1, 3, 4]])

    @pytest.mark.parametrize("fixed", [False, True], ids=["free-ec", "fixed-ec"])
    @pytest.mark.parametrize("ratio", [0.24, 0.8, 0.98])
    def test_refinement_jacobian_takes_one_levels_call(self, monkeypatch, ratio, fixed):
        from fluxline import transmon

        data, e_c = bench_like_tuning(ratio, np.random.default_rng([SEED, int(round(100 * ratio))]))
        stages, kernel_calls = [], []
        engine = fitting.least_squares

        def counting_engine(model, data, initial_guess):
            njev = []

            def jac(x, th):
                before = len(kernel_calls)
                value = model.jac(x, th)
                njev.append(len(kernel_calls) - before)
                return value

            result = engine(replace(model, jac=jac), data, initial_guess)
            stages.append((result.iterations, njev, len(kernel_calls)))
            return result

        kernel = transmon._at_q

        def counting_kernel(q, e_c, second):
            kernel_calls.append(second)
            return kernel(q, e_c, second)

        monkeypatch.setattr(fitting, "least_squares", counting_engine)
        # the refinement's model takes transmon's name when it is made,
        # as levels and _f01 do when called
        monkeypatch.setattr(transmon, "_at_q", counting_kernel)
        res = fit_tuning_curve(data, fixed_e_c=e_c if fixed else None, use_diagonalization=True)
        (_, _, closed_form_calls), (nfev, njev, total_calls) = stages
        assert closed_form_calls == 0
        assert res.iterations == nfev
        # one level-kernel call per residual evaluation (f01 alone) and one
        # per Jacobian (f01 and its slope), and none for the standard
        # errors, which reuse the Jacobian at the optimum
        assert njev and njev == [1] * len(njev)
        assert len(kernel_calls) == total_calls == nfev + len(njev)
        assert kernel_calls.count("slope") == len(njev) and kernel_calls.count(None) == nfev

    @pytest.mark.parametrize("make", [tuning_curve_model, fitting._levels_tuning_model],
                             ids=["closed-form", "exact-levels"])
    @pytest.mark.parametrize("x", [X, X[::2]], ids=["numpy-pass", "point-by-point"])
    def test_negative_e_c_gives_nan_residuals(self, make, x):
        # a trial step may take E_C below 0: the residuals are all NaN, which
        # the engine counts as a rise, with no exception and no warning
        # under the engine's errstate (the closed form's sqrt of a negative
        # number is invalid).  The exact model is NaN at E_C = 0 as well
        theta = np.array([2140.0, 9040.0, -182.0, 1.2e-3, 0.05])
        u = theta.copy()
        u[:2] *= 8.0 * u[2]
        zero = theta.copy()
        zero[2] = 0.0
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            assert np.isnan(make().fn(x, theta)).all()
            assert np.isnan(fitting._in_u(make()).fn(x, u)).all()
            assert np.isnan(fitting._hold_e_c(make(), -182.0).fn(x, np.delete(theta, 2))).all()
            if make is fitting._levels_tuning_model:
                assert np.isnan(make().fn(x, zero)).all()

    def test_closed_form_stage_budget(self, monkeypatch):
        # the ratio of the shipped devices, where the closed-form stage
        # walked a long curved E_C-E_J valley in the energies: these eight
        # took 34-78 evaluations there from the top rfft bin's period, and
        # take 6-7 in U from the best-fitting sinusoid's period and phase
        stages = []
        engine = fitting.least_squares

        def recording_engine(*args):
            result = engine(*args)
            stages.append(result.iterations)
            return result

        monkeypatch.setattr(fitting, "least_squares", recording_engine)
        for seed in range(8):
            data, _ = bench_like_tuning(0.24, np.random.default_rng([SEED, 24, seed]))
            res = fit_tuning_curve(data)
            assert res.converged
        assert max(stages) <= 12, stages
