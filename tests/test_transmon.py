"""Transmon spectrum module: closed forms against the exact diagonalization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import mathieu_a, mathieu_b

from fluxline.transmon import (
    MATHIEU_Q_MAX,
    FluxPoint,
    TransmonParams,
    TransmonRegimeError,
    diagonalize,
    effective_ej,
    f01_asymptotic,
    levels,
)

from conftest import DEVICE_TABLE


class TestParams:
    def test_normalization_swaps_and_flags(self):
        p = TransmonParams(e_c=182.0, e_j1=9040.0, e_j2=2140.0)
        assert (p.e_j1, p.e_j2) == (2140.0, 9040.0)
        assert p.swapped
        assert not TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0).swapped

    def test_derived_quantities(self, q0):
        assert q0.e_j_sum == 11180.0
        assert q0.asymmetry == pytest.approx(6900.0 / 11180.0)
        assert 0.0 <= q0.asymmetry < 1.0

    @pytest.mark.parametrize("bad", [dict(e_c=0.0), dict(e_j1=-1.0), dict(e_j2=0.0)])
    def test_positivity(self, bad):
        kwargs = dict(e_c=182.0, e_j1=2140.0, e_j2=9040.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            TransmonParams(**kwargs)

    def test_regime_advisory_warns(self):
        with pytest.warns(UserWarning, match="transmon regime"):
            TransmonParams(e_c=200.0, e_j1=1000.0, e_j2=1000.0)


class TestEffectiveEj:
    def test_sweet_spots(self, q0):
        assert effective_ej(q0, 0.0) == pytest.approx(11180.0, abs=1e-9)
        assert effective_ej(q0, 0.5) == pytest.approx(6900.0, abs=1e-9)

    def test_quarter_flux(self, q0):
        # direct evaluation of the closed form at phi = 0.25:
        # E_Jsum sqrt((1 + d^2)/2)
        d = 6900.0 / 11180.0
        expected = 11180.0 * math.sqrt(0.5 * (1.0 + d * d))
        assert expected == pytest.approx(9289.84, abs=0.01)
        assert effective_ej(q0, 0.25) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_periodicity_and_evenness(self, phi):
        p = TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0)
        ref = effective_ej(p, phi)
        assert effective_ej(p, -phi) == pytest.approx(ref, rel=1e-12)
        assert effective_ej(p, phi + 1.0) == pytest.approx(ref, rel=1e-9)

    def test_extrema(self, q0):
        grid = np.linspace(-0.5, 0.5, 101)
        vals = [effective_ej(q0, g) for g in grid]
        assert max(vals) == pytest.approx(effective_ej(q0, 0.0))
        assert min(vals) == pytest.approx(effective_ej(q0, 0.5))


class TestAsymptotic:
    def test_published_sweet_spots(self, q0):
        assert f01_asymptotic(q0, 0.0) == pytest.approx(3852.61, abs=0.01)
        assert abs(f01_asymptotic(q0, 0.0) - 3851.0) < 10.0
        assert f01_asymptotic(q0, 0.5) == pytest.approx(2987.61, abs=0.01)
        assert abs(f01_asymptotic(q0, 0.5) - 2981.0) < 15.0

    @given(st.floats(min_value=-2.0, max_value=2.0))
    def test_flux_periodicity(self, phi):
        p = TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0)
        assert f01_asymptotic(p, phi + 1.0) == pytest.approx(
            f01_asymptotic(p, phi), rel=1e-9
        )

    def test_degenerate_squid_errors(self):
        sym = TransmonParams(e_c=182.0, e_j1=5000.0, e_j2=5000.0)
        with pytest.raises(TransmonRegimeError, match="transmon regime"):
            f01_asymptotic(sym, 0.5)


class TestDiagonalize:
    def test_charging_limit(self):
        # vanishing Josephson energy: pure charging parabola, f01 -> 4 E_C
        with pytest.warns(UserWarning):
            p = TransmonParams(e_c=250.0, e_j1=1e-6, e_j2=1e-6)
        res = diagonalize(p, FluxPoint(phi=0.0))
        assert res.f01 == pytest.approx(4.0 * 250.0, rel=1e-6)

    @pytest.mark.parametrize("name", sorted(DEVICE_TABLE))
    def test_published_joint_reproduction(self, name, device_params):
        e_c, e_j1, e_j2, f_max, f_min, eta = DEVICE_TABLE[name]
        p = device_params[name]
        top = diagonalize(p, FluxPoint(phi=0.0))
        bottom = diagonalize(p, FluxPoint(phi=0.5))
        assert abs(top.f01 - f_max) < 10.0
        assert abs(top.anharmonicity - eta) < 10.0
        assert abs(bottom.f01 - f_min) < 15.0
        assert top.converged and bottom.converged

    @pytest.mark.parametrize("phi", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(DEVICE_TABLE))
    def test_mathieu_levels(self, name, phi, device_params):
        # independent oracle: at n_g = 0 the exact levels are Mathieu
        # characteristic values, E_0 = E_C a_0(q), E_1 = E_C b_2(q),
        # E_2 = E_C a_2(q) with q = E_J/(2 E_C) (Koch et al., PRA 76, 042319
        # (2007)); E_J at the sweet spots is taken straight from the table.
        # The default path of levels() is these Mathieu values, so the
        # charge basis is asked for explicitly to keep the check independent
        e_c, e_j1, e_j2, *_ = DEVICE_TABLE[name]
        e_j = e_j1 + e_j2 if phi == 0.0 else e_j2 - e_j1
        q = e_j / (2.0 * e_c)
        e0, e1, e2 = e_c * mathieu_a(0, q), e_c * mathieu_b(2, q), e_c * mathieu_a(2, q)
        res = diagonalize(device_params[name], FluxPoint(phi=phi), basis_size=41)
        assert abs(res.f01 - (e1 - e0)) < 1e-6
        assert abs(res.f12 - (e2 - e1)) < 1e-6

    def test_anharmonicity_negative(self, device_params):
        for p in device_params.values():
            assert diagonalize(p, FluxPoint(phi=0.0)).anharmonicity < 0.0

    def test_basis_convergence(self, device_params):
        for p in device_params.values():
            for phi in (0.0, 0.5):
                a = diagonalize(p, FluxPoint(phi=phi), basis_size=31).f01
                b = diagonalize(p, FluxPoint(phi=phi), basis_size=41).f01
                assert abs(a - b) < 1e-3

    def test_charge_dispersion_small(self, device_params):
        # at E_J/E_C ~ 60 the exact f01 dispersion is 1.0-1.5 kHz
        # (basis-size independent), i.e. seven orders below f01
        for p in device_params.values():
            neutral = diagonalize(p, FluxPoint(phi=0.0, n_g=0.0)).f01
            shifted = diagonalize(p, FluxPoint(phi=0.0, n_g=0.5)).f01
            assert abs(neutral - shifted) < 2e-3

    def test_monotone_in_ej_and_close_to_asymptotic(self, q0):
        phis = np.linspace(0.0, 0.5, 21)
        ejs = [effective_ej(q0, phi) for phi in phis]
        diag = [diagonalize(q0, FluxPoint(phi=phi)).f01 for phi in phis]
        asym = [f01_asymptotic(q0, phi) for phi in phis]
        # effective_ej decreases monotonically on [0, 0.5]; so must both f01s
        assert all(e1 > e2 for e1, e2 in zip(ejs, ejs[1:]))
        assert all(f1 > f2 for f1, f2 in zip(diag, diag[1:]))
        assert all(f1 > f2 for f1, f2 in zip(asym, asym[1:]))
        for ej, fd, fa in zip(ejs, diag, asym):
            if ej / q0.e_c > 40.0:
                assert abs(fd - fa) / fd < 0.02

    def test_basis_size_validation(self, q0):
        with pytest.raises(ValueError):
            diagonalize(q0, FluxPoint(0.0), basis_size=10)
        with pytest.raises(ValueError):
            diagonalize(q0, FluxPoint(0.0), basis_size=21 + 1)

    @settings(deadline=None, max_examples=25)
    @given(st.floats(min_value=-1.5, max_value=1.5))
    def test_spectrum_periodicity(self, phi):
        p = TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0)
        a = diagonalize(p, FluxPoint(phi=phi)).f01
        b = diagonalize(p, FluxPoint(phi=phi + 1.0)).f01
        assert a == pytest.approx(b, rel=1e-9)


class TestLevels:
    @settings(deadline=None, max_examples=60)
    @example(math.log(2000.0), 400.0, 1.0, [0.0, 0.5])  # q = MATHIEU_Q_MAX
    @given(
        st.floats(min_value=math.log(0.05), max_value=math.log(2000.0)),
        st.floats(min_value=50.0, max_value=400.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=8),
    )
    def test_mathieu_path_matches_charge_basis(self, log_ratio, e_c, r, phis):
        # E_Jsum/E_C log-uniform over [0.05, 2000], i.e. q up to 1000 at
        # phi = 0.  The reference has 61 charge states: at q = 1000 the
        # 41-state basis is itself off by 1.2e-6 E_C in f12, while 61
        # states agree with a 241-state solve to 1e-11 E_C there
        e_sum = e_c * math.exp(log_ratio)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            p = TransmonParams(e_c=e_c, e_j1=e_sum * r / (1.0 + r), e_j2=e_sum / (1.0 + r))
        phi = np.array(phis)
        f01, f12, converged = levels(p, phi)
        ref01, ref12, ref_conv = levels(p, phi, basis_size=61)
        assert converged.all() and ref_conv.all()
        np.testing.assert_allclose(f01, ref01, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(f12, ref12, rtol=0.0, atol=1e-6)

    def test_fallback_above_mathieu_limit(self):
        # q = E_J/(2 E_C) = 3000 at phi = 0 and 2853 at phi = 0.1, where
        # scipy's a_2 is not reliable; at phi = 0.45, q = 469 is in range.
        # The fallback basis is sized from q: the fixed 41 states were off
        # by 0.31 MHz in f01 here and flagged unconverged
        p = TransmonParams(e_c=100.0, e_j1=3.0e5, e_j2=3.0e5)
        phi = np.array([0.0, 0.1, 0.45])
        q = effective_ej(p, phi) / (2.0 * p.e_c)
        assert (q[:2] > MATHIEU_Q_MAX).all() and q[2] < MATHIEU_Q_MAX
        f01, f12, converged = levels(p, phi)
        ref01, ref12, ref_conv = levels(p, phi[:2], basis_size=121)
        assert converged.all() and ref_conv.all()
        np.testing.assert_allclose(f01[:2], ref01, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(f12[:2], ref12, rtol=0.0, atol=1e-6)
        # an explicit basis size is taken as given
        small = diagonalize(p, FluxPoint(phi=0.0), basis_size=41)
        assert small.basis_size == 41 and not small.converged
        assert abs(small.f01 - f01[0]) > 0.1
        b2, a0, a2 = mathieu_b(2, q[2]), mathieu_a(0, q[2]), mathieu_a(2, q[2])
        assert f01[2] == p.e_c * (b2 - a0) and f12[2] == p.e_c * (a2 - b2)

    @pytest.mark.parametrize("phi", [float("nan"), [0.1, float("nan")], [0.0, float("inf")]])
    def test_nonfinite_flux_rejected(self, q0, phi):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # cos(inf)
            with pytest.raises(ValueError, match="flux must be finite, got phi = (nan|inf)"):
                levels(q0, phi)

    def test_shapes_and_scalar_wrapper(self, q0):
        phi = np.linspace(-0.5, 0.5, 6).reshape(2, 3)
        f01, f12, converged = levels(q0, phi)
        assert f01.shape == f12.shape == converged.shape == (2, 3)
        res = diagonalize(q0, FluxPoint(phi=float(phi[1, 2])))
        assert (res.f01, res.f12) == (f01[1, 2], f12[1, 2])
        assert res.converged and res.basis_size is None

    def test_offset_charge_uses_charge_basis(self, q0):
        f01, f12, _ = levels(q0, np.array([0.0, 0.3]), n_g=0.25)
        for i, phi in enumerate((0.0, 0.3)):
            ref = diagonalize(q0, FluxPoint(phi=phi, n_g=0.25), basis_size=41)
            assert (f01[i], f12[i]) == (ref.f01, ref.f12)

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(min_value=50.0, max_value=400.0),
        st.floats(min_value=25.0, max_value=150.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=6),
    )
    def test_mathieu_values_do_not_depend_on_the_call(self, e_c, ej_sum_over_ec, r, phis):
        # an all-Mathieu call returns the Mathieu values as they come; a call
        # with one point above MATHIEU_Q_MAX diagonalizes that point too.
        # Both, and every scalar call, must give the same bits at the Mathieu
        # points.  The big device has q = 3000 at phi = 0 and q <= 1000 on
        # |phi| >= 0.45
        e_sum = e_c * ej_sum_over_ec
        p = TransmonParams(e_c=e_c, e_j1=e_sum * r / (1.0 + r), e_j2=e_sum / (1.0 + r))
        phi = np.array(phis)
        lean = levels(p, phi)
        for i, value in enumerate(phi):
            scalar = levels(p, value)
            assert np.shape(scalar[0]) == ()
            assert (scalar[0], scalar[1], bool(scalar[2])) == (lean[0][i], lean[1][i], True)
        big = TransmonParams(e_c=100.0, e_j1=3.0e5, e_j2=3.0e5)
        phi = np.array([0.0, *(0.45 + 0.05 * (phi + 1.0) / 2.0)])
        masked = levels(big, phi)
        assert effective_ej(big, 0.0) / (2.0 * big.e_c) > MATHIEU_Q_MAX
        for got, want in zip(masked, levels(big, phi[1:])):
            assert np.array_equal(got[1:], want)

    @pytest.mark.parametrize("phi", [0.0, [0.0, 0.1]], ids=["scalar", "array"])
    def test_nan_mathieu_value_goes_to_the_charge_basis(self, phi):
        # q = 667.25855 at phi = 0, where scipy's mathieu_a(0, q) is NaN
        # (part of q in [667.25, 733.07] is): the point is diagonalized
        p = TransmonParams(e_c=200.0, e_j1=133451.71, e_j2=133451.71)
        f01, f12, converged = levels(p, phi)
        ref01, ref12, _ = levels(p, phi, basis_size=121)
        assert np.isfinite(f01).all() and np.isfinite(f12).all() and np.all(converged)
        np.testing.assert_allclose(f01, ref01, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(f12, ref12, rtol=0.0, atol=1e-6)

    def test_huge_finite_flux_rejected_without_warnings(self, q0):
        # pi * 1e308 overflows, so q is NaN: the flux is named, and numpy
        # does not warn on the way
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^flux must keep pi phi finite, got phi = 1e\+308$"):
                levels(q0, [0.1, 1e308])
        assert caught == []


class TestAsymptoticScalar:
    def test_scalar_equals_array_element(self, q0):
        phi = np.linspace(-0.5, 0.5, 11)
        grid = f01_asymptotic(q0, phi)
        assert [f01_asymptotic(q0, float(v)) for v in phi] == list(grid)

    @pytest.mark.parametrize("phi", [0.5, np.array([0.0, 0.5, 0.2])])
    def test_regime_error_names_the_flux(self, phi):
        sym = TransmonParams(e_c=182.0, e_j1=5000.0, e_j2=5000.0)
        with pytest.raises(TransmonRegimeError, match=r"at phi = 0\.5 is outside"):
            f01_asymptotic(sym, phi)
