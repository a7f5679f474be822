"""Transmon spectrum module: closed forms against the exact diagonalization."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import mathieu_a, mathieu_b

from fluxline import transmon
from fluxline.transmon import (
    FluxPoint,
    TransmonParams,
    TransmonRegimeError,
    diagonalize,
    effective_ej,
    f01_asymptotic,
    levels,
)

from conftest import DEVICE_TABLE, charge_basis, chebyshev_monomials


def sector(q, even, size):
    """Diagonal and squared off-diagonal of the n_g = 0 charge-basis
    tridiagonal in units of E_C (4 n^2 on the diagonal, -q = -E_J/(2 E_C)
    off it), on the states even in n (c_n = c_-n, whose eigenvalues are
    a_0, a_2, ...) or odd (c_n = -c_-n: b_2, b_4, ...)."""
    if even:
        return [4 * n * n for n in range(size)], [2 * q * q] + [q * q] * (size - 2)
    return [4 * n * n for n in range(1, size + 1)], [q * q] * (size - 1)


def characteristic_value(q, even, index):
    """a_(2 index) (even) or b_(2 index + 2) (odd) at q > 0, to the working
    precision of mpmath: Sturm bisection in floats brackets the index-th
    eigenvalue of the sector, Newton on det(T - lambda) from the pivots of
    its LDL^T refines it.  12 + 8 q^(1/4) states agree with 20 + 14 q^(1/4)
    to 1e-40 up to q = 1.4e7, the largest q of a table node."""
    size = 12 + int(8 * float(q) ** 0.25)
    diag, off2 = sector(float(q), even, size)
    lo, hi = -3.0 * float(q) - 1.0, 3.0 * float(q) + 8.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        pivot, below = None, 0
        for i, a in enumerate(diag):
            pivot = a - mid if i == 0 else a - mid - off2[i - 1] / pivot
            pivot = pivot or 1e-300  # step past an exact zero
            below += pivot < 0
        lo, hi = (lo, mid) if below > index else (mid, hi)
    diag, off2 = sector(mpmath.mpf(q), even, size)
    lam = mpmath.mpf(0.5 * (lo + hi))
    for _ in range(8):
        # d/dlambda log det(T - lambda), from the pivots and their derivatives
        pivot, slope = diag[0] - lam, mpmath.mpf(-1)
        total = slope / pivot
        for a, b2 in zip(diag[1:], off2):
            ratio = b2 / pivot
            slope = ratio * slope / pivot - 1
            pivot = a - lam - ratio
            total += slope / pivot
        lam -= 1 / total
        if abs(1 / total) < mpmath.eps * 1e3 * (1 + abs(lam)):
            return lam
    raise AssertionError(f"Newton did not converge at q = {q}")


def levels_over_ec(q):
    """(f01, f12)/E_C = (b_2 - a_0, a_2 - b_2) at q > 0, at mpmath's precision."""
    a0, b2, a2 = (characteristic_value(q, even, index) for even, index in [(True, 0), (False, 0), (True, 1)])
    return b2 - a0, a2 - b2


def level_tables():
    """transmon's _F01 and _F12 from the charge basis at 40 digits: on a
    segment [lo, hi] of q below q = 16, f01/E_C and f12/(E_C q^2) at
    q = lo + (hi - lo)(1 + y)/2; on a segment of t = q^(-1/2), f01/E_C and
    f12/E_C times t at q = 1/t^2; each interpolated at the degree of the
    tables."""
    degree = len(transmon._F01[0]) - 1
    f01, f12 = [], []
    with mpmath.workdps(40):
        for k, (lo, hi) in enumerate(transmon._LEVEL_SEGMENTS):
            nodes = {}

            def at(y, which, lo=mpmath.mpf(lo), hi=mpmath.mpf(hi), in_t=k >= transmon._LEVEL_T_FROM):
                if y not in nodes:
                    x = lo + (hi - lo) * (1 + y) / 2
                    if in_t:
                        g01, g12 = levels_over_ec(1 / (x * x))
                        nodes[y] = (g01 * x, g12 * x)
                    else:
                        g01, g12 = levels_over_ec(x)
                        nodes[y] = (g01, g12 / (x * x))
                return nodes[y][which]

            f01.append(chebyshev_monomials(lambda y: at(y, 0), degree))
            f12.append(chebyshev_monomials(lambda y: at(y, 1), degree))
    return tuple(f01), tuple(f12)


def at_q(q, e_c=1.0):
    """Parameters with q = E_J/(2 E_C) exactly at phi = 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the regime advisory below q ~ 10
        return TransmonParams(e_c=e_c, e_j1=q * e_c, e_j2=q * e_c)


def zero_d_kinds(value):
    """The flux value as every kind of 0-d input: a Python float, a numpy
    float64 and float32 scalar, a 0-d array and, for a whole value, a Python
    and a numpy int.  Each gives the value as float(value) would."""
    kinds = [value, np.float64(value), np.array(value)]
    if float(np.float32(value)) == value:
        kinds.append(np.float32(value))
    if value == int(value):
        kinds += [int(value), np.int64(value)]
    return kinds


def bits(values):
    """The float64 values as int64 bit patterns, so that == compares bits."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_scalars_are_elements(p, phi):
    """Each 0-d flux, of every kind, gives the bits of its element of one
    array call, in the public types: numpy scalars from effective_ej,
    f01_asymptotic, levels and _f01, Python floats from diagonalize."""
    ej = effective_ej(p, phi)
    f01, f12 = levels(p, phi)
    only = transmon._f01(p, phi)
    # f01_asymptotic's values where E_J > E_C/8, past which it raises
    closed = transmon._closed_form_f01(ej, p.e_c)
    if ej.min() > p.e_c / 8.0:
        assert np.array_equal(bits(f01_asymptotic(p, phi)), bits(closed))
    for i, value in enumerate(phi.tolist()):
        for x in zero_d_kinds(value):
            got = (effective_ej(p, x), *levels(p, x), transmon._f01(p, x))
            assert all(type(v) is np.float64 for v in got)
            assert np.array_equal(bits(got), bits([ej[i], f01[i], f12[i], only[i]]))
            if ej[i] > p.e_c / 8.0:
                asym = f01_asymptotic(p, x)
                assert type(asym) is np.float64 and bits(asym) == bits(closed[i])
            else:
                with pytest.raises(TransmonRegimeError):
                    f01_asymptotic(p, x)
            res = diagonalize(p, FluxPoint(phi=x))
            assert all(type(v) is float for v in res[:3]) and res.converged is True
            assert np.array_equal(bits(res[:3]), bits([f01[i], f12[i], f12[i] - f01[i]]))


class TestParams:
    def test_normalization_swaps_and_flags(self):
        p = TransmonParams(e_c=182.0, e_j1=9040.0, e_j2=2140.0)
        assert (p.e_j1, p.e_j2) == (2140.0, 9040.0)

    def test_derived_quantities(self, q0):
        assert q0.e_j_sum == 11180.0

    @pytest.mark.parametrize("bad", [dict(e_c=0.0), dict(e_j1=-1.0), dict(e_j2=0.0)])
    def test_positivity(self, bad):
        kwargs = dict(e_c=182.0, e_j1=2140.0, e_j2=9040.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            TransmonParams(**kwargs)

    def test_regime_advisory_warns(self):
        with pytest.warns(UserWarning, match="transmon regime") as record:
            TransmonParams(e_c=200.0, e_j1=1000.0, e_j2=1000.0)
        # attributed to the line that built the params, not to the
        # record's __new__
        assert [w.filename for w in record] == [__file__]


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
        # levels() returns these Mathieu values, so the check runs on the
        # charge basis to stay independent
        e_c, e_j1, e_j2, *_ = DEVICE_TABLE[name]
        e_j = e_j1 + e_j2 if phi == 0.0 else e_j2 - e_j1
        q = e_j / (2.0 * e_c)
        e0, e1, e2 = e_c * mathieu_a(0, q), e_c * mathieu_b(2, q), e_c * mathieu_a(2, q)
        f01, f12, _ = charge_basis(device_params[name], phi, 41)
        assert abs(f01 - (e1 - e0)) < 1e-6
        assert abs(f12 - (e2 - e1)) < 1e-6

    def test_is_levels_bit_for_bit(self, device_params):
        # diagonalize reads the scalar level kernel on Python floats; it
        # stays while the benchmark calls it, and must give levels' numbers
        # unchanged
        for p in device_params.values():
            for phi in (0.0, 0.13, -0.37, 0.5, 2.25):
                f01, f12 = levels(p, phi)
                res = diagonalize(p, FluxPoint(phi=phi))
                assert (res.f01, res.f12, res.anharmonicity) == (f01, f12, f12 - f01)
                assert res.converged

    def test_anharmonicity_negative(self, device_params):
        for p in device_params.values():
            assert diagonalize(p, FluxPoint(phi=0.0)).anharmonicity < 0.0

    def test_basis_convergence(self, device_params):
        for p in device_params.values():
            for phi in (0.0, 0.5):
                a = charge_basis(p, phi, 31)[0]
                b = charge_basis(p, phi, 41)[0]
                assert abs(a - b) < 1e-3

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

    @settings(deadline=None, max_examples=25)
    @given(st.floats(min_value=-1.5, max_value=1.5))
    def test_spectrum_periodicity(self, phi):
        p = TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0)
        a = diagonalize(p, FluxPoint(phi=phi)).f01
        b = diagonalize(p, FluxPoint(phi=phi + 1.0)).f01
        assert a == pytest.approx(b, rel=1e-9)


class TestLevels:
    @settings(deadline=None, max_examples=60)
    @example(math.log(2000.0), 400.0, 1.0, [0.0, 0.5])  # q = 1000
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
        f01, f12 = levels(p, phi)
        ref01, ref12, ref_conv = charge_basis(p, phi, 61)
        assert ref_conv.all()
        np.testing.assert_allclose(f01, ref01, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(f12, ref12, rtol=0.0, atol=1e-6)

    def test_large_q_matches_charge_basis(self):
        # q = E_J/(2 E_C) = 3000 at phi = 0, 2853 at phi = 0.1 and 469 at
        # phi = 0.45: past q = 1000, where scipy's a_2 is off by 434 E_C at
        # q = 2980, and far past the 41 states of the small devices' oracle
        p = TransmonParams(e_c=100.0, e_j1=3.0e5, e_j2=3.0e5)
        phi = np.array([0.0, 0.1, 0.45])
        q = effective_ej(p, phi) / (2.0 * p.e_c)
        assert q[0] == 3000.0 and q[1] > 2850.0 and q[2] < 1000.0
        f01, f12 = levels(p, phi)
        ref01, ref12, ref_conv = charge_basis(p, phi, 121)
        assert ref_conv.all()
        np.testing.assert_allclose(f01, ref01, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(f12, ref12, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("phi", [float("nan"), [0.1, float("nan")], [0.0, float("inf")]])
    def test_nonfinite_flux_rejected(self, q0, phi):
        # one error from every flux function, for a scalar (math.cos(inf)
        # would raise its own) and an array, with no numpy warning on the way
        for fn in (levels, transmon._f01, effective_ej, f01_asymptotic):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="^flux must be finite, got phi = (nan|inf)$") as raised:
                    fn(q0, phi)
            assert caught == [] and type(raised.value) is ValueError

    @pytest.mark.parametrize(
        "phi", [float("inf"), -np.inf, np.float32("nan"), np.array(np.inf), np.r_[np.zeros(20), np.nan]],
        ids=["inf", "-inf", "float32-nan", "0-d-inf", "21-points"],
    )
    def test_nonfinite_flux_of_every_kind_rejected(self, q0, phi):
        for fn in (levels, transmon._f01, effective_ej, f01_asymptotic):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="^flux must be finite, got phi = -?(nan|inf)$"):
                    fn(q0, phi)
            assert caught == []

    def test_shapes_and_scalar_wrapper(self, q0):
        phi = np.linspace(-0.5, 0.5, 6).reshape(2, 3)
        f01, f12 = levels(q0, phi)
        assert f01.shape == f12.shape == (2, 3)
        res = diagonalize(q0, FluxPoint(phi=float(phi[1, 2])))
        assert (res.f01, res.f12) == (f01[1, 2], f12[1, 2])
        assert res.converged
        # a grid past the point-by-point size, and none at all
        big = np.linspace(-0.5, 0.5, 40).reshape(2, 4, 5)
        assert all(np.shape(v) == (2, 4, 5) for v in levels(q0, big))
        assert all(np.shape(v) == (0,) for v in levels(q0, np.empty(0)))

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(min_value=50.0, max_value=400.0),
        st.floats(min_value=25.0, max_value=150.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=6),
    )
    def test_mathieu_values_do_not_depend_on_the_call(self, e_c, ej_sum_over_ec, r, phis):
        # a 0-d flux goes through E_J and the tables on Python floats, up to
        # 16 fluxes of an array go point by point on Python floats after a
        # numpy E_J, more in a numpy pass per segment of q: every point must
        # get the same bits from each kind of scalar call, a small array and
        # a grid of 41 that spans segments (q from 12.5 to 75 at phi = 0
        # here, down to 0 at phi = 1/2)
        e_sum = e_c * ej_sum_over_ec
        p = TransmonParams(e_c=e_c, e_j1=e_sum * r / (1.0 + r), e_j2=e_sum / (1.0 + r))
        phi = np.array(phis)
        assert_scalars_are_elements(p, phi)
        lean = levels(p, phi)
        grid = levels(p, np.concatenate([phi, np.linspace(-0.5, 0.5, 41 - phi.size)]))
        assert np.array_equal(bits(lean), bits([grid[0][: phi.size], grid[1][: phi.size]]))

    def test_whole_fluxes_of_every_kind(self, q0):
        # ints, as Python and numpy scalars, at both sweet spots' periods
        assert_scalars_are_elements(q0, np.arange(-3.0, 4.0))
        assert_scalars_are_elements(q0, np.arange(-3.0, 4.0) + 0.5)

    def test_scalar_sweep_is_bit_for_bit(self):
        # 10^5 seeded fluxes over |phi| <= 1e3 on devices from E_J1/E_J2 =
        # 0.24 to 0.99: a 0-d flux takes cos and sin from the math module,
        # an array from numpy, so every scalar equals its array element only
        # while numpy's float64 cos and sin round as libm's do
        rng = np.random.default_rng(31)
        for ratio in (0.24, 0.3, 0.4, 0.5, 0.7, 0.9, 0.95, 0.99):
            e_c, e_sum = rng.uniform(170.0, 200.0), rng.uniform(9500.0, 12500.0)
            p = TransmonParams(e_c=e_c, e_j1=e_sum * ratio / (1.0 + ratio), e_j2=e_sum / (1.0 + ratio))
            phi = rng.uniform(-1e3, 1e3, 12500)
            want = (effective_ej(p, phi), f01_asymptotic(p, phi), *levels(p, phi), transmon._f01(p, phi))
            got = np.empty((len(want), phi.size))
            kinds = set()
            for i, x in enumerate(phi.tolist()):
                row = (effective_ej(p, x), f01_asymptotic(p, x), *levels(p, x), transmon._f01(p, x))
                kinds.update(map(type, row))
                got[:, i] = row
                res = diagonalize(p, FluxPoint(phi=x))
                assert (res.f01, res.f12) == row[2:4]
            assert kinds == {np.float64}
            assert np.array_equal(bits(got), bits(want)), f"ratio {ratio}"

    @pytest.mark.parametrize("phi", [0.0, [0.0, 0.1]], ids=["scalar", "array"])
    def test_scipy_nan_point_matches_charge_basis(self, phi):
        # q = 667.25855 at phi = 0, where scipy's mathieu_a(0, q) is NaN
        # (part of q in [667.25, 733.07] is)
        p = TransmonParams(e_c=200.0, e_j1=133451.71, e_j2=133451.71)
        assert np.isnan(mathieu_a(0, effective_ej(p, 0.0) / (2.0 * p.e_c)))
        f01, f12 = levels(p, phi)
        ref01, ref12, _ = charge_basis(p, phi, 121)
        assert np.isfinite(f01).all() and np.isfinite(f12).all()
        np.testing.assert_allclose(f01, ref01, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(f12, ref12, rtol=0.0, atol=1e-6)

    def test_huge_finite_flux_reduced_without_warnings(self, q0):
        # a flux is taken modulo one period, exactly, so pi phi never
        # overflows: 1e15, 1e300 and 1e308 give the bits at fmod(phi, 1) = 0,
        # the sweet spot, and numpy does not warn on the way
        for fn in (levels, transmon._f01, effective_ej, f01_asymptotic):
            for phi in ([0.1, 1e308], 1e308, 10**308, 1e15, [1e15, -1e300]):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    got = fn(q0, phi)
                    want = fn(q0, np.fmod(np.asarray(phi, dtype=float), 1.0))
                assert np.array_equal(bits(got), bits(want))
                assert caught == []

    @pytest.mark.parametrize("k", [1, 1e4, 1e8, 2**40, 2**50])
    def test_whole_periods_drop_out(self, q0, k):
        # k + 0.25 is stored exactly, so fmod keeps the whole phase
        want = levels(q0, 0.25)
        assert np.array_equal(bits(levels(q0, k + 0.25)), bits(want))
        assert np.array_equal(bits(levels(q0, [k + 0.25])), bits(np.reshape(want, (2, 1))))

    @pytest.mark.parametrize(
        "params,message,fns",
        [
            (TransmonParams(e_c=1e-306, e_j1=1e3, e_j2=1e4), "E_C = 1e-306, E_J1 = 1000.0, E_J2 = 10000.0",
             (levels, transmon._f01)),
            (TransmonParams(e_c=180.0, e_j1=1e308, e_j2=1e308), "E_C = 180.0, E_J1 = 1e+308, E_J2 = 1e+308",
             (levels, transmon._f01, effective_ej, f01_asymptotic)),
            (TransmonParams(e_c=180.0, e_j1=2000.0, e_j2=np.inf), "E_C = 180.0, E_J1 = 2000.0, E_J2 = inf",
             (levels, transmon._f01, effective_ej, f01_asymptotic)),
        ],
        ids=["q-overflows", "ej-sum-overflows", "infinite-ej"],
    )
    def test_overflowing_energies_named_without_warnings(self, params, message, fns):
        # pi phi is finite, so the energies are named, not the flux: a tiny
        # E_C overflows only q = E_J/(2 E_C), which the levels take, and
        # E_J1 + E_J2 = inf overflows E_J itself
        for fn in fns:
            for phi in (0.1, [0.1, 0.2], np.array(0.1), np.full(20, 0.1)):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(ValueError, match=rf"^energies {re.escape(message)} MHz overflow at phi = 0\.1$"):
                        fn(params, phi)
                assert caught == []


class TestF01Only:
    """The private f01-only path of the oracle, the level kernel's call that
    the exact-levels tuning fit's residuals make on q."""

    # symmetric SQUIDs at E_C = 0.5: q = E_J(phi) = E_Jsum cos(pi phi).  Up to
    # q = 1100 (past q = 1000, where scipy's values stop holding), and dense
    # grids down from q = 667.30, 733.20 and 820.58, where scipy's a_0 or b_2
    # is NaN at scattered q
    CASES = {
        "to-q-1100": (1100.0, np.linspace(0.0, 0.5, 1101)),
        "a0-nan-667": (667.30, np.linspace(0.0, 0.004, 4001)),
        "a0-nan-733": (733.20, np.linspace(0.0, 0.006, 20001)),
        "b2-nan-820": (820.58, np.linspace(0.0, 0.0022, 20001)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_equals_levels_bit_for_bit(self, case):
        e_sum, phi = self.CASES[case]
        p = TransmonParams(e_c=0.5, e_j1=e_sum / 2.0, e_j2=e_sum / 2.0)
        q = effective_ej(p, phi)
        mathieu_nan = ~np.isfinite(mathieu_b(2, q) - mathieu_a(0, q))
        if case == "to-q-1100":
            assert q.max() == 1100.0 and not mathieu_nan.any()
        else:
            assert mathieu_nan.any()  # the grid meets scipy's NaN window
        want = levels(p, phi)
        got = transmon._f01(p, phi)
        assert got.shape == want[0].shape and np.array_equal(got.view(np.int64), want[0].view(np.int64))
        for i in range(0, phi.size, 97):
            scalar = transmon._f01(p, phi[i])
            assert np.shape(scalar) == () and scalar == want[0][i] == levels(p, phi[i])[0]
        # the charge basis at scipy's NaN points and on every 97th flux
        check = np.union1d(np.flatnonzero(mathieu_nan)[:200], np.arange(0, phi.size, 97))
        ref01, ref12, ref_conv = charge_basis(p, phi[check], 121)
        assert ref_conv.all()
        np.testing.assert_allclose(want[0][check], ref01, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(want[1][check], ref12, rtol=0.0, atol=1e-6)

    def test_takes_no_a2(self, monkeypatch):
        # f12 = E_C (a_2 - b_2) is the only level that needs a_2: with the
        # f12 table gone, _f01 still gives its values on a scalar, point by
        # point, and in a numpy pass over one segment and over several
        # (q from 7 to 11: the 41 fluxes lie in one segment, the 201 in two)
        p = TransmonParams(e_c=500.0, e_j1=2000.0, e_j2=9000.0)
        fluxes = [0.1, np.linspace(0.0, 0.5, 11), np.linspace(-0.1, 0.1, 41), np.linspace(-0.6, 0.6, 201)]
        wants = [levels(p, phi)[0] for phi in fluxes]
        monkeypatch.setattr(transmon, "_F12", None)
        for phi, want in zip(fluxes, wants):
            assert np.array_equal(transmon._f01(p, phi), want)
            with pytest.raises(TypeError):
                levels(p, phi)


class TestLevelTables:
    def test_tables_derive_from_mpmath(self):
        assert level_tables() == (transmon._F01, transmon._F12)
        # the edges in q of the segments, the last t segment reaching q = inf
        segments, split = transmon._LEVEL_SEGMENTS, transmon._LEVEL_T_FROM
        edges = [hi for _, hi in segments[:split]] + [lo**-2 for lo, _ in segments[split:-1]]
        assert transmon._LEVEL_Q_EDGES == tuple(edges) and segments[-1][0] == 0.0

    def test_against_40_digit_levels(self):
        # log-spaced q over [1e-4, 1e6], every edge between two segments and
        # the floats either side of it: f01 and f12 within 1e-12 relative of
        # b_2 - a_0 and a_2 - b_2 solved at 40 digits (seen: 8e-16 and 1.7e-14)
        edges = np.array(transmon._LEVEL_Q_EDGES)
        q = np.concatenate([np.geomspace(1e-4, 1e6, 61), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2e6)])
        worst = 0.0
        with mpmath.workdps(40):
            for value in q:
                f01, f12 = levels(at_q(value), 0.0)
                want01, want12 = levels_over_ec(value)
                worst = max(worst, abs(f01 / want01 - 1), abs(f12 / want12 - 1))
        assert worst < 1e-12

    def test_slope_table_derives_from_f01(self):
        # df01/dq is the derivative of each f01 polynomial in y, with the
        # chain rule through y(q) applied at evaluation
        assert transmon._DF01 == tuple(tuple(float(c) for c in np.polyder(np.array(p))) for p in transmon._F01)

    def test_slope_against_40_digit_levels(self):
        # the q of test_against_40_digit_levels: df01/dq within 1e-12 f01/q
        # of a centred difference of b_2 - a_0 at 40 digits (seen: 3.9e-13),
        # the same bits point by point as in a numpy pass over every segment
        edges = np.array(transmon._LEVEL_Q_EDGES)
        q = np.concatenate([np.geomspace(1e-4, 1e6, 61), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2e6)])
        f01, slope = transmon._at_q(q, 1.0, "slope")
        assert np.array_equal(np.array([transmon._at_q(value, 1.0, "slope") for value in q]), np.array([f01, slope]).T)
        head = transmon._at_q(q[:16], 1.0, "slope")
        assert np.array_equal(head[0], f01[:16]) and np.array_equal(head[1], slope[:16])
        assert np.array_equal(f01, transmon._at_q(q, 1.0, None)[0])

        def f01_over_ec(x):
            return characteristic_value(x, False, 0) - characteristic_value(x, True, 0)

        worst = 0.0
        with mpmath.workdps(40):
            for value, f, got in zip(q, f01, slope):
                h = mpmath.mpf(value) * mpmath.mpf(10) ** -12
                want = (f01_over_ec(value + h) - f01_over_ec(value - h)) / (2 * h)
                worst = max(worst, abs(value * (got - want) / f))
        assert worst < 1e-12

    @pytest.mark.parametrize("q", [1e-12, 1e-8, 1e-6])
    def test_small_q_series(self, q):
        # as q -> 0: a_0 = -q^2/2, b_2 = 4 - q^2/12, a_2 = 4 + 5 q^2/12 to
        # O(q^4) (DLMF 28.6.1-3), so f01 = E_C (4 + 5 q^2/12), f12 = E_C q^2/2
        f01, f12 = levels(at_q(q, 3.0), 0.0)
        assert f01 == pytest.approx(3.0 * (4.0 + 5.0 * q * q / 12.0), rel=1e-15)
        assert f12 == pytest.approx(1.5 * q * q, rel=1e-12)

    def test_zero_q(self):
        # a symmetric SQUID at half flux: E_J = 0 to rounding, q ~ 6e-17
        p = TransmonParams(e_c=200.0, e_j1=5000.0, e_j2=5000.0)
        f01, f12 = levels(p, 0.5)
        assert f01 == pytest.approx(800.0, rel=1e-15) and 0.0 <= f12 < 1e-27

    def test_against_scipy_outside_its_nan_windows(self):
        # q = 1000 cos(pi phi) in steps of ~0.01 over [0, 1000], skipping the
        # points where scipy's a_0 or b_2 is NaN.  The largest difference,
        # 4.1e-10 E_C in f01 and f12 (3.6e-12 relative) at q = 839.26, is
        # scipy's: its b_2 there is that far off the 40-digit value
        p = at_q(1000.0)
        phi = np.arccos(np.linspace(0.0, 1.0, 100001)) / np.pi
        q = effective_ej(p, phi) / 2.0
        f01, f12 = levels(p, phi)
        s01, s12 = mathieu_b(2, q) - mathieu_a(0, q), mathieu_a(2, q) - mathieu_b(2, q)
        finite = np.isfinite(s01) & np.isfinite(s12)
        d01, d12 = np.abs(f01 - s01)[finite], np.abs(f12 - s12)[finite]
        assert d01.max() < 5e-10 and d12.max() < 5e-10
        assert (d01 / s01[finite]).max() < 5e-12
        worst = np.flatnonzero(finite)[np.argmax(d01)]
        with mpmath.workdps(40):
            want01, want12 = levels_over_ec(q[worst])
        assert abs(f01[worst] / want01 - 1) < 1e-15 and abs(f12[worst] / want12 - 1) < 1e-14


class TestAsymptoticScalar:
    def test_scalar_equals_array_element(self, q0):
        phi = np.linspace(-0.5, 0.5, 11)
        for fn in (effective_ej, f01_asymptotic):
            grid = fn(q0, phi)
            for i, value in enumerate(phi.tolist()):
                for x in zero_d_kinds(value):
                    got = fn(q0, x)
                    assert type(got) is np.float64 and bits(got) == bits(grid[i])

    def test_list_and_int_arrays(self, q0):
        # any array-like is taken as float64, as levels takes it
        for fn in (effective_ej, f01_asymptotic):
            want = fn(q0, np.array([0.0, 0.25, 1.0]))
            assert np.array_equal(bits(fn(q0, [0.0, 0.25, 1])), bits(want))
            assert np.array_equal(bits(fn(q0, np.array([0, 1]))), bits(want[[0, 2]]))
            assert fn(q0, np.float32([0.25])).dtype == np.float64

    @pytest.mark.parametrize("phi", [0.5, np.array([0.0, 0.5, 0.2])])
    def test_regime_error_names_the_flux(self, phi):
        sym = TransmonParams(e_c=182.0, e_j1=5000.0, e_j2=5000.0)
        with pytest.raises(TransmonRegimeError, match=r"at phi = 0\.5 is outside"):
            f01_asymptotic(sym, phi)
