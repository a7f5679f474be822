"""Special functions against classical identities and independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0 as scipy_j0
from scipy.special import j1 as scipy_j1

from fluxline import specfun
from fluxline.specfun import ConvergenceError, bessel_j0, bessel_j1, hyp2f1

from conftest import chebyshev_monomials

# first positive zero of J0, frozen from a bisection root-find on the
# ascending series (see test_first_zero_from_series)
J0_FIRST_ZERO = 2.404825557695773


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero_from_series(self):
        # independent oracle: bisection on the plain ascending series
        def series(x):
            total, term = 1.0, 1.0
            for k in range(1, 60):
                term *= -(x * x / 4.0) / (k * k)
                total += term
            return total

        lo, hi = 2.0, 3.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if series(lo) * series(mid) <= 0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(J0_FIRST_ZERO, abs=1e-12)
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-9

    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=60)
    def test_integral_definition(self, x):
        expected, _ = quad(lambda th: math.cos(x * math.sin(th)), 0.0, math.pi, limit=200)
        assert bessel_j0(x) == pytest.approx(expected / math.pi, abs=1e-8)

    @given(st.floats(min_value=0.1, max_value=40.0))
    @settings(max_examples=60)
    def test_j1_is_minus_j0_derivative(self, x):
        # h wide enough that eps-level wobble of J0 is not amplified by 1/h;
        # the kernels meet at the crossover to ~1e-15, so no x is left out
        h = 1e-4
        deriv = (bessel_j0(x + h) - bessel_j0(x - h)) / (2.0 * h)
        assert bessel_j1(x) == pytest.approx(-deriv, abs=1e-7)

    def test_parity(self):
        assert bessel_j0(-3.7) == bessel_j0(3.7)
        assert bessel_j1(-3.7) == -bessel_j1(3.7)

    def test_crossover_continuity(self):
        # the two kernels meet at X0 = 8 to within their error
        for fn in (bessel_j0, bessel_j1):
            assert fn(7.999999999) == pytest.approx(fn(8.000000001), abs=1e-9)
            assert fn(np.nextafter(8.0, 9.0)) == pytest.approx(fn(8.0), abs=4e-15)


def mp_besselj(nu, x):
    with mpmath.workdps(30):
        return np.array([float(mpmath.besselj(nu, float(v))) for v in np.ravel(x)])


def bessel_coefficients():
    """specfun's Bessel tables from mpmath at 40 digits: h(y) = (1 - J0(x))/t
    and g(y) = J1(x)/x with x = X0 sqrt(t), t = (1 + y)/2; P and x Q of the
    Hankel form with x = X0/sqrt(u), u = (1 + y)/2."""
    x0 = specfun._BESSEL_X0

    def small(nu):
        def f(y):
            t = (1 + y) / 2
            x = x0 * mpmath.sqrt(t)
            return (1 - mpmath.besselj(0, x)) / t if nu == 0 else mpmath.besselj(1, x) / x
        return f

    def hankel(nu, part):
        def f(y):
            x = x0 / mpmath.sqrt((1 + y) / 2)
            chi = x - (2 * nu + 1) * mpmath.pi / 4
            j, yv = mpmath.besselj(nu, x), mpmath.bessely(nu, x)
            scale = mpmath.sqrt(mpmath.pi * x / 2)
            if part == "p":
                return scale * (j * mpmath.cos(chi) + yv * mpmath.sin(chi))
            return x * scale * (yv * mpmath.cos(chi) - j * mpmath.sin(chi))
        return f

    with mpmath.workdps(40):
        return (
            tuple(chebyshev_monomials(small(nu), 14) for nu in (0, 1)),
            tuple(chebyshev_monomials(hankel(nu, "p"), 11) for nu in (0, 1)),
            tuple(chebyshev_monomials(hankel(nu, "q"), 11) for nu in (0, 1)),
        )


class TestBesselArrays:
    # both sides of the crossover at X0 = 8, negative arguments and zero
    X = np.concatenate(
        [np.linspace(-40.0, 40.0, 4001), 8.0 + np.linspace(-1e-6, 1e-6, 21), [0.0, -8.0]]
    )

    # first three positive zeros of J0 and J1 (DLMF table 10.21.1), where
    # the absolute error is largest against the value
    ZEROS = {
        0: [2.404825557695773, 5.520078110286311, 8.653727912911013],
        1: [3.831705970207512, 7.015586669815619, 10.17346813506272],
    }

    @pytest.mark.parametrize("nu,fn", [(0, bessel_j0), (1, bessel_j1)])
    def test_against_mpmath(self, nu, fn):
        # a dense grid on [-100, 100], the crossover, tiny arguments and the
        # neighbourhoods of the zeros, each within 2e-15 absolute
        x = np.concatenate([
            np.linspace(-100.0, 100.0, 8001),
            np.linspace(7.0, 9.0, 801),
            8.0 + np.linspace(-1e-6, 1e-6, 21),
            [1e-300, -1e-8, 1e-3],
            (np.array(self.ZEROS[nu])[:, None] + np.array([-1e-9, 0.0, 1e-9])).ravel(),
        ])
        got = fn(x)
        np.testing.assert_allclose(got, mp_besselj(nu, x), rtol=0.0, atol=2e-15)
        # an element's value does not depend on the array it comes in
        assert all(fn(float(v)) == g for v, g in zip(x, got))

    @pytest.mark.parametrize("nu,fn", [(0, bessel_j0), (1, bessel_j1)])
    def test_large_arguments_against_mpmath(self, nu, fn):
        # the phase x - (2 nu + 1) pi/4 is not rounded: up to 1e6 the error
        # stays at the rounding of the amplitude (the earlier kernels' ~4e-14
        # came from rounding it)
        x = np.concatenate([np.geomspace(100.0, 1e6, 801), -np.geomspace(100.0, 1e6, 41)])
        np.testing.assert_allclose(fn(x), mp_besselj(nu, x), rtol=0.0, atol=2e-16)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=200)
    def test_property_against_mpmath(self, x):
        assert abs(bessel_j0(x) - mp_besselj(0, x)[0]) <= 2e-15
        assert abs(bessel_j1(x) - mp_besselj(1, x)[0]) <= 2e-15

    def test_coefficients_derive_from_mpmath(self):
        assert bessel_coefficients() == (specfun._J_SMALL, specfun._HANKEL_P, specfun._HANKEL_XQ)

    def test_against_scipy(self):
        np.testing.assert_allclose(bessel_j0(self.X), scipy_j0(self.X), rtol=0.0, atol=2e-12)
        np.testing.assert_allclose(bessel_j1(self.X), scipy_j1(self.X), rtol=0.0, atol=2e-12)

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1])
    def test_value_independent_of_batch(self, fn):
        # as many arguments as the beta scan's (harmonic, candidate,
        # amplitude) array
        rng = np.random.default_rng(7)
        x = rng.uniform(-80.0, 80.0, (30, 9, 41))
        batch = fn(x)
        assert batch.shape == x.shape
        # every value as in its candidate's own (9, 41) call, and a seeded
        # sample of them as in a call on that argument alone
        assert all(np.array_equal(fn(row), b) for row, b in zip(x, batch))
        for i in rng.choice(x.size, 600, replace=False):
            assert fn(float(x.flat[i])) == batch.flat[i]

    def test_huge_arguments_are_finite_and_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = np.array([5e305, 1e307, 1.7e308])
            assert np.isfinite(bessel_j0(x)).all() and np.isfinite(bessel_j1(-x)).all()
        # against the leading Hankel term, its phase reduced at 420 digits
        # (a phase rounded to a float, or an amplitude overflowing to 0, misses)
        with mpmath.workdps(420):
            for nu, fn in [(0, bessel_j0), (1, bessel_j1)]:
                want = [mpmath.sqrt(2 / (mpmath.pi * v)) * mpmath.cos(v - (2 * nu + 1) * mpmath.pi / 4)
                        for v in map(mpmath.mpf, x)]
                np.testing.assert_allclose(fn(x), [float(w) for w in want], rtol=1e-12)

    def test_parity_zero_and_types(self):
        x = np.linspace(0.0, 30.0, 301)
        assert (bessel_j0(-x) == bessel_j0(x)).all()
        assert (bessel_j1(-x) == -bessel_j1(x)).all()
        assert bessel_j0(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]
        assert bessel_j1(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
        assert type(bessel_j0(2.5)) is float and type(bessel_j1(-13.0)) is float
        assert bessel_j0(np.ones((2, 3))).shape == (2, 3)


class TestHyp2f1:
    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.25, max_value=4.0),
    )
    def test_value_at_origin(self, a, b, c):
        assert hyp2f1(a, b, c, 0.0) == 1.0

    @given(st.floats(min_value=0.0, max_value=0.95))
    def test_geometric_series_identity(self, z):
        # 2F1(1, b; b; z) = 1/(1-z)
        assert hyp2f1(1.0, 2.0, 2.0, z) == pytest.approx(1.0 / (1.0 - z), rel=1e-12)

    def test_geometric_example(self):
        assert hyp2f1(1.0, 2.0, 2.0, 0.5) == pytest.approx(2.0, rel=1e-14)

    @given(
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=0.0, max_value=0.95),
    )
    @settings(max_examples=80)
    # b the smallest normal float: 1/Gamma(b) ~ b alone is at the edge of the float range
    @example(a=0.5, b=2.2250738585072014e-308, c=1.0, z=0.875)
    def test_symmetry_in_a_b(self, a, b, c, z):
        assert hyp2f1(a, b, c, z) == pytest.approx(hyp2f1(b, a, c, z), rel=1e-12)

    def test_against_scipy(self):
        from scipy.special import hyp2f1 as scipy_hyp2f1

        for a, b, c in [(0.125, 0.625, 1.0), (1.5, 2.25, 3.0), (-0.125, 0.375, 1.0)]:
            for z in (0.0, 0.2, 0.6, 0.8, 0.95):
                assert hyp2f1(a, b, c, z) == pytest.approx(
                    float(scipy_hyp2f1(a, b, c, z)), rel=1e-10
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 1.0, -0.1)

    @pytest.mark.parametrize("z", [0.5, 0.9])
    def test_value_past_the_float_range_is_a_convergence_error(self, z):
        # c subnormal: 2F1 - 1 ~ a b z / c is past the float range, either
        # side of z = 0.75
        with pytest.raises(ConvergenceError, match=rf"^hyp2f1\(0.3, 0.4; 1e-310; {z}\) = inf is not a finite float$"):
            hyp2f1(0.3, 0.4, 1e-310, z)

    @pytest.mark.parametrize("z", [0.5, 0.9, 0.999])
    def test_tiny_parameters(self, z):
        # below 2^-64 a parameter enters through 2F1 - 1 = (a b / c) S alone:
        # against closed forms for subnormals and mpmath at 40 digits
        assert hyp2f1(0.7, 1e-300, 1e-300, z) == pytest.approx((1.0 - z) ** -0.7, rel=1e-14)
        assert hyp2f1(5e-324, 2.5, 2.5, z) == 1.0
        for a, b, c in [(0.3, 0.4, 1e-30), (1e-25, -1.5, 1e-30), (-1e-40, 1.5, 0.6), (1e-20, -1e-20, 3.5)]:
            assert hyp2f1(a, b, c, z) == pytest.approx(mp_hyp2f1(a, b, c, z), rel=1e-15)

    @pytest.mark.parametrize("name, a, b, c", [
        ("a", math.inf, 1.0, 2.0), ("a", math.nan, 1.0, 2.0), ("b", 1.0, math.inf, 0.5),
        ("b", 1.0, -math.nan, 2.0), ("c", 1.0, 1.0, math.inf), ("c", 1.0, 1.0, -math.inf),
        ("c", 1.0, 1.0, math.nan),
    ])
    def test_nonfinite_parameter_is_a_value_error(self, name, a, b, c):
        # named, as z is, not an OverflowError from int(c), a value or a NaN series
        with pytest.raises(ValueError, match=rf"^hyp2f1 requires finite a, b and c, got {name}="):
            hyp2f1(a, b, c, 0.5)

    def test_nonconvergence_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError, match=r"^hyp2f1\(100000.0, 100000.0; 1.0; 0.9\) not converged"):
            hyp2f1(1e5, 1e5, 1.0, 0.9)


def mp_hyp2f1(a, b, c, z):
    with mpmath.workdps(40):
        return float(mpmath.hyp2f1(a, b, c, z))


# z from 0.75, past which 2F1 is summed in 1 - z, to 1 - 1e-10
Z_NEAR_ONE = [0.7500001, 0.76, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10]


class TestHyp2f1NearOne:
    """Near z = 1, where 2F1 takes its connection to 1 - z (DLMF 15.8.4,
    15.8.10), against mpmath at 40 digits."""

    @pytest.mark.parametrize("n", range(13))
    def test_modulation_series_arguments(self, n):
        # every (a, b, c) that s_coeff passes up to MAX_ORDER = 12:
        # c - a - b runs over 3/4, 1/2, ..., -5/4, integers 0 and -1 included
        for k in range(9):
            if n and k == 1:
                continue  # (0)_n = 0: s_coeff skips the term
            a = 0.5 * n + (k - 1) / 8.0
            for z in Z_NEAR_ONE:
                want = mp_hyp2f1(a, a + 0.5, n + 1.0, z)
                assert hyp2f1(a, a + 0.5, n + 1.0, z) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
    def test_integer_c_minus_a_minus_b(self, m):
        # the logarithmic case; dyadic a, b so that c - a - b is exactly m
        for a, b in [(0.3125, 0.5), (1.75, -0.40625), (-2.5625, 4.125), (6.375, 5.0625), (1.0, 2.0)]:
            c = a + b + m
            assert c - a - b == m
            for z in Z_NEAR_ONE:
                assert hyp2f1(a, b, c, z) == pytest.approx(mp_hyp2f1(a, b, c, z), rel=1e-10)

    def test_integer_up_to_rounding(self):
        # 1.3 - 0.1 - 0.2 is 1 + 2e-16 in floats: the integer case up to rounding
        for z in (0.9, 1 - 1e-6, 1 - 1e-10):
            assert hyp2f1(0.1, 0.2, 1.3, z) == pytest.approx(mp_hyp2f1(0.1, 0.2, 1.3, z), rel=1e-10)

    @pytest.mark.parametrize("a", [0.0, -1.0, -2.0, -3.0, -6.0])
    def test_terminating(self, a):
        # b and c generic, c - b a non-positive integer (a zero at z = 1),
        # and b - c + a + 1 a non-positive integer
        for b, c in [(0.7, 1.9), (7.3, 5.2), (-2.25, 0.5), (3.3125, 1.3125), (2.5, 4.5 + a)]:
            if c <= 0 and c == int(c):
                continue
            for z in Z_NEAR_ONE:
                want = mp_hyp2f1(a, b, c, z)
                scale = max(abs(want), 1e-300)
                assert abs(hyp2f1(a, b, c, z) - want) <= 1e-10 * scale
                assert abs(hyp2f1(b, a, c, z) - want) <= 1e-10 * scale

    @pytest.mark.parametrize("offset", [-1.5e-3, 1.5e-3, -5e-4, 1e-6, 1e-12])
    def test_near_integer_c_minus_a_minus_b(self, offset):
        # c - a - b next to an integer, where the connection formula's
        # Gamma factors near their poles and cancel: every z meets the target
        for a, b, m in [(0.625, 1.25, 0), (2.4, 1.7, 2), (-1.3, 0.45, -1)]:
            c = a + b + m + offset
            for z in Z_NEAR_ONE:
                assert hyp2f1(a, b, c, z) == pytest.approx(mp_hyp2f1(a, b, c, z), rel=1e-10)

    @pytest.mark.parametrize("a, b, c, z", [
        (1.3, 0.7, 180.2, 0.9),  # Gamma(c - a) past the float range
        (2.0, 1.0, 175.5, 0.95),
        (-4.87, -2.83, 112.5, 0.915),  # 1/(Gamma(c - a) Gamma(c - b)) below it
        (-4.14, -3.1, 99.0, 0.78),
    ])
    def test_gamma_factors_past_the_float_range(self, a, b, c, z):
        assert hyp2f1(a, b, c, z) == pytest.approx(mp_hyp2f1(a, b, c, z), rel=1e-10)

    def test_integer_c_minus_a_minus_b_past_the_factorial_range(self):
        # the logarithmic case's (m - k - 1)! for m = 199 is past the float range
        assert hyp2f1(0.5, 0.5, 200.0, 0.8) == pytest.approx(mp_hyp2f1(0.5, 0.5, 200.0, 0.8), rel=1e-10)

    def test_cancellation_takes_the_power_series(self):
        # large a and b at moderate z, where the connection formula's two
        # terms cancel by more than 1000
        a, b, c, z = 6.875, 7.375, 13.0, 0.8
        assert hyp2f1(a, b, c, z) == pytest.approx(mp_hyp2f1(a, b, c, z), rel=1e-12)

    def test_random_arguments(self):
        # a, b uniform in +-20, or b = c - a - m with integer m in [-3, 3] in
        # a fifth of the draws (the logarithmic case), c in [0.1, 30] and
        # z in [0.75, 0.999]: no point misses 1e-10 or raises
        rng = np.random.default_rng(0)
        for _ in range(400):
            a, c, z = rng.uniform(-20.0, 20.0), rng.uniform(0.1, 30.0), rng.uniform(0.75, 0.999)
            b = c - a - int(rng.integers(-3, 4)) if rng.uniform() < 0.2 else rng.uniform(-20.0, 20.0)
            with mpmath.workdps(50):
                want = float(mpmath.hyp2f1(a, b, c, z))
            assert hyp2f1(a, b, c, z) == pytest.approx(want, rel=1e-10, abs=0.0)
