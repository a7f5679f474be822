"""Special functions against classical identities and independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0 as scipy_j0
from scipy.special import j1 as scipy_j1

from fluxline.specfun import bessel_j0, bessel_j1, gamma_fn, hyp2f1, rising_factorial

# first positive zero of J0, frozen from a bisection root-find on the
# ascending series (see test_first_zero_from_series)
J0_FIRST_ZERO = 2.404825557695773


class TestGamma:
    def test_exact_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=10.0))
    def test_recurrence(self, z):
        assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z), rel=1e-10)

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5])
    def test_domain(self, z):
        with pytest.raises(ValueError):
            gamma_fn(z)

    @given(st.floats(min_value=0.05, max_value=8.0), st.integers(min_value=0, max_value=12))
    def test_rising_factorial_matches_gamma_ratio(self, x, n):
        assert rising_factorial(x, n) == pytest.approx(
            gamma_fn(x + n) / gamma_fn(x), rel=1e-9
        )

    def test_rising_factorial_at_poles(self):
        # Gamma-ratio limit at the pole of the denominator
        assert rising_factorial(0.0, 3) == 0.0
        assert rising_factorial(-1.0, 3) == 0.0
        assert rising_factorial(-0.5, 2) == pytest.approx(-0.25)


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
        from hypothesis import assume

        # keep the stencil away from the series/asymptotic crossover, and
        # wide enough that eps-level wobble of J0 is not amplified by 1/h
        assume(abs(x - 12.0) > 1e-2)
        h = 1e-4
        deriv = (bessel_j0(x + h) - bessel_j0(x - h)) / (2.0 * h)
        assert bessel_j1(x) == pytest.approx(-deriv, abs=1e-7)

    def test_parity(self):
        assert bessel_j0(-3.7) == bessel_j0(3.7)
        assert bessel_j1(-3.7) == -bessel_j1(3.7)

    def test_crossover_continuity(self):
        below = bessel_j0(11.999999999)
        above = bessel_j0(12.000000001)
        assert below == pytest.approx(above, abs=1e-9)


def scalar_bessel(x, nu):
    """The scalar loop the array kernels replaced: the same ascending series
    up to |x| = 12 and Hankel expansion beyond, each truncated on its own."""
    ax = abs(x)
    if ax <= 12.0:
        q = 0.25 * ax * ax
        term = 1.0 if nu == 0 else 0.5 * ax
        total = term
        for k in range(1, 200):
            term *= -q / (k * (k + nu))
            total += term
            if abs(term) <= 1e-17 * (abs(total) + 1e-300):
                break
    else:
        mu, w, p, q, prev = 4.0 * nu * nu, 1.0, 1.0, 0.0, math.inf
        for k in range(1, 40):
            w *= (mu - (2 * k - 1) ** 2) / (8.0 * k * ax)
            if abs(w) >= prev:
                break
            prev = abs(w)
            sign = -1.0 if (k // 2) % 2 else 1.0
            if k % 2 == 1:
                q += sign * w
            else:
                p += sign * w
        chi = ax - (0.5 * nu + 0.25) * math.pi
        total = math.sqrt(2.0 / (math.pi * ax)) * (p * math.cos(chi) - q * math.sin(chi))
    return -total if nu == 1 and x < 0.0 else total


class TestBesselArrays:
    # both sides of the crossover at 12, negative arguments and zero
    X = np.concatenate(
        [np.linspace(-40.0, 40.0, 4001), 12.0 + np.linspace(-1e-6, 1e-6, 21), [0.0, -12.0]]
    )

    @pytest.mark.parametrize("nu,fn", [(0, bessel_j0), (1, bessel_j1)])
    def test_elementwise_equals_scalar_loop(self, nu, fn):
        got = fn(self.X)
        want = np.array([scalar_bessel(float(x), nu) for x in self.X])
        series = np.abs(self.X) <= 12.0
        # identical arithmetic in the series range; beyond it numpy's and
        # the math module's cos/sin may differ in the last bit
        assert (got[series] == want[series]).all()
        np.testing.assert_allclose(got[~series], want[~series], rtol=0.0, atol=1e-15)
        # an element's value does not depend on the array it comes in
        assert all(fn(float(x)) == g for x, g in zip(self.X, got))

    def test_against_scipy(self):
        np.testing.assert_allclose(bessel_j0(self.X), scipy_j0(self.X), rtol=0.0, atol=2e-12)
        np.testing.assert_allclose(bessel_j1(self.X), scipy_j1(self.X), rtol=0.0, atol=2e-12)

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
    def test_symmetry_in_a_b(self, a, b, c, z):
        assert hyp2f1(a, b, c, z) == pytest.approx(hyp2f1(b, a, c, z), rel=1e-12)

    def test_euler_branch_consistency(self):
        # the transformed route (used for z > 0.75) must agree with the
        # plain series route at the same argument
        from fluxline.specfun import _hyp2f1_series

        a, b, c, z = 0.375, 0.875, 1.0, 0.8
        assert hyp2f1(a, b, c, z) == pytest.approx(
            _hyp2f1_series(a, b, c, z, 100000), rel=1e-11
        )

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

    def test_nonconvergence_reports_term_count(self):
        from fluxline.specfun import ConvergenceError

        with pytest.raises(ConvergenceError, match="terms"):
            hyp2f1(1.125, 0.625, 1.0, 0.9, max_terms=5)
