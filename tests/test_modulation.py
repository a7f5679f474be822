"""Harmonic series for the time-averaged frequency, against the exact oracle."""

import math
from time import perf_counter

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxline.config import load_config
from fluxline.modulation import (
    FluxDrive,
    MAX_SAMPLES,
    _harmonic_tuple,
    _sample_count,
    SymmetricSquidError,
    C_VECTOR,
    avg_frequency,
    harmonic_series,
    s_coeff,
    second_order_shift,
    time_average_oracle,
)
from fluxline.specfun import ConvergenceError, bessel_j0
from fluxline.transmon import FluxPoint, TransmonParams, diagonalize, f01_asymptotic, levels

from conftest import EXAMPLE_CONFIG, charge_basis


class TestConstants:
    def test_c_vector_entries(self):
        c = C_VECTOR
        assert len(c) == 9
        assert c[0] == 4.0
        assert c[2] == -0.25
        # dyadic rationals are exact in binary floating point
        assert c[8] == -446287.0 / 2**20
        assert c[8] == pytest.approx(-0.425612, abs=1e-6)

    @given(st.floats(min_value=100.0, max_value=20000.0))
    def test_ej_tilde_is_one_iff_symmetric(self, ej):
        # ej_tilde = 1 exactly at E_J1 = E_J2, the series boundary
        p = TransmonParams(e_c=ej / 60.0, e_j1=ej, e_j2=ej)
        with pytest.raises(SymmetricSquidError):
            s_coeff(p, 0)
        q = TransmonParams(e_c=ej / 60.0, e_j1=ej, e_j2=1.5 * ej)
        assert math.isfinite(s_coeff(q, 0))


class TestHarmonicCoefficients:
    def test_static_sum_reproduces_sweet_spots(self, q0):
        s = [s_coeff(q0, n) for n in range(9)]
        f_max = sum(s)
        f_min = sum(v * (-1) ** n for n, v in enumerate(s))
        assert abs(f_max - 3851.0) < 10.0
        assert abs(f_min - 2981.0) < 15.0

    def test_leading_coefficient_dominates(self, q0):
        s = harmonic_series(q0, 8)
        assert all(abs(s[0]) > abs(v) for v in s[1:])

    def test_harmonics_decay(self, q0):
        assert abs(s_coeff(q0, 9)) < abs(s_coeff(q0, 8))

    def test_symmetric_squid_rejected(self):
        sym = TransmonParams(e_c=182.0, e_j1=5000.0, e_j2=5000.0)
        with pytest.raises(SymmetricSquidError, match="oracle"):
            s_coeff(sym, 0)

    @pytest.mark.parametrize("ratio", [0.99, 0.999])
    def test_near_symmetric_series_is_cheap_cold(self, ratio):
        # the rfft takes 8192 and 65536 flux samples here, a few ms cold
        # (a 2F1 power series per coefficient took seconds, or raised
        # ConvergenceError, from ratio 0.985 on)
        p = _device(ratio)
        _harmonic_tuple.cache_clear()
        t0 = perf_counter()
        s = harmonic_series(p, 8)
        assert perf_counter() - t0 < 0.05
        assert all(math.isfinite(v) for v in s)

    def test_order_validation(self, q0):
        with pytest.raises(ValueError):
            harmonic_series(q0, 0)
        with pytest.raises(ValueError):
            avg_frequency(q0, FluxDrive(0.0, 0.0), 13)


def _device(ratio: float, e_c: float = 185.0, e_j_sum: float = 11300.0) -> TransmonParams:
    return TransmonParams(e_c=e_c, e_j1=e_j_sum * ratio / (1.0 + ratio), e_j2=e_j_sum / (1.0 + ratio))


def _hypergeometric_series(params: TransmonParams, order: int) -> list[float]:
    """s_0..s_order from the paper's closed form, with 2F1 from mpmath at 40 digits.

    Expanding (1 + ej_tilde cos 2 pi phi)^(-(k-1)/4) term by term turns the
    k-th entry of the xi-series into a Gauss 2F1 in z = ej_tilde^2 per
    harmonic; the k = 1 entry carries (0)_n and enters s_0 alone.
    """
    with mpmath.workdps(40):
        e_c, e_j1, e_j2 = (mpmath.mpf(v) for v in (params.e_c, params.e_j1, params.e_j2))
        sq = e_j1 * e_j1 + e_j2 * e_j2
        xi = mpmath.sqrt(2 * e_c / mpmath.sqrt(sq))
        ej_tilde = 2 * e_j1 * e_j2 / sq
        out = []
        for n in range(order + 1):
            total = mpmath.mpf(0)
            for k, ck in enumerate(C_VECTOR):
                ratio = mpmath.rf(mpmath.mpf(k - 1) / 4, n)
                if ratio:
                    a = mpmath.mpf(n) / 2 + mpmath.mpf(k - 1) / 8
                    total += ck * xi ** (k - 1) * ratio * mpmath.hyp2f1(a, a + 0.5, n + 1, ej_tilde**2)
            prefactor = 1 if n == 0 else 2  # harmonics +n and -n pair up
            out.append(float(prefactor * e_c * (-ej_tilde / 2) ** n * total / mpmath.factorial(n)))
    return out


class TestHypergeometricReference:
    """The rfft coefficients against the paper's hypergeometric closed form."""

    @pytest.mark.parametrize("ratio", [0.05, 0.24, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999])
    def test_coefficients(self, ratio):
        p = _device(ratio)
        want = np.array(_hypergeometric_series(p, 8))
        tol = 1e-12 * np.abs(want).max()
        for params in (p, TransmonParams(e_c=p.e_c, e_j1=p.e_j2, e_j2=p.e_j1)):
            _harmonic_tuple.cache_clear()
            assert np.abs(np.array(harmonic_series(params, 8)) - want).max() <= tol
            assert np.abs(np.array([s_coeff(params, n) for n in range(9)]) - want).max() <= tol

    def test_twelve_harmonics(self, q0):
        want = np.array(_hypergeometric_series(q0, 12))
        got = np.array(harmonic_series(q0, 12))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestSampleCount:
    """M: a power of two >= 64 set by E_J1/E_J2, capped at MAX_SAMPLES."""

    def test_rule(self):
        ratios = [0.01, 0.24, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99, 0.999, 0.9998]
        counts = [_sample_count(_device(r), 8) for r in ratios]
        assert all(m >= 64 and m & (m - 1) == 0 for m in counts)
        assert counts == sorted(counts)
        assert counts[:2] == [64, 64] and counts[-1] == MAX_SAMPLES
        # no more samples than the aliasing bound needs
        for r, m in zip(ratios, counts):
            assert m == 64 or m / 2 < 8 + math.log(1e-18) / math.log(r)

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-6), st.floats(min_value=1e-3, max_value=1.0 - 1e-6))
    def test_non_decreasing_and_capped(self, r1, r2):
        # ratios past the cap raise, here and in every series built on them
        def count(r):
            p = _device(r)
            try:
                return _sample_count(p, 8)
            except ConvergenceError:
                assert 8 + math.log(1e-18) / math.log(p.e_j1 / p.e_j2) > MAX_SAMPLES
                return math.inf

        lo, hi = sorted((r1, r2))
        assert count(lo) <= count(hi)

    def test_past_the_cap_raises_naming_ratio_and_oracle(self):
        _harmonic_tuple.cache_clear()
        message = r"^harmonic series of E_J1/E_J2 = 0\.9999 needs more than 262144 flux samples; use time_average_oracle instead$"
        with pytest.raises(ConvergenceError, match=message):
            harmonic_series(_device(0.9999), 8)
        with pytest.raises(ConvergenceError, match=message):
            avg_frequency(_device(0.9999), FluxDrive(0.0, 0.1))

    def test_large_harmonic_index(self, q0):
        # s_coeff takes any n >= 0: past the aliasing bound (~29 harmonics
        # here) its grid still holds 2n samples, so harmonic n is on it
        assert abs(s_coeff(q0, 200)) < 1e-12 * abs(s_coeff(q0, 0))


class TestFluxDrive:
    @pytest.mark.parametrize("kwargs,name", [
        ({"phi_dc": math.nan, "phi_ac": 0.1}, "phi_dc"),
        ({"phi_dc": 0.0, "phi_ac": math.inf}, "phi_ac"),
    ], ids=["phi_dc", "phi_ac"])
    def test_nonfinite_values_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FluxDrive(**kwargs)

    @pytest.mark.parametrize("phi_ac,message", [
        ([0.1, -0.2, 0.3], "phi_ac must be >= 0, got -0.2"),
        ([0.1, math.nan, 0.3], "phi_ac must be finite, got nan"),
    ], ids=["negative", "nan"])
    def test_array_with_one_bad_entry_rejected(self, phi_ac, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FluxDrive(0.0, np.array(phi_ac))


class TestArrayDrive:
    """An array drive gives, bit for bit, what per-point calls give."""

    AMPS = np.linspace(0.0, 0.5, 51)

    @pytest.fixture(scope="class")
    def example_qubits(self):
        return [q.params for q in load_config(EXAMPLE_CONFIG).qubits]

    @pytest.mark.parametrize("phi_dc", [0.0, 0.13, -0.31])
    def test_avg_frequency(self, example_qubits, phi_dc):
        for p in example_qubits:
            got = avg_frequency(p, FluxDrive(phi_dc, self.AMPS))
            want = [avg_frequency(p, FluxDrive(phi_dc, float(a))) for a in self.AMPS]
            assert got.shape == self.AMPS.shape and np.array_equal(got, want)

    def test_avg_frequency_broadcasts_both_fluxes(self, q0):
        phi_dc = np.array([0.0, 0.13, -0.31])[:, None]
        got = avg_frequency(q0, FluxDrive(phi_dc, self.AMPS))
        want = [[avg_frequency(q0, FluxDrive(float(d), float(a))) for a in self.AMPS] for d in phi_dc[:, 0]]
        assert got.shape == (3, 51) and np.array_equal(got, want)

    @pytest.mark.parametrize("phi_dc", [0.0, 0.13])
    def test_time_average_oracle(self, q0, phi_dc):
        amps = np.linspace(0.0, 0.5, 11)
        got = time_average_oracle(q0, FluxDrive(phi_dc, amps))
        want = [time_average_oracle(q0, FluxDrive(phi_dc, float(a))) for a in amps]
        assert got.shape == amps.shape and np.array_equal(got, want)

    def test_second_order_shift(self, q0):
        got = second_order_shift(q0, self.AMPS)
        assert np.array_equal(got, [second_order_shift(q0, float(a)) for a in self.AMPS])
        with pytest.raises(ValueError, match="^phi_ac must be >= 0, got -0.1$"):
            second_order_shift(q0, np.array([0.1, -0.1]))

    def test_overflow_raises_naming_the_flux(self, q0):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and without a numpy warning
            with pytest.raises(ValueError, match=r"^phi_ac must keep 2 pi n phi_ac finite for n <= 8, got 1e\+308$"):
                avg_frequency(q0, FluxDrive(0.0, np.array([0.1, 1e308])))
            with pytest.raises(ValueError, match=r"^phi_dc must keep 2 pi n phi_dc finite for n <= 4, got -1e\+308$"):
                avg_frequency(q0, FluxDrive(-1e308, self.AMPS), 4)
            with pytest.raises(ValueError, match=r"^phi_ac must keep the second-order shift finite, got 1e\+200$"):
                second_order_shift(q0, np.array([0.1, 1e200]))
            # huge but representable phases give finite values
            assert math.isfinite(avg_frequency(q0, FluxDrive(1e305, 1e305)))
            assert math.isfinite(second_order_shift(q0, 1e140))

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3)])
    @pytest.mark.parametrize("fn", [
        f01_asymptotic,
        lambda p, phi: levels(p, phi)[0],
        lambda p, phi: avg_frequency(p, FluxDrive(phi, 0.1)),
        lambda p, phi: avg_frequency(p, FluxDrive(0.1, phi)),
        lambda p, phi: time_average_oracle(p, FluxDrive(phi, 0.1)),
        second_order_shift,
    ], ids=["f01_asymptotic", "levels", "avg_frequency-dc", "avg_frequency-ac", "time_average_oracle",
            "second_order_shift"])
    def test_no_flux_gives_an_empty_array(self, q0, fn, shape):
        got = fn(q0, np.empty(shape))
        assert isinstance(got, np.ndarray) and got.shape == shape

    def test_scalar_drive_gives_float(self, q0):
        drive = FluxDrive(0.13, 0.1)
        assert type(avg_frequency(q0, drive)) is float
        assert type(time_average_oracle(q0, drive, 256)) is float
        assert type(second_order_shift(q0, 0.1)) is float


class TestAvgFrequency:
    def test_zero_drive_matches_diagonalization(self, device_params):
        for p in device_params.values():
            for phi_dc in np.linspace(0.0, 0.5, 11):
                series = avg_frequency(p, FluxDrive(float(phi_dc), 0.0), 8)
                exact = diagonalize(p, FluxPoint(phi=float(phi_dc))).f01
                assert abs(series - exact) < 15.0

    def test_published_max_and_min(self, q0):
        assert abs(avg_frequency(q0, FluxDrive(0.0, 0.0), 8) - 3851.0) < 10.0
        assert abs(avg_frequency(q0, FluxDrive(0.5, 0.0), 8) - 2981.0) < 15.0

    def test_pi_pulse_leakage_shift(self, q0):
        # the headline crosstalk number: ~ -79 Hz at phi_ac = 1.6e-4
        ref = avg_frequency(q0, FluxDrive(0.0, 0.0), 8)
        shifted = avg_frequency(q0, FluxDrive(0.0, 1.6e-4), 8)
        assert (shifted - ref) * 1e6 == pytest.approx(-79.0, abs=2.0)


    def test_equals_harmonic_loop(self, q0):
        # the scalar loop the one-call form replaced, as the reference
        s = harmonic_series(q0, 8)
        for phi_dc, phi_ac in [(0.0, 0.1), (0.3, 0.25), (0.5, 0.0)]:
            total = 0.0
            for n, sn in enumerate(s):
                total += sn * math.cos(2.0 * math.pi * n * phi_dc) * bessel_j0(
                    2.0 * math.pi * n * phi_ac
                )
            got = avg_frequency(q0, FluxDrive(phi_dc, phi_ac), 8)
            assert got == pytest.approx(total, rel=1e-14)

class TestSecondOrderShift:
    def test_headline_value(self, q0):
        assert second_order_shift(q0, 1.6e-4) == pytest.approx(-79.0, abs=1.0)

    def test_zero_amplitude(self, q0):
        assert second_order_shift(q0, 0.0) == 0.0

    def test_quadratic_scaling(self, q0):
        assert second_order_shift(q0, 3.2e-4) == pytest.approx(
            4.0 * second_order_shift(q0, 1.6e-4), rel=1e-12
        )

    @given(st.floats(min_value=0.0, max_value=0.01))
    def test_never_positive(self, phi_ac):
        p = TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0)
        assert second_order_shift(p, phi_ac) <= 0.0

    def test_junction_ratio_symmetry(self):
        a = TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0)
        b = TransmonParams(e_c=182.0, e_j1=9040.0, e_j2=2140.0)
        assert second_order_shift(a, 1e-3) == second_order_shift(b, 1e-3)

    def test_negative_amplitude_rejected(self, q0):
        with pytest.raises(ValueError):
            second_order_shift(q0, -1e-4)


class TestOracle:
    def test_constant_drive_equals_diagonalization(self, q0):
        exact = diagonalize(q0, FluxPoint(phi=0.0)).f01
        avg = time_average_oracle(q0, FluxDrive(0.0, 0.0), 256)
        assert avg == pytest.approx(exact, abs=1e-9)

    def test_matches_series_at_moderate_amplitude(self, q0):
        drive = FluxDrive(0.0, 0.1)
        assert time_average_oracle(q0, drive, 512) == pytest.approx(
            avg_frequency(q0, drive, 8), abs=1.0
        )

    def test_bounded_by_extremes(self, q0):
        f_max = diagonalize(q0, FluxPoint(phi=0.0)).f01
        f_min = diagonalize(q0, FluxPoint(phi=0.5)).f01
        for phi_dc, phi_ac in [(0.0, 0.3), (0.2, 0.15), (0.5, 0.4)]:
            avg = time_average_oracle(q0, FluxDrive(phi_dc, phi_ac), 256)
            assert f_min - 1e-9 <= avg <= f_max + 1e-9

    def test_step_count_validation(self, q0):
        with pytest.raises(ValueError):
            time_average_oracle(q0, FluxDrive(0.0, 0.1), 128)

    @pytest.mark.parametrize("phi_dc,phi_ac", [(0.0, 0.1), (0.2, 0.3), (0.5, 0.05)])
    def test_reproducible_and_matches_charge_basis_loop(self, q0, phi_dc, phi_ac):
        drive = FluxDrive(phi_dc, phi_ac)
        a = time_average_oracle(q0, drive)
        assert time_average_oracle(q0, drive) == a  # bit-identical
        # reference: the per-point 41-state charge-basis loop the oracle replaced
        total = 0.0
        for th in 2.0 * np.pi * np.arange(512) / 512:
            phi = phi_dc + phi_ac * math.cos(th)
            total += charge_basis(q0, phi, 41)[0]
        assert abs(a - total / 512) < 1e-9


    @pytest.mark.parametrize("n_steps", [256, 257, 512, 2048])
    def test_half_period_equals_full_period_sum(self, n_steps):
        # the oracle samples theta in [0, pi] and counts the mirrored samples
        # twice; the full-period sum it replaced agrees within 1e-11 MHz,
        # odd n_steps (no sample at theta = pi) and a device with q up to
        # 1100 included
        rng = np.random.default_rng([20210901, n_steps])
        devices = [TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0),
                   TransmonParams(e_c=185.0, e_j1=5500.0, e_j2=5600.0)]
        if n_steps == 256:
            devices.append(TransmonParams(e_c=100.0, e_j1=1.0e5, e_j2=1.2e5))
        theta = 2.0 * np.pi * np.arange(n_steps) / n_steps
        for p in devices:
            phi_dc, phi_ac = rng.uniform(-0.5, 0.5, 6), rng.uniform(0.0, 0.5, 6)
            got = time_average_oracle(p, FluxDrive(phi_dc, phi_ac), n_steps)
            phi = phi_dc[:, None] + phi_ac[:, None] * np.cos(theta)
            want = np.sum(levels(p, phi)[0], axis=-1) / n_steps
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11)


class TestSeriesVsOracle:
    def test_oracle_equivalence_q0(self, q0):
        f_max = diagonalize(q0, FluxPoint(phi=0.0)).f01
        f_min = diagonalize(q0, FluxPoint(phi=0.5)).f01
        span = f_max - f_min
        for phi_ac in (0.05, 0.15, 0.25):
            drive = FluxDrive(0.0, phi_ac)
            series = avg_frequency(q0, drive, 8)
            oracle = time_average_oracle(q0, drive, 512)
            assert abs(series - oracle) < 0.005 * span
            # the truncated series may only leave the static band marginally
            assert f_min - 1.0 <= series <= f_max + 1.0

    def test_small_amplitude_limit(self, q0):
        f_ref = avg_frequency(q0, FluxDrive(0.0, 0.0), 8)
        for phi_ac in (1e-4, 5e-4, 1e-3):
            shift = (avg_frequency(q0, FluxDrive(0.0, phi_ac), 8) - f_ref) * 1e6
            ratio = shift / second_order_shift(q0, phi_ac)
            assert 0.99 <= ratio <= 1.01

    def test_oracle_equivalence_off_sweet_spot(self, q0):
        # the cos(2 pi n phi_dc) factors carry the DC-bias dependence
        for phi_dc in (0.1, 0.25):
            drive = FluxDrive(phi_dc, 0.08)
            series = avg_frequency(q0, drive, 8)
            oracle = time_average_oracle(q0, drive, 512)
            assert series == pytest.approx(oracle, abs=1.0)

