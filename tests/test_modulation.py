"""Harmonic series for the time-averaged frequency, against the exact oracle."""

import math
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxline.config import load_config
from fluxline.modulation import (
    FluxDrive,
    _harmonic_tuple,
    SymmetricSquidError,
    C_VECTOR,
    avg_frequency,
    harmonic_series,
    s_coeff,
    second_order_shift,
    time_average_oracle,
)
from fluxline.specfun import bessel_j0
from fluxline.transmon import FluxPoint, TransmonParams, diagonalize

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
        # z = 0.9999 and 0.999999: the 1 - z connection formulas of hyp2f1
        # keep a cold series at a few ms (the power series took seconds,
        # or raised ConvergenceError, from ratio 0.985 on)
        p = TransmonParams(e_c=185.0, e_j1=11300.0 * ratio / (1.0 + ratio), e_j2=11300.0 / (1.0 + ratio))
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

