"""Attenuation/crosstalk budget arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fluxline.config import load_config
from fluxline.signal_chain import (
    AttenuationChain,
    LineBudget,
    attenuation_factor,
    chain_total,
    drive_current,
    flux_from_current,
    spurious_shift_report,
)
from fluxline.modulation import second_order_shift


class TestAttenuation:
    def test_reference_points(self):
        assert attenuation_factor(0.0) == 1.0
        assert attenuation_factor(20.0) == pytest.approx(0.1, rel=1e-12)
        assert attenuation_factor(85.0) == pytest.approx(5.623413251903491e-5, rel=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=120.0),
        st.floats(min_value=0.0, max_value=120.0),
    )
    def test_db_additivity(self, a, b):
        assert attenuation_factor(a + b) == pytest.approx(
            attenuation_factor(a) * attenuation_factor(b), rel=1e-12
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            attenuation_factor(-1.0)

    @pytest.mark.parametrize("db", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, db):
        with pytest.raises(ValueError, match="finite"):
            attenuation_factor(db)


class TestDriveCurrent:
    def test_no_attenuation(self):
        assert drive_current(LineBudget(gamma_db=0.0, v_p=1.0)) == pytest.approx(0.04)

    def test_pi_pulse_budget(self):
        # frozen from 2 * 10^(-85/20) * 0.3 / 50
        budget = LineBudget(gamma_db=85.0, v_p=0.3)
        assert drive_current(budget) == pytest.approx(6.748095902284189e-7, rel=1e-12)

    def test_zero_drive(self):
        assert drive_current(LineBudget(gamma_db=85.0, v_p=0.0)) == 0.0

    @given(st.floats(min_value=1e-3, max_value=10.0))
    def test_linear_in_amplitude(self, v_p):
        one = drive_current(LineBudget(gamma_db=30.0, v_p=1.0))
        assert drive_current(LineBudget(gamma_db=30.0, v_p=v_p)) == pytest.approx(
            v_p * one, rel=1e-12
        )


class TestLineBudget:
    @pytest.mark.parametrize("name", ["gamma_db", "v_p", "r_ohm", "m_fH"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_rejected(self, name, value):
        fields = dict(gamma_db=85.0, v_p=0.3, r_ohm=50.0, m_fH=500.0)
        fields[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            LineBudget(**fields)

    def test_negative_peak_amplitude_rejected(self):
        with pytest.raises(ValueError, match=r"^v_p must be >= 0, got -0.3$"):
            LineBudget(gamma_db=85.0, v_p=-0.3)
        assert LineBudget(gamma_db=85.0, v_p=0.0).v_p == 0.0


class TestFluxFromCurrent:
    def test_pi_pulse_flux(self):
        phi = flux_from_current(500.0, 6.748095902284189e-7)
        assert phi == pytest.approx(1.6e-4, rel=0.03)

    @pytest.mark.parametrize("m_fh", [float("nan"), float("inf"), 0.0])
    def test_bad_mutual_rejected(self, m_fh):
        with pytest.raises(ValueError, match="m_fH"):
            flux_from_current(m_fh, 1e-6)

    def test_zero(self):
        assert flux_from_current(500.0, 0.0) == 0.0

    @given(st.floats(min_value=1.0, max_value=5000.0))
    def test_linear_in_mutual(self, m_fh):
        base = flux_from_current(m_fh, 1e-6)
        assert flux_from_current(2.0 * m_fh, 1e-6) == pytest.approx(2.0 * base, rel=1e-12)


class TestSpuriousShiftReport:
    def test_pi_pulse_report(self, q0):
        report = spurious_shift_report(q0, LineBudget(gamma_db=85.0, v_p=0.3))
        assert report.phi_ac == pytest.approx(1.6e-4, rel=0.03)
        # the report composes the exact pipeline flux with the quadratic
        # shift; it must agree with evaluating the shift at that flux
        assert report.delta_f_hz == pytest.approx(
            second_order_shift(q0, report.phi_ac), rel=1e-12
        )
        assert report.delta_f_hz == pytest.approx(-79.0, abs=4.0)
        assert not report.detectable

    def test_zero_drive(self, q0):
        report = spurious_shift_report(q0, LineBudget(gamma_db=85.0, v_p=0.0))
        assert report.delta_f_hz == 0.0
        assert not report.detectable

    @pytest.mark.parametrize("linewidth", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_linewidth_rejected(self, q0, linewidth):
        with pytest.raises(ValueError, match="linewidth_hz must be finite and > 0"):
            spurious_shift_report(q0, LineBudget(gamma_db=85.0, v_p=0.3), linewidth_hz=linewidth)

    def test_shift_overflow_names_the_budget(self, q0):
        # a finite line flux ~1e301 whose quadratic shift overflows: the
        # error names the budget, not a phi_ac the caller never passed
        budget = LineBudget(gamma_db=0.0, v_p=1e300)
        with pytest.raises(ValueError) as excinfo:
            spurious_shift_report(q0, budget)
        assert str(excinfo.value) == f"{budget!r} overflows the second-order shift of {q0!r}"

    def test_alpha_squared_scaling(self, q0):
        weak = spurious_shift_report(q0, LineBudget(gamma_db=85.0, v_p=0.3))
        strong = spurious_shift_report(q0, LineBudget(gamma_db=45.0, v_p=0.3))
        # 40 dB less attenuation: x100 in amplitude, x1e4 in shift
        assert strong.delta_f_hz == pytest.approx(1e4 * weak.delta_f_hz, rel=1e-9)
        assert strong.detectable

    @given(st.floats(min_value=0.01, max_value=5.0))
    def test_quadratic_in_amplitude(self, v_p):
        from fluxline.transmon import TransmonParams

        p = TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0)
        one = spurious_shift_report(p, LineBudget(gamma_db=60.0, v_p=1.0)).delta_f_hz
        got = spurious_shift_report(p, LineBudget(gamma_db=60.0, v_p=v_p)).delta_f_hz
        assert got == pytest.approx(v_p**2 * one, rel=1e-9)


class TestChainTotal:
    def test_example_config_chains(self, example_config):
        cfg = load_config(example_config)
        xy = chain_total(cfg.chains["xy"])
        assert xy.total_db == pytest.approx(66.0)
        assert xy.breakdown[-1][2] == pytest.approx(66.0)
        z = chain_total(cfg.chains["z"])
        assert z.total_db == pytest.approx(20.0)
        assert len(z.breakdown) == 1

    def test_single_zero_segment(self):
        chain = AttenuationChain(segments=(("thru", 0.0),))
        assert chain_total(chain).total_db == 0.0

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain_total(AttenuationChain(segments=()))

    def test_negative_segment_rejected(self):
        with pytest.raises(ValueError):
            AttenuationChain(segments=(("bad", -3.0),))

    @pytest.mark.parametrize("db", [float("nan"), float("inf")])
    def test_nonfinite_segment_rejected(self, db):
        with pytest.raises(ValueError, match="'bad'.*finite"):
            AttenuationChain(segments=(("ok", 10.0), ("bad", db)))

    def test_breakdown_is_cumulative(self):
        chain = AttenuationChain(segments=(("a", 10.0), ("b", 6.0), ("c", 20.0)))
        report = chain_total(chain)
        assert [row[2] for row in report.breakdown] == [10.0, 16.0, 36.0]
