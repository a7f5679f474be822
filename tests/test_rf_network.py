"""Ladder networks, filter synthesis, and the diplexer junction model."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxline.rf_network as rf

DB = lambda x: 20.0 * np.log10(np.abs(x))


def s_params(net: rf.LadderNetwork, f_mhz):
    """(s11, s21) of net, one element per frequency: the kernel that
    diplexer_eval and two_port_sweep_csv run."""
    return rf._s_params(*rf._ladder(net, f_mhz), net.z0)


def tee_attenuator(db: float, z0: float = 50.0) -> rf.LadderNetwork:
    """Matched resistive T-pad, used as a lossy reference network."""
    k = 10.0 ** (db / 20.0)
    r_series = z0 * (k - 1.0) / (k + 1.0)
    r_shunt = 2.0 * z0 * k / (k * k - 1.0)
    return rf.LadderNetwork(
        elements=(
            rf.Element("series", "R", r_series),
            rf.Element("shunt", "R", r_shunt),
            rf.Element("series", "R", r_series),
        ),
        z0=z0,
    )


class TestElements:
    def test_series_stamp(self):
        el = rf.Element("series", "L", 1e-9)
        f = 1000.0  # MHz
        m = rf.element_abcd(el, f)
        assert m[0, 0] == 1.0 and m[1, 1] == 1.0 and m[1, 0] == 0.0
        assert m[0, 1] == pytest.approx(1j * 2.0 * math.pi * f * 1e6 * 1e-9)

    def test_shunt_stamp(self):
        el = rf.Element("shunt", "C", 1e-12)
        m = rf.element_abcd(el, 500.0)
        assert m[0, 1] == 0.0
        assert m[1, 0] == pytest.approx(1j * 2.0 * math.pi * 500e6 * 1e-12)

    def test_vanishing_impedance_is_identity(self):
        # series Z -> 0 and shunt Y -> 0 collapse to the identity two-port
        tiny_l = rf.element_abcd(rf.Element("series", "L", 1e-18), 10.0)
        assert np.allclose(tiny_l, np.eye(2), atol=1e-9)
        tiny_c = rf.element_abcd(rf.Element("shunt", "C", 1e-21), 10.0)
        assert np.allclose(tiny_c, np.eye(2), atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            rf.Element("diagonal", "L", 1e-9)
        with pytest.raises(ValueError):
            rf.Element("series", "X", 1e-9)
        with pytest.raises(ValueError):
            rf.Element("series", "L", 0.0)
        with pytest.raises(ValueError):
            rf.element_abcd(rf.Element("series", "L", 1e-9), 0.0)


class TestCascadeAndSParams:
    def test_identity_cascade(self):
        one, zero = np.ones(1, dtype=complex), np.zeros(1, dtype=complex)
        eye = (one, zero, zero, one)
        assert all(np.array_equal(m, e) for m, e in zip(rf._product(eye, eye), eye))
        s11, s21 = rf._s_params(*eye, 50.0)
        assert s11[0] == 0.0
        assert s21[0] == pytest.approx(1.0)

    def test_series_resistor_at_z0(self):
        _, s21 = s_params(rf.LadderNetwork((rf.Element("series", "R", 50.0),)), 100.0)
        assert s21[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert 20.0 * math.log10(abs(s21[0])) == pytest.approx(-3.52, abs=0.01)

    def test_matched_attenuators_cascade_in_db(self):
        # two pads in cascade are one ladder of both pads' elements
        pad = tee_attenuator(10.0)
        _, s21_two = s_params(rf.LadderNetwork(pad.elements + pad.elements, pad.z0), 750.0)
        assert DB(s21_two[0]) == pytest.approx(-20.0, abs=1e-9)

    def test_singular_conversion_raises(self):
        m = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex)  # A+D = 0, B=C=0
        with pytest.raises(ValueError, match="non-physical"):
            rf._s_params(*m, 50.0)


class TestPrototype:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_g_values_closed_form(self, n):
        gs = rf.butterworth_g(n)
        for k, g in enumerate(gs, start=1):
            assert g == 2.0 * math.sin((2 * k - 1) * math.pi / (2 * n))

    def test_first_order_prototype(self):
        assert rf.butterworth_g(1) == [pytest.approx(2.0)]
        net = rf.synth_lowpass(1, 1500.0)
        assert len(net.elements) == 1
        wc = 2.0 * math.pi * 1500e6
        assert net.elements[0].value == pytest.approx(2.0 * 50.0 / wc)


class TestLowpass:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_half_power_at_cutoff(self, n):
        net = rf.synth_lowpass(n, 1500.0)
        _, s21 = s_params(net, 1500.0)
        assert DB(s21[0]) == pytest.approx(-3.01, abs=0.05)

    def test_rolloff_slope_order_five(self):
        net = rf.synth_lowpass(5, 1500.0)
        f1, f2 = 3.0 * 1500.0, 10.0 * 1500.0
        d1, d2 = DB(s_params(net, [f1, f2])[1])
        slope = (d2 - d1) / math.log10(f2 / f1)
        assert slope == pytest.approx(-100.0, abs=5.0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            rf.synth_lowpass(12, 1500.0)
        with pytest.raises(ValueError):
            rf.synth_lowpass(0, 1500.0)


class TestBandpass:
    def test_center_transmission(self):
        net = rf.synth_bandpass(5, 3000.0, 7000.0)
        f0 = math.sqrt(3000.0 * 7000.0)
        _, s21 = s_params(net, f0)
        assert DB(s21[0]) == pytest.approx(0.0, abs=0.1)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_band_edges_and_rejection(self, n):
        net = rf.synth_bandpass(n, 3000.0, 7000.0)
        grid = np.logspace(math.log10(500.0), math.log10(15000.0), 3000)
        s21_db = DB(s_params(net, grid)[1])
        i0 = int(np.argmin(np.abs(grid - math.sqrt(21.0) * 1000.0)))
        lo = rf._crossing(grid[: i0 + 1], s21_db[: i0 + 1], rf.HALF_POWER_DB, rising=True)
        hi = rf._crossing(grid[i0:], s21_db[i0:], rf.HALF_POWER_DB, rising=False)
        assert abs(lo / 3000.0 - 1.0) < 0.10
        assert abs(hi / 7000.0 - 1.0) < 0.10
        _, s21 = s_params(net, 14000.0)
        assert DB(s21[0]) < -20.0

    def test_frequency_ordering_validation(self):
        with pytest.raises(ValueError):
            rf.synth_bandpass(5, 7000.0, 3000.0)


@st.composite
def ladders(draw, components=("L", "C"), max_elements=8):
    n = draw(st.integers(min_value=1, max_value=max_elements))
    els = []
    for _ in range(n):
        kind = draw(st.sampled_from(["series", "shunt"]))
        comp = draw(st.sampled_from(components))
        if comp == "R":
            value = 10.0 ** draw(st.floats(min_value=-1.0, max_value=4.0))
        else:
            exponent = draw(st.floats(min_value=-12.0, max_value=-7.0))
            value = 10.0**exponent if comp == "L" else 10.0 ** (exponent - 3.0)
        els.append(rf.Element(kind, comp, value))
    return rf.LadderNetwork(elements=tuple(els), z0=50.0)


def det_residual(a, b, c, d):
    """|A·D − B·C − 1| relative to |A·D| + |B·C|, the scale of its rounding."""
    return np.abs(a * d - b * c - 1.0) / (np.abs(a * d) + np.abs(b * c))


class TestNetworkInvariants:
    @given(ladders(), st.floats(min_value=1.0, max_value=15000.0))
    @settings(max_examples=80)
    def test_lossless_unitarity_and_reciprocity(self, net, f):
        m = rf._ladder(net, f)
        s11, s21 = rf._s_params(*m, net.z0)
        assert abs(s11[0]) ** 2 + abs(s21[0]) ** 2 == pytest.approx(1.0, abs=1e-9)
        assert det_residual(*m)[0] < 1e-9

    def test_lossy_network_not_unitary(self):
        resp = rf.network_response(tee_attenuator(10.0), 100.0)
        assert abs(resp.s11) ** 2 + abs(resp.s21) ** 2 < 0.5

    def test_synthesized_networks_on_default_grid(self):
        lp = rf.synth_lowpass(5, 1500.0)
        bp = rf.synth_bandpass(5, 3000.0, 7000.0)
        for net in (lp, bp):
            m = rf._ladder(net, rf.default_frequency_grid(200))
            s11, s21 = rf._s_params(*m, net.z0)
            assert np.all(np.abs(np.abs(s11) ** 2 + np.abs(s21) ** 2 - 1.0) <= 1e-9)
            assert np.all(det_residual(*m) < 1e-9)

    def test_det_is_the_cascaded_product(self):
        # a non-reciprocal factor (det 2) must show in the determinant of the
        # product's entries, so the reciprocity checks above are not vacuous
        net = rf.synth_lowpass(3, 1500.0)
        skewed = rf._product(rf._ladder(net, 1000.0), (1.0, 0.0, 0.0, 2.0))
        a, b, c, d = skewed
        assert (a * d - b * c)[0] == pytest.approx(2.0, rel=1e-12)
        assert det_residual(*skewed)[0] > 0.1

    def test_array_response_matches_scalar_calls(self):
        net = rf.synth_bandpass(5, 3000.0, 7000.0)
        grid = rf.default_frequency_grid(50)
        resp = rf.network_response(net, grid)
        assert resp.abcd.shape == (50, 2, 2) and resp.s21.shape == (50,)
        for i, f in enumerate(grid):
            one = rf.network_response(net, float(f))
            assert one.s11 == resp.s11[i] and one.s21 == resp.s21[i]
            assert np.array_equal(one.abcd, resp.abcd[i])


@pytest.fixture(scope="module")
def response():
    lp = rf.synth_lowpass(5, 1500.0)
    bp = rf.synth_bandpass(5, 3000.0, 7000.0)
    return rf.diplexer_eval(lp, bp, 50.0, rf.default_frequency_grid(1200))


class TestDiplexer:
    def test_low_frequency_routing(self, response):
        i = int(np.argmin(np.abs(response.frequencies_mhz - 100.0)))
        assert DB(response.s32[i]) > -1.0
        assert DB(response.s31[i]) < -20.0

    def test_band_center_routing(self, response):
        i = int(np.argmin(np.abs(response.frequencies_mhz - 5000.0)))
        assert DB(response.s31[i]) > -3.0

    def test_port_isolation(self, response):
        assert DB(response.s12).max() < -20.0

    def test_junction_passivity(self, response):
        power = np.abs(response.s31) ** 2 + np.abs(response.s32) ** 2
        assert power.max() <= 1.0 + 1e-9

    def test_mismatched_z0_rejected(self):
        lp = rf.synth_lowpass(5, 1500.0, z0=50.0)
        bp = rf.synth_bandpass(5, 3000.0, 7000.0, z0=75.0)
        with pytest.raises(ValueError, match="z0"):
            rf.diplexer_eval(lp, bp, 50.0, np.array([100.0]))

    def test_empty_grid_rejected(self):
        lp = rf.synth_lowpass(5, 1500.0)
        bp = rf.synth_bandpass(5, 3000.0, 7000.0)
        with pytest.raises(ValueError, match="empty"):
            rf.diplexer_eval(lp, bp, 50.0, np.array([]))

    @pytest.mark.parametrize("k", [-2.0, -1e-12, float("nan"), float("inf")])
    def test_bad_eccosorb_rejected(self, k):
        lp = rf.synth_lowpass(5, 1500.0)
        bp = rf.synth_bandpass(5, 3000.0, 7000.0)
        with pytest.raises(ValueError, match="eccosorb_ohm_per_ghz"):
            rf.diplexer_eval(lp, bp, 50.0, np.array([5000.0]), eccosorb_ohm_per_ghz=k)

    def test_eccosorb_knob_adds_loss(self):
        lp = rf.synth_lowpass(5, 1500.0)
        bp = rf.synth_bandpass(5, 3000.0, 7000.0)
        grid = np.array([5000.0])
        clean = rf.diplexer_eval(lp, bp, 50.0, grid)
        lossy = rf.diplexer_eval(lp, bp, 50.0, grid, eccosorb_ohm_per_ghz=2.0)
        assert abs(lossy.s31[0]) < abs(clean.s31[0])


class TestCheckSpec:
    def test_default_design_passes(self, response):
        report = rf.check_spec(response)
        assert report.passed
        assert {i.name for i in report.items} == {
            "lp_cutoff",
            "bp_low_edge",
            "bp_high_edge",
            "isolation",
        }

    def test_tight_isolation_fails_with_worst_freq(self, response):
        tight = rf.DiplexerSpec(isolation_db=-60.0)
        report = rf.check_spec(response, tight)
        assert not report.passed
        item = next(i for i in report.items if i.name == "isolation")
        assert not item.passed
        assert item.margin < 0
        # worst leakage lives in the crossover region between the two bands
        assert 1000.0 < item.worst_freq_mhz < 4000.0

    def test_first_order_lowpass_fails_isolation(self):
        lp = rf.synth_lowpass(1, 1500.0)
        bp = rf.synth_bandpass(5, 3000.0, 7000.0)
        resp = rf.diplexer_eval(lp, bp, 50.0, rf.default_frequency_grid(1200))
        report = rf.check_spec(resp)
        assert not report.passed

    def test_insufficient_grid_rejected(self, response):
        with pytest.raises(ValueError):
            rf.check_spec(
                rf.DiplexerResponse(
                    frequencies_mhz=np.array([100.0, 200.0]),
                    s31=np.zeros(2, dtype=complex),
                    s32=np.zeros(2, dtype=complex),
                    s12=np.zeros(2, dtype=complex),
                )
            )

    def test_isolation_limit_below_the_grid_rejected(self, response):
        # no frequency of the grid lies at or below the isolation limit
        low = rf.DiplexerSpec(isolation_max_freq_mhz=5.0)
        with pytest.raises(ValueError, match="^isolation limit 5.0 MHz lies below the frequency grid's start 10 MHz$"):
            rf.check_spec(response, low)


class TestSerialization:
    def test_json_roundtrip(self):
        net = rf.synth_bandpass(3, 3000.0, 7000.0)
        doc = json.loads(rf.network_to_json(net))
        assert doc["z0"] == net.z0
        assert [rf.Element(**e) for e in doc["elements"]] == list(net.elements)

    def test_two_port_sweep_csv(self):
        net = rf.synth_lowpass(3, 1500.0)
        text = rf.two_port_sweep_csv(net, np.array([100.0, 1500.0]))
        lines = text.splitlines()
        assert lines[0] == "frequency_mhz,s21_db,s11_db"
        assert len(lines) == 3
        cutoff_row = lines[2].split(",")
        assert float(cutoff_row[1]) == pytest.approx(-3.01, abs=0.05)
        # a scalar frequency is a one-row sweep
        assert rf.two_port_sweep_csv(net, 1500.0) == "\n".join([lines[0], lines[2]]) + "\n"


# The per-frequency 2 x 2 matrix-product loop that the entrywise kernel
# replaced, kept here as an independent reference: the kernel must match
# it within ATOL_S in S.  Bit for bit, an evaluation over a grid must equal
# the same call made one frequency at a time (as one-element arrays).

ATOL_S = 1e-12


def loop_network_abcd(net, f):
    out = np.eye(2, dtype=complex)
    for el in net.elements:
        z = el.impedance(f)
        if el.kind == "series":
            m = np.array([[1.0, z], [0.0, 1.0]], dtype=complex)
        else:
            m = np.array([[1.0, 0.0], [1.0 / z, 1.0]], dtype=complex)
        out = out @ m
    return out


def loop_s(abcd, z0):
    a, b, c, d = abcd[0, 0], abcd[0, 1], abcd[1, 0], abcd[1, 1]
    den = a + b / z0 + c * z0 + d
    return (a + b / z0 - c * z0 - d) / den, 2.0 / den


def loop_diplexer_eval(lp, bp, z0, freqs, k=0.0):
    def y_from_junction(m):
        rev = np.array([[m[1, 1], m[0, 1]], [m[1, 0], m[0, 0]]], dtype=complex)
        return 1.0 / ((rev[0, 0] * z0 + rev[0, 1]) / (rev[1, 0] * z0 + rev[1, 1]))

    def chain(*ms):
        out = np.eye(2, dtype=complex)
        for m in ms:
            out = out @ m
        return out

    shunt = lambda y: np.array([[1.0, 0.0], [y, 1.0]], dtype=complex)
    s = np.empty((3, freqs.size), dtype=complex)
    for i, f in enumerate(freqs):
        m_bp, m_lp = loop_network_abcd(bp, f), loop_network_abcd(lp, f)
        r_out = k * f / 1000.0
        out = [np.array([[1.0, complex(r_out)], [0.0, 1.0]], dtype=complex)] if r_out > 0.0 else []
        y_port3 = 1.0 / (z0 + r_out) if r_out > 0.0 else 1.0 / z0
        rev_bp = np.array([[m_bp[1, 1], m_bp[0, 1]], [m_bp[1, 0], m_bp[0, 0]]], dtype=complex)
        s[0, i] = loop_s(chain(m_bp, shunt(y_from_junction(m_lp)), *out), z0)[1]
        s[1, i] = loop_s(chain(m_lp, shunt(y_from_junction(m_bp)), *out), z0)[1]
        s[2, i] = loop_s(chain(m_lp, shunt(y_port3), rev_bp), z0)[1]
    return s


def loop_sweep_csv(freqs, s11, s21):
    lines = ["frequency_mhz,s21_db,s11_db"]
    for f, a, b in zip(freqs, s11, s21):
        s21_db = 20.0 * math.log10(abs(complex(b)) + 1e-300)
        s11_db = 20.0 * math.log10(abs(complex(a)) + 1e-300)
        lines.append(f"{float(f):.12g},{s21_db:.12g},{s11_db:.12g}")
    return "\n".join(lines) + "\n"


def loop_crossing(freqs, vals_db, level, rising):
    for i in range(len(freqs) - 1):
        a, b = vals_db[i], vals_db[i + 1]
        if (a < level <= b) if rising else (a >= level > b):
            t = (level - a) / (b - a)
            return freqs[i] * (freqs[i + 1] / freqs[i]) ** t
    return None


frequency_arrays = st.lists(
    st.floats(min_value=1.0, max_value=15000.0), min_size=1, max_size=12
).map(np.array)


def diplexer_s(lp, bp, freqs, k):
    got = rf.diplexer_eval(lp, bp, 50.0, freqs, eccosorb_ohm_per_ghz=k)
    return np.array([got.s31, got.s32, got.s12])


def assert_diplexer_matches(lp, bp, freqs, k):
    got = diplexer_s(lp, bp, freqs, k)
    one_at_a_time = np.concatenate([diplexer_s(lp, bp, freqs[i : i + 1], k) for i in range(freqs.size)], axis=1)
    assert np.array_equal(got, one_at_a_time)
    assert np.abs(got - loop_diplexer_eval(lp, bp, 50.0, freqs, k)).max() <= ATOL_S


class TestStackedAgainstLoop:
    @given(ladders(("L", "C", "R")), frequency_arrays)
    @settings(max_examples=80, deadline=None)
    def test_network_response_bit_identical(self, net, freqs):
        resp = rf.network_response(net, freqs)
        for i, f in enumerate(freqs):
            one = rf.network_response(net, freqs[i : i + 1])
            assert np.array_equal(resp.abcd[i], one.abcd[0])
            assert resp.s11[i] == one.s11[0] and resp.s21[i] == one.s21[0]
            s11, s21 = loop_s(loop_network_abcd(net, float(f)), net.z0)
            assert abs(resp.s11[i] - s11) <= ATOL_S and abs(resp.s21[i] - s21) <= ATOL_S

    @given(ladders(("L", "C", "R"), 5), ladders(("L", "C", "R"), 5), frequency_arrays,
           st.sampled_from([0.0, 0.7, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_diplexer_ladders_bit_identical(self, lp, bp, freqs, k):
        assert_diplexer_matches(lp, bp, freqs, k)

    @pytest.mark.parametrize("n_lp", [3, 5, 7, 9])
    @pytest.mark.parametrize("n_bp", [3, 5, 7, 9])
    def test_diplexer_orders_bit_identical(self, n_lp, n_bp):
        lp = rf.synth_lowpass(n_lp, 1450.0)
        bp = rf.synth_bandpass(n_bp, 2900.0, 7200.0)
        grid = rf.default_frequency_grid(150)
        for k in (0.0, 1.3):
            assert_diplexer_matches(lp, bp, grid, k)

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_sweep_csv_byte_identical(self, n):
        # compared in S: cells at |s11| ~ 1e-15 (~ -300 dB) show the
        # rounding of S in their 12 digits of dB.  The cells use the scalar
        # abs and math.log10 (np.abs and np.log10 differ from them in the
        # last ulp in 900 rows of the 5th-order band-pass at 2000 points)
        grid = rf.default_frequency_grid(2000)
        for net in (rf.synth_lowpass(n, 1500.0), rf.synth_bandpass(n, 3000.0, 7000.0)):
            text = rf.two_port_sweep_csv(net, grid)
            rows = [rf.two_port_sweep_csv(net, grid[i : i + 1]).splitlines()[1] for i in range(grid.size)]
            assert text == "\n".join(["frequency_mhz,s21_db,s11_db", *rows]) + "\n"
            resp = rf.network_response(net, grid)
            assert text == loop_sweep_csv(grid, resp.s11, resp.s21)
            want = np.array([loop_s(loop_network_abcd(net, float(f)), net.z0) for f in grid])
            assert np.abs(np.array([resp.s11, resp.s21]) - want.T).max() <= ATOL_S

    @given(st.lists(st.one_of(st.floats(-10.0, 10.0), st.just(math.nan)), min_size=2, max_size=30),
           st.booleans())
    def test_crossing_is_the_first_hit(self, vals, rising):
        freqs = np.logspace(1.0, 4.0, len(vals))
        vals = np.array(vals)
        got = rf._crossing(freqs, vals, 0.5, rising)
        want = loop_crossing(freqs, vals, 0.5, rising)
        assert (got is None and want is None) or got == want


class TestStackedEvaluation:
    def test_diplexer_makes_no_per_frequency_calls(self, monkeypatch):
        calls = {}
        names = ("element_abcd", "network_abcd", "network_response", "_ladder", "_product", "_stack")
        for name in names:
            original = getattr(rf, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(rf, name, counted)
        lp = rf.synth_lowpass(5, 1500.0)
        bp = rf.synth_bandpass(5, 3000.0, 7000.0)
        rf.diplexer_eval(lp, bp, 50.0, rf.default_frequency_grid(2000), eccosorb_ohm_per_ghz=1.0)
        # one kernel pass per branch, one entrywise product for the
        # port-swapped path, and no (F, 2, 2) stack
        assert calls == {"_ladder": 2, "_product": 1}
        calls.clear()
        rf.two_port_sweep_csv(bp, rf.default_frequency_grid(2000))
        assert calls == {"_ladder": 1}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_frequency_rejected(self, bad):
        lp = rf.synth_lowpass(5, 1500.0)
        bp = rf.synth_bandpass(5, 3000.0, 7000.0)
        with pytest.raises(ValueError, match="frequency must be finite and > 0"):
            rf.diplexer_eval(lp, bp, 50.0, np.array([100.0, bad, 200.0]))
        with pytest.raises(ValueError, match="frequency"):
            rf.network_response(lp, bad)
        with pytest.raises(ValueError, match="frequency"):
            rf.element_abcd(lp.elements[0], bad)
        with pytest.raises(ValueError, match="frequency"):
            rf.two_port_sweep_csv(bp, np.array([bad]))
