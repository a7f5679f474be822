"""The record contract of the config, spectrum, modulation and crosstalk types.

These records are named tuples: read-only fields, the repr a frozen
dataclass would give, equality and hash by value, pickling, and
``_replace``/``_make`` that check their fields as the constructor does.
"""

import pickle

import numpy as np
import pytest

from fluxline.config import (
    AttenuationChain,
    DeviceConfig,
    DiplexerConfig,
    DiplexerSpec,
    QubitRecord,
    TransmonParams,
)
from fluxline.modulation import FluxDrive
from fluxline.signal_chain import ChainReport, LineBudget, SpuriousShiftReport
from fluxline.transmon import FluxPoint, SpectrumResult

Q0 = "TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0)"
SPEC = ("DiplexerSpec(lp_cutoff_mhz=1500.0, bp_low_mhz=3000.0, bp_high_mhz=7000.0, isolation_db=-20.0, "
        "isolation_max_freq_mhz=15000.0)")


def make_q0():
    return TransmonParams(182.0, 9040.0, 2140.0)


# one factory per record, with the repr the dataclass of the same name gave
RECORDS = {
    "TransmonParams": (make_q0, Q0),
    "DiplexerSpec": (DiplexerSpec, SPEC),
    "AttenuationChain": (
        lambda: AttenuationChain((("4K", 20.0), ("MXC", 20.0)), 100.0),
        "AttenuationChain(segments=(('4K', 20.0), ('MXC', 20.0)), reference_frequency_mhz=100.0)",
    ),
    "QubitRecord": (
        lambda: QubitRecord("q0", make_q0(), f_r_mhz=7029.0),
        f"QubitRecord(name='q0', params={Q0}, m_fH=500.0, f_r_mhz=7029.0)",
    ),
    "DiplexerConfig": (
        lambda: DiplexerConfig(lp_order=3),
        f"DiplexerConfig(lp_order=3, bp_order=5, z0=50.0, spec={SPEC})",
    ),
    "DeviceConfig": (
        lambda: DeviceConfig((QubitRecord("q0", make_q0()),), {"z": AttenuationChain((("4K", 20.0),))}, DiplexerConfig()),
        f"DeviceConfig(qubits=(QubitRecord(name='q0', params={Q0}, m_fH=500.0, f_r_mhz=None),), "
        "chains={'z': AttenuationChain(segments=(('4K', 20.0),), reference_frequency_mhz=0.0)}, "
        f"diplexer=DiplexerConfig(lp_order=5, bp_order=5, z0=50.0, spec={SPEC}))",
    ),
    "FluxPoint": (lambda: FluxPoint(0.25), "FluxPoint(phi=0.25)"),
    "SpectrumResult": (
        lambda: SpectrumResult(5000.0, 4700.0, -300.0, True),
        "SpectrumResult(f01=5000.0, f12=4700.0, anharmonicity=-300.0, converged=True)",
    ),
    "FluxDrive": (lambda: FluxDrive(0.0, 0.1), "FluxDrive(phi_dc=0.0, phi_ac=0.1)"),
    "LineBudget": (lambda: LineBudget(85.0, 0.3), "LineBudget(gamma_db=85.0, v_p=0.3, r_ohm=50.0, m_fH=500.0)"),
    "ChainReport": (
        lambda: ChainReport(40.0, (("4K", 20.0, 20.0), ("MXC", 20.0, 40.0)), 0.0),
        "ChainReport(total_db=40.0, breakdown=(('4K', 20.0, 20.0), ('MXC', 20.0, 40.0)), reference_frequency_mhz=0.0)",
    ),
    "SpuriousShiftReport": (
        lambda: SpuriousShiftReport(1.6e-4, -79.0, False),
        "SpuriousShiftReport(phi_ac=0.00016, delta_f_hz=-79.0, detectable=False)",
    ),
}

# its chains are a dict, as they were in the dataclass
UNHASHABLE = {"DeviceConfig"}

by_record = pytest.mark.parametrize("name", RECORDS)


@by_record
def test_fields_are_read_only(name):
    record = RECORDS[name][0]()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict


@by_record
def test_repr_is_the_dataclass_text(name):
    factory, text = RECORDS[name]
    assert type(factory()).__name__ == name
    assert repr(factory()) == text


@by_record
def test_equality_and_hash_by_value(name):
    factory = RECORDS[name][0]
    a, b = factory(), factory()
    assert a == b and a is not b
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@by_record
def test_pickle_round_trip(name):
    record = RECORDS[name][0]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


def test_array_flux_drive_refuses_hash():
    drive = FluxDrive([0.0, 0.1], 0.2)
    assert drive.phi_dc.dtype == float
    with pytest.raises(TypeError, match="unhashable"):
        hash(drive)
    copy = pickle.loads(pickle.dumps(drive))
    np.testing.assert_array_equal(copy.phi_dc, drive.phi_dc)


class TestReplaceValidates:
    def test_transmon_params_rejects(self):
        with pytest.raises(ValueError, match=r"^energies must be positive: e_c=-1.0, e_j1=2140.0, e_j2=9040.0$"):
            make_q0()._replace(e_c=-1.0)

    def test_transmon_params_reorders(self):
        assert make_q0()._replace(e_j1=10000.0) == TransmonParams(182.0, 9040.0, 10000.0)
        assert make_q0()._replace(e_j1=10000.0).e_j1 == 9040.0

    def test_make_checks_too(self):
        with pytest.raises(ValueError, match="energies must be positive"):
            TransmonParams._make((0.0, 2140.0, 9040.0))
        assert TransmonParams._make((182.0, 9040.0, 2140.0)) == make_q0()

    @pytest.mark.parametrize("record, change, message", [
        (DiplexerSpec(), dict(bp_low_mhz=1000.0), "band-pass low edge must sit above the low-pass cutoff"),
        (AttenuationChain((("4K", 20.0),)), dict(segments=(("4K", -1.0),)),
         "segment '4K': attenuation -1.0 dB must be finite and >= 0"),
        (FluxDrive(0.0, 0.1), dict(phi_ac=-0.1), "phi_ac must be >= 0, got -0.1"),
        (LineBudget(85.0, 0.3), dict(r_ohm=0.0), "r_ohm must be > 0, got 0.0"),
    ], ids=["DiplexerSpec", "AttenuationChain", "FluxDrive", "LineBudget"])
    def test_every_validated_record(self, record, change, message):
        with pytest.raises(ValueError) as excinfo:
            record._replace(**change)
        assert str(excinfo.value) == message

    def test_flux_drive_takes_arrays_as_floats(self):
        drive = FluxDrive(0.0, 0.1)._replace(phi_dc=[0, 1])
        assert drive.phi_dc.dtype == float
