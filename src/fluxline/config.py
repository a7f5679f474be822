"""Device configuration: JSON ingestion with field-precise validation.

The document types here, and the records of the spectrum, modulation and
crosstalk paths, are ``collections.namedtuple`` types, so that loading a
config builds no dataclass and imports neither ``dataclasses`` nor
``inspect``; the fitting and rf_network records stay dataclasses, since
their callers use ``dataclasses.replace`` and ``dataclasses.asdict``.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import namedtuple
from pathlib import Path

from . import ConfigError  # defined by the package, re-exported here

__all__ = ["ConfigError", "TransmonParams", "DiplexerSpec", "AttenuationChain", "QubitRecord", "DiplexerConfig",
           "DeviceConfig", "load_config"]


class _Validated:
    """Mixin of a namedtuple whose ``__new__`` checks its fields.

    namedtuple's ``_make`` is ``tuple.__new__``; this one calls the
    constructor, so that ``_replace`` (which builds through ``_make``)
    checks the new fields as the constructor does.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# document types, defined here so that loading a config needs no numerical
# layer; transmon, rf_network and signal_chain re-export them
class TransmonParams(_Validated, namedtuple("TransmonParams", "e_c e_j1 e_j2")):
    """Charging energy and the two junction energies of a SQUID transmon.

    The constructor normalizes to e_j1 <= e_j2.  Warns (does not fail)
    when e_j_sum/e_c < 20, i.e. outside the usual transmon regime.
    """

    __slots__ = ()

    def __new__(cls, e_c: float, e_j1: float, e_j2: float):
        if not (e_c > 0 and e_j1 > 0 and e_j2 > 0):
            raise ValueError(f"energies must be positive: e_c={e_c}, e_j1={e_j1}, e_j2={e_j2}")
        if e_j1 > e_j2:
            e_j1, e_j2 = e_j2, e_j1
        self = super().__new__(cls, e_c, e_j1, e_j2)
        if self.e_j_sum / e_c < 20.0:
            warnings.warn(
                f"e_j_sum/e_c = {self.e_j_sum / e_c:.1f} < 20: "
                "outside the transmon regime, asymptotic formulas degrade",
                stacklevel=2,
            )
        return self

    @property
    def e_j_sum(self) -> float:
        return self.e_j1 + self.e_j2

    @property
    def asymmetry(self) -> float:
        """d = (e_j2 - e_j1)/(e_j1 + e_j2), in [0, 1)."""
        return (self.e_j2 - self.e_j1) / self.e_j_sum


class DiplexerSpec(_Validated, namedtuple(
        "DiplexerSpec", "lp_cutoff_mhz bp_low_mhz bp_high_mhz isolation_db isolation_max_freq_mhz")):
    __slots__ = ()

    def __new__(cls, lp_cutoff_mhz: float = 1500.0, bp_low_mhz: float = 3000.0, bp_high_mhz: float = 7000.0,
                isolation_db: float = -20.0, isolation_max_freq_mhz: float = 15000.0):
        if not bp_low_mhz > lp_cutoff_mhz:
            raise ValueError("band-pass low edge must sit above the low-pass cutoff")
        if not bp_high_mhz > bp_low_mhz:
            raise ValueError("band-pass high edge must sit above its low edge")
        return super().__new__(cls, lp_cutoff_mhz, bp_low_mhz, bp_high_mhz, isolation_db, isolation_max_freq_mhz)


class AttenuationChain(_Validated, namedtuple("AttenuationChain", "segments reference_frequency_mhz")):
    """Ordered attenuator stack, each entry (label, attenuation in dB)."""

    __slots__ = ()

    def __new__(cls, segments: tuple[tuple[str, float], ...], reference_frequency_mhz: float = 0.0):
        for label, db in segments:
            if not (math.isfinite(db) and db >= 0):
                raise ValueError(f"segment {label!r}: attenuation {db} dB must be finite and >= 0")
        return super().__new__(cls, segments, reference_frequency_mhz)


# f_r_mhz, the readout resonator, is carried as metadata only
QubitRecord = namedtuple("QubitRecord", "name params m_fH f_r_mhz", defaults=(500.0, None))

DiplexerConfig = namedtuple("DiplexerConfig", "lp_order bp_order z0 spec", defaults=(5, 5, 50.0, DiplexerSpec()))


class DeviceConfig(namedtuple("DeviceConfig", "qubits chains diplexer")):
    """The qubits (a tuple of QubitRecord), the attenuation chains by name
    and the diplexer of one device."""

    __slots__ = ()

    def qubit(self, name: str) -> QubitRecord:
        for q in self.qubits:
            if q.name == name:
                return q
        known = ", ".join(q.name for q in self.qubits)
        raise ConfigError(f"unknown qubit {name!r} (config has: {known})")


# what json.loads makes of each JSON type, named as the document names it
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


def _object(val, where: str) -> dict:
    if not isinstance(val, dict):
        raise ConfigError(f"{where}: expected an object, got {_JSON_TYPES[type(val)]}")
    return val


def _require(doc: dict, key: str, types, where: str):
    if key not in doc:
        raise ConfigError(f"{where}.{key}: missing required field")
    val = doc[key]
    if not isinstance(val, types):
        raise ConfigError(f"{where}.{key}: expected {_JSON_TYPES[types]}, got {_JSON_TYPES[type(val)]}")
    return val


def _finite(val, where: str) -> float:
    """The reader of every numeric field: a JSON number, not a boolean, with
    a finite value (Python's json takes NaN and Infinity tokens)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {_JSON_TYPES[type(val)]}")
    if not math.isfinite(val):
        raise ConfigError(f"{where}: must be finite, got {val}")
    return float(val)


def _positive(val, where: str) -> float:
    value = _finite(val, where)
    if not value > 0:
        raise ConfigError(f"{where}: must be > 0, got {val}")
    return value


def _parse_qubit(doc, where: str) -> QubitRecord:
    doc = _object(doc, where)
    name = _require(doc, "name", str, where)
    energies = {
        key: _positive(_require(doc, f"{key}_mhz", object, where), f"{where}.{key}_mhz")
        for key in ("e_c", "e_j1", "e_j2")
    }
    f_r = doc.get("f_r_mhz")
    return QubitRecord(
        name=name,
        params=TransmonParams(**energies),
        m_fH=_positive(doc.get("m_fH", 500.0), f"{where}.m_fH"),
        f_r_mhz=None if f_r is None else _positive(f_r, f"{where}.f_r_mhz"),
    )


def _parse_chain(doc, where: str) -> AttenuationChain:
    doc = _object(doc, where)
    raw = _require(doc, "segments", list, where)
    if not raw:
        raise ConfigError(f"{where}.segments: must not be empty")
    segments = []
    for i, seg in enumerate(raw):
        seg_where = f"{where}.segments[{i}]"
        label = _require(_object(seg, seg_where), "label", str, seg_where)
        db = _finite(_require(seg, "db", object, seg_where), f"{seg_where}.db")
        if not db >= 0:
            raise ConfigError(f"{seg_where}.db: must be >= 0, got {seg['db']}")
        segments.append((label, db))
    ref = _finite(doc.get("reference_frequency_mhz", 0.0), f"{where}.reference_frequency_mhz")
    if not ref >= 0:
        raise ConfigError(f"{where}.reference_frequency_mhz: must be >= 0, got {doc['reference_frequency_mhz']}")
    return AttenuationChain(segments=tuple(segments), reference_frequency_mhz=ref)


def _parse_diplexer(doc, where: str) -> DiplexerConfig:
    doc = _object(doc, where)
    defaults = DiplexerConfig()
    orders = {key: doc.get(key, getattr(defaults, key)) for key in ("lp_order", "bp_order")}
    for key, order in orders.items():
        if not isinstance(order, int) or isinstance(order, bool) or not 1 <= order <= 11:
            raise ConfigError(f"{where}.{key}: must be an integer in [1, 11], got {order!r}")
    bands = {
        key: _positive(doc.get(key, getattr(defaults.spec, key)), f"{where}.{key}")
        for key in ("lp_cutoff_mhz", "bp_low_mhz", "bp_high_mhz", "isolation_max_freq_mhz")
    }
    isolation_db = _finite(doc.get("isolation_db", defaults.spec.isolation_db), f"{where}.isolation_db")
    try:
        # the band plan's ordering, which DiplexerSpec checks
        spec = DiplexerSpec(**bands, isolation_db=isolation_db)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return DiplexerConfig(**orders, z0=_positive(doc.get("z0", defaults.z0), f"{where}.z0"), spec=spec)


def load_config(path: str | Path) -> DeviceConfig:
    """Load and validate a device configuration document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    _object(doc, "config root")

    raw_qubits = _require(doc, "qubits", list, "config")
    if not raw_qubits:
        raise ConfigError("config.qubits: must not be empty")
    qubits = tuple(_parse_qubit(q, f"config.qubits[{i}]") for i, q in enumerate(raw_qubits))
    names = [q.name for q in qubits]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ConfigError(f"config.qubits: duplicate qubit name {dup!r}")

    chains = {
        name: _parse_chain(chain, f"config.chains[{name!r}]")
        for name, chain in _object(doc.get("chains", {}), "config.chains").items()
    }
    diplexer = _parse_diplexer(doc.get("diplexer", {}), "config.diplexer")
    return DeviceConfig(qubits=qubits, chains=chains, diplexer=diplexer)
