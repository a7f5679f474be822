"""Device configuration: JSON ingestion with field-precise validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .transmon import TransmonParams

__all__ = ["ConfigError", "DiplexerSpec", "AttenuationChain", "QubitRecord", "DiplexerConfig",
           "DeviceConfig", "load_config"]


class ConfigError(ValueError):
    """Invalid configuration document; message names the offending field."""


# document types, defined here so that loading a config needs no numerical
# layer; rf_network and signal_chain re-export them
@dataclass(frozen=True)
class DiplexerSpec:
    lp_cutoff_mhz: float = 1500.0
    bp_low_mhz: float = 3000.0
    bp_high_mhz: float = 7000.0
    isolation_db: float = -20.0
    isolation_max_freq_mhz: float = 15000.0

    def __post_init__(self):
        if not self.bp_low_mhz > self.lp_cutoff_mhz:
            raise ValueError("band-pass low edge must sit above the low-pass cutoff")
        if not self.bp_high_mhz > self.bp_low_mhz:
            raise ValueError("band-pass high edge must sit above its low edge")


@dataclass(frozen=True)
class AttenuationChain:
    """Ordered attenuator stack, each entry (label, attenuation in dB)."""

    segments: tuple[tuple[str, float], ...]
    reference_frequency_mhz: float = 0.0

    def __post_init__(self):
        for label, db in self.segments:
            if not (math.isfinite(db) and db >= 0):
                raise ValueError(f"segment {label!r}: attenuation {db} dB must be finite and >= 0")


@dataclass(frozen=True)
class QubitRecord:
    name: str
    params: TransmonParams
    m_fH: float = 500.0
    f_r_mhz: float | None = None  # readout resonator, carried as metadata only


@dataclass(frozen=True)
class DiplexerConfig:
    lp_order: int = 5
    bp_order: int = 5
    z0: float = 50.0
    spec: DiplexerSpec = DiplexerSpec()


@dataclass(frozen=True)
class DeviceConfig:
    qubits: tuple[QubitRecord, ...]
    chains: dict[str, AttenuationChain]
    diplexer: DiplexerConfig

    def qubit(self, name: str) -> QubitRecord:
        for q in self.qubits:
            if q.name == name:
                return q
        known = ", ".join(q.name for q in self.qubits)
        raise ConfigError(f"unknown qubit {name!r} (config has: {known})")


def _require(doc: dict, key: str, types, where: str):
    if key not in doc:
        raise ConfigError(f"{where}.{key}: missing required field")
    val = doc[key]
    if not isinstance(val, types):
        raise ConfigError(f"{where}.{key}: expected {types}, got {type(val).__name__}")
    return val


def _positive(val, where: str) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(val).__name__}")
    if not val > 0:
        raise ConfigError(f"{where}: must be > 0, got {val}")
    return float(val)


def _parse_qubit(doc: dict, where: str) -> QubitRecord:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    name = _require(doc, "name", str, where)
    try:
        params = TransmonParams(
            e_c=_positive(_require(doc, "e_c_mhz", (int, float), where), f"{where}.e_c_mhz"),
            e_j1=_positive(_require(doc, "e_j1_mhz", (int, float), where), f"{where}.e_j1_mhz"),
            e_j2=_positive(_require(doc, "e_j2_mhz", (int, float), where), f"{where}.e_j2_mhz"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    m_fh = doc.get("m_fH", 500.0)
    f_r = doc.get("f_r_mhz")
    return QubitRecord(
        name=name,
        params=params,
        m_fH=_positive(m_fh, f"{where}.m_fH"),
        f_r_mhz=None if f_r is None else _positive(f_r, f"{where}.f_r_mhz"),
    )


def _parse_chain(doc: dict, where: str) -> AttenuationChain:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    raw = _require(doc, "segments", list, where)
    if not raw:
        raise ConfigError(f"{where}.segments: must not be empty")
    segments = []
    for i, seg in enumerate(raw):
        label = _require(seg, "label", str, f"{where}.segments[{i}]")
        db = _require(seg, "db", (int, float), f"{where}.segments[{i}]")
        if not (math.isfinite(db) and db >= 0):
            raise ConfigError(f"{where}.segments[{i}].db: must be finite and >= 0, got {db}")
        segments.append((label, float(db)))
    ref = doc.get("reference_frequency_mhz", 0.0)
    if not isinstance(ref, (int, float)) or not (math.isfinite(ref) and ref >= 0):
        raise ConfigError(f"{where}.reference_frequency_mhz: must be a finite number >= 0")
    return AttenuationChain(segments=tuple(segments), reference_frequency_mhz=float(ref))


def _parse_diplexer(doc: dict, where: str) -> DiplexerConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    defaults = DiplexerSpec()
    for key in ("lp_order", "bp_order"):
        order = doc.get(key, 5)
        if not isinstance(order, int) or isinstance(order, bool) or not 1 <= order <= 11:
            raise ConfigError(f"{where}.{key}: must be an integer in [1, 11], got {order!r}")
    positive = ("lp_cutoff_mhz", "bp_low_mhz", "bp_high_mhz", "isolation_max_freq_mhz")
    try:
        spec = DiplexerSpec(
            **{key: _positive(doc.get(key, getattr(defaults, key)), f"{where}.{key}") for key in positive},
            isolation_db=float(doc.get("isolation_db", defaults.isolation_db)),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return DiplexerConfig(
        lp_order=doc.get("lp_order", 5),
        bp_order=doc.get("bp_order", 5),
        z0=_positive(doc.get("z0", 50.0), f"{where}.z0"),
        spec=spec,
    )


def load_config(path: str | Path) -> DeviceConfig:
    """Load and validate a device configuration document."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")

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
        for name, chain in doc.get("chains", {}).items()
    }
    diplexer = _parse_diplexer(doc.get("diplexer", {}), "config.diplexer")
    return DeviceConfig(qubits=qubits, chains=chains, diplexer=diplexer)
