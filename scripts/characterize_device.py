#!/usr/bin/env python3
"""Full numerical characterization of a device config.

For every qubit: flux tuning curve (closed form + exact levels),
time-averaged frequency vs modulation amplitude with the oracle
cross-check, and the pi-pulse leakage crosstalk budget.  Writes CSV/JSON
under out/ (or the directory given as the second argument).

Usage: python scripts/characterize_device.py [config.json] [out_dir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fluxline.cli import fmt
from fluxline.config import load_config
from fluxline.modulation import FluxDrive, avg_frequency, time_average_oracle
from fluxline.signal_chain import LineBudget, chain_total, spurious_shift_report
from fluxline.transmon import f01_asymptotic, levels

import numpy as np


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    config_path = sys.argv[1] if len(sys.argv) > 1 else repo / "data" / "example_device.json"
    out_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else repo / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = load_config(config_path)

    for chain_name, chain in cfg.chains.items():
        rep = chain_total(chain)
        print(f"chain {chain_name}: {rep.total_db:g} dB over {len(rep.breakdown)} segments")

    summary = {}
    for q in cfg.qubits:
        phi = np.linspace(-0.5, 0.5, 201)
        f01, f12, _ = levels(q.params, phi)
        rows = ["phi,f01_asymptotic_mhz,f01_diag_mhz,anharmonicity_mhz"] + [
            ",".join(fmt(v) for v in row)
            for row in zip(phi, f01_asymptotic(q.params, phi), f01, f12 - f01)
        ]
        (out_dir / f"{q.name}_spectrum.csv").write_text("\n".join(rows) + "\n")

        rows = ["phi_ac,f_avg_series_mhz,f_avg_oracle_mhz"]
        for amp in np.linspace(0.0, 0.5, 51):
            drive = FluxDrive(0.0, float(amp))
            rows.append(
                ",".join(
                    fmt(v)
                    for v in (
                        amp,
                        avg_frequency(q.params, drive, 8),
                        time_average_oracle(q.params, drive, 512),
                    )
                )
            )
        (out_dir / f"{q.name}_modulation.csv").write_text("\n".join(rows) + "\n")

        budget = LineBudget(gamma_db=85.0, v_p=0.3, m_fH=q.m_fH)
        report = spurious_shift_report(q.params, budget)
        (f_max, f_min), (f12_top, _), _ = levels(q.params, np.array([0.0, 0.5]))
        summary[q.name] = {
            "f_max_mhz": float(fmt(f_max)),
            "f_min_mhz": float(fmt(f_min)),
            "anharmonicity_mhz": float(fmt(f12_top - f_max)),
            "pi_pulse_phi_ac": float(fmt(report.phi_ac)),
            "pi_pulse_shift_hz": float(fmt(report.delta_f_hz)),
            "shift_detectable": report.detectable,
        }
        print(f"{q.name}: f_max={summary[q.name]['f_max_mhz']:.1f} MHz, "
              f"pi-pulse shift {summary[q.name]['pi_pulse_shift_hz']:.1f} Hz")

    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
