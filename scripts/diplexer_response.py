#!/usr/bin/env python3
"""Synthesize the cryogenic diplexer and sweep its three-port response.

Writes the branch two-port sweeps, the combined-port response and the
band-plan check report under out/ (or the directory given as the second
argument).

Usage: python scripts/diplexer_response.py [config.json] [out_dir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fluxline.rf_network as rf
from fluxline.cli import _write_csv
from fluxline.config import load_config


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    config_path = sys.argv[1] if len(sys.argv) > 1 else repo / "data" / "example_device.json"
    out_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else repo / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    dpx = load_config(config_path).diplexer

    lp = rf.synth_lowpass(dpx.lp_order, dpx.spec.lp_cutoff_mhz, dpx.z0)
    bp = rf.synth_bandpass(dpx.bp_order, dpx.spec.bp_low_mhz, dpx.spec.bp_high_mhz, dpx.z0)
    (out_dir / "lowpass_branch.json").write_text(rf.network_to_json(lp))
    (out_dir / "bandpass_branch.json").write_text(rf.network_to_json(bp))

    grid = rf.default_frequency_grid(2000)
    (out_dir / "lowpass_branch.csv").write_text(rf.two_port_sweep_csv(lp, grid))
    (out_dir / "bandpass_branch.csv").write_text(rf.two_port_sweep_csv(bp, grid))

    resp = rf.diplexer_eval(lp, bp, dpx.z0, grid)
    rows = zip(resp.frequencies_mhz, rf._db(resp.s31), rf._db(resp.s32), rf._db(resp.s12))
    header = ["frequency_mhz", "s31_db", "s32_db", "s12_db"]
    _write_csv(str(out_dir / "diplexer_response.csv"), header, rows)

    check = rf.check_spec(resp, dpx.spec)
    doc = {
        "passed": check.passed,
        "items": [
            {
                "name": i.name,
                "passed": i.passed,
                "measured": i.measured,
                "target": i.target,
                "margin": i.margin,
                "worst_freq_mhz": i.worst_freq_mhz,
            }
            for i in check.items
        ],
    }
    (out_dir / "diplexer_check.json").write_text(json.dumps(doc, indent=2) + "\n")
    for item in check.items:
        print(f"{item.name}: {'pass' if item.passed else 'FAIL'} "
              f"(measured {item.measured:.1f}, target {item.target:.1f})")
    print(f"wrote {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
