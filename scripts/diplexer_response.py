#!/usr/bin/env python3
"""Synthesize the cryogenic diplexer and sweep its three-port response.

Writes the two branch networks (``lowpass_branch.json``,
``bandpass_branch.json``) and their two-port sweeps (``*_branch.csv``),
then drives ``fluxline diplexer`` for the combined-port response
(``diplexer_response.csv``) and the band-plan check report
(``diplexer_check.json``), under out/ (or the directory given as the
second argument).

Usage: python scripts/diplexer_response.py [config.json] [out_dir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import fluxline.rf_network as rf
from fluxline import cli
from fluxline.config import load_config


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    config_path = sys.argv[1] if len(sys.argv) > 1 else str(repo / "data" / "example_device.json")
    out_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else repo / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    dpx = load_config(config_path).diplexer

    lp = rf.synth_lowpass(dpx.lp_order, dpx.spec.lp_cutoff_mhz, dpx.z0)
    bp = rf.synth_bandpass(dpx.bp_order, dpx.spec.bp_low_mhz, dpx.spec.bp_high_mhz, dpx.z0)
    grid = rf.default_frequency_grid(2000)
    for name, branch in (("lowpass", lp), ("bandpass", bp)):
        (out_dir / f"{name}_branch.json").write_text(rf.network_to_json(branch))
        (out_dir / f"{name}_branch.csv").write_text(rf.two_port_sweep_csv(branch, grid))

    report = out_dir / "diplexer_check.json"
    code = cli.main(["diplexer", config_path, "--points", "2000",
                     "--out", str(out_dir / "diplexer_response.csv"), "--report-out", str(report)])
    if code:
        return code
    for item in json.loads(report.read_text())["items"]:
        print(f"{item['name']}: {'pass' if item['passed'] else 'FAIL'} "
              f"(measured {item['measured']:.1f}, target {item['target']:.1f})")
    print(f"wrote {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
