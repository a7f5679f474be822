#!/usr/bin/env python3
"""Full numerical characterization of a device config.

Prints each line chain's total attenuation, then drives the ``fluxline``
command line for every qubit: the flux tuning curve (closed form + exact
levels, ``<qubit>_spectrum.csv``), the time-averaged frequency vs
modulation amplitude with the oracle cross-check
(``<qubit>_modulation.csv``) and the pi-pulse leakage crosstalk budget
(``<qubit>_crosstalk.json``), under out/ (or the directory given as the
second argument).  The subcommands' summaries go to stdout.

Usage: python scripts/characterize_device.py [config.json] [out_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fluxline import cli
from fluxline.config import load_config
from fluxline.signal_chain import chain_total


def main() -> int:
    repo = Path(__file__).resolve().parents[1]
    config_path = sys.argv[1] if len(sys.argv) > 1 else str(repo / "data" / "example_device.json")
    out_dir = Path(sys.argv[2]) if len(sys.argv) > 2 else repo / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = load_config(config_path)

    for chain_name, chain in cfg.chains.items():
        rep = chain_total(chain)
        print(f"chain {chain_name}: {rep.total_db:g} dB over {len(rep.breakdown)} segments")

    for q in cfg.qubits:
        out = lambda name: ["--out", str(out_dir / f"{q.name}_{name}")]
        for command, *options in (
            ["spectrum", "--points", "201", *out("spectrum.csv")],
            ["modulate", "--amp-max", "0.5", "--points", "51", "--with-oracle", *out("modulation.csv")],
            ["crosstalk", "--gamma-db", "85", "--v-p", "0.3", *out("crosstalk.json")],
        ):
            code = cli.main([command, config_path, "--qubit", q.name, *options])
            if code:
                return code
    print(f"wrote {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
