#!/usr/bin/env python3
"""Regenerate the synthetic fit fixtures shipped under data/fixtures/.

Each dataset is drawn from a known ground truth with a fixed seed, so the
committed CSVs are reproducible and the fit tests can assert the recovered
parameters against the generating values.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fluxline.fitting import RAMSEY_MODEL, RB_MODEL, T1_MODEL, beta_model, tuning_curve_model
from fluxline.transmon import TransmonParams

OUT = Path(__file__).resolve().parents[1] / "data" / "fixtures"

Q0 = TransmonParams(e_c=182.0, e_j1=2140.0, e_j2=9040.0)


def write(name: str, header: tuple[str, str], x, y):
    lines = [",".join(header)]
    lines += [f"{a:.12g},{b:.12g}" for a, b in zip(x, y)]
    (OUT / name).write_text("\n".join(lines) + "\n")
    print(f"wrote {OUT / name} ({len(x)} rows)")


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(20210901)

    # relaxation: T1 = 53 us
    t = np.linspace(1.0, 260.0, 53)
    y = T1_MODEL.fn(t, np.array([0.95, 53.0, 0.03]))
    y = y + rng.normal(0.0, 0.003, t.size)
    write("t1_53us.csv", ("time_us", "signal"), t, y)

    # Ramsey fringe: T2* = 10 us, detuning 0.5 MHz
    t = np.linspace(0.05, 30.0, 151)
    y = RAMSEY_MODEL.fn(t, np.array([0.40, 10.0, 0.5, 0.3, 0.5]))
    y = y + rng.normal(0.0, 0.003, t.size)
    write("ramsey_10us.csv", ("time_us", "signal"), t, y)

    # benchmarking decay: p = 0.9954 -> average gate fidelity 99.77 %
    n = np.arange(1.0, 801.0, 25.0)
    y = RB_MODEL.fn(n, np.array([0.5, 0.9954, 0.5]))
    y = y + rng.normal(0.0, 0.002, n.size)
    write("rb_decay.csv", ("sequence_length", "fidelity"), n, np.clip(y, 0.0, 1.05))

    # flux tuning curve for q0, 1.2 mA per flux quantum
    cur = np.linspace(-0.75e-3, 0.75e-3, 80)
    model = tuning_curve_model()
    y = model.fn(cur, np.array([2140.0, 9040.0, 182.0, 1.2e-3, 0.05]))
    y = y + rng.normal(0.0, 1.0, cur.size)
    write("tuning_q0.csv", ("current_a", "frequency_mhz"), cur, y)

    # flux-pulse amplitude calibration: beta = 0.510 Phi0/V at phi_dc = 0
    amps = np.linspace(0.0, 1.4, 57)
    y = beta_model(Q0, 0.0).fn(amps, np.array([0.510]))
    y = y + rng.normal(0.0, 0.5, amps.size)
    write("beta_q0.csv", ("amplitude_v", "frequency_mhz"), amps, y)


if __name__ == "__main__":
    main()
