"""Command-line front end.

Exit codes: 0 success, 2 input/validation error (an array too large to
allocate included), 3 numerical non-convergence (fit or series).  JSON
output is strict: non-finite values are written as null.  All numeric
output is rounded to 12 significant digits with '.' decimals, as :func:`fmt`
writes them, so repeated runs are byte-identical.

Imports are per subcommand: the module loads numpy and takes the error types
from the package; each ``cmd_*`` loads the layers it runs and :func:`_load`
the config layer, so ``fit t1|ramsey|rb`` loads no config or specfun.  No
subcommand loads scipy or mpmath: the exact levels of ``spectrum`` and
``modulate --with-oracle`` are numpy polynomial tables, ``fit`` has its own
engine, and none calls ``specfun.hyp2f1``.  The records of ``spectrum``,
``modulate`` and ``crosstalk`` and of the config are named tuples; only
``diplexer`` and ``fit``, whose records are dataclasses, load ``dataclasses``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import ConfigError, ConvergenceError

CONFIG_ENV = "FLUXLINE_CONFIG"

FIT_COLUMNS = {
    "t1": ("time_us", "signal"),
    "ramsey": ("time_us", "signal"),
    "rb": ("sequence_length", "fidelity"),
    "tuning": ("current_a", "frequency_mhz"),
    "beta": ("amplitude_v", "frequency_mhz"),
}


def fmt(x: float) -> str:
    """Fixed 12-significant-digit rendering used for every numeric cell."""
    v = float(x)
    if v == 0.0:
        v = 0.0  # never emit -0
    return format(v, ".12g")


def _write(path: str | None, text: str) -> None:
    """text to the file at path, or to stdout for no path or '-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_csv(path: str | None, header: list[str], columns) -> None:
    # fmt's cells in one % format; adding 0.0 turns -0.0 into 0, as fmt does
    table = np.column_stack(columns) + 0.0
    row = ",".join(["%.12g"] * len(header)) + "\n"
    _write(path, ",".join(header) + "\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def _json_ready(obj):
    """obj with every float rounded to fmt's 12 significant digits, and
    every non-finite one replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, float):
        return float(fmt(obj)) if math.isfinite(obj) else None
    return obj


def _emit_json(path: str | None, obj) -> None:
    _write(path, json.dumps(_json_ready(obj), indent=2, sort_keys=False, allow_nan=False) + "\n")


def _error(exc: Exception, code: int) -> int:
    sys.stderr.write(f"error: {exc}\n")
    return code


def _load(args):
    """The DeviceConfig at args.config, or at $FLUXLINE_CONFIG."""
    from .config import load_config

    path = args.config or os.environ.get(CONFIG_ENV)
    if not path:
        raise ConfigError(f"no config given: pass a path or set {CONFIG_ENV}")
    return load_config(path)


def _summary(args, human_lines: list[str], payload: dict) -> None:
    if args.json:
        _emit_json(None, payload)
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def cmd_spectrum(args) -> int:
    from .transmon import f01_asymptotic, levels

    cfg = _load(args)
    q = cfg.qubit(args.qubit)
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    for end in (args.phi_min, args.phi_max):
        if not math.isfinite(end):  # checked before linspace spreads it into nan
            raise ValueError(f"flux must be finite, got phi = {end}")
    if not math.isfinite(args.phi_max - args.phi_min):  # linspace would overflow its step
        raise ValueError(f"flux span must be finite, got phi = {args.phi_min} to {args.phi_max}")
    grid = np.linspace(args.phi_min, args.phi_max, args.points)
    f01, f12 = levels(q.params, grid)
    _write_csv(
        args.out,
        ["phi", "f01_asymptotic_mhz", "f01_diag_mhz", "anharmonicity_mhz"],
        [grid, f01_asymptotic(q.params, grid), f01, f12 - f01],
    )
    (f_max, f_min), (f12_top, _) = levels(q.params, np.array([0.0, 0.5]))
    eta = f12_top - f_max
    _summary(
        args,
        [
            f"qubit {q.name}: f_max = {fmt(f_max)} MHz at phi=0",
            f"qubit {q.name}: f_min = {fmt(f_min)} MHz at phi=0.5",
            f"qubit {q.name}: anharmonicity = {fmt(eta)} MHz",
        ],
        {
            "qubit": q.name,
            "f_max_mhz": f_max,
            "f_min_mhz": f_min,
            "anharmonicity_mhz": eta,
        },
    )
    return 0


def cmd_modulate(args) -> int:
    from .modulation import FluxDrive, avg_frequency, second_order_shift, time_average_oracle

    cfg = _load(args)
    q = cfg.qubit(args.qubit)
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    for amp in (args.amp_min, args.amp_max):
        FluxDrive(args.phi_dc, amp)  # checks the end points before linspace spreads them
    amps = np.linspace(args.amp_min, args.amp_max, args.points)
    drive = FluxDrive(args.phi_dc, amps)
    f_ref = avg_frequency(q.params, FluxDrive(args.phi_dc, 0.0))
    f_series = avg_frequency(q.params, drive)
    header, columns = ["phi_ac", "f_avg_series_mhz"], [amps, f_series]
    if args.with_oracle:
        f_oracle = time_average_oracle(q.params, drive, args.oracle_steps)
        header.append("f_avg_oracle_mhz")
        columns.append(f_oracle)
    header += ["shift_series_hz", "shift_2nd_order_hz"]
    columns += [(f_series - f_ref) * 1e6, second_order_shift(q.params, amps)]
    _write_csv(args.out, header, columns)
    lines = [f"qubit {q.name}: f_avg at zero drive = {fmt(f_ref)} MHz"]
    payload = {"qubit": q.name, "f_ref_mhz": f_ref}
    if args.with_oracle:
        worst = np.max(np.abs(f_series - f_oracle))
        lines.append(f"max |series - oracle| = {fmt(worst)} MHz")
        payload["max_series_oracle_dev_mhz"] = worst
    _summary(args, lines, payload)
    return 0


def cmd_crosstalk(args) -> int:
    from .signal_chain import LineBudget, spurious_shift_report

    cfg = _load(args)
    q = cfg.qubit(args.qubit)
    budget = LineBudget(
        gamma_db=args.gamma_db, v_p=args.v_p, r_ohm=args.r_ohm, m_fH=q.m_fH
    )
    report = spurious_shift_report(q.params, budget, linewidth_hz=args.linewidth_hz)
    payload = {
        "qubit": q.name,
        "gamma_db": args.gamma_db,
        "v_p": args.v_p,
        "r_ohm": args.r_ohm,
        "m_fH": q.m_fH,
        "phi_ac": report.phi_ac,
        "delta_f_hz": report.delta_f_hz,
        "detectable": report.detectable,
    }
    _emit_json(args.out, payload)
    return 0


def cmd_diplexer(args) -> int:
    import dataclasses

    from . import rf_network as rf

    cfg = _load(args)
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    dpx = cfg.diplexer
    lp = rf.synth_lowpass(dpx.lp_order, dpx.spec.lp_cutoff_mhz, dpx.z0)
    bp = rf.synth_bandpass(dpx.bp_order, dpx.spec.bp_low_mhz, dpx.spec.bp_high_mhz, dpx.z0)
    grid = rf.default_frequency_grid(args.points)
    resp = rf.diplexer_eval(lp, bp, dpx.z0, grid)
    report = rf.check_spec(resp, dpx.spec)  # may raise: check before writing anything
    columns = [resp.frequencies_mhz, rf._db(resp.s31), rf._db(resp.s32), rf._db(resp.s12)]
    _write_csv(args.out, ["frequency_mhz", "s31_db", "s32_db", "s12_db"], columns)
    payload = {
        "passed": report.passed,
        "items": [dataclasses.asdict(item) for item in report.items],
    }
    _emit_json(args.report_out, payload)
    return 0


def _load_fit_csv(path: str, kind: str):
    from .fitting import DataSeries

    expected = FIT_COLUMNS[kind]
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"data file not found: {path}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty CSV")
    header = [h.strip() for h in lines[0].split(",")]
    if tuple(header[:2]) != expected or len(header) > 3 or (
        len(header) == 3 and header[2] != "sigma"
    ):
        raise ConfigError(
            f"{path}: expected columns {expected + ('sigma?',)} for kind "
            f"{kind!r}, got {tuple(header)}"
        )
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}:{i}: expected {len(header)} cells")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ConfigError(f"{path}:{i}: {exc}")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    arr = np.array(rows)
    sigma = arr[:, 2] if arr.shape[1] == 3 else None
    try:
        return DataSeries(
            x=arr[:, 0], y=arr[:, 1], sigma=sigma, x_unit=expected[0], y_unit=expected[1]
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def cmd_fit(args) -> int:
    if args.kind == "beta" and not args.qubit:
        raise ConfigError("beta fits require --qubit")
    from . import fitting

    data = _load_fit_csv(args.data, args.kind)
    if args.kind == "t1":
        result = fitting.fit_t1(data)
    elif args.kind == "ramsey":
        result = fitting.fit_ramsey(data)
    elif args.kind == "rb":
        result = fitting.fit_rb(data)
    elif args.kind == "tuning":
        result = fitting.fit_tuning_curve(data, fixed_e_c=args.fixed_ec)
    else:  # beta
        q = _load(args).qubit(args.qubit)
        result = fitting.fit_beta(data, q.params, phi_dc=args.phi_dc)

    _emit_json(args.out, {"kind": args.kind, **result.to_dict()})

    if args.residuals_out:
        curve = result.curve(data.x)
        columns = [data.x, data.y, curve, data.y - curve]
        _write_csv(args.residuals_out, [data.x_unit, data.y_unit, "model", "residual"], columns)

    if not result.converged:
        sys.stderr.write(
            "fit did not converge: "
            + "; ".join(result.flags or ("iteration cap reached",))
            + "\n"
        )
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxline",
        description="Spectrum, flux-modulation, crosstalk, diplexer and fitting "
        "analyses for flux-tunable transmons",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable summaries")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument(
            "config",
            nargs="?",
            default=None,
            help=f"device config JSON (default: ${CONFIG_ENV})",
        )

    p = sub.add_parser("spectrum", help="tuning curve on a flux grid")
    add_config(p)
    p.add_argument("--qubit", required=True)
    p.add_argument("--phi-min", type=float, default=-0.5)
    p.add_argument("--phi-max", type=float, default=0.5)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("modulate", help="time-averaged frequency vs drive amplitude")
    add_config(p)
    p.add_argument("--qubit", required=True)
    p.add_argument("--phi-dc", type=float, default=0.0)
    p.add_argument("--amp-min", type=float, default=0.0)
    p.add_argument("--amp-max", type=float, default=0.25)
    p.add_argument("--points", type=int, default=26)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--oracle-steps", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_modulate)

    p = sub.add_parser("crosstalk", help="spurious shift budget for a drive line")
    add_config(p)
    p.add_argument("--qubit", required=True)
    p.add_argument("--gamma-db", type=float, required=True)
    p.add_argument("--v-p", type=float, required=True)
    p.add_argument("--r-ohm", type=float, default=50.0)
    p.add_argument("--linewidth-hz", type=float, default=10_000.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_crosstalk)

    p = sub.add_parser("diplexer", help="synthesize and sweep the diplexer model")
    add_config(p)
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--out", default=None, help="response CSV (default: stdout)")
    p.add_argument("--report-out", default=None, help="spec-check JSON")
    p.set_defaults(func=cmd_diplexer)

    p = sub.add_parser("fit", help="least-squares fit of a characterization dataset")
    p.add_argument("kind", choices=sorted(FIT_COLUMNS))
    p.add_argument("data", help="CSV with the kind's expected columns")
    add_config(p)
    p.add_argument("--qubit", default=None, help="required for beta fits")
    p.add_argument("--phi-dc", type=float, default=0.0)
    p.add_argument("--fixed-ec", type=float, default=None)
    p.add_argument("--out", default=None, help="fit result JSON (default: stdout)")
    p.add_argument("--residuals-out", default=None)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        # ConfigError is a ValueError; MemoryError: an array numpy cannot
        # allocate, such as --points 1e12
        return _error(exc, 2)
    except ConvergenceError as exc:  # fitting.FitError included
        return _error(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
