#!/usr/bin/env python3
"""fluxline benchmark: one workload, checked against independent references.

Usage (from the repository root):

    python3 bench/run.py --workload device|tools --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures whole rounds of the workload until S
seconds have passed and prints the end-to-end metrics.  With ``--trace 1``
a fresh untraced process runs a fixed number of rounds, then this process
runs the same rounds with every traced function timed and prints the
per-layer metrics; the spans go to ``bench/out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The end-to-end times are scaled to a reference
host speed by a yardstick timed between items (see ``yardstick``);
the unscaled figures go to standard error.  See bench/README.md for the
workloads, checks and tolerances.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "data" / "example_device.json"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CLI_SUBCOMMANDS = ("spectrum", "modulate", "modulate_oracle", "crosstalk", "diplexer",
                   "fit_t1", "fit_ramsey", "fit_rb", "fit_tuning", "fit_beta")


# On a shared host the speed of the CPUs a process is given can move by
# up to 2-fold over minutes, which no median within a 45 s run removes.  A
# yardstick that uses nothing of the program is timed right before every
# item and every set-up sample, and each time is divided by the
# yardstick's median around it: the times a host where the yardstick reads
# 1 would show.  The yardstick is the mean of two pieces of fixed work,
# each over a reference time (about its time on the 2-CPU host of the
# README's reference figures, in a slow period): the program's in-process
# mix of small symmetric eigenproblems in LAPACK (a 41-state charge basis)
# and a scalar Python loop (a series summed term by term), and the start
# of a fresh interpreter that imports numpy, the program's largest import,
# as the CLI and the set-up start: it follows slowdowns of the CLI and the
# set-up that leave the in-process work and small imports alone.
YARD_REF_S = (0.007, 0.1)  # (in-process work, interpreter start)
YARD_WINDOW = 5  # samples each side of an item
YARD_START = (sys.executable, "-c", "import numpy")
_YARD_MATRIX = np.random.default_rng(0).standard_normal((41, 41))
_YARD_MATRIX = _YARD_MATRIX + _YARD_MATRIX.T


def yardstick() -> float:
    start = time.perf_counter()
    for _ in range(40):
        np.linalg.eigvalsh(_YARD_MATRIX)
    total = 0.0
    for k in range(1, 30000):
        total += 1.0 / (k * k)
    work = time.perf_counter() - start
    start = time.perf_counter()
    subprocess.run(YARD_START, check=True)
    return 0.5 * (work / YARD_REF_S[0] + (time.perf_counter() - start) / YARD_REF_S[1])


class Tally:
    """Attempted and failed items of one pass, their times, the problems seen."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.log = []  # [kind, seconds, traced calls, completed] of every attempted item
        self.yard = []  # yardstick, taken right before each item
        self.problems = []

    def scaled_seconds(self):
        """Each item's time at the reference host speed."""
        w = YARD_WINDOW
        return [entry[1] / statistics.median(self.yard[max(0, i - w + 1):i + w + 1])
                for i, entry in enumerate(self.log)]

    def completed(self, times, kind=None):
        return [t for t, entry in zip(times, self.log) if entry[3] and kind in (None, entry[0])]


def run_round(wl, r, tally, tracer=None):
    items = wl.make_round(r)
    calls = []
    for item in items:
        tally.yard.append(yardstick())
        spans = len(tracer.spans) if tracer is not None else 0
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            item.outputs = wl.run(item)
        except Exception as exc:  # a program fault fails the item, not the run
            item.error = exc
        item.seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            spans = len(tracer.spans) - spans
        calls.append(spans)
    for item, spans in zip(items, calls):
        tally.attempted += 1
        problems = []
        if item.error is not None:
            if type(item.error).__name__ != item.expect_failure:
                problems = [f"{type(item.error).__name__}: {item.error}"]
        else:
            problems = wl.check(item)
        ok = item.error is None and not problems
        tally.failed += not ok
        tally.problems += [f"round {r} {item.kind}: {p}" for p in problems]
        tally.log.append([item.kind, item.seconds, spans, ok])


SETUP_CODE = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import fluxline; "
              f"fluxline.load_config({str(CONFIG)!r})")
IMPORT_CODE = (f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); t = time.perf_counter(); "
               "import fluxline.cli; print(time.perf_counter() - t)")


def fresh_interpreter_seconds(code: str, inside: bool) -> float:
    """Time of a fresh interpreter running code.

    inside=False times the whole process from the outside; inside=True
    takes the time the child prints for its own code.
    """
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout
    return float(out) if inside else time.perf_counter() - start


def setup_seconds():
    """(scaled, unscaled) median of SETUP_REPEATS fresh interpreters that
    import fluxline and load the config, each scaled by the median of three
    yardsticks taken right before it."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        yard = statistics.median(yardstick() for _ in range(3))
        raw.append(fresh_interpreter_seconds(SETUP_CODE, inside=False))
        scaled.append(raw[-1] / yard)
    return statistics.median(scaled), statistics.median(raw)


def cli_import_ms() -> float:
    return statistics.median(fresh_interpreter_seconds(IMPORT_CODE, inside=True)
                             for _ in range(IMPORT_REPEATS)) * 1e3


def peak_rss_mb(wl) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + getattr(wl, "child_rss_kb", 0)) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("device", "tools"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the untraced half of --trace 1: run this many rounds, print the Tally
    parser.add_argument("--untraced-rounds", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not ((ROOT / "src" / "fluxline" / "__init__.py").is_file() and CONFIG.is_file()):
        print(f"bench: no fluxline sources or example config under {ROOT}", file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import references
    import tracing
    import workloads

    broken = references.self_check()
    if broken:
        print("bench: reference self-check failed: " + "; ".join(broken), file=sys.stderr)
        return 1

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if args.untraced_rounds:
        tally = Tally()
        try:
            wl.prepare()
            for r in range(args.untraced_rounds):
                run_round(wl, r, tally)
        finally:
            getattr(wl, "cleanup", lambda: None)()
        print(json.dumps(vars(tally)))
        return 0
    try:
        if args.trace:
            tally, metrics = traced_run(wl, args, tracing)
        else:
            tally, metrics = timed_run(wl, args)
    finally:
        cleanup = getattr(wl, "cleanup", None)
        if cleanup is not None:
            cleanup()

    for p in tally.problems[:20]:
        print(f"bench: FAILED CHECK {p}", file=sys.stderr)
    print(f"{args.workload}: {tally.attempted} items attempted, {tally.failed} failed, "
          f"{len(tally.problems)} check problems", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def timed_run(wl, args):
    setup, setup_raw = setup_seconds()
    wl.prepare()
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while r < wl.min_rounds or time.perf_counter() - start < args.seconds:
        run_round(wl, r, tally)
        r += 1
    raw = [entry[1] for entry in tally.log]
    if not tally.completed(raw):
        tally.problems.append("no item completed")
        return tally, {}
    busy = {}
    for kind, seconds, _, _ in tally.log:
        busy[kind] = busy.get(kind, 0.0) + seconds
    print("share of item time: " + ", ".join(f"{k} {v / sum(raw):.3f}" for k, v in busy.items()),
          file=sys.stderr)
    scaled = tally.scaled_seconds()
    done = len(tally.completed(raw))
    print(f"unscaled: setup_s {setup_raw:.4f}, items_per_s {done / sum(raw):.4f}, "
          f"item_p50_ms {statistics.median(tally.completed(raw)) * 1e3:.2f}; "
          f"yardstick median {statistics.median(tally.yard):.4f}", file=sys.stderr)
    return tally, {
        "setup_s": (setup, "s"),
        # completed items over the time of every attempted item, failed ones too
        "items_per_s": (done / sum(scaled), "1/s"),
        "item_p50_ms": (statistics.median(tally.completed(scaled)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }


def untraced_rounds(args, rounds) -> Tally:
    """The first rounds of the workload in a fresh, untraced process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--untraced-rounds", str(rounds)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    tally = Tally()
    vars(tally).update(json.loads(out.splitlines()[-1]))
    return tally


def traced_run(wl, args, tracing):
    rounds = wl.trace_rounds
    # the same rounds untraced, in a process of their own, so that both
    # meet the program's caches cold and each traced item has an untraced
    # twin with the same inputs
    plain = untraced_rounds(args, rounds)
    tracer = tracing.Tracer()
    traced = Tally()
    tracer.install()
    wl.prepare()
    tracer.uninstall()
    for r in range(rounds):
        run_round(wl, r, traced, tracer)
    tracer.write(ROOT / "bench" / "out" / f"trace-{args.workload}-seed{args.seed}.csv.gz")

    metrics = tracer.metrics()
    metrics["cli.import_ms"] = (cli_import_ms(), "ms")
    for sub in CLI_SUBCOMMANDS:
        walls = [t for tally in (plain, traced) for t in tally.completed([e[1] for e in tally.log], sub)]
        metrics[f"cli.{sub}.wall_ms"] = (statistics.median(walls) * 1e3 if walls else 0.0, "ms")
    # per item the tracer saw (CLI children are not traced): traced time
    # over the untraced twin's, both at the reference host speed, the
    # median of these ratios
    assert [t[0] for t in traced.log] == [p[0] for p in plain.log]
    ratios = [t / p for t, p, entry in zip(traced.scaled_seconds(), plain.scaled_seconds(), traced.log)
              if entry[2]]
    metrics["trace.overhead_pct"] = ((statistics.median(ratios) - 1.0) * 100.0, "%")

    total = Tally()
    total.attempted = plain.attempted + traced.attempted
    total.failed = plain.failed + traced.failed
    total.problems = plain.problems + traced.problems
    return total, metrics


if __name__ == "__main__":
    sys.exit(main())
