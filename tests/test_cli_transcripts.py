"""Golden transcripts of the command line: exit code, stdout and stderr.

Each invocation runs in-process through ``cli.main`` from the repository
root and must reproduce its recorded transcript in
``tests/cli_transcripts.json``.  The text must match exactly, except that a
numeric token may differ by at most one unit in its 12th significant digit
(the last digit every number is printed with), which allows for a different
CPU's last-bit rounding.  Any other difference fails.

Run this module as a script to record the transcripts again:

    PYTHONPATH=src python tests/test_cli_transcripts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import sys
from decimal import Decimal
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TRANSCRIPTS = REPO / "tests" / "cli_transcripts.json"

CONFIG = "data/example_device.json"
FIXTURES = "data/fixtures"
BETA = [f"{FIXTURES}/beta_q0.csv", CONFIG]

_EVERY_SUBCOMMAND = [
    ["spectrum", CONFIG, "--qubit", "q0"],
    ["modulate", CONFIG, "--qubit", "q0"],
    ["crosstalk", CONFIG, "--qubit", "q0", "--gamma-db", "85", "--v-p", "0.3"],
    ["diplexer", CONFIG, "--points", "60", "--report-out", "-"],
    ["fit", "beta", *BETA, "--qubit", "q0"],
]

INVOCATIONS = [
    # every subcommand on the example device, as text and as --json
    *_EVERY_SUBCOMMAND,
    *(["--json", *argv] for argv in _EVERY_SUBCOMMAND),
    # every fit fixture with its residuals
    ["fit", "t1", f"{FIXTURES}/t1_53us.csv", "--residuals-out", "-"],
    ["fit", "ramsey", f"{FIXTURES}/ramsey_10us.csv", "--residuals-out", "-"],
    ["fit", "rb", f"{FIXTURES}/rb_decay.csv", "--residuals-out", "-"],
    ["fit", "tuning", f"{FIXTURES}/tuning_q0.csv", "--residuals-out", "-"],
    ["fit", "beta", *BETA, "--qubit", "q0", "--residuals-out", "-"],
    ["fit", "tuning", f"{FIXTURES}/tuning_q0.csv", "--fixed-ec", "182", "--residuals-out", "-"],
    ["fit", "beta", *BETA, "--qubit", "q2", "--phi-dc", "0.1"],
    # the oracle's even and odd step counts
    *(["modulate", CONFIG, "--qubit", "q0", "--with-oracle", "--oracle-steps", n] for n in ("256", "257", "512")),
    # exit 2: invalid input
    ["fit", "beta", *BETA],
    ["fit", "tuning", f"{FIXTURES}/tuning_q0.csv", "--fixed-ec", "1e308"],
    ["spectrum", CONFIG, "--qubit", "q0", "--points", "0"],
    # exit 3: a fit that reaches its iteration cap
    ["fit", "beta", *BETA, "--qubit", "q0", "--phi-dc", "0.5"],
]

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process run from the repository root."""
    from fluxline.cli import CONFIG_ENV, main

    out, err = io.StringIO(), io.StringIO()
    cwd, config = os.getcwd(), os.environ.pop(CONFIG_ENV, None)
    os.chdir(REPO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
        if config is not None:
            os.environ[CONFIG_ENV] = config
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def differing_numbers(recorded: str, actual: str) -> int:
    """How many numeric tokens of actual differ from recorded, each by at
    most one unit in its 12th significant digit; raises AssertionError on
    any other difference."""
    want, got = _NUMBER.split(recorded), _NUMBER.split(actual)
    assert len(want) == len(got), "the texts differ in their numbers of tokens"
    differing = 0
    for k, (w, g) in enumerate(zip(want, got)):
        if w == g:
            continue
        # split() puts the captured numbers at the odd indices
        assert k % 2 == 1, f"text differs: {w!r} recorded, {g!r} now"
        a, b = Decimal(w), Decimal(g)
        unit = Decimal(10) ** (max(a.adjusted(), b.adjusted()) - 11)
        assert abs(a - b) <= unit, f"number differs beyond its 12th significant digit: {w} recorded, {g} now"
        differing += 1
    return differing


def record() -> dict:
    return {shlex.join(argv): run(argv) for argv in INVOCATIONS}


@pytest.fixture(scope="module")
def transcripts() -> dict:
    return json.loads(TRANSCRIPTS.read_text())


def test_every_invocation_is_recorded(transcripts):
    assert list(transcripts) == [shlex.join(argv) for argv in INVOCATIONS]


@pytest.mark.parametrize("argv", INVOCATIONS, ids=shlex.join)
def test_transcript(transcripts, argv):
    want, got = transcripts[shlex.join(argv)], run(argv)
    assert got["exit_code"] == want["exit_code"]
    for stream in ("stdout", "stderr"):
        differing_numbers(want[stream], got[stream])


@pytest.mark.parametrize("recorded,actual,differing", [
    ("f = 3851.23456789 MHz", "f = 3851.23456789 MHz", 0),
    ("f = 3851.23456789 MHz", "f = 3851.2345679 MHz", 1),  # 3851.23456790
    ("-1.23456789012e-05,7", "-1.23456789013e-05,7", 1),
    ("9.99999999999", "10", 1),
])
def test_last_digit_allowance(recorded, actual, differing):
    assert differing_numbers(recorded, actual) == differing


@pytest.mark.parametrize("recorded,actual", [
    ("f = 3851.23456789 MHz", "f = 3851.23456789 GHz"),
    ("-1.23456789012e-05", "-1.23456789014e-05"),
    ('"iterations": 7', '"iterations": 8'),
    ("1,2", "1,2,3"),
])
def test_other_differences_fail(recorded, actual):
    with pytest.raises(AssertionError):
        differing_numbers(recorded, actual)


if __name__ == "__main__":
    TRANSCRIPTS.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {TRANSCRIPTS} ({len(INVOCATIONS)} invocations)", file=sys.stderr)
