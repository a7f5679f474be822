"""The example scripts drive the command line: their files are its output."""

import subprocess
import sys

from fluxline.cli import main

from conftest import EXAMPLE_CONFIG, REPO


def run_script(name: str, out_dir) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), str(EXAMPLE_CONFIG), str(out_dir)],
        capture_output=True, text=True, timeout=600,
    )


def test_characterize_device(tmp_path):
    out = tmp_path / "chr"
    proc = run_script("characterize_device.py", out)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("chain xy: ")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{q}_{name}" for q in ("q0", "q1", "q2", "q3")
        for name in ("spectrum.csv", "modulation.csv", "crosstalk.json")
    )
    ref = tmp_path / "spectrum.csv"
    assert main(["spectrum", str(EXAMPLE_CONFIG), "--qubit", "q0", "--points", "201", "--out", str(ref)]) == 0
    assert (out / "q0_spectrum.csv").read_bytes() == ref.read_bytes()


def test_diplexer_response(tmp_path):
    out = tmp_path / "dpx"
    proc = run_script("diplexer_response.py", out)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in out.iterdir()) == [
        "bandpass_branch.csv", "bandpass_branch.json", "diplexer_check.json",
        "diplexer_response.csv", "lowpass_branch.csv", "lowpass_branch.json",
    ]
    ref = tmp_path / "response.csv"
    assert main(["diplexer", str(EXAMPLE_CONFIG), "--out", str(ref), "--report-out", str(tmp_path / "r.json")]) == 0
    assert (out / "diplexer_response.csv").read_bytes() == ref.read_bytes()
