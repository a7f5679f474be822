"""Import budget: each part of the package loads only what it uses.

Every check runs in a fresh interpreter, since the test process itself
has long loaded scipy.
"""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

import fluxline
from conftest import EXAMPLE_CONFIG, FIXTURES, REPO


def _fresh(code: str, tmp_path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_by(code: str, tmp_path, package: str = "scipy") -> set:
    """The modules of package a fresh interpreter holds after running code."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))\n"
    )
    return set(json.loads(_fresh(probe, tmp_path).stdout.splitlines()[-1]))


def cli_run(*argv) -> str:
    return f"from fluxline import cli\nassert cli.main({list(argv)!r}) == 0\n"


CONFIG = str(EXAMPLE_CONFIG)
SPECTRUM = ("spectrum", CONFIG, "--qubit", "q0", "--points", "5", "--out", "s.csv")
CROSSTALK = ("crosstalk", CONFIG, "--qubit", "q0", "--gamma-db", "85", "--v-p", "0.3", "--out", "x.json")
DIPLEXER = ("diplexer", CONFIG, "--out", "d.csv", "--report-out", "d.json")
MODULATE = ("modulate", CONFIG, "--qubit", "q0", "--points", "3", "--out", "m.csv")
MODULATE_ORACLE = (*MODULATE, "--with-oracle")
FIT_FIXTURES = {
    "t1": "t1_53us.csv",
    "ramsey": "ramsey_10us.csv",
    "rb": "rb_decay.csv",
    "tuning": "tuning_q0.csv",
    "beta": "beta_q0.csv",
}


def fit_argv(kind: str) -> tuple:
    return ("fit", kind, str(FIXTURES / FIT_FIXTURES[kind]), CONFIG, "--qubit", "q0", "--out", "f.json")


def test_package_and_config_load_no_scipy(tmp_path):
    code = f"import fluxline\nfluxline.load_config({CONFIG!r})\n"
    assert loaded_by(code, tmp_path) == set()


def test_load_config_loads_only_config(tmp_path):
    code = f"import fluxline\nfluxline.load_config({CONFIG!r})\n"
    assert loaded_by(code, tmp_path, "fluxline") == {"fluxline", "fluxline.config"}
    assert loaded_by(code, tmp_path, "numpy") == set()


@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_config_load_builds_no_dataclass(tmp_path, module):
    # the config's records are named tuples: no dataclasses, nor the
    # inspect module that dataclasses imports
    code = f"import fluxline\nfluxline.load_config({CONFIG!r})\n"
    assert loaded_by(code, tmp_path, module) == set()


@pytest.mark.parametrize("argv", [SPECTRUM, MODULATE, MODULATE_ORACLE, CROSSTALK],
                         ids=["spectrum", "modulate", "modulate-oracle", "crosstalk"])
def test_named_tuple_subcommands_load_no_dataclasses(tmp_path, argv):
    # only diplexer and fit, whose records are dataclasses, load the module
    assert loaded_by(cli_run(*argv), tmp_path, "dataclasses") == set()


def test_cli_module_loads_no_scipy(tmp_path):
    assert loaded_by("import fluxline.cli\n", tmp_path) == set()


@pytest.mark.parametrize("argv", [CROSSTALK, DIPLEXER, MODULATE, MODULATE_ORACLE],
                         ids=["crosstalk", "diplexer", "modulate", "modulate-oracle"])
def test_numpy_only_subcommands_load_no_scipy(tmp_path, argv):
    # the oracle's exact levels are transmon's numpy tables
    assert loaded_by(cli_run(*argv), tmp_path) == set()


def test_spectrum_loads_no_optimizer(tmp_path):
    # nor any other scipy module: the Mathieu levels are numpy tables
    assert loaded_by(cli_run(*SPECTRUM), tmp_path) == set()


@pytest.mark.parametrize("argv, unused", [
    (SPECTRUM, {"rf_network", "signal_chain", "modulation", "specfun", "fitting"}),
    (DIPLEXER, {"signal_chain", "modulation", "specfun", "fitting"}),
    (MODULATE, {"rf_network", "signal_chain", "fitting"}),
    (CROSSTALK, {"rf_network", "fitting"}),
    # only the tuning and beta model factories import modulation and transmon,
    # only the beta model specfun; the error types live in the package
    (fit_argv("t1"), {"modulation", "transmon", "config", "specfun"}),
    (fit_argv("ramsey"), {"modulation", "transmon", "config", "specfun"}),
    (fit_argv("rb"), {"modulation", "transmon", "config", "specfun"}),
    (fit_argv("tuning"), {"specfun", "modulation", "rf_network", "signal_chain"}),
], ids=["spectrum", "diplexer", "modulate", "crosstalk", "fit-t1", "fit-ramsey", "fit-rb", "fit-tuning"])
def test_subcommand_loads_only_its_layers(tmp_path, argv, unused):
    loaded = loaded_by(cli_run(*argv), tmp_path, "fluxline")
    assert not loaded & {f"fluxline.{m}" for m in unused}


def test_cli_module_loads_no_config(tmp_path):
    # the config layer loads when a subcommand reads a config, not before
    assert "fluxline.config" not in loaded_by("import fluxline.cli\n", tmp_path, "fluxline")


def test_fitting_module_loads_no_scipy(tmp_path):
    assert loaded_by("import fluxline.fitting\n", tmp_path) == set()


@pytest.mark.parametrize("kind", FIT_FIXTURES)
def test_fit_loads_no_scipy(tmp_path, kind):
    # the tuning fit runs on the closed form, as the CLI does
    assert loaded_by(cli_run(*fit_argv(kind)), tmp_path) == set()


@pytest.mark.parametrize("kind", FIT_FIXTURES)
def test_fit_loads_no_rf_or_chain_layer(tmp_path, kind):
    loaded = loaded_by(cli_run(*fit_argv(kind)), tmp_path, "fluxline")
    assert not loaded & {"fluxline.rf_network", "fluxline.signal_chain"}


@pytest.mark.parametrize("argv", [MODULATE, fit_argv("beta")], ids=["modulate", "fit-beta"])
def test_bessel_callers_load_no_polynomial_package_or_scipy(tmp_path, argv):
    # the Bessel kernels are Horner's rule on numpy ufuncs alone
    code = cli_run(*argv)
    assert loaded_by(code, tmp_path) == set()
    assert not {m for m in loaded_by(code, tmp_path, "numpy") if m.startswith("numpy.polynomial")}


def test_hyp2f1_loads_no_scipy(tmp_path):
    # z near 1, where 2F1 is summed in 1 - z
    code = "from fluxline.specfun import hyp2f1\nassert hyp2f1(0.5, 1.0, 1.5, 0.99) > 1.0\n"
    assert loaded_by(code, tmp_path) == set()


def test_bessel_kernels_load_no_mpmath(tmp_path):
    code = "import fluxline.specfun\nfluxline.specfun.bessel_j0(2.5)\nfluxline.specfun.bessel_j1([1.0, 9.0])\n"
    assert loaded_by(code, tmp_path, "mpmath") == set()


def test_no_subcommand_loads_mpmath(tmp_path):
    # every subcommand and fit kind in one interpreter: hyp2f1 is on no CLI path
    runs = [SPECTRUM, CROSSTALK, DIPLEXER, MODULATE, MODULATE_ORACLE, *map(fit_argv, FIT_FIXTURES)]
    assert loaded_by("".join(cli_run(*argv) for argv in runs), tmp_path, "mpmath") == set()


def test_declared_dependencies_match_imports():
    # the third-party modules that src/fluxline imports, function-level
    # imports included, are the [project] dependencies (read without
    # tomllib, which Python 3.10 lacks)
    imported = set()
    for path in (REPO / "src" / "fluxline").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"fluxline"}
    project = (REPO / "pyproject.toml").read_text().split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S).group(1)
    declared = {re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
                for req in re.findall(r'"([^"]+)"', listed)}
    assert third_party == declared


SUBMODULES = ("transmon", "modulation", "specfun", "rf_network", "fitting", "signal_chain", "config")


def test_every_exported_name_resolves(tmp_path):
    # the package's lazy names, then every name in each submodule's __all__
    code = (
        "import importlib\n"
        "import fluxline\n"
        "from fluxline import *\n"
        "missing = [n for n in fluxline.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert set(fluxline.__all__) <= set(dir(fluxline))\n"
        f"for name in {SUBMODULES!r}:\n"
        "    module = importlib.import_module('fluxline.' + name)\n"
        "    missing = [n for n in module.__all__ if not hasattr(module, n)]\n"
        "    assert not missing, (name, missing)\n"
    )
    _fresh(code, tmp_path)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        fluxline.nope


def test_readme_library_snippet_runs(tmp_path):
    readme = (REPO / "README.md").read_text()
    snippet = re.search(r"## Library\s+```python\n(.*?)```", readme, re.S).group(1)
    assert "from fluxline import" in snippet
    _fresh(snippet, tmp_path)
