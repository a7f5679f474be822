"""Combined microwave+flux (XYZ) control modeling for tunable transmons.

Submodules
----------
transmon      flux-dependent spectrum: Mathieu levels from numpy tables
modulation    time-averaged frequency under RF flux modulation
signal_chain  attenuation/crosstalk budgets
rf_network    lumped-element filters and the cryogenic diplexer model
fitting       Levenberg-Marquardt engine and characterization fit models
config        device configuration documents
cli           command-line front end

The package defines the error types (config and specfun re-export them).
The other names below are re-exported lazily (PEP 562): ``import fluxline``
loads no submodule, and the first access to a name imports the submodule
that defines it, so numpy and mpmath are loaded only by the parts that
need them.
"""

import importlib

__version__ = "0.1.0"


class ConfigError(ValueError):
    """Invalid configuration document; message names the offending field."""


class ConvergenceError(RuntimeError):
    """A series failed to reach the requested accuracy."""


# re-exported name -> defining submodule
_EXPORTS = {
    "TransmonParams": "config",
    "FluxDrive": "modulation",
    "LineBudget": "signal_chain",
    "AttenuationChain": "config",
    "DataSeries": "fitting",
    "FitResult": "fitting",
    "DeviceConfig": "config",
    "effective_ej": "transmon",
    "f01_asymptotic": "transmon",
    "levels": "transmon",
    "avg_frequency": "modulation",
    "harmonic_series": "modulation",
    "second_order_shift": "modulation",
    "time_average_oracle": "modulation",
    "spurious_shift_report": "signal_chain",
    "chain_total": "signal_chain",
    "fit_t1": "fitting",
    "fit_ramsey": "fitting",
    "fit_rb": "fitting",
    "fit_tuning_curve": "fitting",
    "fit_beta": "fitting",
    "load_config": "config",
}

__all__ = ["ConfigError", "ConvergenceError", *_EXPORTS, "__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
