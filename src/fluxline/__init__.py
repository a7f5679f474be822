"""Combined microwave+flux (XYZ) control modeling for tunable transmons.

Submodules
----------
transmon      flux-dependent spectrum: Mathieu levels, charge-basis oracle
modulation    time-averaged frequency under RF flux modulation
signal_chain  attenuation/crosstalk budgets
rf_network    lumped-element filters and the cryogenic diplexer model
fitting       Levenberg-Marquardt engine and characterization fit models
config        device configuration documents
cli           command-line front end
"""

from .transmon import (
    FluxPoint,
    SpectrumResult,
    TransmonParams,
    diagonalize,
    effective_ej,
    f01_asymptotic,
    levels,
)
from .modulation import (
    FluxDrive,
    HarmonicSeries,
    ModulationConstants,
    avg_frequency,
    harmonic_series,
    second_order_shift,
    time_average_oracle,
)
from .signal_chain import AttenuationChain, LineBudget, chain_total, spurious_shift_report
from .fitting import (
    DataSeries,
    FitResult,
    fit_beta,
    fit_rb,
    fit_ramsey,
    fit_t1,
    fit_tuning_curve,
)
from .config import DeviceConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "TransmonParams",
    "FluxPoint",
    "SpectrumResult",
    "FluxDrive",
    "HarmonicSeries",
    "ModulationConstants",
    "LineBudget",
    "AttenuationChain",
    "DataSeries",
    "FitResult",
    "DeviceConfig",
    "effective_ej",
    "f01_asymptotic",
    "levels",
    "diagonalize",
    "avg_frequency",
    "harmonic_series",
    "second_order_shift",
    "time_average_oracle",
    "spurious_shift_report",
    "chain_total",
    "fit_t1",
    "fit_ramsey",
    "fit_rb",
    "fit_tuning_curve",
    "fit_beta",
    "load_config",
    "__version__",
]
