"""Resonant-beam SWIPT link simulator: cavity ray optics, semiconductor
gain power model, PV/APD receiver, and parameter-sweep design search."""

from .config import ConfigError, get_preset, parse_config, serialize_config
from .gain_power import PowerResult, evaluate_gain
from .model import OperatingPoint, evaluate_operating_point
from .ray_optics import (
    DegenerateCavityError,
    RayTransferMatrix,
    UnstableResonatorError,
    diffraction_survival,
    one_trip_matrix,
    spot_radius_on_gain,
)
from .receiver import SwiptResult, evaluate_receiver
from .sweep import (
    Axis,
    OptimizationError,
    SweepSpec,
    find_optimum,
    reduce_max,
    run_sweep,
)

__version__ = "0.1.0"
