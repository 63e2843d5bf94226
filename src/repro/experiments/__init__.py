"""Per-figure/table experiment drivers and the calibrated Alewife system."""

from repro.experiments.alewife import (
    alewife_application,
    alewife_network,
    alewife_system,
    alewife_transaction,
    alewife_validation_system,
)
from repro.experiments.result import ExperimentResult

__all__ = [
    "alewife_system",
    "alewife_validation_system",
    "alewife_application",
    "alewife_transaction",
    "alewife_network",
    "ExperimentResult",
]
