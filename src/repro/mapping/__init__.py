"""Thread-to-processor mappings: construction, evaluation, optimization."""

from repro.mapping.anneal import AnnealResult, anneal_mapping
from repro.mapping.base import Mapping
from repro.mapping.chains import MultiChainResult, anneal_chains
from repro.mapping.engine import SwapEngine
from repro.mapping.evaluate import (
    MappingEvaluation,
    average_distance,
    distance_histogram,
    evaluate,
)
from repro.mapping.families import NamedMapping, paper_mapping_suite
from repro.mapping.optimize import (
    OptimizationResult,
    maximize_distance,
    minimize_distance,
    optimize_mapping,
)
from repro.mapping.strategies import (
    bit_reversal_mapping,
    dimension_scale_mapping,
    identity_mapping,
    random_mapping,
    shear_mapping,
    stride_mapping,
)

__all__ = [
    "Mapping",
    "MappingEvaluation",
    "average_distance",
    "distance_histogram",
    "evaluate",
    "NamedMapping",
    "paper_mapping_suite",
    "OptimizationResult",
    "optimize_mapping",
    "minimize_distance",
    "maximize_distance",
    "AnnealResult",
    "anneal_mapping",
    "MultiChainResult",
    "anneal_chains",
    "SwapEngine",
    "identity_mapping",
    "random_mapping",
    "stride_mapping",
    "dimension_scale_mapping",
    "bit_reversal_mapping",
    "shear_mapping",
]
