"""Scoring toolkit for OpenMP parallelizations of C/C++ code.

Compares candidate parallelizations against expert references with a
weighted composite of eight sub-scores, produces clause-level confusion
reports, ranks multi-candidate generations, and ships corpus utilities
(syntax tagging, corruption, weighted loss reference).
"""

__version__ = "0.1.0"

from .config import ConfigError, EvalConfig, load_config
from .metrics import SUBSCORE_WEIGHTS, MetricWeights, ScoreBreakdown, ompbleu_score

__all__ = [
    "ConfigError",
    "EvalConfig",
    "MetricWeights",
    "SUBSCORE_WEIGHTS",
    "ScoreBreakdown",
    "__version__",
    "load_config",
    "ompbleu_score",
]
