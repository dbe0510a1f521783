"""Optimization-free neuro-fuzzy computing with a memristor-crossbar backend."""

from . import benchmarks, crossbar, errors, experiments, fuzzy, network
from .crossbar import Crossbar, MemristorParams
from .experiments import ExperimentConfig, ExperimentReport
from .fuzzy import MembershipVector, Universe, universe_from_count
from .network import (
    InputGroup,
    NetworkConfig,
    NetworkState,
    deserialize,
    serialize,
    train_dataset,
    train_one,
)

__version__ = "0.1.0"
