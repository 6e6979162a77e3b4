"""Declarative scenario engine: benchmark configs, flows, and experiments."""

from ..dp import GDP_MODEL, LDP_MODEL
from .config import (
    MIN_REPS,
    ConfigError,
    GeneratorConfig,
    PetConfig,
    REFERENCE_COMPUTE_MS,
    ScenarioSpec,
    SensorConfig,
    Topology,
    benchmark_suite,
    load_scenario,
    scenario_from_dict,
)
from .experiments import (
    LatencySummary,
    LoadComparison,
    UtilityPoint,
    UtilityReport,
    generate_weights,
    load_test,
    weight_sum_experiment,
)
from .runner import (
    RepOutcome,
    run_scenario,
    run_scenario_outcomes,
)

__all__ = [
    "ConfigError",
    "GDP_MODEL",
    "GeneratorConfig",
    "LDP_MODEL",
    "LatencySummary",
    "LoadComparison",
    "MIN_REPS",
    "PetConfig",
    "REFERENCE_COMPUTE_MS",
    "RepOutcome",
    "ScenarioSpec",
    "SensorConfig",
    "Topology",
    "UtilityPoint",
    "UtilityReport",
    "benchmark_suite",
    "generate_weights",
    "load_scenario",
    "load_test",
    "run_scenario",
    "run_scenario_outcomes",
    "scenario_from_dict",
    "weight_sum_experiment",
]
