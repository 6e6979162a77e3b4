"""Declarative scenario engine: benchmark configs, flows, and experiments."""

from .config import (
    MIN_REPS,
    ConfigError,
    GeneratorConfig,
    PetConfig,
    REFERENCE_COMPUTE_MS,
    ScenarioSpec,
    SensorConfig,
    Topology,
    load_scenario,
    scenario_from_dict,
)
from .experiments import (
    GDP_MODEL,
    LDP_MODEL,
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
from .suite import benchmark_suite

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
