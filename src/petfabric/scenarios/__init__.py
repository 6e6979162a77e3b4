"""Declarative scenario engine: benchmark configs, flows, and experiments."""

from .config import load_scenario  # perfbench/workloads.py calls scenarios.load_scenario
from .experiments import load_test  # perfbench/workloads.py calls it; perfbench/tracing.py wraps it here
