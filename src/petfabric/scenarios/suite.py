"""The six-configuration benchmark suite comparing PET placements.

Builds the canonical comparison set -- baseline, local DP, global DP on the
edge device and virtualized, additive sharing on the edge device and
virtualized -- with the reference compute constants, so the structural
latency ordering can be reproduced with any per-hop model.
"""

from __future__ import annotations

from typing import Optional

from ..codec import derive_params
from ..fabric import LatencyModel, LATENCY_PRESETS
from .config import (
    ON_DEVICE,
    PET_ASS,
    PET_GDP,
    PET_LDP,
    PET_NONE,
    REFERENCE_COMPUTE_MS,
    VIRTUALIZED,
    PetConfig,
    ScenarioSpec,
    SensorConfig,
    Topology,
)

#: The one encoding every placement uses: weights on [50, 120] kg, k = 1.
ENCODING = derive_params(50.0, 120.0, 1)

#: (name, topology, pet, sensors, REFERENCE_COMPUTE_MS key), cheapest first
PLACEMENTS = (
    ("baseline-on-device", ON_DEVICE, PET_NONE, 1, "baseline"),
    ("ldp-on-device", ON_DEVICE, PET_LDP, 1, "ldp"),
    ("gdp-on-device", ON_DEVICE, PET_GDP, 3, "gdp-on-device"),
    ("gdp-virtualized", VIRTUALIZED, PET_GDP, 3, "gdp-virtualized"),
    ("ass-on-device", ON_DEVICE, PET_ASS, 1, "ass-on-device"),
    ("ass-virtualized", VIRTUALIZED, PET_ASS, 1, "ass-virtualized"),
)


def benchmark_suite(
    latency: Optional[LatencyModel] = None,
    repetitions: int = 100,
    seed: int = 0,
    m: int = 3,
    epsilon: float = 1.0,
    compute_ms: Optional[dict[str, float]] = None,
) -> list[ScenarioSpec]:
    """Build the six comparison scenarios, cheapest placement first."""
    latency = latency if latency is not None else LATENCY_PRESETS["testbed"]
    compute = {**REFERENCE_COMPUTE_MS, **(compute_ms or {})}
    pets = {
        PET_NONE: PetConfig(PET_NONE),
        PET_LDP: PetConfig(PET_LDP, epsilon=epsilon),
        PET_GDP: PetConfig(PET_GDP, epsilon=epsilon),
        PET_ASS: PetConfig(PET_ASS, m=m),
    }
    return [
        ScenarioSpec(
            name=name,
            topology=Topology(topology),
            pet=pets[pet],
            sensors=SensorConfig(count=sensors),
            encoding=ENCODING,
            latency=latency,
            compute_ms=compute[key],
            repetitions=repetitions,
            seed=seed,
        )
        for name, topology, pet, sensors, key in PLACEMENTS
    ]
