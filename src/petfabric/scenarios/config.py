"""Config schemas: the typed scenario spec, the strict loader of every
config file the CLI reads, and the six-placement benchmark suite.

Scenario configs mirror the ScenarioSpec fields one-to-one; the sweep,
adversary, ass-demo and bench configs load into plain dicts. Loading is
strict: unknown keys anywhere in the document are rejected, fields are read
by typed readers that coerce nothing (`read_int`, `read_number`,
`read_str`), every range a run relies on is checked here, so a config that
validates also runs, and every validation message names the offending
field, so a typo cannot silently change what a benchmark measures.
Encoding parameters are stored as {k, x_lo, x_hi} only; the derived
quantities are always recomputed.

The suite's placement table (`PLACEMENTS`) lives here too, next to the
bench loader that checks against it and `benchmark_suite`, which builds
the six comparison scenarios from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

from ..ass import MAX_FIELD_BOUND
from ..codec import DomainError, EncodingParams, derive_params
from ..dp import GDP_MODEL, LDP_MODEL
from ..fabric import LATENCY_PRESETS, LatencyModel

ON_DEVICE = "on-device"
VIRTUALIZED = "virtualized"
RELAY_CHAIN = "relay-chain"

PET_NONE = "none"
PET_LDP = "ldp"
PET_GDP = "gdp"
PET_ASS = "ass"
PET_KRR = "krr"

#: The one encoding every suite placement uses: weights on [50, 120] kg, k = 1.
SUITE_ENCODING = derive_params(50.0, 120.0, 1)

#: The benchmark suite's six placements, cheapest first: (name, topology,
#: pet, sensors, compute_ms key, reference compute ms). The compute times
#: were measured on the reference embedded testbed; the simulator treats
#: compute as a model parameter and never re-measures the host machine.
PLACEMENTS = (
    ("baseline-on-device", ON_DEVICE, PET_NONE, 1, "baseline", 0.307),
    ("ldp-on-device", ON_DEVICE, PET_LDP, 1, "ldp", 0.488),
    ("gdp-on-device", ON_DEVICE, PET_GDP, 3, "gdp-on-device", 1.147),
    ("gdp-virtualized", VIRTUALIZED, PET_GDP, 3, "gdp-virtualized", 0.0),
    ("ass-on-device", ON_DEVICE, PET_ASS, 1, "ass-on-device", 0.591),
    ("ass-virtualized", VIRTUALIZED, PET_ASS, 1, "ass-virtualized", 17.265),
)

#: compute_ms key -> reference compute ms, the suite's defaults
REFERENCE_COMPUTE_MS = {key: ms for *_, key, ms in PLACEMENTS}

#: Fewest repetitions that make per-epsilon error statistics reportable.
MIN_REPS = 100


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class Topology:
    kind: str
    depth: int = 0  # relay-chain only

    def __post_init__(self) -> None:
        if self.kind not in (ON_DEVICE, VIRTUALIZED, RELAY_CHAIN):
            raise ConfigError(f"topology.kind: unknown kind {self.kind!r}")
        if self.kind == RELAY_CHAIN:
            if self.depth < 1:
                raise ConfigError("topology.depth: relay chain needs depth >= 1")
        elif self.depth != 0:
            raise ConfigError(f"topology.depth: only valid for relay-chain, got {self.depth}")


@dataclass(frozen=True)
class PetConfig:
    kind: str
    epsilon: Optional[float] = None
    aggregator: Optional[str] = None  # gdp only
    m: Optional[int] = None  # ass only
    drop_one_share: bool = False  # ass only: inject loss of one random share

    def __post_init__(self) -> None:
        if self.kind not in (PET_NONE, PET_LDP, PET_GDP, PET_ASS, PET_KRR):
            raise ConfigError(f"pet.kind: unknown kind {self.kind!r}")
        needs_eps = self.kind in (PET_LDP, PET_GDP, PET_KRR)
        if needs_eps:
            if self.epsilon is None or not self.epsilon > 0:
                raise ConfigError(f"pet.epsilon: {self.kind} needs a positive epsilon")
        elif self.epsilon is not None:
            raise ConfigError(f"pet.epsilon: not valid for {self.kind}")
        if self.kind == PET_GDP:
            agg = self.aggregator if self.aggregator is not None else "sum"
            if agg not in ("sum", "mean"):
                raise ConfigError(f"pet.aggregator: expected sum or mean, got {agg!r}")
            object.__setattr__(self, "aggregator", agg)
        elif self.aggregator is not None:
            raise ConfigError("pet.aggregator: only valid for gdp")
        if self.kind == PET_ASS:
            if self.m is None or self.m < 2:
                raise ConfigError(
                    "pet.m: additive sharing needs at least 2 channels (m >= 2)"
                )
        else:
            if self.m is not None:
                raise ConfigError("pet.m: only valid for ass")
            if self.drop_one_share:
                raise ConfigError("pet.drop_one_share: only valid for ass")


@dataclass(frozen=True)
class GeneratorConfig:
    """Per-sensor data source; bounds default to the encoding domain."""

    kind: str = "uniform"
    low: Optional[float] = None
    high: Optional[float] = None
    value: Optional[float] = None  # constant only

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "constant"):
            raise ConfigError(f"sensors.generator.kind: unknown kind {self.kind!r}")
        if self.kind == "constant":
            if self.value is None:
                raise ConfigError("sensors.generator.value: constant generator needs a value")
            if self.low is not None or self.high is not None:
                raise ConfigError("sensors.generator: constant takes no low/high")
        elif self.value is not None:
            raise ConfigError("sensors.generator.value: only valid for constant")


@dataclass(frozen=True)
class SensorConfig:
    count: int = 1
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError(f"sensors.count: need at least one sensor, got {self.count}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one benchmark scenario from a seed."""

    name: str
    topology: Topology
    pet: PetConfig
    sensors: SensorConfig
    encoding: EncodingParams
    latency: LatencyModel
    compute_ms: float = 0.0
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("name: must not be empty")
        if any(c in self.name for c in "/\\\0"):
            # the name is part of a report file name under --out
            raise ConfigError(f"name: must not contain '/', '\\' or NUL, got {self.name!r}")
        at_least(self.compute_ms, 0, "compute_ms")
        at_least(self.repetitions, 1, "repetitions")
        at_least(self.seed, 0, "seed")
        kind = self.topology.kind
        pet = self.pet.kind
        if kind == RELAY_CHAIN:
            if pet != PET_NONE:
                raise ConfigError("pet.kind: relay-chain carries unprocessed messages only")
            if self.sensors.count != 1:
                raise ConfigError("sensors.count: relay-chain measures a single source")
        if kind == VIRTUALIZED:
            if pet in (PET_LDP, PET_KRR):
                raise ConfigError(
                    f"pet.kind: {pet} perturbs at the source; it has no virtualized form"
                )
            if pet == PET_ASS and self.sensors.count != 1:
                raise ConfigError("sensors.count: virtualized ass splits one source value")
            if pet == PET_NONE and self.sensors.count != 1:
                raise ConfigError("sensors.count: a virtualized relay forwards one source")
        gen = self.sensors.generator
        lo, hi = self.generator_range
        if not (self.encoding.x_lo <= lo <= hi <= self.encoding.x_hi):
            raise ConfigError(
                "sensors.generator: bounds must nest inside the encoding domain"
            )
        if gen.kind == "constant" and not (
            self.encoding.x_lo <= gen.value <= self.encoding.x_hi
        ):
            raise ConfigError("sensors.generator.value: outside the encoding domain")
        check_sum_fits(self.sensors.count, self.encoding, "sensors.count")
        if pet in (PET_LDP, PET_GDP):
            q = self.encoding.q
            check_noise_fits(self.sensors.count, q, q, self.pet.epsilon, "pet.epsilon")

    @property
    def generator_range(self) -> tuple[float, float]:
        """The uniform generator's (low, high); an unset bound is the
        encoding domain's."""
        gen, enc = self.sensors.generator, self.encoding
        return (
            enc.x_lo if gen.low is None else gen.low,
            enc.x_hi if gen.high is None else gen.high,
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        return replace(self, seed=seed)


# --------------------------------------------------------------------------
# Strict dict/JSON parsing
# --------------------------------------------------------------------------

_REQUIRED = object()


def check_keys(raw, allowed: set[str], where: str) -> None:
    """`raw` must be a JSON object whose keys all lie in `allowed`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object, got {raw!r}")
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def require_key(raw: dict, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"{where}.{key}: required")
    return raw[key]


def _value(raw: dict, key: str, where: str, default):
    return require_key(raw, key, where) if default is _REQUIRED else raw.get(key, default)


def optional_bool(raw: dict, key: str, where: str) -> bool:
    """A flag that is absent (false) or a JSON boolean; nothing is coerced."""
    value = raw.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected true or false, got {value!r}")
    return value


def check_sum_fits(count: int, params: EncodingParams, count_field: str) -> None:
    """A sum of `count` encoded values must stay below ass.MAX_FIELD_BOUND,
    the bound of the 64-bit share and noise arithmetic; k sets q, so the
    error names encoding.k."""
    if count * params.q >= MAX_FIELD_BOUND:
        raise ConfigError(
            f"encoding.k: {count_field} * q = {count} * {params.q} must be below 2**62;"
            " lower k or narrow the domain"
        )


def check_noise_fits(count: int, q: int, sensitivity: int, epsilon: float, field: str) -> None:
    """A sum of `count` encoded values, each carrying Laplace noise at scale
    b = sensitivity / epsilon, must stay below ass.MAX_FIELD_BOUND even when
    every draw is 64 b, which one draw exceeds with probability e**-64
    (about 1.6e-28): count * (q + 64 b) < 2**62. A tiny epsilon makes b
    huge, so the error names the epsilon field."""
    # in exact integers, with epsilon = num / den
    num, den = epsilon.as_integer_ratio()
    if count * (q * num + 64 * sensitivity * den) >= MAX_FIELD_BOUND * num:
        raise ConfigError(
            f"{field}: {count} * ({q} + 64 * {sensitivity} / {epsilon}) must be below 2**62;"
            " raise epsilon"
        )


def at_least(value, low, field: str):
    """`value`, unless it is below `low`."""
    if value < low:
        raise ConfigError(f"{field}: must be >= {low}, got {value}")
    return value


def read_str(raw: dict, key: str, where: str, default=_REQUIRED) -> Optional[str]:
    """A JSON string; a number, a bool and null are refused, not converted.
    Defaults as in `read_int`."""
    value = _value(raw, key, where, default)
    if value is None and default is None:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key}: expected a string, got {value!r}")
    return value


def read_int(raw: dict, key: str, where: str, default=_REQUIRED) -> Optional[int]:
    """A JSON integer; a bool, a float such as 3.0 and a string are refused.

    Without a default the key is required; with default None, null reads as absent.
    """
    value = _value(raw, key, where, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _finite(value) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return number if math.isfinite(number) else None


def read_number(raw: dict, key: str, where: str, default=_REQUIRED) -> Optional[float]:
    """A finite JSON number as a float; a bool, a string, NaN and +-Infinity
    (which ``json.loads`` accepts) are refused. Defaults as in `read_int`."""
    value = _value(raw, key, where, default)
    if value is None and default is None:
        return None
    number = _finite(value)
    if number is None:
        raise ConfigError(f"{where}.{key}: expected a finite number, got {value!r}")
    return number


def read_numbers(raw: dict, key: str, where: str) -> list[float]:
    """A required, non-empty list of finite numbers, each as a float."""
    values = require_key(raw, key, where)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{where}.{key}: expected a non-empty list")
    numbers = []
    for i, value in enumerate(values):
        number = _finite(value)
        if number is None:
            raise ConfigError(f"{where}.{key}[{i}]: expected a finite number, got {value!r}")
        numbers.append(number)
    return numbers


def load_json(path) -> dict:
    """Read a config file that must hold one JSON object."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return raw


def encoding_from_dict(raw: dict, where: str = "encoding") -> EncodingParams:
    check_keys(raw, {"k", "x_lo", "x_hi"}, where)
    try:
        return derive_params(
            x_lo=read_number(raw, "x_lo", where),
            x_hi=read_number(raw, "x_hi", where),
            k=read_int(raw, "k", where),
        )
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def latency_from_config(raw: Union[str, dict], where: str = "latency") -> LatencyModel:
    if isinstance(raw, str):
        if raw not in LATENCY_PRESETS:
            raise ConfigError(
                f"{where}: unknown preset {raw!r}, expected one of {sorted(LATENCY_PRESETS)}"
            )
        return LATENCY_PRESETS[raw]
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a preset name or an object")
    check_keys(raw, {"per_hop_mean_ms", "jitter_std_ms", "distribution"}, where)
    mean_ms = read_number(raw, "per_hop_mean_ms", where)
    jitter_ms = read_number(raw, "jitter_std_ms", where, 0.0)
    try:
        return LatencyModel(
            per_hop_mean_ms=mean_ms,
            per_hop_jitter_std_ms=jitter_ms,
            distribution=read_str(raw, "distribution", where, "constant"),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def scenario_from_dict(raw: dict) -> ScenarioSpec:
    check_keys(
        raw,
        {
            "name",
            "topology",
            "pet",
            "sensors",
            "encoding",
            "latency",
            "compute_ms",
            "repetitions",
            "seed",
        },
        "config",
    )
    topo_raw = require_key(raw, "topology", "config")
    check_keys(topo_raw, {"kind", "depth"}, "topology")
    topology = Topology(
        kind=read_str(topo_raw, "kind", "topology"),
        depth=read_int(topo_raw, "depth", "topology", 0),
    )
    pet_raw = require_key(raw, "pet", "config")
    check_keys(pet_raw, {"kind", "epsilon", "aggregator", "m", "drop_one_share"}, "pet")
    pet = PetConfig(
        kind=read_str(pet_raw, "kind", "pet"),
        epsilon=read_number(pet_raw, "epsilon", "pet", None),
        aggregator=read_str(pet_raw, "aggregator", "pet", None),
        m=read_int(pet_raw, "m", "pet", None),
        drop_one_share=optional_bool(pet_raw, "drop_one_share", "pet"),
    )
    sensors_raw = raw.get("sensors", {})
    check_keys(sensors_raw, {"count", "generator"}, "sensors")
    gen_raw = sensors_raw.get("generator", {})
    check_keys(gen_raw, {"kind", "low", "high", "value"}, "sensors.generator")
    generator = GeneratorConfig(
        kind=read_str(gen_raw, "kind", "sensors.generator", "uniform"),
        low=read_number(gen_raw, "low", "sensors.generator", None),
        high=read_number(gen_raw, "high", "sensors.generator", None),
        value=read_number(gen_raw, "value", "sensors.generator", None),
    )
    sensors = SensorConfig(count=read_int(sensors_raw, "count", "sensors", 1), generator=generator)
    return ScenarioSpec(
        name=read_str(raw, "name", "config"),
        topology=topology,
        pet=pet,
        sensors=sensors,
        encoding=encoding_from_dict(require_key(raw, "encoding", "config")),
        latency=latency_from_config(require_key(raw, "latency", "config")),
        compute_ms=read_number(raw, "compute_ms", "config", 0.0),
        repetitions=read_int(raw, "repetitions", "config", 1),
        seed=read_int(raw, "seed", "config", 0),
    )


def load_scenario(path) -> ScenarioSpec:
    """Read and validate a scenario config file."""
    return scenario_from_dict(load_json(path))


# --------------------------------------------------------------------------
# Experiment configs: one loader per CLI subcommand beyond run-scenario
# --------------------------------------------------------------------------

def _seed(raw: dict) -> Optional[int]:
    seed = read_int(raw, "seed", "config", None)
    return None if seed is None else at_least(seed, 0, "seed")


def _positive(value: float, field: str) -> float:
    if not value > 0:
        raise ConfigError(f"{field}: must be > 0, got {value}")
    return value


def _epsilons(raw: dict) -> list[float]:
    eps_grid = read_numbers(raw, "eps_grid", "config")
    return [_positive(eps, f"eps_grid[{i}]") for i, eps in enumerate(eps_grid)]


def _sensitivity(raw: dict, default=_REQUIRED) -> Optional[int]:
    """The query sensitivity in encoded units, 1 <= sensitivity < 2**62."""
    sensitivity = read_int(raw, "sensitivity", "config", default)
    if sensitivity is not None:
        at_least(sensitivity, 1, "sensitivity")
        if sensitivity >= MAX_FIELD_BOUND:
            raise ConfigError("sensitivity: must be below 2**62")
    return sensitivity


def sweep_from_dict(raw: dict) -> dict:
    """The `sweep-epsilon` config: the weight-sum query over an epsilon grid."""
    check_keys(raw, {"n", "encoding", "model", "eps_grid", "reps", "sensitivity", "seed"}, "config")
    sensitivity = _sensitivity(raw, None)  # None: the encoded width q
    model = read_str(raw, "model", "config", LDP_MODEL)
    if model not in (LDP_MODEL, GDP_MODEL):
        raise ConfigError(f"model: expected ldp or gdp, got {model!r}")
    n = at_least(read_int(raw, "n", "config"), 1, "n")
    params = encoding_from_dict(require_key(raw, "encoding", "config"))
    check_sum_fits(n, params, "n")
    eps_grid = _epsilons(raw)
    for i, eps in enumerate(eps_grid):
        check_noise_fits(n, params.q, sensitivity or params.q, eps, f"eps_grid[{i}]")
    return {
        "n": n,
        "encoding": params,
        "model": model,
        "eps_grid": eps_grid,
        "reps": at_least(read_int(raw, "reps", "config", MIN_REPS), MIN_REPS, "reps"),
        "sensitivity": sensitivity,
        "seed": _seed(raw),
    }


def adversary_from_dict(raw: dict) -> dict:
    """The `adversary-sim` config: the distinguisher over (epsilon, gap) pairs."""
    check_keys(raw, {"eps_grid", "gap_ratios", "sensitivity", "trials", "model", "seed"}, "config")
    sensitivity = _sensitivity(raw)
    gap_ratios = read_numbers(raw, "gap_ratios", "config")
    for i, ratio in enumerate(gap_ratios):
        gap = ratio * sensitivity
        if not (math.isfinite(gap) and 1 <= round(gap) < MAX_FIELD_BOUND):
            raise ConfigError(
                f"gap_ratios[{i}]: ratio {ratio} with sensitivity {sensitivity} gives gap"
                f" {gap}; need 1 <= round(ratio * sensitivity) < 2**62"
            )
    model = read_str(raw, "model", "config", GDP_MODEL)
    if model not in (GDP_MODEL, LDP_MODEL):
        raise ConfigError(f"model: expected gdp or ldp, got {model!r}")
    eps_grid = _epsilons(raw)
    for i, eps in enumerate(eps_grid):
        if not math.isfinite(sensitivity / eps):
            raise ConfigError(f"eps_grid[{i}]: Laplace scale {sensitivity} / {eps} is not finite")
    return {
        "eps_grid": eps_grid,
        "gap_ratios": gap_ratios,
        "sensitivity": sensitivity,
        "trials": at_least(read_int(raw, "trials", "config", 100_000), 1, "trials"),
        "model": model,
        "seed": _seed(raw),
    }


def ass_demo_from_dict(raw: dict) -> dict:
    """The `ass-demo` config: split/reconstruct round trips."""
    check_keys(raw, {"n", "m", "encoding", "repetitions", "drop_one_share", "seed"}, "config")
    n = at_least(read_int(raw, "n", "config"), 1, "n")
    m = at_least(read_int(raw, "m", "config"), 2, "m")
    params = encoding_from_dict(require_key(raw, "encoding", "config"))
    check_sum_fits(n, params, "n")
    return {
        "n": n,
        "m": m,
        "encoding": params,
        "repetitions": at_least(read_int(raw, "repetitions", "config", 100), 1, "repetitions"),
        "drop_one_share": optional_bool(raw, "drop_one_share", "config"),
        "seed": _seed(raw),
    }


def bench_from_dict(raw: dict) -> dict:
    """The `bench-suite` config: the six-placement comparison."""
    check_keys(raw, {"latency", "repetitions", "m", "epsilon", "compute_ms", "seed"}, "config")
    compute = raw.get("compute_ms")
    if compute is not None:
        check_keys(compute, set(REFERENCE_COMPUTE_MS), "compute_ms")
        compute = {
            k: at_least(read_number(compute, k, "compute_ms"), 0, f"compute_ms.{k}")
            for k in compute
        }
    epsilon = _positive(read_number(raw, "epsilon", "config", 1.0), "epsilon")
    count = max(n for _, _, pet, n, *_ in PLACEMENTS if pet in (PET_LDP, PET_GDP))
    check_noise_fits(count, SUITE_ENCODING.q, SUITE_ENCODING.q, epsilon, "epsilon")
    return {
        "latency": latency_from_config(raw.get("latency", "testbed")),
        "repetitions": at_least(read_int(raw, "repetitions", "config", 100), 1, "repetitions"),
        "m": at_least(read_int(raw, "m", "config", 3), 2, "m"),
        "epsilon": epsilon,
        "compute_ms": compute,
        "seed": _seed(raw),
    }


def benchmark_suite(
    latency: Optional[LatencyModel] = None,
    repetitions: int = 100,
    seed: int = 0,
    m: int = 3,
    epsilon: float = 1.0,
    compute_ms: Optional[dict[str, float]] = None,
) -> list[ScenarioSpec]:
    """Build the six comparison scenarios, cheapest placement first.

    compute_ms overrides the reference compute time of the keys it names.
    """
    latency = latency if latency is not None else LATENCY_PRESETS["testbed"]
    compute = compute_ms or {}
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
            encoding=SUITE_ENCODING,
            latency=latency,
            compute_ms=compute.get(key, reference_ms),
            repetitions=repetitions,
            seed=seed,
        )
        for name, topology, pet, sensors, key, reference_ms in PLACEMENTS
    ]
