"""Config schemas: the typed scenario spec, the strict loader of every
config file the CLI reads, and the six-placement benchmark suite.

A scenario config loads into one flat ScenarioSpec, whose topology, depth,
pet, epsilon, m and drop_one_share are the config's topology.* and pet.*,
and a bench config into the six ScenarioSpecs it runs; the sweep and
adversary configs load into the keyword arguments of their runners, and the
ass-demo config into a plain dict. Loading is strict: unknown keys anywhere
in the document are rejected, fields are read by typed readers that coerce
nothing (`read_int`, `read_number`, `read_str`) and refuse null, which never
stands in for an absent key; every range a run relies on is checked here, so
a config that validates also runs, and every validation message names the
offending field, so a typo cannot silently change what a benchmark measures.
Encoding parameters are stored as {k, x_lo, x_hi} only; the derived
quantities are always recomputed.

The suite's placement table (`PLACEMENTS`) lives here too, next to the
bench loader that builds the six comparison scenarios from it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..ass import MAX_FIELD_BOUND
from ..codec import DomainError, EncodingParams, encode
from ..dp import GDP_MODEL, LDP_MODEL
from ..fabric.broker import LATENCY_PRESETS, LatencyModel

ON_DEVICE = "on-device"
VIRTUALIZED = "virtualized"
RELAY_CHAIN = "relay-chain"

PET_NONE = "none"
PET_LDP = "ldp"
PET_GDP = "gdp"
PET_ASS = "ass"
PET_KRR = "krr"

#: The one encoding every suite placement uses: weights on [50, 120] kg, k = 1.
SUITE_ENCODING = EncodingParams(k=1, x_lo=50.0, x_hi=120.0)

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

#: Most shares a secret may be split into (`pet.m`, and `m` of `ass-demo`
#: and `bench-suite`); each split holds m shares per sensor.
MAX_SHARES = 1024

#: Most values one repetition may hold: the readings of `sensors.count`
#: sensors (`n` for `sweep-epsilon` and `ass-demo`), times the m shares each
#: splits into under ass, the relays of a relay chain (`topology.depth`), the
#: `reps` errors of one `sweep-epsilon` point and the `trials` of one
#: `adversary-sim` grid point.
MAX_ELEMENTS = 2**20

#: Bound on a run's virtual clock, in us: half the 64-bit range of the
#: envelope's CBOR timestamp, so the float rounding of the clock's advances
#: cannot carry a run that fits it up to 2**64.
MAX_CLOCK_US = 2**63

#: Standard deviations of Gaussian jitter the clock bound allows each hop;
#: one draw exceeds mean + 12 sd with probability about 1.8e-33.
CLOCK_JITTER_SDS = 12

#: `run-scenario` writes RECORDS_FILE.format(name) under --out, and common
#: file systems take file names of at most NAME_MAX bytes
RECORDS_FILE = "{}_records.csv"
NAME_MAX = 255


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one benchmark scenario from a seed."""

    name: str
    topology: str  # the config's topology.kind
    pet: str  # the config's pet.kind
    sensors: int  # how many sensors report: the config's sensors.count
    encoding: EncodingParams
    latency: LatencyModel
    depth: int = 0  # relay-chain only
    epsilon: Optional[float] = None
    m: Optional[int] = None  # ass only
    drop_one_share: bool = False  # ass only: inject loss of one random share
    compute_ms: float = 0.0
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        kind, pet = self.topology, self.pet
        if kind not in (ON_DEVICE, VIRTUALIZED, RELAY_CHAIN):
            raise ConfigError(f"topology.kind: unknown kind {kind!r}")
        if kind == RELAY_CHAIN:
            if self.depth < 1:
                raise ConfigError("topology.depth: relay chain needs depth >= 1")
            check_elements(self.depth, 1, "topology.depth")
        elif self.depth != 0:
            raise ConfigError(f"topology.depth: only valid for relay-chain, got {self.depth}")
        if pet not in (PET_NONE, PET_LDP, PET_GDP, PET_ASS, PET_KRR):
            raise ConfigError(f"pet.kind: unknown kind {pet!r}")
        if pet in (PET_LDP, PET_GDP, PET_KRR):
            if self.epsilon is None or not self.epsilon > 0:
                raise ConfigError(f"pet.epsilon: {pet} needs a positive epsilon")
        elif self.epsilon is not None:
            raise ConfigError(f"pet.epsilon: not valid for {pet}")
        if pet == PET_ASS:
            if self.m is None or self.m < 2:
                raise ConfigError(
                    "pet.m: additive sharing needs at least 2 channels (m >= 2)"
                )
            check_shares(self.m, "pet.m")
        else:
            if self.m is not None:
                raise ConfigError("pet.m: only valid for ass")
            if self.drop_one_share:
                raise ConfigError("pet.drop_one_share: only valid for ass")
        if self.sensors < 1:
            raise ConfigError(f"sensors.count: need at least one sensor, got {self.sensors}")
        if not self.name:
            raise ConfigError("name: must not be empty")
        if any(c in self.name for c in "/\\\0"):
            # the name is part of a report file name under --out
            raise ConfigError(f"name: must not contain '/', '\\' or NUL, got {self.name!r}")
        try:
            size = len(RECORDS_FILE.format(self.name).encode("utf-8"))
        except UnicodeEncodeError:  # a lone surrogate, which JSON can escape
            raise ConfigError(f"name: must be valid Unicode, got {self.name!r}") from None
        if size > NAME_MAX:
            raise ConfigError(
                f"name: the report file name would be {size} bytes in UTF-8; at most {NAME_MAX}"
            )
        at_least(self.compute_ms, 0, "compute_ms")
        at_least(self.repetitions, 1, "repetitions")
        at_least(self.seed, 0, "seed")
        if kind == RELAY_CHAIN:
            if pet != PET_NONE:
                raise ConfigError("pet.kind: relay-chain carries unprocessed messages only")
            if self.sensors != 1:
                raise ConfigError("sensors.count: relay-chain measures a single source")
        if kind == VIRTUALIZED:
            if pet in (PET_LDP, PET_KRR):
                raise ConfigError(
                    f"pet.kind: {pet} perturbs at the source; it has no virtualized form"
                )
            if pet == PET_ASS and self.sensors != 1:
                raise ConfigError("sensors.count: virtualized ass splits one source value")
            if pet == PET_NONE:
                raise ConfigError(
                    "pet.kind: none has no virtualized form;"
                    " forwarding through one node is relay-chain with depth 1"
                )
        check_elements(self.sensors, self.m or 1, "sensors.count")
        check_sum_fits(self.sensors, self.encoding, "sensors.count")
        if pet in (PET_LDP, PET_GDP):
            q = self.encoding.q
            check_noise_fits(self.sensors, q, None, self.epsilon, "pet.epsilon")
        hops = hop_bound(self.m, self.depth)
        check_clock_fits(self.repetitions, self.compute_ms, hops, self.latency, "compute_ms")


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


def check_noise_fits(
    count: int, q: int, sensitivity: Optional[int], epsilon: float, field: str
) -> None:
    """A sum of `count` encoded values, each carrying Laplace noise at scale
    b = sensitivity / epsilon (sensitivity None: q), must stay below
    ass.MAX_FIELD_BOUND even when every draw is 64 b, which one draw exceeds
    with probability e**-64 (about 1.6e-28): count * (q + 64 b) < 2**62. The
    error names the larger of the two factors of q + 64 b = q * (1 + 64 b / q):
    the encoding when q is (a domain or k too wide), else the larger factor
    of b: an explicit sensitivity, or the epsilon field (a tiny epsilon)."""
    explicit = sensitivity is not None
    sensitivity = sensitivity if explicit else q
    # in exact integers, with epsilon = num / den
    num, den = epsilon.as_integer_ratio()
    per_value = q * num + 64 * sensitivity * den  # (q + 64 b) * num
    if count * per_value >= MAX_FIELD_BOUND * num:
        fix = "raise epsilon"
        if q * q * num >= per_value:
            field, fix = "encoding", "lower k or narrow the domain"
        elif explicit and sensitivity * num > q * den:
            field, fix = "sensitivity", "lower sensitivity"
        raise ConfigError(
            f"{field}: {count} * ({q} + 64 * {sensitivity} / {epsilon}) must be below 2**62;"
            f" {fix}"
        )


def hop_bound(m: Optional[int], depth: int) -> int:
    """At least the hops on a repetition's critical path, which the runner
    counts as it goes: two per message, m messages for ass, and one more
    crossing through a virtual node or depth more through a relay chain."""
    return 2 + 2 * max(m or 1, depth)


def check_clock_fits(
    repetitions: int, compute_ms: float, hops: int, latency: LatencyModel, compute_field: str
) -> None:
    """A run's virtual clock must stay below MAX_CLOCK_US. Repetition r
    starts at r * 10**6 us and advances by its compute time and its hops,
    each counted at mean + CLOCK_JITTER_SDS * sd:
    (repetitions - 1) * 10**6 + 1000 * (compute_ms + hops * (mean + 12 sd))
    < 2**63, in exact integers. The error names the field of the largest
    term."""
    mean, sd = latency.per_hop_mean_ms, latency.per_hop_jitter_std_ms
    ratios = [x.as_integer_ratio() for x in (compute_ms, mean, sd)]
    # every denominator is a power of two, so the largest is a common one
    den = max(d for _, d in ratios)
    scaled_compute, scaled_mean, scaled_sd = (num * (den // d) for num, d in ratios)
    terms = {  # in us, times den
        "repetitions": (repetitions - 1) * 10**6 * den,
        compute_field: 1000 * scaled_compute,
        "latency.per_hop_mean_ms": 1000 * hops * scaled_mean,
        "latency.jitter_std_ms": 1000 * hops * CLOCK_JITTER_SDS * scaled_sd,
    }
    if sum(terms.values()) >= MAX_CLOCK_US * den:
        field = max(terms, key=terms.get)
        raise ConfigError(
            f"{field}: the virtual clock reaches ({repetitions} - 1) * 10**6 + 1000 * "
            f"({compute_ms} + {hops} * ({mean} + {CLOCK_JITTER_SDS} * {sd})) us,"
            f" which must be below 2**63; lower {field}"
        )


def check_shares(m: int, field: str) -> int:
    """`m`, unless it is above MAX_SHARES."""
    if m > MAX_SHARES:
        raise ConfigError(f"{field}: at most {MAX_SHARES} shares per secret, got {m}")
    return m


def check_elements(count: int, m: int, field: str) -> None:
    """`count` readings, split m ways (m = 1: not split), must be at most
    MAX_ELEMENTS values."""
    if count * m > MAX_ELEMENTS:
        got = f"{count}" if m == 1 else f"{count} * {m} = {count * m} shares"
        raise ConfigError(f"{field}: at most {MAX_ELEMENTS} values per repetition, got {got}")


def at_least(value, low, field: str):
    """`value`, unless it is below `low`."""
    if value < low:
        raise ConfigError(f"{field}: must be >= {low}, got {value}")
    return value


def read_str(raw: dict, key: str, where: str, default=_REQUIRED) -> Optional[str]:
    """A JSON string; a number, a bool and null are refused, not converted.
    Defaults as in `read_int`."""
    if key not in raw and default is not _REQUIRED:
        return default
    value = require_key(raw, key, where)
    if not isinstance(value, str):
        raise ConfigError(f"{where}.{key}: expected a string, got {value!r}")
    return value


def read_int(raw: dict, key: str, where: str, default=_REQUIRED) -> Optional[int]:
    """A JSON integer; a bool, a float such as 3.0 and a string are refused.

    Without a default the key is required; with one, an absent key gives the
    default and a present one must have the type, so null is refused too.
    """
    if key not in raw and default is not _REQUIRED:
        return default
    value = require_key(raw, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def read_seed(raw: dict) -> int:
    """The config's seed: an integer >= 0, 0 when absent."""
    return at_least(read_int(raw, "seed", "config", 0), 0, "seed")


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
    if key not in raw and default is not _REQUIRED:
        return default
    value = require_key(raw, key, where)
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


_DUPLICATE = object()  # a key no JSON object has: marks one that names a key twice


def _mark_duplicates(pairs: list) -> dict:
    """json object_pairs_hook. It cannot see the object's parent, so it marks
    the repeated key for _refuse_duplicates to name by its dotted path."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj[_DUPLICATE] = next(key for i, key in enumerate(keys) if key in keys[:i])
    return obj


def _refuse_duplicates(value, where: str = "") -> None:
    """Raise for the first marked object, outermost first."""
    prefix = f"{where}." if where else ""
    if isinstance(value, dict):
        if _DUPLICATE in value:
            raise ConfigError(f"{prefix}{value[_DUPLICATE]}: duplicate key")
        for key, item in value.items():
            _refuse_duplicates(item, prefix + key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _refuse_duplicates(item, f"{where}[{i}]")


def read_config(path) -> tuple[bytes, dict]:
    """Read a UTF-8 config file that must hold one JSON object: its bytes,
    which the manifest hashes, and the object parsed from them."""
    try:
        data = Path(path).read_bytes()
        # newlines as read_text gives them, so JSON error positions stay
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from None
    try:
        raw = json.loads(text, object_pairs_hook=_mark_duplicates)
        _refuse_duplicates(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except RecursionError:  # from json.loads or the walk above
        raise ConfigError(f"{path}: nested too deeply") from None
    except ValueError:  # json's only other one: an int literal over the digit limit
        raise ConfigError(
            f"{path}: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data, raw


def encoding_from_dict(raw: dict) -> EncodingParams:
    check_keys(raw, {"k", "x_lo", "x_hi"}, "encoding")
    try:
        params = EncodingParams(
            k=read_int(raw, "k", "encoding"),
            x_lo=read_number(raw, "x_lo", "encoding"),
            x_hi=read_number(raw, "x_hi", "encoding"),
        )
    except DomainError as exc:
        raise ConfigError(f"encoding: {exc}") from None
    if params.q < 1:  # the noise sensitivity and the share field need a width
        raise ConfigError("encoding: encoded width q = 0 must be >= 1; raise k or widen it")
    return params


def latency_from_config(raw: Union[str, dict]) -> LatencyModel:
    if isinstance(raw, str):
        if raw not in LATENCY_PRESETS:
            raise ConfigError(
                f"latency: unknown preset {raw!r}, expected one of {sorted(LATENCY_PRESETS)}"
            )
        return LATENCY_PRESETS[raw]
    if not isinstance(raw, dict):
        raise ConfigError("latency: expected a preset name or an object")
    check_keys(raw, {"per_hop_mean_ms", "jitter_std_ms"}, "latency")
    mean_ms = read_number(raw, "per_hop_mean_ms", "latency")
    jitter_ms = read_number(raw, "jitter_std_ms", "latency", 0.0)
    try:
        return LatencyModel(mean_ms, jitter_ms)
    except ValueError as exc:
        raise ConfigError(f"latency: {exc}") from None


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
    pet_raw = require_key(raw, "pet", "config")
    check_keys(pet_raw, {"kind", "epsilon", "aggregator", "m", "drop_one_share"}, "pet")
    pet = read_str(pet_raw, "kind", "pet")
    if "aggregator" in pet_raw:  # gdp releases a sum; a config may say so
        aggregator = read_str(pet_raw, "aggregator", "pet")
        if pet != PET_GDP:
            raise ConfigError("pet.aggregator: only valid for gdp")
        if aggregator != "sum":
            raise ConfigError(f"pet.aggregator: expected sum, got {aggregator!r}")
    sensors_raw = raw.get("sensors", {})
    check_keys(sensors_raw, {"count", "generator"}, "sensors")
    if "generator" in sensors_raw:  # readings are uniform; a config may say so
        check_keys(sensors_raw["generator"], {"kind"}, "sensors.generator")
        kind = read_str(sensors_raw["generator"], "kind", "sensors.generator")
        if kind != "uniform":
            raise ConfigError(f"sensors.generator.kind: unknown kind {kind!r}")
    return ScenarioSpec(
        name=read_str(raw, "name", "config"),
        topology=read_str(topo_raw, "kind", "topology"),
        pet=pet,
        sensors=read_int(sensors_raw, "count", "sensors", 1),
        encoding=encoding_from_dict(require_key(raw, "encoding", "config")),
        latency=latency_from_config(require_key(raw, "latency", "config")),
        depth=read_int(topo_raw, "depth", "topology", 0),
        epsilon=read_number(pet_raw, "epsilon", "pet", None),
        m=read_int(pet_raw, "m", "pet", None),
        drop_one_share=optional_bool(pet_raw, "drop_one_share", "pet"),
        compute_ms=read_number(raw, "compute_ms", "config", 0.0),
        repetitions=read_int(raw, "repetitions", "config", 1),
        seed=read_seed(raw),
    )


def load_scenario(path) -> ScenarioSpec:
    """Read and validate a scenario config file."""
    return scenario_from_dict(read_config(path)[1])


# --------------------------------------------------------------------------
# Experiment configs: one loader per CLI subcommand beyond run-scenario
# --------------------------------------------------------------------------

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
    """The `sweep-epsilon` config: the weight-sum query over an epsilon grid,
    as the keyword arguments of `experiments.weight_sum_experiment`."""
    check_keys(raw, {"n", "encoding", "model", "eps_grid", "reps", "sensitivity", "seed"}, "config")
    sensitivity = _sensitivity(raw, None)  # None: the encoded width q
    model = read_str(raw, "model", "config", LDP_MODEL)
    if model not in (LDP_MODEL, GDP_MODEL):
        raise ConfigError(f"model: expected ldp or gdp, got {model!r}")
    n = at_least(read_int(raw, "n", "config"), 1, "n")
    check_elements(n, 1, "n")
    params = encoding_from_dict(require_key(raw, "encoding", "config"))
    check_sum_fits(n, params, "n")
    # one record moves the encoded sum by up to this much; less noise is a false epsilon
    width = encode(params.x_hi, params) - encode(params.x_lo, params)
    if sensitivity is not None and sensitivity < width:
        raise ConfigError(
            f"sensitivity: {sensitivity} is below the encoding's occupied width"
            f" encode(x_hi) - encode(x_lo) = {width}"
        )
    eps_grid = _epsilons(raw)
    for i, eps in enumerate(eps_grid):
        check_noise_fits(n, params.q, sensitivity, eps, f"eps_grid[{i}]")
    reps = at_least(read_int(raw, "reps", "config", MIN_REPS), MIN_REPS, "reps")
    check_elements(reps, 1, "reps")
    return {
        "n": n,
        "encoding": params,
        "model": model,
        "eps_grid": eps_grid,
        "reps": reps,
        "sensitivity": sensitivity,
        "seed": read_seed(raw),
    }


def adversary_from_dict(raw: dict) -> dict:
    """The `adversary-sim` config: the distinguisher over (epsilon, gap) pairs,
    as the keyword arguments of `adversary.guess_rate_grid`."""
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
    trials = at_least(read_int(raw, "trials", "config", 100_000), 1, "trials")
    check_elements(trials, 1, "trials")
    return {
        "epsilons": eps_grid,
        "gap_ratios": gap_ratios,
        "sensitivity": sensitivity,
        "trials": trials,
        "model": model,
        "seed": read_seed(raw),
    }


def ass_demo_from_dict(raw: dict) -> dict:
    """The `ass-demo` config: split/reconstruct round trips."""
    check_keys(raw, {"n", "m", "encoding", "repetitions", "drop_one_share", "seed"}, "config")
    n = at_least(read_int(raw, "n", "config"), 1, "n")
    m = check_shares(at_least(read_int(raw, "m", "config"), 2, "m"), "m")
    check_elements(n, m, "n")
    params = encoding_from_dict(require_key(raw, "encoding", "config"))
    check_sum_fits(n, params, "n")
    return {
        "n": n,
        "m": m,
        "encoding": params,
        "repetitions": at_least(read_int(raw, "repetitions", "config", 100), 1, "repetitions"),
        "drop_one_share": optional_bool(raw, "drop_one_share", "config"),
        "seed": read_seed(raw),
    }


def bench_from_dict(raw: dict) -> list[ScenarioSpec]:
    """The `bench-suite` config: the six comparison scenarios, cheapest
    placement first, each with the config's seed (0 when it has none)."""
    check_keys(raw, {"latency", "repetitions", "m", "epsilon", "compute_ms", "seed"}, "config")
    # checked here, before the specs are built, so that each error names the
    # bench config's own field; the specs' checks would name pet.epsilon and
    # compute_ms
    compute = raw.get("compute_ms", {})
    check_keys(compute, set(REFERENCE_COMPUTE_MS), "compute_ms")
    compute = {
        k: at_least(read_number(compute, k, "compute_ms"), 0, f"compute_ms.{k}") for k in compute
    }
    epsilon = _positive(read_number(raw, "epsilon", "config", 1.0), "epsilon")
    count = max(n for _, _, pet, n, *_ in PLACEMENTS if pet in (PET_LDP, PET_GDP))
    check_noise_fits(count, SUITE_ENCODING.q, None, epsilon, "epsilon")
    latency = latency_from_config(raw.get("latency", "testbed"))
    repetitions = at_least(read_int(raw, "repetitions", "config", 100), 1, "repetitions")
    m = check_shares(at_least(read_int(raw, "m", "config", 3), 2, "m"), "m")
    for _, _, pet, _, key, reference_ms in PLACEMENTS:
        hops = hop_bound(m if pet == PET_ASS else None, 0)
        compute_ms = compute.get(key, reference_ms)
        check_clock_fits(repetitions, compute_ms, hops, latency, f"compute_ms.{key}")
    seed = read_seed(raw)
    return [
        ScenarioSpec(
            name=name,
            topology=topology,
            pet=pet,
            sensors=sensors,
            encoding=SUITE_ENCODING,
            latency=latency,
            epsilon=epsilon if pet in (PET_LDP, PET_GDP) else None,
            m=m if pet == PET_ASS else None,
            compute_ms=compute.get(key, reference_ms),
            repetitions=repetitions,
            seed=seed,
        )
        for name, topology, pet, sensors, key, reference_ms in PLACEMENTS
    ]
