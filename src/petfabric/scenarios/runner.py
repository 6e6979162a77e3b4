"""Executes scenario message flows on the simulated fabric.

Each repetition is fully independent: it gets its own broker, clients and
seeded generator (seed = master_seed + repetition index), so repetitions can
be sharded across workers and merged by index without changing a single
sampled value. Within a repetition the draw order is fixed: background
filler first (when configured), then sensor data, then loss injection, then
per-sensor privacy randomness and transport legs in (sensor, channel) order.

Each flow is written once, as the messages it sends. A repetition's _Path
links senders to a receiver -- each sender may publish only its own topic,
the receiver may subscribe only its filter -- and carries every crossing of
the broker, handing the receiver what it got. Latency bookkeeping is
additive by construction: a RunRecord's end-to-end time is its compute time
plus the sampled delays of the hops on the critical path, and its hop count
is counted from the same crossings:

    Every message on the critical path is two hops (publish + delivery).
    Of the senders in one crossing, the slowest lies on the critical path.

So on-device flows take 2 hops, m sequential shares 2m, a virtual node running
gdp 4 (2 + 2m running ass, the only other PET it runs), and a relay chain
2 + 2*depth; a node that only forwards is a relay chain of depth 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Optional

from .. import ass, dp
from ..codec import decode, decode_sum, encode
from ..fabric.broker import (
    AclTable,
    Broker,
    Delivery,
    RunRecord,
    VirtualClock,
    PUBLISH,
    SUBSCRIBE,
)
from ..fabric.envelope import Envelope, Scheme
from .config import (
    PET_ASS,
    PET_GDP,
    PET_KRR,
    PET_LDP,
    PET_NONE,
    RELAY_CHAIN,
    VIRTUALIZED,
    ScenarioSpec,
)

if TYPE_CHECKING:
    import numpy as np

DATA_TOPIC = "cabin/sim/{sensor}/value"
DATA_FILTER = "cabin/sim/+/value"
SHARE_TOPIC = "cabin/ass/{channel}/value"
SHARE_FILTER = "cabin/ass/+/value"
OUT_TOPIC = "cabin/out/value"
RELAY_TOPIC = "relay/leg{i}"

SENSOR_SCHEMES = {PET_NONE: Scheme.RAW, PET_LDP: Scheme.LDP, PET_KRR: Scheme.KRR}

#: (sender, the Envelopes it sends, in order)
Batch = tuple[str, Iterable[Envelope]]


@dataclass(frozen=True)
class RepOutcome:
    """One repetition's latency record plus what the consumer computed."""

    record: RunRecord
    result: Optional[float]  # consumer-side decoded aggregate
    truth: Optional[float]  # exact real-valued reference for the same quantity
    encoded_result: Optional[int] = None  # ass: reconstructed encoded sum
    encoded_truth: Optional[int] = None  # ass: exact encoded sum
    error: Optional[ass.MissingShareError] = None
    injected_drop: Optional[tuple[str, int]] = None


class _Path:
    """One repetition's broker and the critical path its messages take."""

    def __init__(self, spec: ScenarioSpec, rep: int, rng: np.random.Generator):
        # 1 s of virtual time per repetition keeps audit timestamps distinct
        self.clock = VirtualClock(start_us=rep * 1_000_000)
        self.broker = Broker(acl=AclTable(), latency=spec.latency, rng=rng, clock=self.clock)
        self.rep = rep
        self.delays: list[float] = []

    def link(self, senders, topics, receiver: str, pattern: str) -> None:
        """Grant each sender its one publish topic and the receiver its filter,
        then subscribe the receiver."""
        broker = self.broker
        for sender, topic in zip(senders, topics):
            broker.register_client(sender)
            broker.acl.allow(sender, topic, PUBLISH)
        broker.register_client(receiver)
        broker.acl.allow(receiver, pattern, SUBSCRIBE)
        broker.subscribe(receiver, pattern)

    def envelope(self, topic, sensor_id, scheme, value, share_index=None, epsilon=None):
        """A message stamped with the repetition as sequence and the current time."""
        return Envelope(
            topic, sensor_id, self.rep, scheme, value, share_index, epsilon, self.clock.now_us
        )

    def cross(
        self, receiver: str, batches: Iterable[Batch], then_ms: float = 0.0
    ) -> list[Delivery]:
        """Publish each sender's messages in order and return what the
        receiver got, in publish order.

        batches is consumed lazily, so whatever randomness builds a sender's
        messages is drawn just before they are published. Each message must
        reach the receiver, and only it. The slowest sender's legs join the
        critical path (the first of equals), and the clock advances by their
        delay plus then_ms, the time the receiver spends before it sends on.
        """
        received: list[Delivery] = []
        slowest, slowest_ms = [], -1.0
        publish = self.broker.publish
        for sender, messages in batches:
            legs, total = [], 0
            for env in messages:
                deliveries = publish(sender, env).deliveries
                if len(deliveries) != 1 or deliveries[0].subscriber != receiver:
                    raise RuntimeError(
                        f"wiring error: no delivery to {receiver!r} on {env.topic!r}"
                    )
                d = deliveries[0]
                received.append(d)
                legs += (d.publish_delay_ms, d.delivery_delay_ms)
                total += d.publish_delay_ms + d.delivery_delay_ms
            if total > slowest_ms:
                slowest, slowest_ms = legs, total
        self.delays.extend(slowest)
        self.clock.advance_ms(sum(slowest) + then_ms)
        return received

    def record(self, spec: ScenarioSpec) -> RunRecord:
        return RunRecord(
            scenario=spec.name,
            message_id=self.rep,
            compute_ms=spec.compute_ms,
            hop_delays_ms=tuple(self.delays),
        )


def _run_once(
    spec: ScenarioSpec,
    rep: int,
    rng: np.random.Generator,
    filler_rate: float,
    filler_window_s: float,
) -> RepOutcome:
    path = _Path(spec, rep, rng)
    if filler_rate > 0:
        path.broker.inject_load(filler_rate, filler_window_s)
    params = spec.encoding
    values = rng.uniform(params.x_lo, params.x_hi, spec.sensors).tolist()
    encoded = [encode(v, params) for v in values]
    if spec.topology == RELAY_CHAIN:
        flow = _relay_flow
    elif spec.pet == PET_ASS:
        flow = _share_flow
    else:
        flow = _value_flow
    return flow(spec, path, rng, values, encoded)


def _value_flow(spec, path, rng, values, encoded) -> RepOutcome:
    """raw, ldp, krr or gdp values on-device, or gdp at a vnode (ass is the
    vnode's only other PET, in _share_flow).

    Sensor-side schemes privatize before the sensors publish; gdp privatizes
    once, where the values meet: at a virtual node behind the broker, or at a
    zonal aggregator that collects nearby sensors locally (no hops).
    """
    params, pet, n = spec.encoding, spec.pet, len(values)
    sensors = [f"s{i}" for i in range(n)]
    topics = [DATA_TOPIC.format(sensor=sid) for sid in sensors]

    def readings(scheme, wire, epsilon=None) -> Iterable[Batch]:
        return (
            (sid, [path.envelope(t, sid, scheme, int(x), epsilon=epsilon)])
            for sid, t, x in zip(sensors, topics, wire)
        )

    if pet == PET_GDP:
        virtualized = spec.topology == VIRTUALIZED
        hub = "vnode" if virtualized else "aggregator"
        if virtualized:
            path.link(sensors, topics, hub, DATA_FILTER)
        path.link([hub], [OUT_TOPIC], "consumer", OUT_TOPIC)
        budget = dp.PrivacyBudget(spec.epsilon, params.q)
        collected = encoded
        if virtualized:
            collected = [d.envelope.value for d in path.cross(hub, readings(Scheme.RAW, encoded))]
        noisy = round(dp.gdp_aggregate(collected, budget, rng))
        path.clock.advance_ms(spec.compute_ms)
        out = path.envelope(OUT_TOPIC, hub, Scheme.GDP, noisy, epsilon=spec.epsilon)
        received = path.cross("consumer", [(hub, [out])])
    else:
        path.link(sensors, topics, "consumer", DATA_FILTER)
        if pet == PET_LDP:
            budget = dp.PrivacyBudget(spec.epsilon, params.q)
            wire = [dp.ldp_perturb(x, budget, rng) for x in encoded]
        elif pet == PET_KRR:
            wire = [dp.krr_perturb(x, spec.epsilon, params, rng) for x in encoded]
        else:
            wire = encoded
        path.clock.advance_ms(spec.compute_ms)
        received = path.cross("consumer", readings(SENSOR_SCHEMES[pet], wire, spec.epsilon))

    total = sum(d.envelope.value for d in received)
    record = path.record(spec)
    return RepOutcome(record, decode_sum(total, n, params), float(sum(values)))


def _share_flow(spec, path, rng, values, encoded) -> RepOutcome:
    """ass: each sensor, or a vnode on behalf of one source, sends m shares."""
    params, n, m = spec.encoding, len(values), spec.m
    fp = ass.choose_modulus(n, params.q)
    sensors = [f"s{i}" for i in range(n)]
    virtualized = spec.topology == VIRTUALIZED
    splitters = ["vnode"] if virtualized else sensors
    path.link(splitters, [SHARE_FILTER] * len(splitters), "consumer", SHARE_FILTER)

    drop = None
    if spec.drop_one_share:
        victim, channel = ass.draw_lost_share(n, m, rng)
        drop = (sensors[victim], channel)

    if virtualized:
        # one source publishes raw; a virtual node does the splitting
        topic = DATA_TOPIC.format(sensor="s0")
        path.link(["s0"], [topic], "vnode", DATA_FILTER)
        raw = path.envelope(topic, "s0", Scheme.RAW, encoded[0])
        received = path.cross("vnode", [("s0", [raw])], then_ms=spec.compute_ms)
        secrets = [d.envelope.value for d in received]
    else:
        path.clock.advance_ms(spec.compute_ms)
        secrets = encoded

    bundles = []

    def shares():
        for splitter, sid, secret in zip(splitters, sensors, secrets):
            bundle = ass.split(secret, ass.draw_prefixes(1, m, fp, rng)[0], fp, sensor_id=sid)
            bundles.append(bundle)
            yield splitter, [
                path.envelope(SHARE_TOPIC.format(channel=ch), sid, Scheme.ASS_SHARE, v, ch)
                for ch, v in enumerate(bundle.shares, start=1)
            ]

    # shares reach the consumer undecoded; a dropped one is lost between
    # broker and subscriber
    path.cross("consumer", shares())
    if drop is not None:
        bundles[victim] = ass.lose_share(bundles[victim], channel)
    record = path.record(spec)
    encoded_truth = sum(encoded)
    try:
        total = ass.reconstruct_sum(bundles, fp)
    except ass.MissingShareError as exc:
        return RepOutcome(
            record, None, None, encoded_truth=encoded_truth, error=exc, injected_drop=drop
        )
    return RepOutcome(
        record,
        decode_sum(total, len(bundles), params),
        float(sum(values)),
        encoded_result=total,
        encoded_truth=encoded_truth,
        injected_drop=drop,
    )


def _relay_flow(spec, path, rng, values, encoded) -> RepOutcome:
    """One source's raw value, forwarded unchanged through depth relays."""
    depth = spec.depth
    chain = ["source", *(f"relay{i}" for i in range(1, depth + 1)), "consumer"]
    topics = [RELAY_TOPIC.format(i=i) for i in range(depth + 1)]
    hops = list(zip(chain, chain[1:], topics))
    for sender, receiver, topic in hops:
        path.link([sender], [topic], receiver, topic)
    path.clock.advance_ms(spec.compute_ms)
    message = path.envelope(topics[0], "source", Scheme.RAW, encoded[0])
    for sender, receiver, topic in hops:
        if message.topic != topic:
            # relays add no processing time; they forward what arrived at once
            message = replace(message, topic=topic)
        (delivery,) = path.cross(receiver, [(sender, [message])])
        message = delivery.envelope
    record = path.record(spec)
    return RepOutcome(record, decode(message.value, spec.encoding), values[0])


def _outcomes_for_range(
    spec: ScenarioSpec,
    start: int,
    stop: int,
    filler_rate: float,
    filler_window_s: float,
) -> list[RepOutcome]:
    import numpy as np

    out = []
    for rep in range(start, stop):
        rng = np.random.default_rng(spec.seed + rep)
        out.append(_run_once(spec, rep, rng, filler_rate, filler_window_s))
    return out


def worker_count(workers: int, reps: int) -> int:
    """Processes a run of `reps` repetitions uses when asked for `workers`."""
    return max(1, min(workers, reps))


def run_scenario_outcomes(
    spec: ScenarioSpec,
    filler_rate: float = 0.0,
    filler_window_s: float = 0.05,
    workers: int = 1,
) -> list[RepOutcome]:
    """Run every repetition, capturing per-repetition results and errors.

    workers > 1 shards repetitions across processes; outcomes are merged by
    repetition index and are bit-identical to a single-worker run because
    each repetition is independently seeded.
    """
    reps = spec.repetitions
    workers = worker_count(workers, reps)
    if workers == 1:
        return _outcomes_for_range(spec, 0, reps, filler_rate, filler_window_s)
    # the pool pulls in multiprocessing, pickle and socket; serial runs skip it
    from concurrent.futures import ProcessPoolExecutor

    import numpy as np

    bounds = np.linspace(0, reps, workers + 1).astype(int)
    chunks = [(int(bounds[i]), int(bounds[i + 1])) for i in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_outcomes_for_range, spec, start, stop, filler_rate, filler_window_s)
            for start, stop in chunks
        ]
        merged: list[RepOutcome] = []
        for fut in futures:
            merged.extend(fut.result())
    return merged


def run_scenario(spec: ScenarioSpec, workers: int = 1) -> list[RunRecord]:
    """Run a validated scenario; one RunRecord per repetition.

    An ass repetition that lost a share aborts the run by raising
    MissingShareError -- (m, m) sharing has nothing to fall back on.
    """
    outcomes = run_scenario_outcomes(spec, workers=workers)
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    return [o.record for o in outcomes]
