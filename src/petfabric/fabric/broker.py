"""In-process pub/sub broker with topic ACLs and an injected latency model.

Latency is modeled, not measured: the network cost of a message is counted
in hops (one for the publish leg into the broker, one for each delivery leg
out), and every hop's delay is sampled from a configurable LatencyModel.
Absolute hardware timings therefore never leak into results; what the
simulation reproduces is the structure -- hop counts, ratios, additive
composition -- deterministically from a seed.

Topics follow MQTT grammar: '/'-separated levels, '+' matching exactly one
level, '#' matching any (possibly empty) trailing remainder. Access control
is deny-by-default: a client may publish or subscribe only where an ACL
entry grants it, and every grant, denial and delivery lands in an append-
only audit log so soundness can be checked after the fact.

The broker is single-threaded: one caller drives it with a seeded
generator and a manually advanced VirtualClock, so every run is a pure
function of its seed. Repetitions run in parallel as separate processes,
each with its own broker, never as threads sharing one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .envelope import Envelope, Scheme, cbor_decode, cbor_encode


class FabricError(Exception):
    """Base class for transport-level failures."""


class AclDeniedError(FabricError):
    """The ACL table has no entry granting this action."""


class UnknownClientError(FabricError):
    """The client id was never registered with the broker."""


class MalformedTopicError(FabricError):
    """Topic or filter string violates the MQTT-style grammar."""


# --------------------------------------------------------------------------
# Topic grammar
# --------------------------------------------------------------------------

def validate_topic(topic: str) -> None:
    """Check a concrete publish topic: non-empty, no wildcards."""
    if not topic:
        raise MalformedTopicError("topic must not be empty")
    if "\x00" in topic:
        raise MalformedTopicError("topic must not contain NUL")
    if "+" in topic or "#" in topic:
        raise MalformedTopicError(f"publish topic {topic!r} must not contain wildcards")


def validate_filter(pattern: str) -> None:
    """Check a subscription filter: wildcards only as whole levels, '#' last."""
    if not pattern:
        raise MalformedTopicError("filter must not be empty")
    if "\x00" in pattern:
        raise MalformedTopicError("filter must not contain NUL")
    levels = pattern.split("/")
    for i, level in enumerate(levels):
        if level == "#":
            if i != len(levels) - 1:
                raise MalformedTopicError(f"'#' must be the last level in {pattern!r}")
        elif "#" in level or ("+" in level and level != "+"):
            raise MalformedTopicError(f"wildcard must occupy a whole level in {pattern!r}")


def _levels_match(plevels: Sequence[str], tlevels: Sequence[str]) -> bool:
    """MQTT matching of a split filter against a split topic."""
    for i, level in enumerate(plevels):
        if level == "#":
            return True
        if i >= len(tlevels):
            return False
        if level == "+":
            continue
        if level != tlevels[i]:
            return False
    return len(tlevels) == len(plevels)


def topic_matches(pattern: str, topic: str) -> bool:
    """MQTT matching; '#' also matches the parent level itself."""
    return _levels_match(pattern.split("/"), topic.split("/"))


# --------------------------------------------------------------------------
# Access control
# --------------------------------------------------------------------------

PUBLISH = "publish"
SUBSCRIBE = "subscribe"


@dataclass(frozen=True)
class AclEntry:
    client_id: str  # exact id, or "*" for any client
    pattern: str
    permission: str

    def __post_init__(self) -> None:
        if self.permission not in (PUBLISH, SUBSCRIBE):
            raise ValueError(f"permission must be publish or subscribe, got {self.permission!r}")
        validate_filter(self.pattern)


class AclTable:
    """Deny-by-default topic ACL: no matching entry means refusal.

    Entries are kept in grant order, and also indexed by (permission,
    client id) with their patterns split into levels, so a check looks only
    at the client's own grants and the "*" grants.
    """

    def __init__(self, entries: Iterable[AclEntry] = ()):
        self._entries: list[AclEntry] = []
        self._grants: dict[tuple[str, str], list[tuple[str, ...]]] = {}
        for entry in entries:
            self._add(entry)

    def _add(self, entry: AclEntry) -> None:
        self._entries.append(entry)
        key = (entry.permission, entry.client_id)
        self._grants.setdefault(key, []).append(tuple(entry.pattern.split("/")))

    def allow(self, client_id: str, pattern: str, permission: str) -> None:
        self._add(AclEntry(client_id, pattern, permission))

    def _permits(self, permission: str, client_id: str, topic: str) -> bool:
        tlevels = topic.split("/")
        grants = self._grants
        for key in ((permission, client_id), (permission, "*")):
            for plevels in grants.get(key, ()):
                if _levels_match(plevels, tlevels):
                    return True
        return False

    def permits_publish(self, client_id: str, topic: str) -> bool:
        return self._permits(PUBLISH, client_id, topic)

    def permits_subscribe_topic(self, client_id: str, topic: str) -> bool:
        """May this client receive messages published on this concrete topic?"""
        return self._permits(SUBSCRIBE, client_id, topic)

    def permits_subscribe_filter(self, client_id: str, pattern: str) -> bool:
        """May this client register this filter?

        The requested filter is checked literally, as if it were a topic,
        against each grant pattern -- so a grant on 'cabin/#' covers a
        request for 'cabin/+/weight'. Deliveries are additionally checked
        per concrete topic, which is what makes the audit invariant hold.
        """
        return self._permits(SUBSCRIBE, client_id, pattern)


# --------------------------------------------------------------------------
# Latency model and clock
# --------------------------------------------------------------------------

CONSTANT = "constant"
GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class LatencyModel:
    """Per-hop delay distribution; a sampled hop delay is never negative."""

    per_hop_mean_ms: float = 3.88
    per_hop_jitter_std_ms: float = 0.0
    distribution: str = CONSTANT

    def __post_init__(self) -> None:
        if self.per_hop_mean_ms < 0:
            raise ValueError(f"per-hop mean must be >= 0, got {self.per_hop_mean_ms}")
        if self.per_hop_jitter_std_ms < 0:
            raise ValueError(f"jitter std must be >= 0, got {self.per_hop_jitter_std_ms}")
        if self.distribution not in (CONSTANT, GAUSSIAN):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.distribution == CONSTANT and self.per_hop_jitter_std_ms != 0.0:
            raise ValueError("constant distribution cannot carry jitter")

    def sample_hop_ms(self, rng: np.random.Generator) -> float:
        if self.distribution == CONSTANT:
            return self.per_hop_mean_ms
        # negative draws are clamped: a hop cannot complete before it starts
        return max(0.0, rng.normal(self.per_hop_mean_ms, self.per_hop_jitter_std_ms))


#: Named per-hop profiles. "default" is calibrated so a 12-hop relay chain
#: averages 46.56 ms; "testbed" back-solves the half-round-trip from a
#: 2-hop baseline measured at 5.295 ms end-to-end with 0.307 ms compute;
#: the Wi-Fi/Ethernet profiles are half of reference ping times.
LATENCY_PRESETS: dict[str, LatencyModel] = {
    "default": LatencyModel(3.88),
    "testbed": LatencyModel(2.494),
    "wifi-no-powersave": LatencyModel(4.0, 1.0, GAUSSIAN),
    "eth": LatencyModel(0.45, 0.05, GAUSSIAN),
}


class VirtualClock:
    """Manually advanced microsecond clock for deterministic runs."""

    def __init__(self, start_us: int = 0):
        self.now_us = start_us

    def advance_ms(self, ms: float) -> None:
        self.now_us += round(ms * 1000)


# --------------------------------------------------------------------------
# Broker
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditRecord:
    event: str
    client_id: str
    topic: str
    timestamp_us: int

    def line(self) -> str:
        return f"{self.event}\t{self.client_id}\t{self.topic}\t{self.timestamp_us}"


@dataclass(frozen=True)
class Delivery:
    """One envelope handed to one subscriber, with its two-leg path cost."""

    topic: str
    payload: bytes
    subscriber: str
    publish_delay_ms: float
    delivery_delay_ms: float

    @cached_property
    def envelope(self) -> Envelope:
        return cbor_decode(self.payload, topic=self.topic)


@dataclass(frozen=True)
class PublishReceipt:
    topic: str
    publish_delay_ms: float
    deliveries: tuple[Delivery, ...]


class Subscription:
    """A client's view of one filter; deliveries arrive in publish order."""

    def __init__(self, client_id: str, pattern: str):
        self.client_id = client_id
        self.pattern = pattern
        self.levels = tuple(pattern.split("/"))
        self.messages: list[Delivery] = []

    def pop_all(self) -> list[Delivery]:
        out, self.messages = self.messages, []
        return out


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one synthetic background-traffic injection."""

    rate_per_s: float
    duration_s: float
    published: int
    delivered: int


class Broker:
    """Topic-routing hub: ACL checks, per-hop latency sampling, audit log."""

    def __init__(
        self,
        acl: Optional[AclTable] = None,
        latency: Optional[LatencyModel] = None,
        rng: Optional[np.random.Generator] = None,
        clock: Optional[VirtualClock] = None,
    ):
        self.acl = acl if acl is not None else AclTable()
        self.latency = latency if latency is not None else LatencyModel()
        self.clock = clock if clock is not None else VirtualClock()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._clients: set[str] = set()
        self._subscriptions: list[Subscription] = []
        # (event, client_id, topic, timestamp_us); audit_log builds the records
        self._audit: list[tuple[str, str, str, int]] = []

    # -- client lifecycle --------------------------------------------------

    def register_client(self, client_id: str) -> None:
        self._clients.add(client_id)

    def _require_client(self, client_id: str) -> None:
        if client_id not in self._clients:
            raise UnknownClientError(f"client {client_id!r} is not registered")

    # -- audit ---------------------------------------------------------------

    def _record(self, event: str, client_id: str, topic: str) -> None:
        self._audit.append((event, client_id, topic, self.clock.now_us))

    @property
    def audit_log(self) -> tuple[AuditRecord, ...]:
        return tuple(AuditRecord(*rec) for rec in self._audit)

    def write_audit_log(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.audit_log:
                fh.write(rec.line() + "\n")

    # -- core operations -----------------------------------------------------

    def subscribe(self, client_id: str, pattern: str) -> Subscription:
        """Register a filter; subsequent matching publishes are delivered FIFO."""
        self._require_client(client_id)
        validate_filter(pattern)
        if not self.acl.permits_subscribe_filter(client_id, pattern):
            self._record("subscribe-denied", client_id, pattern)
            raise AclDeniedError(f"{client_id!r} may not subscribe to {pattern!r}")
        sub = Subscription(client_id, pattern)
        self._subscriptions.append(sub)
        self._record("subscribe", client_id, pattern)
        return sub

    def publish(self, client_id: str, env: Envelope) -> PublishReceipt:
        """Route one envelope; samples one publish-leg and one delivery-leg
        delay per matched subscriber."""
        topic = env.topic
        self._require_client(client_id)
        validate_topic(topic)
        if not self.acl.permits_publish(client_id, topic):
            self._record("publish-denied", client_id, topic)
            raise AclDeniedError(f"{client_id!r} may not publish to {topic!r}")
        payload = cbor_encode(env)
        publish_delay = self.latency.sample_hop_ms(self._rng)
        self._record("publish", client_id, topic)
        tlevels = topic.split("/")
        deliveries = []
        for sub in self._subscriptions:
            if not _levels_match(sub.levels, tlevels):
                continue
            if not self.acl.permits_subscribe_topic(sub.client_id, topic):
                # filter was granted but this concrete topic is not:
                # never deliver what the ACL does not cover
                self._record("deliver-denied", sub.client_id, topic)
                continue
            delivery = Delivery(
                topic=topic,
                payload=payload,
                subscriber=sub.client_id,
                publish_delay_ms=publish_delay,
                delivery_delay_ms=self.latency.sample_hop_ms(self._rng),
            )
            sub.messages.append(delivery)
            deliveries.append(delivery)
            self._record("deliver", sub.client_id, topic)
        return PublishReceipt(topic, publish_delay, tuple(deliveries))

    # -- background traffic ----------------------------------------------------

    def inject_load(self, rate_per_s: float, duration_s: float) -> LoadReport:
        """Publish filler envelopes at a fixed rate on bench/filler/0.

        Deterministic best-effort generator: floor(rate * duration) messages
        from one publisher at evenly spaced virtual timestamps, drained by an
        internal sink subscriber. Grants itself the needed ACL entries;
        scenario traffic is unaffected apart from sharing the broker's
        random stream.
        """
        if rate_per_s < 0 or duration_s < 0:
            raise ValueError("rate and duration must be >= 0")
        total = int(rate_per_s * duration_s)
        if total == 0:
            return LoadReport(rate_per_s, duration_s, 0, 0)
        sink_id, origin = "bench-sink", "bench-pub-0"
        self.register_client(sink_id)
        self.acl.allow(sink_id, "bench/filler/#", SUBSCRIBE)
        sink = self.subscribe(sink_id, "bench/filler/#")
        self.register_client(origin)
        self.acl.allow(origin, "bench/filler/#", PUBLISH)
        for i in range(total):
            env = Envelope(
                topic="bench/filler/0",
                sensor_id=origin,
                sequence=i,
                scheme=Scheme.RAW,
                value=0,
                timestamp_us=round(i / rate_per_s * 1_000_000),
            )
            self.publish(origin, env)
        return LoadReport(rate_per_s, duration_s, total, len(sink.messages))


@dataclass(frozen=True)
class RunRecord:
    """Per-message latency breakdown for one measured flow.

    end_to_end_ms is additive by construction: compute time plus the sum of
    the sampled hop delays along the critical path.
    """

    scenario: str
    message_id: int
    compute_ms: float
    hop_delays_ms: tuple[float, ...]

    @property
    def hop_count(self) -> int:
        """Two hops (publish + delivery) per message on the critical path."""
        return len(self.hop_delays_ms)

    @property
    def end_to_end_ms(self) -> float:
        return self.compute_ms + sum(self.hop_delays_ms)
