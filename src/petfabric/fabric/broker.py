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
grant allows it, and every subscription, publish, denial and delivery lands
in an append-only audit log so soundness can be checked after the fact. A
publish hands its deliveries back in a receipt; the broker keeps none.

The broker is single-threaded: one caller drives it with a seeded
generator and a manually advanced VirtualClock, so every run is a pure
function of its seed. Repetitions run in parallel as separate processes,
each with its own broker, never as threads sharing one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, NamedTuple, Optional

from .envelope import Envelope, Scheme, cbor_decode, cbor_encode

if TYPE_CHECKING:
    import numpy as np


class AclDeniedError(Exception):
    """The ACL table has no entry granting this action."""


class UnknownClientError(Exception):
    """The client id was never registered with the broker."""


class MalformedTopicError(Exception):
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


@cache
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


@cache
def topic_matches(pattern: str, topic: str) -> bool:
    """MQTT matching; '#' also matches the parent level itself. Memoized
    without bound: every repetition of a run matches the same pairs, about
    two per sensor, and reuses them."""
    plevels, tlevels = pattern.split("/"), topic.split("/")
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


# --------------------------------------------------------------------------
# Access control
# --------------------------------------------------------------------------

PUBLISH = "publish"
SUBSCRIBE = "subscribe"


class AclTable:
    """Deny-by-default topic ACL: no matching grant means refusal.

    Grants are indexed by (permission, client id), so a check looks only
    at the client's own grant patterns. A client's patterns are a tuple, so
    a client with one grant holds one small object.
    """

    def __init__(self):
        self._grants: dict[tuple[str, str], tuple[str, ...]] = {}

    def allow(self, client_id: str, pattern: str, permission: str) -> None:
        """Grant `permission` on `pattern` to an exact client id; a grant the
        client already holds adds nothing."""
        if permission not in (PUBLISH, SUBSCRIBE):
            raise ValueError(f"permission must be publish or subscribe, got {permission!r}")
        validate_filter(pattern)
        key = (permission, client_id)
        patterns = self._grants.get(key, ())
        if pattern not in patterns:
            self._grants[key] = patterns + (pattern,)

    def _permits(self, permission: str, client_id: str, topic: str) -> bool:
        for pattern in self._grants.get((permission, client_id), ()):
            if topic_matches(pattern, topic):
                return True
        return False

    def permits_publish(self, client_id: str, topic: str) -> bool:
        return self._permits(PUBLISH, client_id, topic)

    def permits_subscribe_topic(self, client_id: str, topic: str) -> bool:
        """May this client receive messages on this concrete topic, or, as
        `permits_subscribe_filter`, register this filter?

        A requested filter is checked literally, as if it were a topic,
        against each grant pattern -- so a grant on 'cabin/#' covers a
        request for 'cabin/+/weight'. Deliveries are additionally checked
        per concrete topic, which is what makes the audit invariant hold.
        """
        return self._permits(SUBSCRIBE, client_id, topic)

    permits_subscribe_filter = permits_subscribe_topic


# --------------------------------------------------------------------------
# Latency model and clock
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyModel:
    """Per-hop delay: the mean without jitter, else a Gaussian draw around
    it; a sampled hop delay is never negative."""

    per_hop_mean_ms: float
    per_hop_jitter_std_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.per_hop_mean_ms < 0:
            raise ValueError(f"per-hop mean must be >= 0, got {self.per_hop_mean_ms}")
        if self.per_hop_jitter_std_ms < 0:
            raise ValueError(f"jitter std must be >= 0, got {self.per_hop_jitter_std_ms}")

    def sample_hop_ms(self, rng: np.random.Generator) -> float:
        if not self.per_hop_jitter_std_ms:  # no jitter: no draw
            return self.per_hop_mean_ms
        # negative draws are clamped: a hop cannot complete before it starts.
        # numpy computes normal(loc, scale) as loc + scale * standard_normal,
        # so this is the same double from the same place in the stream,
        # without normal's per-call argument checks
        v = self.per_hop_mean_ms + self.per_hop_jitter_std_ms * rng.standard_normal()
        return v if v > 0.0 else 0.0


#: Named per-hop profiles. "default" is calibrated so a 12-hop relay chain
#: averages 46.56 ms; "testbed" back-solves the half-round-trip from a
#: 2-hop baseline measured at 5.295 ms end-to-end with 0.307 ms compute;
#: the Wi-Fi/Ethernet profiles are half of reference ping times.
LATENCY_PRESETS: dict[str, LatencyModel] = {
    "default": LatencyModel(3.88),
    "testbed": LatencyModel(2.494),
    "wifi-no-powersave": LatencyModel(4.0, 1.0),
    "eth": LatencyModel(0.45, 0.05),
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


@dataclass(unsafe_hash=True)
class Delivery:
    """One envelope handed to one subscriber, with its two-leg path cost.

    A plain dataclass that decodes its payload once, on first access: a
    frozen one pays object.__setattr__ per field and a cached_property
    takes a lock, on every delivery. It hashes and compares by its five
    fields, as a frozen one would; do not reassign them, since `envelope`
    keeps what it decoded first.
    """

    topic: str
    payload: bytes
    subscriber: str
    publish_delay_ms: float
    delivery_delay_ms: float
    _envelope: Optional[Envelope] = field(default=None, init=False, repr=False, compare=False)

    @property
    def envelope(self) -> Envelope:
        """The payload decoded, once."""
        if self._envelope is None:
            self._envelope = cbor_decode(self.payload, topic=self.topic)
        return self._envelope


class PublishReceipt(NamedTuple):
    deliveries: tuple[Delivery, ...]


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one synthetic background-traffic injection."""

    published: int
    delivered: int


class Broker:
    """Topic-routing hub: ACL checks, per-hop latency sampling, audit log."""

    def __init__(
        self, acl: AclTable, latency: LatencyModel, rng: np.random.Generator, clock: VirtualClock
    ):
        self.acl = acl
        self.latency = latency
        self.clock = clock
        self._rng = rng
        self._clients: set[str] = set()
        self._subscriptions: list[tuple[str, str]] = []  # (pattern, client_id)
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

    def subscribe(self, client_id: str, pattern: str) -> None:
        """Register a filter; subsequent matching publishes are delivered FIFO.
        A filter the client already holds replaces its subscription, as MQTT
        3.1.1 section 3.8.4 requires; the audit log records every request."""
        self._require_client(client_id)
        validate_filter(pattern)
        if not self.acl.permits_subscribe_filter(client_id, pattern):
            self._record("subscribe-denied", client_id, pattern)
            raise AclDeniedError(f"{client_id!r} may not subscribe to {pattern!r}")
        if (pattern, client_id) not in self._subscriptions:
            self._subscriptions.append((pattern, client_id))
        self._record("subscribe", client_id, pattern)

    def publish(self, client_id: str, env: Envelope) -> PublishReceipt:
        """Route one envelope; samples one publish-leg and one delivery-leg
        delay per matched subscriber."""
        topic = env.topic
        self._require_client(client_id)
        validate_topic(topic)
        acl, audit, now = self.acl, self._audit, self.clock.now_us
        if not acl.permits_publish(client_id, topic):
            self._record("publish-denied", client_id, topic)
            raise AclDeniedError(f"{client_id!r} may not publish to {topic!r}")
        payload = cbor_encode(env)
        latency, rng = self.latency, self._rng
        publish_delay = latency.sample_hop_ms(rng)
        audit.append(("publish", client_id, topic, now))
        deliveries = []
        for pattern, subscriber in self._subscriptions:
            if not topic_matches(pattern, topic):
                continue
            if not acl.permits_subscribe_topic(subscriber, topic):
                # filter was granted but this concrete topic is not:
                # never deliver what the ACL does not cover
                audit.append(("deliver-denied", subscriber, topic, now))
                continue
            deliveries.append(
                Delivery(topic, payload, subscriber, publish_delay, latency.sample_hop_ms(rng))
            )
            audit.append(("deliver", subscriber, topic, now))
        return PublishReceipt(tuple(deliveries))

    # -- background traffic ----------------------------------------------------

    def inject_load(self, rate_per_s: float, duration_s: float) -> LoadReport:
        """Publish filler envelopes at a fixed rate on bench/filler/0.

        Deterministic best-effort generator: floor(rate * duration) messages
        from one publisher at evenly spaced virtual timestamps, drained by an
        internal sink subscriber; `delivered` counts the deliveries their
        receipts hold. Grants itself the ACL it needs; scenario traffic
        is unaffected apart from sharing the broker's random stream.
        """
        if rate_per_s < 0 or duration_s < 0:
            raise ValueError("rate and duration must be >= 0")
        total = int(rate_per_s * duration_s)
        if total == 0:
            return LoadReport(0, 0)
        sink_id, origin = "bench-sink", "bench-pub-0"
        self.register_client(sink_id)
        self.acl.allow(sink_id, "bench/filler/#", SUBSCRIBE)
        self.subscribe(sink_id, "bench/filler/#")
        self.register_client(origin)
        self.acl.allow(origin, "bench/filler/#", PUBLISH)
        delivered = 0
        for i in range(total):
            env = Envelope(
                topic="bench/filler/0",
                sensor_id=origin,
                sequence=i,
                scheme=Scheme.RAW,
                value=0,
                timestamp_us=round(i / rate_per_s * 1_000_000),
            )
            delivered += len(self.publish(origin, env).deliveries)
        return LoadReport(total, delivered)


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
