"""Broker behavior: matching, ACL soundness, latency accounting, load."""

import math
import weakref

import numpy as np
import pytest

from petfabric.fabric import broker as broker_module
from petfabric.fabric.broker import (
    AclDeniedError,
    AclTable,
    Broker,
    Delivery,
    LatencyModel,
    MalformedTopicError,
    RunRecord,
    UnknownClientError,
    VirtualClock,
    LATENCY_PRESETS,
    PUBLISH,
    SUBSCRIBE,
    topic_matches,
    validate_filter,
    validate_topic,
)
from petfabric.fabric.envelope import Envelope, Scheme


def env_for(topic, value=1, sensor="s1", seq=0):
    return Envelope(
        topic=topic, sensor_id=sensor, sequence=seq, scheme=Scheme.RAW, value=value
    )


def open_acl():
    """A table granting every client publish and subscribe on every topic."""
    acl = AclTable()
    acl.allow("*", "#", PUBLISH)
    acl.allow("*", "#", SUBSCRIBE)
    return acl


def make_broker(acl, hop_ms=1.0):
    """A broker on `acl` with constant hops, a seeded stream and a clock at 0."""
    return Broker(acl, LatencyModel(hop_ms), np.random.default_rng(0), VirtualClock())


def sequences(receipts, subscriber):
    """The sequence numbers `subscriber` received, in publish order."""
    return [
        d.envelope.sequence for r in receipts for d in r.deliveries if d.subscriber == subscriber
    ]


# -- topic grammar -----------------------------------------------------------

@pytest.mark.parametrize(
    "pattern,topic,expected",
    [
        ("cabin/seat/+/weight", "cabin/seat/12A/weight", True),
        ("cabin/seat/+/weight", "cabin/seat/12A/temp", False),
        ("cabin/seat/+/weight", "cabin/seat/weight", False),
        ("cabin/#", "cabin/seat/12A/weight", True),
        ("cabin/#", "cabin", True),  # '#' also covers the parent level
        ("cabin/#", "galley/oven", False),
        ("#", "anything/at/all", True),
        ("a/+", "a/b", True),
        ("a/+", "a", False),
        ("a/+", "a/", True),  # '+' matches an empty level
        ("a/b", "a/b", True),
        ("a/b", "a/b/c", False),
        ("+/+", "a/b", True),
    ],
)
def test_topic_matching(pattern, topic, expected):
    assert topic_matches(pattern, topic) is expected


def test_the_broker_and_the_acl_match_through_topic_matches(monkeypatch):
    # a wrapper on the module's one matcher sees every match a publish makes
    seen = []

    def counting(pattern, topic):
        seen.append((pattern, topic))
        return topic_matches(pattern, topic)

    monkeypatch.setattr(broker_module, "topic_matches", counting)
    broker = make_broker(open_acl())
    broker.register_client("p")
    broker.register_client("c")
    broker.subscribe("c", "cabin/#")
    seen.clear()
    topic = "cabin/seat/1A/weight"
    broker.publish("p", env_for(topic))
    # the publish grant, the subscription, the concrete topic's subscribe grant
    assert seen == [("#", topic), ("cabin/#", topic), ("#", topic)]


def test_topic_validation():
    validate_topic("cabin/seat/12A/weight")
    for bad in ["", "cabin/+/x", "cabin/#", "with\x00nul"]:
        with pytest.raises(MalformedTopicError):
            validate_topic(bad)
    validate_filter("cabin/+/weight")
    validate_filter("cabin/#")
    validate_filter("#")
    for bad in ["", "cabin/#/x", "cabin/a#", "cabin/a+b", "x\x00"]:
        with pytest.raises(MalformedTopicError):
            validate_filter(bad)


# -- ACL ----------------------------------------------------------------------

def test_acl_deny_by_default():
    broker = make_broker(AclTable())
    broker.register_client("pub")
    broker.register_client("sub")
    with pytest.raises(AclDeniedError):
        broker.subscribe("sub", "cabin/#")
    with pytest.raises(AclDeniedError):
        broker.publish("pub", env_for("cabin/a/b/c"))
    events = [r.event for r in broker.audit_log]
    assert "subscribe-denied" in events and "publish-denied" in events


def test_acl_grants_and_wildcard_client():
    acl = AclTable()
    acl.allow("pub", "cabin/data/#", PUBLISH)
    acl.allow("*", "cabin/#", SUBSCRIBE)
    broker = make_broker(acl)
    for c in ("pub", "anyone"):
        broker.register_client(c)
    broker.subscribe("anyone", "cabin/data/+")
    receipt = broker.publish("pub", env_for("cabin/data/x"))
    assert [d.subscriber for d in receipt.deliveries] == ["anyone"]
    assert receipt.deliveries[0].envelope.value == 1
    with pytest.raises(AclDeniedError):
        broker.publish("pub", env_for("galley/data/x"))


# (client, pattern, permission): exact ids and "*", with '+', '#', a parent-
# level '#' and exact patterns, for both permissions
ACL_GRANTS = [
    ("c1", "cabin/sim/s1/value", PUBLISH),
    ("*", "cabin/+/weight", SUBSCRIBE),
    ("c2", "cabin/#", SUBSCRIBE),
    ("c1", "+/+", SUBSCRIBE),
    ("*", "bench/filler/#", PUBLISH),
    ("c2", "cabin/sim/+/value", PUBLISH),
    ("c3", "#", PUBLISH),
    ("c1", "galley/oven", SUBSCRIBE),
    ("*", "relay/leg0", SUBSCRIBE),
    ("c3", "a/+/#", SUBSCRIBE),
    ("c1", "a//b", PUBLISH),
    ("c4", "a/b/", SUBSCRIBE),
    ("*", "/a", SUBSCRIBE),
]
ACL_CLIENTS = ["c1", "c2", "c3", "c4", "*"]
ACL_TOPICS = [
    "cabin", "cabin/", "cabin/sim/s1/value", "cabin/sim/s2/value", "cabin/seat/weight",
    "cabin/seat/12A/weight", "bench/filler", "bench/filler/0", "galley/oven", "galley/oven/x",
    "relay/leg0", "relay/leg1", "a", "a/b", "a/b/c", "x/y",
    "a//b", "a//b/", "a/b/", "/a", "/a/", "galley/oven/",
]
# requested filters, checked literally by permits_subscribe_filter
ACL_FILTERS = ["#", "cabin/#", "cabin/+/weight", "cabin/+", "+/+", "a/+/#", "relay/+"]


def reference_match(pattern, topic):
    """MQTT matching written out again: '#' covers its parent level too."""
    p, t = pattern.split("/"), topic.split("/")
    if p[-1] == "#":
        p = p[:-1]
        if len(t) < len(p):
            return False
    elif len(t) != len(p):
        return False
    return all(a in ("+", b) for a, b in zip(p, t))


def reference_permits(grants, permission, client, topic):
    return any(
        granted == permission and grantee in (client, "*") and reference_match(pattern, topic)
        for grantee, pattern, granted in grants
    )


@pytest.mark.parametrize("built", range(len(ACL_GRANTS) + 1))
def test_indexed_acl_agrees_with_a_linear_scan(built):
    # the first `built` grants are filed before any check, the rest one at a
    # time; every check after each grant must agree with a scan of all grants
    acl = AclTable()
    for grant in ACL_GRANTS[:built]:
        acl.allow(*grant)
    checks = [
        (acl.permits_publish, PUBLISH, ACL_TOPICS),
        (acl.permits_subscribe_topic, SUBSCRIBE, ACL_TOPICS),
        (acl.permits_subscribe_filter, SUBSCRIBE, ACL_TOPICS + ACL_FILTERS),
    ]
    for added in range(built, len(ACL_GRANTS) + 1):
        if added > built:
            acl.allow(*ACL_GRANTS[added - 1])
        for method, permission, topics in checks:
            for client in ACL_CLIENTS:
                for topic in topics:
                    expected = reference_permits(ACL_GRANTS[:added], permission, client, topic)
                    assert method(client, topic) is expected, (method.__name__, client, topic)


def test_receipts_hash_and_compare_by_value():
    broker = make_broker(open_acl())
    for c in ("p", "s"):
        broker.register_client(c)
    broker.subscribe("s", "cabin/#")
    receipt = broker.publish("p", env_for("cabin/a", seq=0))
    (delivery,) = receipt.deliveries
    twin = Delivery(delivery.topic, delivery.payload, "s", 1.0, 1.0)
    assert delivery.envelope.sequence == 0  # decoded and kept: still equal
    assert twin == delivery and hash(twin) == hash(delivery)
    assert hash(receipt) == hash(receipt._replace(deliveries=(twin,)))
    assert receipt.deliveries == (twin,)


def test_the_broker_keeps_no_delivery():
    # a delivery lives only as long as its receipt's holder keeps it
    broker = make_broker(open_acl())
    broker.register_client("p")
    broker.register_client("c")
    broker.subscribe("c", "#")
    (delivery,) = broker.publish("p", env_for("t/x")).deliveries
    freed = weakref.ref(delivery)
    del delivery
    assert freed() is None
    assert [r.event for r in broker.audit_log] == ["subscribe", "publish", "deliver"]


def test_unknown_client():
    broker = make_broker(open_acl())
    with pytest.raises(UnknownClientError):
        broker.publish("ghost", env_for("a/b"))
    with pytest.raises(UnknownClientError):
        broker.subscribe("ghost", "a/#")


def test_delivery_rechecks_acl_per_topic():
    # the subscribe-time grant is necessary but not sufficient: if the table
    # later stops covering a topic, delivery is refused and audited
    acl = open_acl()
    broker = make_broker(acl)
    broker.register_client("pub")
    broker.register_client("sub")
    broker.subscribe("sub", "#")
    broker.acl = AclTable()  # revoke everything
    broker.acl.allow("pub", "#", PUBLISH)
    receipt = broker.publish("pub", env_for("cabin/x"))
    assert receipt.deliveries == ()
    assert "deliver-denied" in [r.event for r in broker.audit_log]


def test_route_table_follows_subscribe_and_rechecks_the_acl_per_publish():
    acl = AclTable()
    acl.allow("p", "cabin/#", PUBLISH)
    acl.allow("c1", "cabin/#", SUBSCRIBE)
    acl.allow("c2", "cabin/a/#", SUBSCRIBE)
    # covers the filter 'cabin/#' taken literally, but not the topic 'cabin/a/b'
    acl.allow("c3", "cabin/+", SUBSCRIBE)
    broker = make_broker(acl)
    for c in ("p", "c1", "c2", "c3"):
        broker.register_client(c)
    broker.subscribe("c3", "cabin/#")
    broker.subscribe("c1", "cabin/#")
    receipts = [broker.publish("p", env_for("cabin/a/b", seq=0))]
    broker.subscribe("c2", "cabin/a/+")
    receipts += [broker.publish("p", env_for("cabin/a/b", seq=seq)) for seq in (1, 2)]
    assert [[d.subscriber for d in r.deliveries] for r in receipts] == [
        ["c1"], ["c1", "c2"], ["c1", "c2"]
    ]
    assert sequences(receipts, "c1") == [0, 1, 2]
    assert sequences(receipts, "c2") == [1, 2]
    events = [(r.event, r.client_id) for r in broker.audit_log if r.event != "subscribe"]
    once = [("publish", "p"), ("deliver-denied", "c3"), ("deliver", "c1")]
    assert events == once + 2 * (once + [("deliver", "c2")])


def test_audit_soundness_every_delivery_was_permitted():
    acl = AclTable()
    acl.allow("p", "cabin/#", PUBLISH)
    acl.allow("c1", "cabin/a/#", SUBSCRIBE)
    acl.allow("c2", "cabin/#", SUBSCRIBE)
    broker = make_broker(acl)
    for c in ("p", "c1", "c2"):
        broker.register_client(c)
    broker.subscribe("c1", "cabin/a/#")
    broker.subscribe("c2", "cabin/#")
    rng = np.random.default_rng(5)
    for i in range(50):
        topic = f"cabin/{'a' if rng.random() < 0.5 else 'b'}/t{i}"
        broker.publish("p", env_for(topic, seq=i))
    deliveries = [r for r in broker.audit_log if r.event == "deliver"]
    assert deliveries
    for rec in deliveries:
        assert broker.acl.permits_subscribe_topic(rec.client_id, rec.topic)


# -- latency accounting --------------------------------------------------------

def test_two_hop_constant_delay():
    broker = make_broker(open_acl(), 2.0)
    broker.register_client("p")
    broker.register_client("c")
    broker.subscribe("c", "t/#")
    receipt = broker.publish("p", env_for("t/x"))
    delivery = receipt.deliveries[0]
    assert delivery.publish_delay_ms == 2.0
    assert delivery.publish_delay_ms + delivery.delivery_delay_ms == 4.0  # 2 hops x 2 ms


def test_relay_chain_totals_twelve_hops():
    # five relays re-publishing: 1 publish + 5 x (deliver + publish) + 1 deliver
    d = 3.88
    broker = make_broker(open_acl(), d)
    names = ["source"] + [f"relay{i}" for i in range(1, 6)] + ["sink"]
    for n in names:
        broker.register_client(n)
    for i in range(1, 6):
        broker.subscribe(f"relay{i}", f"chain/leg{i-1}")
    broker.subscribe("sink", "chain/leg5")

    legs = []
    receipt = broker.publish("source", env_for("chain/leg0"))
    for i in range(1, 6):
        (leg,) = receipt.deliveries
        legs.extend([leg.publish_delay_ms, leg.delivery_delay_ms])
        assert leg.subscriber == f"relay{i}"
        inbound = leg.envelope
        forward = Envelope(
            topic=f"chain/leg{i}",
            sensor_id=inbound.sensor_id,
            sequence=inbound.sequence,
            scheme=inbound.scheme,
            value=inbound.value,
            timestamp_us=inbound.timestamp_us,
        )
        receipt = broker.publish(f"relay{i}", forward)
    (leg,) = receipt.deliveries
    legs.extend([leg.publish_delay_ms, leg.delivery_delay_ms])

    assert len(legs) == 12
    assert sum(legs) == pytest.approx(12 * d)
    assert leg.subscriber == "sink"


def test_per_publisher_fifo_order():
    broker = make_broker(open_acl(), 0.5)
    for c in ("a", "b", "sub"):
        broker.register_client(c)
    broker.subscribe("sub", "t/#")
    receipts = []
    for i in range(20):
        receipts.append(broker.publish("a", env_for("t/a", sensor="a", seq=i)))
        receipts.append(broker.publish("b", env_for("t/b", sensor="b", seq=i)))
    received = [d for r in receipts for d in r.deliveries if d.subscriber == "sub"]
    for sensor in ("a", "b"):
        seqs = [d.envelope.sequence for d in received if d.envelope.sensor_id == sensor]
        assert seqs == sorted(seqs) == list(range(20))


def test_no_delivery_on_non_matching_topic():
    broker = make_broker(open_acl())
    broker.register_client("p")
    broker.register_client("c")
    broker.subscribe("c", "cabin/seat/+/weight")
    receipt = broker.publish("p", env_for("cabin/galley/oven/temp"))
    assert receipt.deliveries == ()


def test_gaussian_hops_never_negative():
    model = LatencyModel(0.1, 5.0)  # mostly negative raw draws
    rng = np.random.default_rng(11)
    draws = [model.sample_hop_ms(rng) for _ in range(2000)]
    assert min(draws) >= 0.0


def test_hop_clamp_returns_what_max_returns():
    model = LatencyModel(0.0, 1.0)
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(10_000):
        got, want = model.sample_hop_ms(rng), max(0.0, twin.normal(0.0, 1.0))
        assert type(got) is type(want)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


GAUSSIAN_HOP_CASES = [
    LATENCY_PRESETS["wifi-no-powersave"],
    LATENCY_PRESETS["eth"],
    LatencyModel(0.1, 5.0),  # most raw draws negative
    LatencyModel(1234.5678, 0.0123),
    LatencyModel(7.25, 0.0),  # no jitter: the mean, and no draw
]


@pytest.mark.parametrize("model", GAUSSIAN_HOP_CASES, ids=repr)
def test_gaussian_hop_is_the_clamped_normal_draw(model):
    # with jitter, each hop is exactly one rng.normal(mean, sd), clamped at 0,
    # and leaves the stream where that draw leaves it; without, each hop is
    # the mean and leaves the stream untouched
    seed = round(model.per_hop_mean_ms * 1000 + model.per_hop_jitter_std_ms * 10)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    mean, sd = model.per_hop_mean_ms, model.per_hop_jitter_std_ms
    for _ in range(100_000):
        got = model.sample_hop_ms(rng)
        raw = twin.normal(mean, sd) if sd else mean
        want = raw if raw > 0.0 else 0.0
        if got != want or type(got) is not type(want):
            pytest.fail(f"hop drew {got!r}, rng.normal gives {want!r}")
    assert rng.bit_generator.state == twin.bit_generator.state


def test_latency_model_validation():
    with pytest.raises(ValueError):
        LatencyModel(-1.0)
    with pytest.raises(ValueError):
        LatencyModel(1.0, -0.5)
    assert set(LATENCY_PRESETS) == {"default", "testbed", "wifi-no-powersave", "eth"}
    assert LATENCY_PRESETS["default"].per_hop_mean_ms == 3.88


def test_run_record_additivity():
    rec = RunRecord(scenario="x", message_id=0, compute_ms=0.3, hop_delays_ms=(1.0, 2.0))
    assert rec.end_to_end_ms == 0.3 + 1.0 + 2.0


# -- background load ------------------------------------------------------------

def test_inject_load_counts():
    broker = make_broker(AclTable())
    report = broker.inject_load(400.0, 10.0)
    assert report.published == 4000
    assert abs(report.delivered - 4000) <= 40  # within 1%
    assert report.delivered == 4000  # the simulated broker loses nothing


def test_repeated_subscription_replaces_the_first():
    broker = make_broker(AclTable())
    assert [broker.inject_load(100.0, 1.0).delivered for _ in range(2)] == [100, 100]
    broker.subscribe("bench-sink", "bench/filler/#")
    receipt = broker.publish("bench-pub-0", env_for("bench/filler/0", sensor="bench-pub-0"))
    assert [d.subscriber for d in receipt.deliveries] == ["bench-sink"]
    subscribes = [r for r in broker.audit_log if r.event == "subscribe"]
    assert [r.client_id for r in subscribes] == ["bench-sink"] * 3


def test_inject_load_zero_rate_is_noop():
    broker = make_broker(AclTable())
    report = broker.inject_load(0.0, 10.0)
    assert report.published == report.delivered == 0
    assert broker.audit_log == ()


def test_inject_load_rejects_negative():
    broker = make_broker(AclTable())
    with pytest.raises(ValueError):
        broker.inject_load(-1.0, 1.0)


def test_audit_log_dump(tmp_path):
    broker = make_broker(open_acl())
    broker.register_client("p")
    broker.register_client("c")
    broker.subscribe("c", "#")
    broker.publish("p", env_for("t/x"))
    path = tmp_path / "audit.log"
    broker.write_audit_log(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # subscribe, publish, deliver
    assert lines[1].split("\t")[:3] == ["publish", "p", "t/x"]
