"""Every scenario flow, pinned under Gaussian jitter, with and without filler.

The digests cover each repetition's record, result, truth, encoded result,
encoded truth, injected drop and missing shares, so a change to any flow's
random draw order, hop structure or payload handling shows up here. The
wire digests cover every payload the brokers published and every line of
their audit logs, so a change to the CBOR bytes, the ACL decisions or the
audit order shows up too. A last check holds every flow to least privilege:
no ACL grant goes unused.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from petfabric.codec import EncodingParams
from petfabric.fabric import broker as broker_module
from petfabric.fabric.broker import PUBLISH, AclTable, Broker, LatencyModel, topic_matches
from petfabric.fabric.envelope import Scheme
from petfabric.scenarios.config import ScenarioSpec
from petfabric.scenarios.runner import DATA_FILTER, DATA_TOPIC, _Path, run_scenario_outcomes

ON_DEVICE = dict(topology="on-device")
VIRTUALIZED = dict(topology="virtualized")

#: name -> (the spec's topology and pet fields, sensors)
FLOWS = {
    "on-device-none": (dict(ON_DEVICE, pet="none"), 3),
    "on-device-ldp": (dict(ON_DEVICE, pet="ldp", epsilon=0.5), 3),
    "on-device-krr": (dict(ON_DEVICE, pet="krr", epsilon=2.0), 3),
    "on-device-gdp-sum": (dict(ON_DEVICE, pet="gdp", epsilon=1.0), 3),
    "on-device-ass": (dict(ON_DEVICE, pet="ass", m=3), 3),
    "on-device-ass-drop": (dict(ON_DEVICE, pet="ass", m=3, drop_one_share=True), 3),
    "virtualized-gdp-sum": (dict(VIRTUALIZED, pet="gdp", epsilon=1.0), 3),
    "virtualized-ass": (dict(VIRTUALIZED, pet="ass", m=3), 1),
    "virtualized-ass-drop": (dict(VIRTUALIZED, pet="ass", m=3, drop_one_share=True), 1),
    "relay-chain-3": (dict(topology="relay-chain", depth=3, pet="none"), 1),
}

FILLER_RATES = (0.0, 200.0)

#: sha256 of every flow's outcomes; a record enters as its fields, listed
#: explicitly, so the digest does not depend on RunRecord's repr
DIGESTS = {
    "on-device-ass": "66661e74b2e41d27da2cb90d94f6b542dba7eb8193ecb575c511e579d061c6e6",
    "on-device-ass-drop": "e50b3daa4f006859a5a4696f199bc38b2359d2c1db0d6a816e20975299d7b442",
    "on-device-gdp-sum": "a1e03bb9582e679c2dadab3103e4ed67cc9c55e8db31a6ba868c60c8402ab32b",
    "on-device-krr": "531c1e4dc4ffe5080a61977a98a86b7cfa738a9655caed1e7513a9c623daf40c",
    "on-device-ldp": "78c2f599a1a2c72298807b067acfcf66874999a82d729c1c3bac1aad8f597662",
    "on-device-none": "0b710cff3b6919954baeda7d605ae8b466569bce3f6c65f524a7c48d06095ff5",
    "relay-chain-3": "89bada7cbe56d09d1ddd2360f15c7379054a098441605e76e30369e7ec13dfba",
    "virtualized-ass": "b3318d2e73b98cfc1ab471d2a7e09057757407b2fa23ec52bae07741fbb8a4ab",
    "virtualized-ass-drop": "db74c485feddf9ef884ea67cd4f8b49104f69432a8ace6df5ba826a2b8f536d3",
    "virtualized-gdp-sum": "0ea99a634540511ef1e511ff333007423d62a01f664ffdab2f175833a93be370",
}

#: sha256 of every flow's published payloads and audit-log lines, recorded
#: before the broker's hot path and the CBOR codec were rewritten
WIRE_DIGESTS = {
    "on-device-ass": "2b8387284ef49f1f64cbe6e5be9ee93bfa07a3939d6b0964616d97cd7f2a85d2",
    "on-device-ass-drop": "b315d90e4f688510d853cd706f159f87a9fc20c0d047454819e509570a64c377",
    "on-device-gdp-sum": "65b50e8f93e68547482226a12608a83adc1ea10ade4636d18896cac288998dd6",
    "on-device-krr": "f96242957d1b5bcf5c38ea38a9a6fe6f740516294767705b1c031b84ccea7b5d",
    "on-device-ldp": "8809f047bf39d2ecc15a2aa5b014e81fb24e799ff16ef995904ec53d79fa03b7",
    "on-device-none": "c5d91e608d6623c077e6b63bf920d8a39befbc7987b084ccf5484f9e5064b9cf",
    "relay-chain-3": "8f0b49c2e82802f7ca06173e8a8bb6163dfc902820cce315b63d02836bb49f42",
    "virtualized-ass": "0b86ab31fce4d9384ba3fa52fa4f1cb45cafb51416ad9f39fb631a526de815de",
    "virtualized-ass-drop": "68f4630e706eb5de094478561f817a0a485be1db2a4c7f2471722e7e0517444b",
    "virtualized-gdp-sum": "b16a80c57788280ad9f3fbbd55d964148e5806b803c9db67ed40504940eac4b9",
}


def flow_spec(name: str) -> ScenarioSpec:
    fields, n = FLOWS[name]
    return ScenarioSpec(
        name=name,
        **fields,
        sensors=n,
        encoding=EncodingParams(1, 50, 120),
        latency=LatencyModel(2.0, 0.5),
        compute_ms=0.307,
        repetitions=4,
        seed=11,
    )


def flow_digest(spec: ScenarioSpec) -> str:
    h = hashlib.sha256()
    for rate in FILLER_RATES:
        for out in run_scenario_outcomes(spec, filler_rate=rate):
            missing = None if out.error is None else out.error.missing
            r = out.record
            fields = (
                (r.scenario, r.message_id, r.compute_ms, r.hop_delays_ms, r.hop_count),
                out.result,
                out.truth,
                out.encoded_result,
                out.encoded_truth,
                out.injected_drop,
                missing,
            )
            h.update(repr(fields).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_flow_outcomes_are_pinned(name):
    assert flow_digest(flow_spec(name)) == DIGESTS[name]


def test_relay_chain_at_depth_1_gives_the_retired_virtualized_relay_s_outcomes():
    # a virtualized node with no PET forwarded one source's value unchanged;
    # the digest is that flow's, so one relay reproduces every draw and record
    spec = replace(flow_spec("relay-chain-3"), depth=1, name="virtualized-none")
    assert flow_digest(spec) == "e1da48a013e8fa99ba4e58ea8103553fe9d006ab412681599f0357553d03d6e0"


def capture_brokers(monkeypatch) -> list[Broker]:
    """Every Broker built from here on, in construction order."""
    brokers = []
    init = Broker.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        brokers.append(self)

    monkeypatch.setattr(Broker, "__init__", capture)
    return brokers


def wire_digest(spec: ScenarioSpec, monkeypatch) -> str:
    """sha256 of every payload published, in order, then of every audit line."""
    brokers = capture_brokers(monkeypatch)
    payloads = []
    encode = broker_module.cbor_encode

    def recording_encode(env):
        data = encode(env)
        payloads.append(data)
        return data

    monkeypatch.setattr(broker_module, "cbor_encode", recording_encode)
    for rate in FILLER_RATES:
        run_scenario_outcomes(spec, filler_rate=rate)
    h = hashlib.sha256()
    for data in payloads:
        h.update(len(data).to_bytes(4, "big") + data)
    for broker in brokers:
        for rec in broker.audit_log:
            h.update(rec.line().encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_wire_bytes_are_pinned(name, monkeypatch):
    assert wire_digest(flow_spec(name), monkeypatch) == WIRE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FLOWS))
@pytest.mark.parametrize("rate", FILLER_RATES)
def test_every_acl_grant_is_used(name, rate, monkeypatch):
    brokers = capture_brokers(monkeypatch)
    grants = {}  # id(table) -> every (client, pattern, permission) granted to it, in order
    allow = AclTable.allow

    def recording_allow(self, client_id, pattern, permission):
        allow(self, client_id, pattern, permission)
        grants.setdefault(id(self), []).append((client_id, pattern, permission))

    monkeypatch.setattr(AclTable, "allow", recording_allow)
    spec = flow_spec(name)
    run_scenario_outcomes(spec, filler_rate=rate)
    assert len(brokers) == spec.repetitions
    for broker in brokers:
        used = {
            (rec.client_id, rec.event, rec.topic)
            for rec in broker.audit_log
            if rec.event in ("publish", "subscribe")
        }
        for grantee, pattern, permission in grants[id(broker.acl)]:
            event = "publish" if permission == PUBLISH else "subscribe"
            assert any(
                client == grantee and ev == event and topic_matches(pattern, topic)
                for client, ev, topic in used
            ), f"unused grant {(grantee, pattern, permission)}"


def test_cross_refuses_a_publish_the_receiver_does_not_get():
    spec = flow_spec("relay-chain-3")
    path = _Path(spec, 0, np.random.default_rng(0))
    topic = DATA_TOPIC.format(sensor="s0")
    path.link(["s0"], [topic], "vnode", DATA_FILTER)
    raw = path.envelope(topic, "s0", Scheme.RAW, 1)
    with pytest.raises(RuntimeError) as excinfo:
        path.cross("consumer", [("s0", [raw])])
    assert str(excinfo.value) == f"wiring error: no delivery to 'consumer' on {topic!r}"
