"""Every scenario flow, pinned under Gaussian jitter, with and without filler.

The digests cover each repetition's record, result, truth, encoded result,
encoded truth, injected drop and missing shares, so a change to any flow's
random draw order, hop structure or payload handling shows up here. A
second check holds every flow to least privilege: no ACL grant goes unused.
"""

import hashlib

import pytest

from petfabric.codec import derive_params
from petfabric.fabric import PUBLISH, Broker, LatencyModel, topic_matches
from petfabric.scenarios import (
    PetConfig,
    ScenarioSpec,
    SensorConfig,
    Topology,
    run_scenario_outcomes,
)

ON_DEVICE = Topology("on-device")
VIRTUALIZED = Topology("virtualized")

#: name -> (topology, pet, sensors)
FLOWS = {
    "on-device-none": (ON_DEVICE, PetConfig("none"), 3),
    "on-device-ldp": (ON_DEVICE, PetConfig("ldp", epsilon=0.5), 3),
    "on-device-krr": (ON_DEVICE, PetConfig("krr", epsilon=2.0), 3),
    "on-device-gdp-sum": (ON_DEVICE, PetConfig("gdp", epsilon=1.0, aggregator="sum"), 3),
    "on-device-gdp-mean": (ON_DEVICE, PetConfig("gdp", epsilon=1.0, aggregator="mean"), 3),
    "on-device-ass": (ON_DEVICE, PetConfig("ass", m=3), 3),
    "on-device-ass-parallel": (ON_DEVICE, PetConfig("ass", m=3, parallel_shares=True), 3),
    "on-device-ass-drop": (ON_DEVICE, PetConfig("ass", m=3, drop_one_share=True), 3),
    "virtualized-none": (VIRTUALIZED, PetConfig("none"), 1),
    "virtualized-gdp-sum": (VIRTUALIZED, PetConfig("gdp", epsilon=1.0, aggregator="sum"), 3),
    "virtualized-gdp-mean": (VIRTUALIZED, PetConfig("gdp", epsilon=1.0, aggregator="mean"), 3),
    "virtualized-ass": (VIRTUALIZED, PetConfig("ass", m=3), 1),
    "virtualized-ass-parallel": (VIRTUALIZED, PetConfig("ass", m=3, parallel_shares=True), 1),
    "virtualized-ass-drop": (VIRTUALIZED, PetConfig("ass", m=3, drop_one_share=True), 1),
    "relay-chain-3": (Topology("relay-chain", depth=3), PetConfig("none"), 1),
}

FILLER_RATES = (0.0, 200.0)

#: sha256 of every flow's outcomes, recorded before the runner was rebuilt
DIGESTS = {
    "on-device-ass": "0cfc6461e7848847806d535a044c67336f78ec628c73890ac56f56cadcadb845",
    "on-device-ass-drop": "e70055764a25a04fe5679cf0c585f7a3d85977e9be31abf8adb512a15bfe3dff",
    "on-device-ass-parallel": "86ce954a9963aead23b62aaa7ceaba533ce438d4dad79fbe3eecc3d7dd254a82",
    "on-device-gdp-mean": "86dd0cf131d5f4e000da79ea175eac77c9387e9ad70243bf3009afdc7b673338",
    "on-device-gdp-sum": "3217dcb1a1dc00f6099aa73aea6f63dfa67b682155fc12ca46dde2a1e1414e80",
    "on-device-krr": "bef74982f4109aeed714a224bc53aabcbe50354f74c6f9d5b1c6253b8b60cbad",
    "on-device-ldp": "d57b9fd6f64336247dcc8b5902ed14b5994e481a5f4027ac8d2507d8847b6efe",
    "on-device-none": "4b928ca1ed2b284481b9354523425e6ed1aaf1c1625ad1816dad683a65243375",
    "relay-chain-3": "285497535530c77c6f717d729c7e40a30cc7ade0b47c8c31f88bdca425a59a2c",
    "virtualized-ass": "1a882cf9368c56d1c8906829c450df73f2f1a929223dd9c0b8fde974c444b77a",
    "virtualized-ass-drop": "771a888d05e69869b0e520901705e39ef455327dadda6fa33ae5d46aa97e0197",
    "virtualized-ass-parallel": "19eb4f9df663a7d2c0130a8f0bef05106d91d422b3fcd3de720c8bfd7d644b4c",
    "virtualized-gdp-mean": "176034700e86483deda2ce19c3df5579cc352800067ef8130506dd76265ac6ae",
    "virtualized-gdp-sum": "c1b09809aa5837fb2e1e178f1ba77abbc8bd8c90c2f3a2617b2e0cd724e09c17",
    "virtualized-none": "867faf194e49f87a4f73b24ece0e5e13025f6b217357a107c8e2c988a5f531b3",
}


def flow_spec(name: str) -> ScenarioSpec:
    topology, pet, n = FLOWS[name]
    return ScenarioSpec(
        name=name,
        topology=topology,
        pet=pet,
        sensors=SensorConfig(count=n),
        encoding=derive_params(50, 120, 1),
        latency=LatencyModel(2.0, 0.5, "gaussian"),
        compute_ms=0.307,
        repetitions=4,
        seed=11,
    )


def flow_digest(spec: ScenarioSpec) -> str:
    h = hashlib.sha256()
    for rate in FILLER_RATES:
        for out in run_scenario_outcomes(spec, filler_rate=rate):
            missing = None if out.error is None else out.error.missing
            fields = (
                out.record,
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


@pytest.mark.parametrize("name", sorted(FLOWS))
@pytest.mark.parametrize("rate", FILLER_RATES)
def test_every_acl_grant_is_used(name, rate, monkeypatch):
    brokers = []
    init = Broker.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        brokers.append(self)

    monkeypatch.setattr(Broker, "__init__", capture)
    spec = flow_spec(name)
    run_scenario_outcomes(spec, filler_rate=rate)
    assert len(brokers) == spec.repetitions
    for broker in brokers:
        used = {
            (rec.client_id, rec.event, rec.topic)
            for rec in broker.audit_log
            if rec.event in ("publish", "subscribe")
        }
        for entry in broker.acl._entries:
            event = "publish" if entry.permission == PUBLISH else "subscribe"
            assert any(
                client == entry.client_id and ev == event and topic_matches(entry.pattern, topic)
                for client, ev, topic in used
            ), f"unused grant {entry}"
