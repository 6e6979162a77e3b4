"""The hot frozen records keep their dataclass behaviour: Envelope and
ShareBundle stay immutable, compare and hash by value, print and re-validate
through dataclasses.replace as generated dataclasses do, and refuse bad
fields with the same messages in the same order. AclTable.allow refuses a
bad grant with the same messages in the same order."""

import dataclasses
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from petfabric.ass import ShareBundle
from petfabric.fabric.broker import PUBLISH, SUBSCRIBE, AclTable, MalformedTopicError
from petfabric.fabric.envelope import Envelope, EnvelopeError, Scheme


class Text(str):
    pass


def envelope(**overrides):
    fields = dict(topic="cabin/t", sensor_id="s1", sequence=3, scheme=Scheme.LDP, value=-39,
                  epsilon=0.5, timestamp_us=1_000)
    fields.update(overrides)
    return Envelope(**fields)


def share_envelope(**overrides):
    return envelope(scheme=Scheme.ASS_SHARE, value=84, epsilon=None, share_index=2,
                    **overrides)


RECORDS = [
    (
        envelope,
        "Envelope(topic='cabin/t', sensor_id='s1', sequence=3, scheme=<Scheme.LDP: 1>,"
        " value=-39, share_index=None, epsilon=0.5, timestamp_us=1000)",
    ),
    (
        share_envelope,
        "Envelope(topic='cabin/t', sensor_id='s1', sequence=3, scheme=<Scheme.ASS_SHARE: 3>,"
        " value=84, share_index=2, epsilon=None, timestamp_us=1000)",
    ),
    (
        lambda: ShareBundle(sensor_id="s0", shares=(5, None, 100), modulus=101),
        "ShareBundle(sensor_id='s0', shares=(5, None, 100), modulus=101)",
    ),
]
RECORD_IDS = ["envelope", "share-envelope", "share-bundle"]


@pytest.mark.parametrize("make,text", RECORDS, ids=RECORD_IDS)
def test_records_are_frozen_value_objects(make, text):
    record, twin = make(), make()
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert repr(record) == text
    names = [f.name for f in dataclasses.fields(record)]
    assert list(vars(record)) == names
    assert type(record)(**vars(record)) == record
    assert replace(record) == record
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)


def test_records_differ_by_any_field():
    base = envelope()
    for change in [dict(topic="x"), dict(sequence=4), dict(value=-38), dict(epsilon=0.25),
                   dict(timestamp_us=1_001), dict(scheme=Scheme.GDP)]:
        other = replace(base, **change)
        assert other != base
    assert ShareBundle("s", (1, 2), 101) != ShareBundle("s", (1, 2), 103)


def test_envelope_defaults_and_scheme_tag_conversion():
    env = Envelope("t", "s1", 0, 0, 122)
    assert (env.share_index, env.epsilon, env.timestamp_us) == (None, None, 0)
    assert type(env.scheme) is Scheme and env.scheme is Scheme.RAW
    assert env == Envelope("t", "s1", 0, Scheme.RAW, 122)
    assert hash(env) == hash(Envelope("t", "s1", 0, Scheme.RAW, 122))


@pytest.mark.parametrize(
    "make,change,error,message",
    [
        (envelope, dict(sequence=-1), EnvelopeError, "sequence must be >= 0, got -1"),
        (share_envelope, dict(share_index=0), EnvelopeError, "share_index must be >= 1, got 0"),
        (
            lambda: ShareBundle("s", (1, 2), 101), dict(shares=()), ValueError,
            "a bundle needs at least one share",
        ),
        (
            lambda: ShareBundle("s", (1, 2), 101), dict(modulus=2), ValueError,
            "share 2 of 's' is 2, outside [0, 2)",
        ),
    ],
)
def test_replace_revalidates(make, change, error, message):
    with pytest.raises(error) as excinfo:
        replace(make(), **change)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


# every refusal the Envelope makes, word for word; the cases bad in two ways
# pin which check runs first
ENVELOPE_REFUSALS = [
    (dict(sensor_id=7), "sensor_id must be text, got 7"),
    (dict(sensor_id=7, sequence=-1), "sensor_id must be text, got 7"),
    (dict(sequence=-1), "sequence must be >= 0, got -1"),
    (dict(sequence=-1, timestamp_us=-1), "sequence must be >= 0, got -1"),
    (dict(timestamp_us=-1), "timestamp_us must be >= 0, got -1"),
    (dict(timestamp_us=-1, scheme=99), "timestamp_us must be >= 0, got -1"),
    (dict(scheme=99), "unknown scheme tag 99"),
    (dict(scheme="ldp"), "unknown scheme tag 'ldp'"),
    (dict(scheme=99, share_index=1), "unknown scheme tag 99"),
    (dict(scheme=Scheme.ASS_SHARE, epsilon=None), "ass-share envelope requires a share_index"),
    (
        dict(scheme=Scheme.ASS_SHARE, epsilon=None, share_index=0),
        "share_index must be >= 1, got 0",
    ),
    (
        dict(scheme=Scheme.ASS_SHARE, epsilon=None, share_index=0, value=-5),
        "share_index must be >= 1, got 0",
    ),
    (
        dict(scheme=Scheme.ASS_SHARE, share_index=1, value=-5),
        "share values are field elements, got -5",
    ),
    (
        dict(scheme=Scheme.ASS_SHARE, share_index=1, value=5),
        "epsilon is only valid for ldp/gdp/krr, not ASS_SHARE",
    ),
    (dict(scheme=Scheme.RAW, share_index=1), "share_index is only valid for ass-share, not RAW"),
    (dict(scheme=Scheme.RAW, epsilon=None, share_index=1),
     "share_index is only valid for ass-share, not RAW"),
    (dict(scheme=Scheme.RAW), "epsilon is only valid for ldp/gdp/krr, not RAW"),
    (dict(epsilon=None), "LDP envelope requires epsilon"),
    (dict(scheme=Scheme.GDP, epsilon=None), "GDP envelope requires epsilon"),
    (dict(scheme=Scheme.KRR, epsilon=None), "KRR envelope requires epsilon"),
    (dict(epsilon=0.0), "epsilon must be positive, got 0.0"),
    (dict(epsilon=-1.5), "epsilon must be positive, got -1.5"),
    (dict(epsilon=float("nan")), "epsilon must be positive, got nan"),
    # the wire carries only plain ints, so these are refused here, not by cbor_decode
    (dict(sequence=1.5), "sequence must be an integer, got 1.5"),
    (dict(timestamp_us=2.0), "timestamp_us must be an integer, got 2.0"),
    (dict(value=4.0), "value must be an integer, got 4.0"),
    (dict(value=True), "value must be an integer, got True"),
    (dict(value=np.int64(4)), f"value must be an integer, got {np.int64(4)!r}"),
    (
        dict(scheme=Scheme.ASS_SHARE, epsilon=None, share_index=2.0),
        "share_index must be an integer, got 2.0",
    ),
    # only a plain int is a scheme tag
    (dict(scheme=1.0), "unknown scheme tag 1.0"),
    (dict(scheme=True), "unknown scheme tag True"),
    (dict(scheme=np.int64(1)), f"unknown scheme tag {np.int64(1)!r}"),
    # only a plain str is a sensor id, as the wire encodes exact types only
    (dict(sensor_id=Text("s1")), "sensor_id must be text, got 's1'"),
]


@pytest.mark.parametrize("change,message", ENVELOPE_REFUSALS)
def test_envelope_refusals_keep_their_messages(change, message):
    with pytest.raises(EnvelopeError) as excinfo:
        envelope(**change)
    assert str(excinfo.value) == message


def test_acl_entry_checks_permission_before_pattern():
    with pytest.raises(ValueError) as excinfo:
        AclTable().allow("c", "a/#/b", "read")
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == "permission must be publish or subscribe, got 'read'"
    with pytest.raises(MalformedTopicError, match="wildcard must occupy a whole level"):
        AclTable().allow("c", "a/b+", PUBLISH)


@pytest.mark.parametrize(
    "pattern,permission,error,message",
    [
        ("a/#/b", "read", ValueError, "permission must be publish or subscribe, got 'read'"),
        ("a/b", "read", ValueError, "permission must be publish or subscribe, got 'read'"),
        ("a/b+", PUBLISH, MalformedTopicError, "wildcard must occupy a whole level in 'a/b+'"),
        ("#/a", SUBSCRIBE, MalformedTopicError, "'#' must be the last level in '#/a'"),
        ("", PUBLISH, MalformedTopicError, "filter must not be empty"),
    ],
    ids=["a/#/b-read", "a/b-read", "a/b+-publish", "#/a-subscribe", "-publish"],
)
def test_acl_allow_refuses_what_acl_entry_refuses(pattern, permission, error, message):
    acl = AclTable()
    with pytest.raises((ValueError, MalformedTopicError)) as allow_error:
        acl.allow("c", pattern, permission)
    assert type(allow_error.value) is error
    assert str(allow_error.value) == message
    # nothing was filed
    assert not acl.permits_publish("c", "a/b")
    assert not acl.permits_subscribe_filter("c", "a/b")
