"""Byte pins for every shipped config: the epsilon sweep (ldp and gdp), the
distinguisher grid, the share round trips with and without a dropped share,
the six-placement bench suite and the five scenario configs. The dropped
share is pinned at m = 2, 4 and 5 too: its victim draw follows the splits,
so it fixes the stream position on both sides of `ass.split`'s draw cut-off.
The distinguisher grid is pinned at 20,000 trials too, under both models, so
a noise kernel that works through its arrays in blocks of a few thousand draws
is pinned past its first block boundaries; 500 trials fit in one block. The
sweep (ldp and gdp) and the share round trips are pinned at their shipped
sizes too, with the seed-0 digests of `perfbench/golden.json`.

Each case runs a shipped config, shrunk to the sizes `perfbench/workloads.py`
calls TINY, at the config's own seed, and pins the sha256 of every CSV the
run lists in its manifest. A change to the dp, ass, codec, runner or config
layers that claims to keep the bytes must leave every digest here as it is.
"""

import hashlib
import json
from pathlib import Path

import pytest

from petfabric.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: case -> (subcommand, shipped config, overrides, {csv: sha256})
PINS = {
    "sweep-epsilon-ldp": (
        "sweep-epsilon", "sweep-epsilon.json", {"n": 20, "reps": 100, "model": "ldp"},
        {
            "ground_truth.csv": "2fc477bcd75c54007b84b327ff3a18fcbfb8a164cb041c20ca684ee642701386",
            "utility_ldp.csv": "a48d627fa8f11fd27789c7625f7f1b5b2186563bb92d136bb4596305e51958e2",
        },
    ),
    "sweep-epsilon-gdp": (
        "sweep-epsilon", "sweep-epsilon.json", {"n": 20, "reps": 100, "model": "gdp"},
        {
            "ground_truth.csv": "2fc477bcd75c54007b84b327ff3a18fcbfb8a164cb041c20ca684ee642701386",
            "utility_gdp.csv": "97b96bcae0418323de7d425be29bffa966514a112ada81e3832c4b8105c4df0c",
        },
    ),
    "adversary-sim": (
        "adversary-sim", "adversary-grid.json", {"trials": 500},
        {
            "adversary_guess_rates.csv": "0b6d3ec1585a987042c56f60d8999d5648666d8678b0118ebb83c0e696ac0233",
        },
    ),
    "adversary-sim-gdp-three-blocks": (
        "adversary-sim", "adversary-grid.json", {"trials": 20000, "model": "gdp"},
        {
            "adversary_guess_rates.csv": "96ec5dba601027765a532e491158297407c421667db86c0cb3b3f8109b7f55a6",
        },
    ),
    "adversary-sim-ldp-three-blocks": (
        "adversary-sim", "adversary-grid.json", {"trials": 20000, "model": "ldp"},
        {
            "adversary_guess_rates.csv": "b579b508bfc9e27641144f482c320df7c91b46e3b303c7ea7052e712c9f72213",
        },
    ),
    "ass-demo": (
        "ass-demo", "ass-demo.json", {"n": 10, "repetitions": 3},
        {
            "ass_demo.csv": "192db9e77b945c52ec2c570e2bffa6a357136dab2bf04eed156ff066bbd0ce6f",
        },
    ),
    "ass-demo-drop-one-share": (
        "ass-demo", "ass-demo.json", {"n": 10, "repetitions": 3, "drop_one_share": True},
        {
            "ass_demo.csv": "87d8c050c6fd5435410361c91bee3c59a77d045c41bfdd46048d0a9fc8f9a0a6",
        },
    ),
    "bench-suite": (
        "bench-suite", "bench-suite.json", {"repetitions": 3},
        {
            "bench_suite.csv": "31f68f1488de863a6d70b5df9090336feb1b9842cc364bd016676e5b072eb00a",
        },
    ),
    "run-scenario-ass-on-device": (
        "run-scenario", "ass-on-device.json", {"repetitions": 3},
        {
            "ass-on-device_records.csv": "f89fab5e1d3fae619ea0704d0b4bfca5ee1c42ae35d4a70bfb0540c37b0e72cc",
        },
    ),
    "run-scenario-baseline": (
        "run-scenario", "baseline.json", {"repetitions": 3},
        {
            "baseline-on-device_records.csv": "a24e37c559d3f3431ea52a161d2415fd8981d2295508ee62cd5836be95fe2d35",
        },
    ),
    "run-scenario-gdp-virtualized": (
        "run-scenario", "gdp-virtualized.json", {"repetitions": 3},
        {
            "gdp-virtualized_records.csv": "adf927ba396c2f48997c0fbc3686b82399e722d38f08d2e75a37e345c6813c87",
        },
    ),
    "run-scenario-ldp-on-device": (
        "run-scenario", "ldp-on-device.json", {"repetitions": 3},
        {
            "ldp-on-device_records.csv": "b202a98d9516c34bf9390f63ae5c6891cc8f022fee0be38f8fdd7f05fa8a404e",
        },
    ),
    "run-scenario-relay-chain": (
        "run-scenario", "relay-chain.json", {"repetitions": 3},
        {
            "relay-chain-5_records.csv": "340d150724ea520e0ef6f3fe874f619726c10b8449e46b145f999156e502c5c5",
        },
    ),
    "ass-demo-drop-one-share-m2": (
        "ass-demo", "ass-demo.json",
        {"n": 10, "repetitions": 3, "drop_one_share": True, "m": 2},
        {
            "ass_demo.csv": "cd9af4983c6a5b5495ff0990f3896243fb254620fbc6f72519d0ba3a195d61d9",
        },
    ),
    "ass-demo-drop-one-share-m4": (
        "ass-demo", "ass-demo.json",
        {"n": 10, "repetitions": 3, "drop_one_share": True, "m": 4},
        {
            "ass_demo.csv": "f749feb374f10d02f8e014ea9998fbef8a1f73594145f98d756f8e155d4631ef",
        },
    ),
    "ass-demo-drop-one-share-m5": (
        "ass-demo", "ass-demo.json",
        {"n": 10, "repetitions": 3, "drop_one_share": True, "m": 5},
        {
            "ass_demo.csv": "c3c79284ad64dc6a48e3e90eb599e6c639967ab195b71504ed0ea690436caf4e",
        },
    ),
    "sweep-epsilon-ldp-shipped-size": (
        "sweep-epsilon", "sweep-epsilon.json", {"n": 500, "reps": 1000, "model": "ldp"},
        {
            "ground_truth.csv": "f0d6b8b125ed67f38b27f551160f52ddeabd3b014dd1a005a1d90bee960f1522",
            "utility_ldp.csv": "98e0f60b378e8d649a7582aebebb962485ff3db88c15f5727ea9c8d782ae88d4",
        },
    ),
    "sweep-epsilon-gdp-shipped-size": (
        "sweep-epsilon", "sweep-epsilon.json", {"n": 500, "reps": 1000, "model": "gdp"},
        {
            "ground_truth.csv": "f0d6b8b125ed67f38b27f551160f52ddeabd3b014dd1a005a1d90bee960f1522",
            "utility_gdp.csv": "6a1c96400d571de4256a48d364850e18f197962ff3204268036945e14ca3c243",
        },
    ),
    "ass-demo-shipped-size": (
        "ass-demo", "ass-demo.json", {"n": 500, "repetitions": 100},
        {
            "ass_demo.csv": "19b2fd242572d2d76e8a656eddcfa37ae0f5ab7c421b7868bc304f27c04d7700",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_csv_bytes_are_pinned(tmp_path, case):
    subcommand, config, overrides, pins = PINS[case]
    raw = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
    path = tmp_path / config
    path.write_text(json.dumps({**raw, **overrides}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in outputs}
    assert digests == pins
