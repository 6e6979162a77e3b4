"""Byte pins for the batch experiments: the epsilon sweep (ldp and gdp), the
distinguisher grid and the share round trips, with and without a dropped
share.

Each case runs a shipped config, shrunk to the sizes `perfbench/workloads.py`
calls TINY, at the config's own seed, and pins the sha256 of every CSV the
run lists in its manifest. A change to the dp, ass or codec layers that
claims to keep the bytes must leave every digest here as it is.
"""

import hashlib
import json
from pathlib import Path

import pytest

from petfabric.cli import SEED_ENV_VAR, main

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
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_csv_bytes_are_pinned(tmp_path, monkeypatch, case):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    subcommand, config, overrides, pins = PINS[case]
    raw = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
    path = tmp_path / config
    path.write_text(json.dumps({**raw, **overrides}), encoding="utf-8")
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in outputs}
    assert digests == pins
