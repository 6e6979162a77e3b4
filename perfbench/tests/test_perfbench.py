"""The benchmark's own tests, at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses

import pytest

import run
import tracing
import workloads
from tracing import Span


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_completes_without_failures(workload, tmp_path):
    result = run.run_workload(
        workload, seed=3, seconds=0, trace=True, tiny=True, setup_runs=1, out_root=tmp_path
    )
    assert result["failures"] == []
    assert result["coverage_errors"] == []
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["per_layer"]["trace.overhead_ratio"][0] > -1.0


def test_two_runs_give_identical_digests(tmp_path):
    reports = workloads.build("fan-in", 7, tmp_path, tiny=True)
    first = run.run_iteration(reports, None)
    second = run.run_iteration(reports, None)
    assert first.failures == [] and second.failures == []
    assert first.digests == second.digests
    assert set(first.digests) == {r.name for r in reports}


def test_flipped_output_byte_counts_as_one_failure(tmp_path):
    reports = workloads.build("placement-suite", 0, tmp_path, tiny=True)
    reference = run.run_iteration(reports, None).digests
    victim = reports[2]

    def invoke_then_corrupt():
        victim.invoke()
        csv = next(victim.out_dir.glob("*.csv"))
        data = bytearray(csv.read_bytes())
        data[-2] ^= 0x01
        csv.write_bytes(bytes(data))

    corrupted = list(reports)
    corrupted[2] = dataclasses.replace(victim, invoke=invoke_then_corrupt)
    it = run.run_iteration(corrupted, reference)
    assert len(it.failures) == 1
    assert it.failures[0].startswith(victim.name)


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        Span("cli.main", 0, 100, -1, -1),
        Span("scenarios.runner.rep", 10, 40, 0, 0),
        Span("fabric.broker.publish", 20, 30, 1, 0),
        Span("scenarios.runner.rep", 50, 90, 0, 1),
        # two children whose intervals overlap cover their union only
        Span("fabric.cbor.encode", 55, 70, 3, 1),
        Span("fabric.cbor.encode", 65, 80, 3, 1),
    ]
    assert tracing.self_times(spans) == [30, 20, 10, 15, 15, 15]


def test_tracer_restores_every_wrapped_name():
    from petfabric import cli
    from petfabric.fabric import Broker

    main, publish = cli.main, Broker.publish
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main is not main and Broker.publish is not publish
    assert cli.main is main and Broker.publish is publish


def test_import_breakdown_attributes_modules_to_their_importer():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     pickle",
            "import time:       200 |        300 |   numpy.core",
            "import time:        50 |        350 | numpy",
            "import time:        30 |         30 |   argparse",
            "import time:       400 |        400 |   scipy.stats",
            "import time:        20 |        450 | petfabric",
            "import time:         5 |          5 | json",
        ]
    )
    assert tracing.import_breakdown(log) == {"numpy": 350e-6, "scipy": 400e-6, "petfabric": 50e-6}
