"""Start-up cost: the CLI imports scipy.stats and the process pool only
where they are used, so subcommands that never reach a chi-square or KS test
or a worker pool do not pay for them.

Each case runs in a fresh interpreter, because this test session has long
since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

#: validate-config --kind for every shipped config that is not a scenario
KINDS = {
    "adversary-grid.json": "adversary",
    "ass-demo.json": "ass-demo",
    "bench-suite.json": "bench",
    "sweep-epsilon.json": "sweep",
}

HEAVY = ("scipy.stats", "concurrent.futures.process", "multiprocessing")

BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'


def run_python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_validate_config_imports_no_stats_and_no_pool():
    configs = sorted(CONFIGS.glob("*.json"))
    assert configs
    code = (
        "import sys\n"
        "from petfabric import cli\n"
        "for kind, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    assert cli.main(['validate-config', '--kind', kind, '--config', path]) == 0, path\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    args = [a for p in configs for a in (KINDS.get(p.name, "scenario"), str(p))]
    proc = run_python(code, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "subcommand,config,shrink",
    [
        ("run-scenario", "baseline.json", {"repetitions": 5}),
        ("bench-suite", "bench-suite.json", {"repetitions": 3}),
        ("sweep-epsilon", "sweep-epsilon.json", {"n": 50, "eps_grid": [0.5, 1.0], "reps": 100}),
        ("adversary-sim", "adversary-grid.json", {"eps_grid": [1.0], "trials": 1000}),
        ("ass-demo", "ass-demo.json", {"n": 20, "repetitions": 2}),
    ],
)
def test_subcommand_runs_without_scipy(tmp_path, subcommand, config, shrink):
    raw = json.loads((CONFIGS / config).read_text())
    assert set(shrink) <= set(raw)
    path = tmp_path / config
    path.write_text(json.dumps({**raw, **shrink}))
    code = BLOCK_SCIPY + (
        "from petfabric import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    proc = run_python(code, subcommand, "--config", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] and manifest["workers"] == 1
