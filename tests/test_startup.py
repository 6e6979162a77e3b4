"""Start-up cost: the CLI imports numpy, scipy.stats, the process pool and
the adversary module only where they are used, so subcommands that never
reach a chi-square test, a worker pool or a distinguisher do not pay for
them, and validate-config, --help, --version and config errors never load
numpy. The load test's KS test is computed in
house, so it never imports scipy.stats at all. No run loads numpy.ma (the
medians avoid np.median, whose NaN check imports it) or logging (-v prints
its lines itself).

Each case runs in a fresh interpreter, because this test session has long
since imported everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
FAN_IN_LDP = ROOT / "perfbench" / "configs" / "fan-in-ldp.json"

#: validate-config --kind for every shipped config that is not a scenario
KINDS = {
    "adversary-grid.json": "adversary",
    "ass-demo.json": "ass-demo",
    "bench-suite.json": "bench",
    "sweep-epsilon.json": "sweep",
}

HEAVY = ("scipy.stats", "concurrent.futures.process", "multiprocessing")

#: loaded only by the subcommands that run them
RUNNERS_ONLY = ("petfabric.adversary",)

BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'

#: never loaded by a run, unless the interpreter had them before petfabric
UNUSED = ("numpy.ma", "logging")

#: (subcommand, shipped config, keys that shrink it to a quick run)
SHRUNK_RUNS = [
    ("run-scenario", "baseline.json", {"repetitions": 5}),
    ("bench-suite", "bench-suite.json", {"repetitions": 3}),
    ("sweep-epsilon", "sweep-epsilon.json", {"n": 50, "eps_grid": [0.5, 1.0], "reps": 100}),
    ("adversary-sim", "adversary-grid.json", {"eps_grid": [1.0], "trials": 1000}),
    ("ass-demo", "ass-demo.json", {"n": 20, "repetitions": 2}),
]


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
        f"print(sorted(m for m in {HEAVY + RUNNERS_ONLY!r} if m in sys.modules))\n"
    )
    args = [a for p in configs for a in (KINDS.get(p.name, "scenario"), str(p))]
    proc = run_python(code, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("subcommand,config,shrink", SHRUNK_RUNS)
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


def test_load_test_runs_without_scipy():
    # at this seed the two runs differ, so the KS test itself runs
    raw = json.loads(FAN_IN_LDP.read_text())
    code = BLOCK_SCIPY + (
        "import json\n"
        "from petfabric.scenarios.config import scenario_from_dict\n"
        "from petfabric.scenarios.experiments import load_test\n"
        "spec = scenario_from_dict(json.loads(sys.argv[1]))\n"
        "comparison = load_test(spec)\n"
        "assert comparison.loaded.n == 2 and comparison.ks_statistic > 0, comparison\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    proc = run_python(code, json.dumps({**raw, "repetitions": 2}))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def newly_loaded_unused_modules(run_code, *args) -> list[str]:
    """The UNUSED modules that `run_code` loaded in a fresh interpreter."""
    code = (
        "import sys\n"
        "preloaded = set(sys.modules)\n"
        + run_code
        + f"print(sorted(m for m in {UNUSED!r} if m in sys.modules and m not in preloaded))\n"
    )
    proc = run_python(code, *args)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("subcommand,config,shrink", SHRUNK_RUNS)
def test_no_run_loads_numpy_ma_or_logging(tmp_path, subcommand, config, shrink):
    path = tmp_path / config
    path.write_text(json.dumps({**json.loads((CONFIGS / config).read_text()), **shrink}))
    run = "from petfabric import cli\nassert cli.main(sys.argv[1:]) == 0\n"
    args = (subcommand, "--config", str(path), "--out", str(tmp_path / "out"))
    assert newly_loaded_unused_modules(run, *args) == []
    assert (tmp_path / "out" / "manifest.json").exists()


def test_load_test_loads_neither_numpy_ma_nor_logging():
    raw = json.loads(FAN_IN_LDP.read_text())
    run = (
        "import json\n"
        "from petfabric.scenarios.config import scenario_from_dict\n"
        "from petfabric.scenarios.experiments import load_test\n"
        "assert load_test(scenario_from_dict(json.loads(sys.argv[1]))).loaded.n == 2\n"
    )
    assert newly_loaded_unused_modules(run, json.dumps({**raw, "repetitions": 2})) == []


def test_validate_help_version_and_config_errors_never_load_numpy(tmp_path):
    configs = sorted(CONFIGS.glob("*.json")) + sorted(FAN_IN_LDP.parent.glob("fan-in-*.json"))
    assert len(configs) > 9
    bad = tmp_path / "bad.json"
    baseline = json.loads((CONFIGS / "baseline.json").read_text())
    bad.write_text(json.dumps({**baseline, "repetitions": 0}))
    code = (
        "import contextlib, io, sys\n"
        "from petfabric import cli\n"
        "for kind, path in zip(sys.argv[2::2], sys.argv[3::2]):\n"
        "    assert cli.main(['validate-config', '--kind', kind, '--config', path]) == 0, path\n"
        "for flag in ('--help', '--version'):\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            cli.main([flag])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, flag\n"
        f"assert cli.main(['run-scenario', '--config', sys.argv[1], '--out', {str(tmp_path)!r}]) == 2\n"
        "print('numpy' in sys.modules)\n"
    )
    args = [a for p in configs for a in (KINDS.get(p.name, "scenario"), str(p))]
    proc = run_python(code, str(bad), *args)
    assert proc.returncode == 0, proc.stderr
    assert "repetitions: " in proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def module_level_numpy_imports(tree) -> tuple[int, list[int]]:
    """(count of numpy imports, lines of those that run at import time):
    everything outside a function body or an `if TYPE_CHECKING:` block."""
    deferred = set()
    for node in ast.walk(tree):
        lazy = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
            isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        )
        if lazy:
            deferred.update(id(inner) for stmt in node.body for inner in ast.walk(stmt))
    imports = [node for node in ast.walk(tree) if _imports_numpy(node)]
    return len(imports), sorted(n.lineno for n in imports if id(n) not in deferred)


def test_the_numpy_guard_sees_each_kind_of_import():
    source = (
        "import numpy as np\n"  # 1: eager
        "if TYPE_CHECKING:\n    import numpy\nelse:\n    from numpy import random\n"  # 5: eager
        "class A:\n    import numpy.linalg\n"  # 7: eager
        "def f(x=None):\n    import numpy as np\n"
    )
    assert module_level_numpy_imports(ast.parse(source)) == (5, [1, 5, 7])


def test_numpy_is_never_imported_at_module_level():
    src = ROOT / "src" / "petfabric"
    total, eager = 0, []
    for path in sorted(src.rglob("*.py")):
        count, lines = module_level_numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
        total += count
        eager += [f"{path.relative_to(src).as_posix()}:{line}" for line in lines]
    assert eager == []
    assert total > 0  # the walk sees the deferred imports


def test_import_petfabric_loads_no_submodule_and_the_packages_export_only_kept_names():
    # the names perfbench reads through the packages; all else is imported
    # from the module that defines it
    kept = {"petfabric.fabric": ["Broker"], "petfabric.scenarios": ["load_scenario", "load_test"]}
    code = (
        "import json, pkgutil, sys\n"
        "import petfabric\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('petfabric.'))\n"
        "import petfabric.fabric, petfabric.scenarios\n"
        "names = {p.__name__: [sorted(n for n in vars(p) if not n.startswith('_')),\n"
        "                      [m.name for m in pkgutil.iter_modules(p.__path__)]]\n"
        "         for p in (petfabric.fabric, petfabric.scenarios)}\n"
        "print(json.dumps([loaded, names]))\n"
    )
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    loaded, names = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
    for package, (public, submodules) in names.items():
        assert public == sorted(submodules + kept[package]), package
