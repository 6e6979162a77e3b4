"""Report bytes do not depend on which SIMD kernel numpy dispatches to.

numpy picks a kernel per ufunc from the host's CPU features. Its AVX-512
(`X86_V4`) float64 `log1p` differs from libm's in the last bit for a few
percent of inputs, so an unrounded Laplace draw taken through the array path
would make a report host-specific. This test runs the byte pins of
`test_batch_pins.py` again in a child interpreter with that kernel switched
off; the setting is read by the child's own numpy import and changes nothing
else. Where numpy has no `X86_V4` kernel for `log1p`, the pins already run on
the fallback kernel and the test is skipped.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DISABLED = "X86_V4,AVX512_ICL,AVX512_SPR"

#: the child checks that the kernel is off before it runs the pins
CHILD = """
import sys
import pytest
from numpy.lib.introspect import opt_func_info
(targets,) = opt_func_info(func_name="log1p$", signature="float64")["log1p"].values()
if targets["current"] == "X86_V4":
    sys.exit("NPY_DISABLE_CPU_FEATURES left float64 log1p on X86_V4")
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[1]]))
"""


def log1p_kernel() -> str:
    """The kernel this process dispatches float64 log1p to."""
    introspect = pytest.importorskip("numpy.lib.introspect", reason="numpy < 2.0 has no opt_func_info")
    (targets,) = introspect.opt_func_info(func_name="log1p$", signature="float64")["log1p"].values()
    return targets["current"]


def test_batch_pins_hold_without_the_avx512_log1p_kernel():
    if log1p_kernel() != "X86_V4":
        pytest.skip("numpy dispatches float64 log1p to no X86_V4 kernel on this host")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(TESTS / "test_batch_pins.py")],
        env=env, cwd=TESTS.parent, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-4000:]
