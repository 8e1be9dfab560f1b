"""tools/bench_cold_start.py's `modules` extra: it counts the package
modules a command loads, also those `importlib.import_module` loads."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def test_the_module_count_sees_a_module_loaded_on_first_access():
    sys.path.insert(0, TOOLS)
    try:
        import bench_cold_start
    finally:
        sys.path.remove(TOOLS)
    args = ("-c", "from rmt_autocorr import UnitaryQuery")
    imported, package = bench_cold_start._loaded(ROOT, args)
    # the package's exports resolve by importlib.import_module, which
    # -X importtime does not list
    assert "rmt_autocorr.unitary" in package and "rmt_autocorr.unitary" not in imported
    assert bench_cold_start._imports(ROOT, args) == [0, 0, len(package)]
