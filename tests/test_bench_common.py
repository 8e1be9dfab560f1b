"""tools/bench_common.py, the before/after harness of the BENCH tools,
driven through a fake tool whose rows each tree's `rounds.json` holds."""

import json
import math
import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")

FAKE_TOOL = '''\
import json
import os
import sys

from bench_common import main


def measure(root):
    """The next round of root/rounds.json, one a call."""
    with open(os.path.join(root, "calls")) as f:
        calls = int(f.read())
    with open(os.path.join(root, "calls"), "w") as f:
        f.write(str(calls + 1))
    with open(os.path.join(root, "rounds.json")) as f:
        return json.load(f)[calls]


if __name__ == "__main__":
    sys.exit(main(__file__, measure, "fake error", {"extra": "a fake extra"}))
'''


def _tool(tmp_path):
    tool = tmp_path / "bench_fake.py"
    tool.write_text(FAKE_TOOL)
    return str(tool)


def _tree(path, rounds):
    path.mkdir()
    (path / "calls").write_text("0")
    (path / "rounds.json").write_text(json.dumps(rounds))
    return str(path)


def _run(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": TOOLS})


@pytest.mark.parametrize("error,code", [(1e-12, 0), (1e-11, 1), (math.nan, 1)],
                         ids=["at-bound", "above", "nan"])
def test_measure_exits_1_when_a_row_breaks_its_bound(tmp_path, error, code):
    root = _tree(tmp_path / "tree", [{"kept": [1e-3, 0.0, 1e-12, 2.0],
                                      "probe": [1e-3, error, 1e-12, 2.0]}])
    done = _run(_tool(tmp_path), "--measure", root)
    assert done.returncode == code, done.stderr
    assert repr(json.loads(done.stdout)["probe"][1]) == repr(error)
    assert ("probe" in done.stderr) == bool(code)


@pytest.mark.parametrize("args", [(), ("--measure",)], ids=["none", "one"])
def test_a_wrong_argument_count_prints_the_usage_and_exits_2(tmp_path, args):
    done = _run(_tool(tmp_path), *args)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines() == ["usage: python3 tools/bench_fake.py --measure ROOT",
                                        "       python3 tools/bench_fake.py BEFORE_ROOT AFTER_ROOT"]


def test_a_b_run_folds_each_side_and_records_a_failing_before(tmp_path):
    # bench_common.ROUNDS = 5 rounds a side; before: row "a" breaks its bound
    # in every round, and "b" is NaN in one
    seconds = [5e-3, 2e-3, 4e-3, 3e-3, 6e-3]
    before_errors = [2e-11, 5e-11, 1e-11, 3e-11, 4e-11]
    after_errors = [0.0, 2e-13, 1e-13, 0.0, 0.0]
    before = [{"a": [s, e, 1e-12, 10 - i], "b": [s, math.nan if i == 2 else 0.0, 1e-12, 1]}
              for i, (s, e) in enumerate(zip(seconds, before_errors))]
    after = [{"a": [s / 4, e, 1e-12, i], "b": [s / 2, 0.0, 1e-12, 1]}
             for i, (s, e) in enumerate(zip(seconds, after_errors))]
    before_root = _tree(tmp_path / "before", before)
    after_root = _tree(tmp_path / "after", after)
    done = _run(_tool(tmp_path), before_root, after_root)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["command"] == "python3 tools/bench_fake.py BEFORE_ROOT AFTER_ROOT"
    assert report["accuracy"] == "fake error" and report["extra"] == "a fake extra"
    assert "speedup inside either side's spread is unresolved" in report["spread"]
    a, b = report["rows"]
    assert a == {"row": "a", "bound": 1e-12,
                 "before_ms": 2.0, "before_spread": 3.0, "before_err": 5e-11,
                 "before_extra": 10, "after_ms": 0.5, "after_spread": 3.0,
                 "after_err": 2e-13, "after_extra": 4, "speedup": 4.0}
    assert b["row"] == "b" and math.isnan(b["before_err"]) and b["after_err"] == 0.0
    assert (b["before_ms"], b["after_ms"], b["speedup"]) == (2.0, 1.0, 2.0)
    for root in (before_root, after_root):
        with open(os.path.join(root, "calls")) as f:
            assert int(f.read()) == len(seconds)


def test_a_b_run_stops_on_a_side_that_crashes(tmp_path):
    # a tree without rounds.json: the tool raises FileNotFoundError, which
    # exits 1 like a broken bound but prints no rows
    broken = tmp_path / "broken"
    broken.mkdir()
    after_root = _tree(tmp_path / "after", [{"a": [1e-3, 0.0, 1e-12]}])
    done = _run(_tool(tmp_path), str(broken), after_root)
    assert done.returncode != 0 and done.stdout == ""
    assert "FileNotFoundError" in done.stderr and "CalledProcessError" in done.stderr
    assert "JSONDecodeError" not in done.stderr
