"""The outcome gates of _outcomes.py on the first cases of each section."""

import copy
import json
import math
import subprocess
import sys

import pytest

import _outcomes


@pytest.fixture(scope="module")
def record():
    return _outcomes.record(3)


def test_a_record_round_trips_and_compares_clean(record, capsys):
    assert [len(section) for section in record.values()] == [3, 3, 3]
    assert json.loads(json.dumps(record)) == record
    assert _outcomes.compare(record, json.loads(json.dumps(record)))
    assert "differences: 0" in capsys.readouterr().out


@pytest.mark.parametrize("section, alter, passes, report", [
    ("mc", lambda r: r.replace("mean=", "mean=1"), False, "  repr: "),
    ("cli", lambda r: {**r, "stderr": r["stderr"] + "x"}, False, "  stderr: '' -> 'x'"),
    ("scan", lambda r: {**r, "cost": repr(2.0 * float(r["cost"]))}, False,
     "moved and not agreeing: 1"),
    # Moved bits whose enclosures agree pass, and the report gives the move.
    ("scan", lambda r: {**r, "cost": repr(math.nextafter(float(r["cost"]), math.inf))}, True,
     "largest move of expected_cost, universal: 1 ulp"),
])
def test_each_section_judges_an_altered_record(record, capsys, section, alter, passes, report):
    altered = copy.deepcopy(record)
    key = next(iter(altered[section]))
    altered[section][key] = alter(altered[section][key])
    assert altered[section][key] != record[section][key]
    assert _outcomes.compare(record, altered) is passes
    assert report in capsys.readouterr().out


def test_the_runner_takes_two_forms(capsys):
    assert _outcomes.main([]) == 2
    assert _outcomes.main(["--compare", "a.json"]) == 2
    assert "--compare A.json B.json" in capsys.readouterr().err


def test_compare_runs_without_the_package(record, tmp_path):
    # Comparing two records reads JSON alone, so it needs no PYTHONPATH.
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    script = (f"import runpy, sys; sys.modules['vegas_restart'] = None; "
              f"sys.argv = ['_outcomes.py', '--compare', {str(path)!r}, {str(path)!r}]; "
              f"runpy.run_path({_outcomes.__file__!r}, run_name='__main__')")
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("differences: 0") == 2
