"""Cold start: no subcommand loads scipy, and none loads numpy: the oracle
(analyze, sweep, verify) on any model, simulate, whose processes are all
samplers, and demo and Monte Carlo on the stepped processes all run with
numpy blocked.  Importing the package and running analyze and simulate on
the density under the geometric law loads none of dataclasses, inspect,
fractions and decimal either."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vegas_restart.distx import RuntimeModel, adversarial_density, runtime_stats

SRC = Path(__file__).resolve().parent.parent / "src"

_RUN_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
import vegas_restart
from vegas_restart import cli
tmp = Path(sys.argv[1])
cfg = tmp / "adv.json"
cfg.write_text(json.dumps({
    "distribution": {"kind": "adversarial_density", "E": 5},
    "law": "geometric",
    "schedule": {"kind": "two_threshold"},
    "trials": 200,
    "seed": 1,
}))
assert cli.main(["demo", "--trials", "200", "--seed", "1"]) == 0
assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp / "a.csv")]) == 0
assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp / "s.csv")]) == 0
assert cli.main(["verify", "--scope", "all", "--out", str(tmp / "v.csv")]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_import_and_demo_do_not_load_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 2
    assert "adversarial_density" in (tmp_path / "a.csv").read_text()
    assert "adversarial_density" in (tmp_path / "s.csv").read_text()


_RUN_WITHOUT_SLOW_IMPORTS = """
import json, sys
from pathlib import Path
before = set(sys.modules)
import vegas_restart
from vegas_restart import cli
tmp = Path(sys.argv[1])
cfg = tmp / "adv.json"
cfg.write_text(json.dumps({
    "distribution": {"kind": "adversarial_density", "E": 5},
    "law": "geometric",
    "schedule": {"kind": "two_threshold"},
    "trials": 200,
    "seed": 1,
}))
assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp / "a.csv")]) == 0
assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp / "s.csv")]) == 0
slow = {"dataclasses", "inspect", "fractions", "decimal"}
print(sorted(slow & (set(sys.modules) - before)))
"""


def test_import_analyze_and_simulate_load_no_slow_standard_modules(tmp_path):
    # A module a site hook loaded before the import is not counted.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SLOW_IMPORTS, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    for name in ("a.csv", "s.csv"):
        assert "adversarial_density" in (tmp_path / name).read_text()


_RUN_WITHOUT_NUMPY = """
import contextlib, io, json, sys
from pathlib import Path
import vegas_restart
from vegas_restart import cli
tmp = Path(sys.argv[1])
atoms = [
    {"kind": "two_point", "E": 8},
    {"kind": "fixed_t_counterexample", "E": 5, "t": 10},
    {"kind": "variance_counterexample", "E": 5, "V": 10},
    {"kind": "constant", "c": 5},
    {"kind": "discrete", "atoms": [[0.0, 0.25], [3.5, 0.5], [9.0, 0.25]]},
]
kinds = [{"kind": k} for k in ("fixed", "two_threshold", "specific_E", "universal")]
cfg = tmp / "models.json"
cfg.write_text(json.dumps([
    {"distribution": d, "law": law, "schedule": schedule, "mode": "analyze"}
    for d, schedules in [(d, kinds) for d in atoms]
    + [({"kind": "adversarial_density", "E": 5}, kinds + [{"kind": "luby", "unit": 1}])]
    for law in ("deterministic", "geometric")
    for schedule in schedules
]))
assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp / "a.csv")]) == 0
for i, args in enumerate([
    ["--family", "two_point", "--e-start", "5", "--e-stop", "30",
     "--schedules", "fixed,two_threshold,universal"],
    ["--family", "fixed_t_counterexample", "--t", "2E", "--e-start", "5", "--e-stop", "20",
     "--schedules", "single_threshold:2E,universal"],
    ["--family", "adversarial_density", "--e-start", "5", "--e-stop", "10",
     "--schedules", "fixed,two_threshold,universal,luby:4", "--law", "geometric"],
]):
    assert cli.main(["sweep", *args, "--out", str(tmp / f"sweep{i}.csv")]) == 0
assert cli.main(["verify", "--scope", "all", "--out", str(tmp / "v.csv")]) == 0
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    cli.main(["--help"])
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""


def test_oracle_on_atom_models_does_not_load_numpy(tmp_path):
    # Named for the atom models it first covered; it now runs the density
    # (both laws, Luby included), a geometric density sweep and verify too.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "a.csv").read_text().splitlines()
    assert len(rows) == 1 + 5 * 2 * 4 + 2 * 5
    assert sum("adversarial_density" in row for row in rows) == 2 * 5
    assert all("FAIL" not in row for row in rows)
    assert len((tmp_path / "sweep0.csv").read_text().splitlines()) == 1 + 26 * 3
    assert len((tmp_path / "sweep1.csv").read_text().splitlines()) == 1 + 16 * 2
    assert len((tmp_path / "sweep2.csv").read_text().splitlines()) == 1 + 6 * 4
    assert len((tmp_path / "v.csv").read_text().splitlines()) == 1 + 462


_SIMULATE_WITHOUT_NUMPY = """
import json, sys
from pathlib import Path
from vegas_restart import cli
tmp = Path(sys.argv[1])
kinds = [{"kind": k} for k in ("fixed", "two_threshold", "universal")] + [{"kind": "luby", "unit": 1}]
capped = {"caps": {"max_attempts": 3}, "cap_trip_threshold": 1.0}
cfg = tmp / "sim.json"
cfg.write_text(json.dumps([
    {"distribution": d, "law": law, "schedule": schedule, "mode": "simulate",
     "trials": 200, "seed": 7, **extra}
    for d, extra in [({"kind": "two_point", "E": 8}, capped),
                     ({"kind": "adversarial_density", "E": 5}, {})]
    for law in ("deterministic", "geometric")
    for schedule in kinds
]))
assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp / "s.csv")]) == 0
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""


def test_simulate_on_sampler_processes_does_not_load_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SIMULATE_WITHOUT_NUMPY, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader((tmp_path / "s.csv").open()))
    assert len(rows) == 2 * 2 * 4
    capped = [int(row["n_capped"]) for row in rows if row["family"] == "two_point"]
    assert len(capped) == 8 and sum(capped) > 0
    assert all(row["n_capped"] == "0" for row in rows if row["family"] != "two_point")


_EVERYTHING_WITH_NUMPY_BLOCKED = """
import json, math, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from pathlib import Path
from vegas_restart import cli, distx, engine, schedules
tmp = Path(sys.argv[1])
cfg = tmp / "cfg.json"
cfg.write_text(json.dumps([
    {"distribution": d, "law": law, "schedule": {"kind": k}, "trials": 200, "seed": 3}
    for d in ({"kind": "two_point", "E": 6}, {"kind": "adversarial_density", "E": 5})
    for law in ("deterministic", "geometric")
    for k in ("two_threshold", "universal")
]))
assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp / "a.csv")]) == 0
assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp / "s.csv")]) == 0
assert cli.main(["sweep", "--family", "two_point", "--e-start", "5", "--e-stop", "8",
                 "--schedules", "fixed,universal", "--out", str(tmp / "w.csv")]) == 0
assert cli.main(["verify", "--scope", "all", "--out", str(tmp / "v.csv")]) == 0
assert cli.main(["demo", "--trials", "300", "--seed", "4"]) == 0
for process, ex in ((engine.geometric_coin_process(distx.constant(5.0)), 5.0),
                    (engine.bitstring_guess_process(12), 12 * math.log(2.0))):
    est = engine.mc_expected_cost(process, schedules.fixed_schedule(ex), trials=50, seed=8)
    print(process.label, est.mean > 0.0)
"""


def test_every_subcommand_and_stepped_mc_run_with_numpy_blocked(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _EVERYTHING_WITH_NUMPY_BLOCKED, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("-> PASS") == 2
    assert "geometric_coin[constant(c=5)] True" in proc.stdout
    assert "bitstring_guess[k=12] True" in proc.stdout
    assert len((tmp_path / "a.csv").read_text().splitlines()) == 1 + 8
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 8
    assert len((tmp_path / "v.csv").read_text().splitlines()) == 1 + 462


# The three values were scipy.integrate.quad's (epsrel 1e-11), and the old
# pins a Gauss-Kronrod rule's (good to 1e-12); the closed form must still
# agree with both to those tolerances.  The pins are the closed form's bits,
# each within 2 ulps of 50-digit mpmath.
_SCIPY_VALUES = {
    (5.0, 20.0): (0.8300541274381894, 18.15406358034886),
    (10.0, 1e4): (0.6169216531154262, 7689.605366481731),
    (20.0, 1e9): (0.2143224030022824, 457647872.2503075),
}
_QUAD_PINS = {
    (5.0, 20.0): (0.8300541274381895, 18.15406358034886),
    (10.0, 1e4): (0.6169216531154263, 7689.605366481732),
    (20.0, 1e9): (0.21432240300228245, 457647872.2503076),
}


@pytest.mark.parametrize(
    "E, b, expected",
    [
        (5.0, 20.0, (0.8300541274381897, 18.154063580348865)),
        (10.0, 1e4, (0.6169216531154269, 7689.605366481736)),
        (20.0, 1e9, (0.214322403002283, 457647872.2503085)),
    ],
)
def test_adversarial_geometric_stats_are_bit_identical(E, b, expected):
    q, m, p = runtime_stats(RuntimeModel(adversarial_density(E), "geometric"), b)
    stats = (q, m)
    assert repr(stats) == repr(expected)
    assert abs(p + q - 1.0) <= 2 * 2.0**-52
    assert stats == pytest.approx(_SCIPY_VALUES[E, b], rel=1e-11, abs=0.0)
    assert stats == pytest.approx(_QUAD_PINS[E, b], rel=1e-12, abs=0.0)
