"""Cold start: no subcommand loads scipy, not even the adversarial-density
integrals, and the oracle on atom models loads no numpy."""

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
cfg = tmp / "atoms.json"
cfg.write_text(json.dumps([
    {"distribution": d, "law": law, "schedule": {"kind": kind}, "mode": "analyze"}
    for d in atoms
    for law in ("deterministic", "geometric")
    for kind in ("fixed", "two_threshold", "specific_E", "universal")
]))
assert cli.main(["analyze", "--config", str(cfg), "--out", str(tmp / "a.csv")]) == 0
for i, args in enumerate([
    ["--family", "two_point", "--e-start", "5", "--e-stop", "30",
     "--schedules", "fixed,two_threshold,universal"],
    ["--family", "fixed_t_counterexample", "--t", "2E", "--e-start", "5", "--e-stop", "20",
     "--schedules", "single_threshold:2E,universal"],
]):
    assert cli.main(["sweep", *args, "--out", str(tmp / f"sweep{i}.csv")]) == 0
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    cli.main(["--help"])
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("numpy"))
"""


def test_oracle_on_atom_models_does_not_load_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_NUMPY, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "a.csv").read_text().splitlines()
    assert len(rows) == 1 + 5 * 2 * 4
    assert all("FAIL" not in row for row in rows)
    assert len((tmp_path / "sweep0.csv").read_text().splitlines()) == 1 + 26 * 3
    assert len((tmp_path / "sweep1.csv").read_text().splitlines()) == 1 + 16 * 2


# The three values were scipy.integrate.quad's (epsrel 1e-11) before the
# package had its own Gauss-Kronrod rule; they must still agree to that
# tolerance.  The pins are the rule's own bits.
_SCIPY_VALUES = {
    (5.0, 20.0): (0.8300541274381894, 18.15406358034886),
    (10.0, 1e4): (0.6169216531154262, 7689.605366481731),
    (20.0, 1e9): (0.2143224030022824, 457647872.2503075),
}


@pytest.mark.parametrize(
    "E, b, expected",
    [
        (5.0, 20.0, (0.8300541274381895, 18.15406358034886)),
        (10.0, 1e4, (0.6169216531154263, 7689.605366481732)),
        (20.0, 1e9, (0.21432240300228245, 457647872.2503076)),
    ],
)
def test_adversarial_geometric_stats_are_bit_identical(E, b, expected):
    q, m, p = runtime_stats(RuntimeModel(adversarial_density(E), "geometric"), b)
    stats = (q, m)
    assert repr(stats) == repr(expected)
    assert p == 1.0 - q
    assert stats == pytest.approx(_SCIPY_VALUES[E, b], rel=1e-11, abs=0.0)
