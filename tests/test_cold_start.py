"""Cold start: scipy is loaded only when an adversarial-density integral runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from vegas_restart.distx import RuntimeModel, adversarial_density, runtime_stats

SRC = Path(__file__).resolve().parent.parent / "src"

_DEMO_WITHOUT_SCIPY = """
import sys
import vegas_restart
from vegas_restart import cli
assert cli.main(["demo", "--trials", "200", "--seed", "1"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def test_import_and_demo_do_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _DEMO_WITHOUT_SCIPY], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 2


@pytest.mark.parametrize(
    "E, b, expected",
    [
        (5.0, 20.0, (0.8300541274381894, 18.15406358034886)),
        (10.0, 1e4, (0.6169216531154262, 7689.605366481731)),
        (20.0, 1e9, (0.2143224030022824, 457647872.2503075)),
    ],
)
def test_adversarial_geometric_stats_are_bit_identical(E, b, expected):
    assert runtime_stats(RuntimeModel(adversarial_density(E), "geometric"), b) == expected
