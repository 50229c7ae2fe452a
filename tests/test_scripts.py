"""Smoke runs of the experiment scripts in ``scripts/``: each must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["verification_battery.py", "--count", "2", "--seed", "0"],
        ["soliton_profile.py", "--k", "1.5", "--t1=-6:6:7"],
    ],
    ids=["verification_battery", "soliton_profile"],
)
def test_script_runs(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
