"""The runnable scripts, run as a user runs them: a fresh interpreter with
``src`` on the path."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_equivalences_runs_the_lsi_suite():
    result = run_script("run_equivalences.py", "--suites", "lsi")
    assert result.returncode == 0, result.stderr
    assert "suite lsi: PASS" in result.stdout


def test_tabulate_constants_prints_a_table():
    result = run_script("tabulate_constants.py", "--alphas", "1")
    assert result.returncode == 0, result.stderr
    assert "gamma(1) = 1.000000000000 (equals alpha)" in result.stdout
