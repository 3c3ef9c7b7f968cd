"""Smoke tests: every example script runs end to end.

Each example accepts a size argument (or is cheap); run them small and
assert on a signature line of their output so regressions in the public
API surface here.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "60000")
        assert "Active-mode performance" in out
        assert "refresh operations reduced 16x" in out

    def test_smartphone_day(self):
        out = run_example("smartphone_day.py")
        assert "MECC saves" in out
        assert "ECC-Upgrade at idle entry" in out

    def test_ecc_design_space(self):
        out = run_example("ecc_design_space.py")
        assert "ECC-6" in out
        assert "silent corruption rate 0.000" in out

    def test_idle_daemon_study(self):
        out = run_example("idle_daemon_study.py")
        assert "bluetooth-check" in out
        assert "1 s (slow)" in out

    def test_data_integrity_demo(self):
        out = run_example("data_integrity_demo.py", "4")
        assert "all data intact" in out
        assert "DATA LOST" in out  # the none-slow strawman

    def test_every_example_has_a_test(self):
        """New examples must be added to this smoke suite."""
        scripts = {p.name for p in EXAMPLES.glob("*.py")}
        covered = {
            "quickstart.py", "smartphone_day.py", "ecc_design_space.py",
            "idle_daemon_study.py", "data_integrity_demo.py",
        }
        assert scripts == covered, f"uncovered examples: {scripts - covered}"
