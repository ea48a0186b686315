"""Smoke tests for the experiment scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_report_paper_scale_runs():
    out = subprocess.run([sys.executable, str(SCRIPTS / "report_paper_scale.py")],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert "shallow inference M=5 vs full: 0.625 of block compute" in out
    assert "uniform depth sampling U(2,8): 0.625 of fixed-depth" in out


def test_run_desk_comparison_runs(tmp_path):
    out = subprocess.run([sys.executable, str(SCRIPTS / "run_desk_comparison.py"),
                          "--out", str(tmp_path), "--steps", "2", "--probe-layers", "2"],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    # set only by the depths the shared run draws at seed 0: (6 + 8) / (8 + 8)
    assert "training compute ratio (shared/unshared): 0.8750" in out
