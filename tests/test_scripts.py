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
