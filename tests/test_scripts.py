"""Smoke tests for the experiment scripts under scripts/ and the paper-scale report,
each run as its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_report_paper_scale_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "sharedformer.cli", "--preset", "paper",
                    "diagnose", "--which", "flops", "--out", str(tmp_path)],
                   env=env, capture_output=True, text=True, check=True, timeout=120)
    block = {json.loads(l)["layers"]: json.loads(l)["block_macs"]
             for l in (tmp_path / "flops.jsonl").read_text().splitlines()}
    assert block[5] / block[8] == 0.625  # shallow inference M=5 vs full
    ratios = {json.loads(l)["quantity"]: json.loads(l)["value"]
              for l in (tmp_path / "flop_ratios.jsonl").read_text().splitlines()}
    assert ratios["expected_training_ratio"] == 0.625  # uniform depth sampling U(2,8)


def test_run_desk_comparison_runs(tmp_path):
    out = subprocess.run([sys.executable, str(SCRIPTS / "run_desk_comparison.py"),
                          "--out", str(tmp_path), "--steps", "2", "--probe-layers", "2"],
                         capture_output=True, text=True, check=True, timeout=300).stdout
    # set only by the depths the shared run draws at seed 0: (6 + 8) / (8 + 8)
    assert "training compute ratio (shared/unshared): 0.8750" in out


@pytest.mark.parametrize("layers", ["2,x", "9"])
def test_run_desk_comparison_rejects_probe_layers_before_training(tmp_path, layers):
    run = subprocess.run([sys.executable, str(SCRIPTS / "run_desk_comparison.py"),
                          "--out", str(tmp_path), "--steps", "2", "--probe-layers", layers],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
    assert not (tmp_path / "shared_u28").exists()
