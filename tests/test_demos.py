"""The fast demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# cli_walkthrough.py and train_denoiser.py train models (about 45 s each)
# and are left out.
FAST_DEMOS = ("autodiff_basics", "losses_and_metrics",
              "network_building_blocks", "stft_analysis_resynthesis",
              "synthetic_corpus")


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
