import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The sha256 of each demo's stdout.  A change to what a demo prints must
# update its digest here, on purpose.
STDOUT_SHA256 = {
    "diagram_pipeline.py": "23bf2d04450cbe3bd18cb46cf7854cc7965f311347f185e060e105c6cecd944c",
    "randomized_checks.py": "645286700ce43587ac3e49f7a1ca53d951798021509491bdef11eba6d665a40f",
    "snf_transforms.py": "f432de0992e74822b42363c6d542f7126b5e7a0b48e071354c8c6e0c616f51cd",
    "worked_example.py": "0bd0b7e3613a65cfff93bc52acc18f257b81e95736ec18d670336ca2cbe89485",
}


def test_demos_exist():
    assert len(DEMOS) >= 4
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name], result.stdout.decode()
