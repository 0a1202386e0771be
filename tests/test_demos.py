"""Demo goldens: the standard output of every ``demos/*.py`` script.

The demos read traces through the per-step ``records`` view, so these
recordings guard that view as well as the codec. Each demo runs in a fresh
interpreter with an empty working directory (demo 02 writes into ``out/``).
To record the outputs anew after an intended change, run from the repo root::

    PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDENS = Path(__file__).resolve().parent / "goldens" / "demo_stdout.json"
DEMO_NAMES = sorted(p.name for p in DEMOS.glob("*.py"))


def demo_stdout(name: str, workdir: Path) -> str:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=workdir,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def test_goldens_cover_every_demo(goldens):
    assert sorted(goldens) == DEMO_NAMES


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_stdout_matches_golden(name, goldens, tmp_path):
    assert demo_stdout(name, tmp_path) == goldens[name]


if __name__ == "__main__":
    recorded = {}
    for name in DEMO_NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = demo_stdout(name, Path(tmp))
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(recorded, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} demos -> {GOLDENS}", file=sys.stderr)
