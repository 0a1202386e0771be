"""CLI output goldens: sha256 of every report JSON and trace CSV that
``simulate``, ``verify``, ``verify --trace`` and ``compare`` write for each
checked-in config, plus each command's exit code.

A change that is meant to leave outputs alone must keep these digests. To
record them anew after an intended change of output, run from the repo root::

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from admtrack.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDENS = Path(__file__).resolve().parent / "goldens" / "cli_outputs.json"
CONFIG_NAMES = sorted(p.stem for p in CONFIGS.glob("*.json"))
# report keys that name a path on the machine running the command
PATH_KEYS = ("trace",)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(path: Path) -> str:
    data = path.read_bytes()
    document = json.loads(data)
    if not any(key in document for key in PATH_KEYS):
        return _sha256(data)
    for key in PATH_KEYS:
        document.pop(key, None)
    return _sha256((json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _run(argv: list[str], out: Path) -> dict:
    code = main(argv + ["--out", str(out)])
    entry: dict = {"exit": code}
    for path in sorted(out.glob("*")) if out.exists() else []:
        if path.suffix == ".json":
            entry["report"] = _report_digest(path)
        elif path.suffix == ".csv":
            entry["trace"] = _sha256(path.read_bytes())
    return entry


def config_digests(name: str, workdir: Path) -> dict:
    config = str(CONFIGS / f"{name}.json")
    digests = {}
    for command in ("simulate", "verify", "compare"):
        digests[command] = _run([command, "--config", config], workdir / command)
    simulated = next((workdir / "simulate").glob("*.csv"))
    digests["verify_trace"] = _run(
        ["verify", "--config", config, "--trace", str(simulated)], workdir / "verify_trace"
    )
    return digests


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def test_goldens_cover_every_config(goldens):
    assert sorted(goldens) == CONFIG_NAMES


@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_cli_outputs_match_goldens(name, goldens, tmp_path):
    assert config_digests(name, tmp_path) == goldens[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: config_digests(name, Path(tmp) / name) for name in CONFIG_NAMES}
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(recorded, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} configs -> {GOLDENS}", file=sys.stderr)
