"""The outputs of the first ``QUICK_COUNT`` seeded random products hash to
the digests recorded in tests/digests.json (see tests/digests.py), under two
hash seeds: a refactor keeps every layer's outputs byte for byte, and no
output depends on set or dict order. Recording names the layers that moved,
and a layer that ``LAYERS`` lacks cannot linger in the file."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arboreal
import digests


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_outputs_match_the_recorded_digests(hash_seed):
    src = str(Path(arboreal.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    run = subprocess.run([sys.executable, digests.__file__, str(digests.QUICK_COUNT)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr


def test_record_names_the_moved_layers(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digests, "RECORDED", tmp_path / "digests.json")
    for moved in (", ".join(digests.LAYERS), "none"):
        assert digests.main(["2", "--record"]) == 0
        assert capsys.readouterr().out.endswith(f"moved at 2 products: {moved}\n")


def test_check_names_a_recorded_layer_that_layers_lacks(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(digests, "RECORDED", tmp_path / "digests.json")
    digests.main(["2", "--record"])
    recorded = json.loads(digests.RECORDED.read_text())
    recorded["2"]["gone"] = recorded["2"]["cli"]
    digests.RECORDED.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert digests.main(["2"]) == 1
    assert capsys.readouterr().err == "digests differ from digests.json: gone\n"
