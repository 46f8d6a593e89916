"""The outputs of the first ``QUICK_COUNT`` seeded random products hash to
the digests recorded in tests/digests.json (see tests/digests.py), under two
hash seeds: a refactor keeps every layer's outputs byte for byte, and no
output depends on set or dict order."""

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
