"""The fixed-seed outputs that ``tools/hash_outputs.py`` fingerprints match the
committed listing ``tools/hash_listing.txt`` line for line, so a refactor that
moves any number fails here.  A change that alters numbers on purpose updates
the listing in the same commit."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_hash_outputs_prints_the_committed_listing():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "hash_outputs.py")],
                         capture_output=True, text=True, env=env, timeout=600)
    assert run.returncode == 0, run.stderr
    expected = (ROOT / "tools" / "hash_listing.txt").read_text().splitlines()
    assert run.stdout.splitlines() == expected
