"""What ``import leetile`` loads and exports, checked in a new interpreter so
that no other test's imports can hide a module or a name."""

import json
import os
import subprocess
import sys
from pathlib import Path

import leetile

# Test oracles, group-ring names and removed names the package no longer
# exports.
UNEXPORTED = (
    "GroupMismatchError",
    "GroupRingElement",
    "LeeSphereSpec",
    "SearchOptions",
    "brute_force_search",
    "lee_distance",
    "pair_multiplicity",
    "project",
)

PROBE = """
import json, sys
import leetile
print(json.dumps({
    "group_ring_loaded": "leetile.group_ring" in sys.modules,
    "all": list(leetile.__all__),
    "unresolved": [name for name in leetile.__all__ if not hasattr(leetile, name)],
}))
"""


def test_import_exports_only_run_paths():
    src = str(Path(leetile.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert not probe["group_ring_loaded"]
    assert not set(UNEXPORTED) & set(probe["all"])
    assert probe["unresolved"] == []
