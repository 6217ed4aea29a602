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

# Standard modules whose import costs more than a short CLI run's work:
# ``dataclasses`` alone pulls in ``inspect``, ``dis``, ``ast`` and ``tokenize``.
SLOW_TO_IMPORT = ("dataclasses", "inspect", "typing")

PROBE = """
import json, sys
slow = %r
import leetile
loaded = [name for name in slow if name in sys.modules]
import leetile.cli
print(json.dumps({
    "group_ring_loaded": "leetile.group_ring" in sys.modules,
    "all": list(leetile.__all__),
    "unresolved": [name for name in leetile.__all__ if not hasattr(leetile, name)],
    "slow_loaded_by_package": loaded,
    "slow_loaded_by_cli": [name for name in slow if name in sys.modules],
}))
""" % (SLOW_TO_IMPORT,)


def test_import_exports_only_run_paths():
    src = str(Path(leetile.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # -S: no site module, whose .pth files may import typing before the probe runs
    done = subprocess.run([sys.executable, "-S", "-c", PROBE], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert not probe["group_ring_loaded"]
    assert not set(UNEXPORTED) & set(probe["all"])
    assert probe["unresolved"] == []
    assert probe["slow_loaded_by_package"] == []
    assert probe["slow_loaded_by_cli"] == []
