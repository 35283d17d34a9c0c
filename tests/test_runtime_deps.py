"""The runtime imports no third-party package.

``pyproject.toml`` declares no runtime dependency, so no path a sweep
takes may import one: not start-up (``repro``, ``repro.cli``), not a
simulated cell (trace build, fingerprint, cluster-renaming rotation),
not a pool worker's initializer.  numpy used to be imported by every
process for three trace-fingerprint calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import sys

import repro
import repro.cli
from repro.engine import ExperimentScale, SimulationSession
from repro.engine.runner import _pool_warm_init
from repro.kernels import suite

session = SimulationSession(
    ExperimentScale(kernel_scale=0.06, target_instructions=1200,
                    timeslice=700)
)
session.run("CCSI AS", "llll", 2)
bundles = list(suite._trace_cache.values())
assert bundles and all(b.fingerprint() for b in bundles)
assert any(len(b._rot_cache) > 1 for b in bundles), "no rotated trace"
_pool_warm_init()
assert "numpy" not in sys.modules, "the runtime imported numpy"
"""


def test_runtime_never_imports_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
