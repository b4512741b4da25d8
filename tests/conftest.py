import os
import subprocess
import sys
from pathlib import Path

import pytest

import conc_toolkit


@pytest.fixture
def fresh_python():
    """Runs a script in a fresh interpreter on this package, so no other
    test's imports count, and returns the words it prints.
    ``CONC_TOOLKIT_JOBS`` is unset there."""
    src = str(Path(conc_toolkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    env.pop("CONC_TOOLKIT_JOBS", None)

    def run(script: str) -> list[str]:
        return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120).stdout.split()

    return run
