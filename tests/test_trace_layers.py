"""The benchmark's traced run wraps toolkit names by their dotted path; a
rename in the package must show here, not first as a failing
``bench/run.py --trace 1``."""

import importlib
import runpy
from pathlib import Path

from conc_toolkit.suites import SUITE_IDS

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer() -> dict:
    """The tracer's globals, run from its source (no bytecode is written)."""
    return runpy.run_path(str(_TRACER))


def test_every_traced_layer_resolves():
    tracer = _tracer()
    missing = []
    for module, attrs in tracer["LAYERS"].items():
        owner_module = importlib.import_module(f"conc_toolkit.{module}")
        for attr in attrs:
            owner = owner_module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module}.{attr}")
    assert missing == []


def test_traced_suites_are_the_registered_ones():
    assert tuple(_tracer()["SUITE_IDS"]) == SUITE_IDS
