"""The traced benchmark run wraps graphalg's call sites by name; every site it
lists must exist, or a refactor silently breaks the traced run."""

import importlib.util
from pathlib import Path

import graphalg
import graphalg.io  # noqa: F401  (the traced run imports it too)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_site_resolves():
    tracing = _load_tracing()
    missing = []
    for table in (tracing.SPANS, tracing.HOT):
        for name, sites in table.items():
            for owner_path, attr in sites:
                owner = graphalg
                for part in owner_path.split("."):
                    owner = getattr(owner, part, None)
                if not callable(getattr(owner, attr, None)):
                    missing.append(f"{name}: {owner_path}.{attr}")
    assert not missing, missing
