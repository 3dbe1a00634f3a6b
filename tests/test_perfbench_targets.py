"""The benchmark's span tracer names only functions the package still has."""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    # spans.py uses only the standard library, so importing it needs no
    # benchmark set-up; a renamed function would otherwise surface only as a
    # crash of a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = []
    for layer, attr in spans.TARGETS:
        owner = importlib.import_module(f"hooprobot.{layer}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer}.{attr}")
    assert not missing
    assert set(layer for layer, _ in spans.TARGETS) <= set(spans.LAYERS)
