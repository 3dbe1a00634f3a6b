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
        module = importlib.import_module(f"hooprobot.{layer}")
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            # Tracer.install wraps vars(owner)[method], so an inherited
            # method would crash a traced run
            target = vars(getattr(module, owner_name, object)).get(method)
        else:
            target = getattr(module, method, None)
        if not callable(target):
            missing.append(f"{layer}.{attr}")
    assert not missing
    assert set(layer for layer, _ in spans.TARGETS) <= set(spans.LAYERS)


def test_sim_binds_the_wrapped_make_reference():
    # Tracer.install wraps reference.make_reference and rebinds every module
    # name bound to that same object; sim's name is the one runs call, so
    # without it the reference.sample spans would read 0
    reference = importlib.import_module("hooprobot.reference")
    sim = importlib.import_module("hooprobot.sim")
    assert callable(getattr(reference, "make_reference", None))
    assert sim.make_reference is reference.make_reference
