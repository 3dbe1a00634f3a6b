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


def test_workloads_call_the_package_as_it_is(monkeypatch):
    # the sweep and ensemble workloads call the Python API directly; a changed
    # signature would otherwise surface only as failed benchmark operations
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    hooprobot = importlib.import_module("hooprobot")
    importlib.import_module("hooprobot.cli")
    p_s, q_s = workloads.Sweep(1).matrices(hooprobot)(120.0, 7.0, 4.0)
    assert p_s.shape == q_s.shape == (3, 3)
    cfgs, again = workloads.Ensemble(1).configs(hooprobot, 0)
    assert all(isinstance(cfg, hooprobot.sim.SimConfig) for cfg in cfgs)
    assert 0 <= again < len(cfgs)


def test_workload_argv_runs_through_the_cli(monkeypatch, tmp_path):
    # every argv shape the workloads build, at tiny sizes: a flag they pass
    # that the CLI stopped taking would otherwise fail every benchmark operation
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("hooprobot.cli")
    first, short = tmp_path / "first", ["--t-end", "0.05"]
    argvs = [
        ["simulate", *workloads.SIM_FLAGS, *short, "--stride", "10", "--out", str(first)],
        ["simulate", "--config", str(first / "manifest.ini"), "--out", str(tmp_path / "rerun")],
        ["simulate", *workloads.SIM_FLAGS, *short, "--scenario", "sinusoid", "--feedforward",
         "--stride", "1", "--out", str(tmp_path / "dense")],
        ["check-gains", *workloads.PLANT_FLAGS, "--kd", "5.0", "--ki", "3.0",
         "--sweep", "kp", "20.0:21.0:0.5"],
        *(["sweep", *workloads.PLANT_FLAGS, "--count", "3", "--seed", "7", "--jobs", jobs,
           "--out", str(tmp_path / f"jobs{jobs}.csv")] for jobs in ("1", "2")),
    ]
    for argv in argvs:
        assert cli.main(argv) == 0, argv
