"""Benchmark of hooprobot: closed-loop simulation and gain certificate.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload regulate --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json,
``--trace 1`` the per-layer ones from a separate traced run.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The program is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calibration
import workloads
from calibration import Calibrator
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_STARTS = 7  # timed interpreter starts per run, after one discarded start
TRACE_SETUP_STARTS = 3

# One fresh interpreter: import the CLI, then load and build the default
# configuration, as every `hooprobot simulate` does before its first step.
# With "calibrate" it interleaves calibration bursts, as the timed phase does.
SETUP_CHILD = """\
import contextlib, sys, time
import calibration
calibrator = calibration.Calibrator()
with calibrator.sampling() if sys.argv[1] == "calibrate" else contextlib.nullcontext():
    import hooprobot.cli as cli
    start = time.perf_counter()
    cli.build_sim_config(cli.load_config(None))
    build = time.perf_counter() - start
busy = sum(calibrator.bursts)
if sys.argv[1] == "calibrate" and not calibrator.bursts:
    calibrator.burst()  # ready within one interval: sample the speed once after
burst = sum(calibrator.bursts) / max(1, len(calibrator.bursts))
print(build, busy, burst, cli.__file__, flush=True)
"""


class BenchError(Exception):
    """The benchmark cannot run here; exit code 2."""


class Start(NamedTuple):
    ready_s: float  # spawn to ready line, calibration bursts taken out
    build_s: float  # load_config + build_sim_config
    burst_s: float  # mean calibration burst, 0 without calibration


def start_interpreter(mode: str, log: Path, extra_flags: tuple = ()) -> Start:
    """Spawn one fresh interpreter running SETUP_CHILD; its stderr goes to ``log``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), str(HERE), os.environ.get("PYTHONPATH")])))
    with open(log, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, *extra_flags, "-c", SETUP_CHILD, mode], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, text=True,
        )
        with child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            child.stdout.read()
        if child.returncode != 0 or not line:
            err.seek(0)
            raise BenchError(f"interpreter start failed: {err.read()[-2000:]}")
    build, busy, burst, module_file = line.split(maxsplit=3)
    if not Path(module_file.strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported hooprobot from {module_file.strip()}, not {SRC}")
    return Start(ready - float(busy), float(build), float(burst))


def setup_seconds() -> float:
    """Median over SETUP_STARTS fresh starts of the start time at reference speed.

    The first start is discarded: it only warms the file cache.
    """
    log = OUT / "setup.log"
    start_interpreter("calibrate", log)
    starts = [start_interpreter("calibrate", log) for _ in range(SETUP_STARTS)]
    print(f"raw setup_s {statistics.median(s.ready_s for s in starts)!r}", file=sys.stderr)
    return statistics.median(
        s.ready_s * calibration.REFERENCE_S / s.burst_s for s in starts)


def _import_tree(log_text: str) -> list:
    """``-X importtime`` output as a forest of (name, cumulative_us, children)."""
    pending: list[tuple[int, tuple]] = []
    for line in log_text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "[us]" in line:
            continue
        cumulative = int(parts[1])
        name_field = parts[2][1:]
        depth = (len(name_field) - len(name_field.lstrip(" "))) // 2
        children = []
        while pending and pending[-1][0] == depth + 1:
            children.insert(0, pending.pop()[1])
        pending.append((depth, (name_field.strip(), cumulative, children)))
    return [node for _, node in pending]


def _exclusive_us(forest: list, module: str) -> int:
    """Import time of ``module`` less the time of hooprobot modules it pulled in."""
    def nested(children):
        return sum(c[1] if c[0].startswith("hooprobot") else nested(c[2]) for c in children)

    def find(nodes):
        for name, cumulative, children in nodes:
            if name == module:
                return cumulative - nested(children)
            found = find(children)
            if found is not None:
                return found
        return None

    found = find(forest)
    if found is None:
        raise BenchError(f"{module} missing from the import log")
    return found


def setup_breakdown() -> dict[str, float]:
    """Per-module import times of fresh starts, medians over TRACE_SETUP_STARTS."""
    log = OUT / "importtime.log"
    start_interpreter("plain", log)
    samples: dict[str, list[float]] = {}
    for _ in range(TRACE_SETUP_STARTS):
        build = start_interpreter("plain", log, ("-X", "importtime")).build_s
        forest = _import_tree(log.read_text(encoding="utf-8"))
        total = sum(c for name, c, _ in forest if name.startswith("hooprobot"))
        plant = _exclusive_us(forest, "hooprobot.plant")
        cert = _exclusive_us(forest, "hooprobot.certificate")
        for key, value in (
            ("setup.import_plant_s", plant / 1e6),
            ("setup.import_certificate_s", cert / 1e6),
            ("setup.import_cli_s", (total - plant - cert) / 1e6),
            ("setup.build_config_s", build),
        ):
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def import_program():
    sys.path.insert(0, str(SRC))
    import hooprobot.cli  # noqa: F401  (imports every layer)
    import hooprobot

    if not Path(hooprobot.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported hooprobot from {hooprobot.__file__}, not {SRC}")
    return hooprobot


def run_rounds(ctx, workload, first: int, seconds: float) -> list:
    """Whole rounds from number ``first`` until their program time reaches ``seconds``."""
    rounds = []
    while not rounds or sum(r.seconds for r in rounds) < seconds:
        rounds.append(ctx.run_round(workload, first + len(rounds)))
    return rounds


def rate(rounds) -> float:
    return sum(r.work for r in rounds) / sum(r.seconds for r in rounds)


def normalised_rate(rounds) -> float:
    """Median over rounds of work per second at the calibration reference speed."""
    every = [b for r in rounds for b in r.bursts]
    rates = []
    for r in rounds:
        burst = statistics.mean(r.bursts or every)
        rates.append(r.work / (r.seconds * calibration.REFERENCE_S / burst))
    print(f"raw work_per_s {rate(rounds)!r}, mean burst {statistics.mean(every)!r} s, "
          f"{len(every)} bursts", file=sys.stderr)
    return statistics.median(rates)


def layer_metrics(tracer, rounds, untraced_rate: float) -> dict[str, float]:
    names = tracer.by_name()
    counts = tracer.counts
    per_round = 1.0 / len(rounds)
    steps = counts["steps"]
    traced_ns = sum(r.seconds for r in rounds) * 1e9

    def calls(name):
        return names[name][0] if name in names else 0

    def self_ns_per_call(name):
        return names[name][1] / calls(name) if calls(name) else 0.0

    def per_step(value):
        return value / steps if steps else 0.0

    writes = calls("sim.write_csv")
    write_s = names["sim.write_csv"][2] / 1e9 if writes else 0.0
    simulates = calls("cli.cmd_simulate")
    triples = counts["triples"]
    m = {
        "plant.derivative.calls": calls("plant.derivative") * per_round,
        "plant.derivative.self_ns_per_call": self_ns_per_call("plant.derivative"),
        "plant.gravity_torques.self_ns_per_call": self_ns_per_call("plant.gravity_torques"),
        "plant.coupling_gain.self_ns_per_call": self_ns_per_call("plant.coupling_gain"),
        "plant.inertia.calls_per_step": per_step(calls("plant.inertia")),
        "regularizer.regularize.self_ns_per_call": self_ns_per_call("regularizer.regularize"),
        "regularizer.shaping_torque.self_ns_per_call":
            self_ns_per_call("regularizer.shaping_torque"),
        "regularizer.inertia.calls_per_step": per_step(calls("regularizer.inertia")),
        "controller.step.calls": calls("controller.step") * per_round,
        "controller.step.self_ns_per_call": self_ns_per_call("controller.step"),
        "controller.error.self_ns_per_call": self_ns_per_call("controller.error"),
        "controller.pid.self_ns_per_call": self_ns_per_call("controller.pid"),
        "controller.integrator_rate.self_ns_per_call":
            self_ns_per_call("controller.integrator_rate"),
        "reference.sample.calls_per_step": per_step(calls("reference.sample")),
        "reference.sample.self_ns_per_call": self_ns_per_call("reference.sample"),
        "sim.steps": steps * per_round,
        "sim.integrate.self_ns_per_step": per_step(names["sim.integrate"][1])
        if "sim.integrate" in names else 0.0,
        "sim.rhs_evals_per_step": per_step(calls("plant.derivative")),
        "sim.controller_evals_per_step": per_step(calls("controller.step")),
        "sim.energy.calls": calls("sim.energy") * per_round,
        "sim.energy.self_ns_per_call": self_ns_per_call("sim.energy"),
        "sim.torque_use_ratio": counts["torques_used"] / counts["torques_computed"]
        if counts["torques_computed"] else 0.0,
        "sim.write_csv.s": write_s / writes if writes else 0.0,
        "sim.write_csv.bytes": counts["csv_bytes"] / writes if writes else 0.0,
        "sim.write_csv.mb_per_s": counts["csv_bytes"] / write_s / 1e6 if writes else 0.0,
        "sim.trajectory.rows": counts["rows"] / calls("sim.integrate")
        if calls("sim.integrate") else 0.0,
        "cli.cmd_simulate.self_s": self_ns_per_call("cli.cmd_simulate") / 1e9,
        "cli.output_bytes": counts["output_bytes"] / simulates if simulates else 0.0,
        "certificate.admissible_gain_sample.us_per_triple":
            names["certificate.admissible_gain_sample"][2] / 1e3 / triples if triples else 0.0,
        "certificate.check_gains.calls": calls("certificate.check_gains") * per_round,
        "certificate.check_gains.self_us_per_call":
            self_ns_per_call("certificate.check_gains") / 1e3,
        "certificate.lyapunov_matrices.self_us_per_call":
            self_ns_per_call("certificate.lyapunov_matrices") / 1e3,
        "certificate.proof_matrices.self_us_per_call":
            self_ns_per_call("certificate.proof_matrices") / 1e3,
        "certificate.gain_thresholds.self_ns_per_call":
            self_ns_per_call("certificate.gain_thresholds"),
        "cli.cmd_sweep.self_s": self_ns_per_call("cli.cmd_sweep") / 1e9,
        "trace.overhead_ratio": untraced_rate / rate(rounds),
    }
    for layer, self_ns in tracer.layer_self_ns().items():
        m[f"{layer}.share"] = self_ns / traced_ns
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (SRC / "hooprobot" / "__init__.py").is_file():
            raise BenchError(f"no hooprobot package under {SRC}")
        out_dir = OUT / args.workload
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        workload = workloads.WORKLOADS[args.workload](args.seed)

        if args.trace:
            metrics = setup_breakdown()
            package = import_program()
            tracer = Tracer()
            tracer.install(package)
            ctx = workloads.Context(package, out_dir, tracer)
            plain = run_rounds(ctx, workload, 0, args.seconds / 3)
            ctx.tracing = True
            rounds = run_rounds(ctx, workload, len(plain), args.seconds)
            metrics.update(layer_metrics(tracer, rounds, rate(plain)))
            rounds = plain + rounds
            tracer.dump(OUT / f"trace-{args.workload}.json")
            wanted = spec["per_layer"]
        else:
            setup = setup_seconds()
            package = import_program()
            ctx = workloads.Context(package, out_dir, calibrator=Calibrator())
            rounds = run_rounds(ctx, workload, 0, args.seconds)
            metrics = {
                "setup_s": setup,
                "work_per_s": normalised_rate(rounds),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            wanted = spec["end_to_end"]
        workloads.verify(rounds)
        shutil.rmtree(out_dir, ignore_errors=True)
    except (BenchError, OSError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        print(f"benchmark error: metrics {sorted(set(units) ^ set(metrics))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    problems = [p for r in rounds for p in r.problems]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
