"""Span tracing of hooprobot layers from outside the package.

``Tracer.install`` replaces the public module-level functions of each layer
(and the two ``inertia`` methods, ``Trajectory.write_csv`` and the reference
samplers) with wrappers that time every call.  A run of the default
scenario makes about 10^7 spans, so spans are aggregated as they close, keyed
by (parent span, span), instead of being kept one by one; the aggregate is
the span tree with call counts, self time (duration minus the time covered
by child spans) and total time, and ``dump`` writes it out.

Hooks on a few spans count work where it happens: RK4 steps and recorded
rows per ``integrate``, bytes per ``write_csv`` and per ``cmd_simulate``
output directory, triples per ``admissible_gain_sample``, and how many of
the torques ``controller.step`` computes reach ``plant.derivative``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# (layer, attribute) pairs; a dotted attribute names a method on a class.
TARGETS = (
    ("plant", "derivative"), ("plant", "gravity_torques"), ("plant", "coupling_gain"),
    ("plant", "PlantParams.inertia"),
    ("regularizer", "regularize"), ("regularizer", "shaping_torque"),
    ("regularizer", "NominalParams.inertia"), ("regularizer", "nominal_from_true"),
    ("controller", "step"), ("controller", "error"), ("controller", "pid"),
    ("controller", "integrator_rate"),
    ("sim", "integrate"), ("sim", "energy"), ("sim", "Trajectory.write_csv"),
    ("certificate", "derived_constants"), ("certificate", "kappa_mid"),
    ("certificate", "gain_thresholds"), ("certificate", "admissible_gain_sample"),
    ("certificate", "check_gains"), ("certificate", "lyapunov_matrices"),
    ("certificate", "proof_matrices"),
    ("cli", "main"), ("cli", "load_config"), ("cli", "build_sim_config"),
    ("cli", "write_manifest"), ("cli", "settling_time"), ("cli", "cmd_simulate"),
    ("cli", "cmd_check_gains"), ("cli", "cmd_sweep"),
)
LAYERS = ("plant", "regularizer", "controller", "reference", "sim", "certificate", "cli")


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.edges: dict[tuple[str, str], list[int]] = {}  # -> [calls, self_ns, total_ns]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = [["", 0]]  # open spans: [name, child_ns]
        self._controller_state = None
        self._torque_pending = False

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call while the tracer is active."""
        tracer, stack, edges, clock = self, self._stack, self.edges, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[1] += duration
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0, 0]
                edge[0] += 1
                edge[1] += duration - frame[1]
                edge[2] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- hooks ---------------------------------------------------------------

    def _on_step(self, args) -> None:
        self.counts["torques_computed"] += 1
        self._controller_state = args[4]
        self._torque_pending = True

    def _on_derivative(self, args) -> None:
        # The closed loop hands the plant the torque the last controller.step
        # produced (plus feedforward, already folded into last_torque), unless
        # hold mode substitutes an older one.  Count each computed torque once.
        cs = self._controller_state
        if self._torque_pending and cs is not None and args[2] == cs.last_torque:
            self.counts["torques_used"] += 1
            self._torque_pending = False

    def _after_integrate(self, args, trajectory) -> None:
        cfg = args[0]
        self.counts["steps"] += int(round(cfg.t_end / cfg.dt))
        self.counts["rows"] += len(trajectory)

    def _after_write_csv(self, args, _result) -> None:
        self.counts["csv_bytes"] += os.path.getsize(args[1])

    def _after_cmd_simulate(self, args, _result) -> None:
        self.counts["output_bytes"] += _dir_bytes(args[0].out)

    def _after_sample(self, args, _result) -> None:
        self.counts["triples"] += args[0]

    def install(self, package) -> None:
        """Wrap every target in the imported ``package`` (hooprobot)."""
        hooks = {
            "controller.step": (self._on_step, None),
            "plant.derivative": (self._on_derivative, None),
            "sim.integrate": (None, self._after_integrate),
            "sim.write_csv": (None, self._after_write_csv),
            "cli.cmd_simulate": (None, self._after_cmd_simulate),
            "certificate.admissible_gain_sample": (None, self._after_sample),
        }
        modules = [m for key, m in sys.modules.items() if key.startswith(package.__name__)]
        for layer, attr in TARGETS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            owner_name, _, method = attr.rpartition(".")
            name = f"{layer}.{method}"
            before, after = hooks.get(name, (None, None))
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(name, vars(owner)[method], before, after))
                continue
            original = getattr(module, method)
            wrapped = self.wrap(name, original, before, after)
            for m in modules:  # rebind every `from .x import f` copy too
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

        # References are closures built by make_reference; wrap what it returns.
        reference = sys.modules[f"{package.__name__}.reference"]
        make = reference.make_reference

        def make_reference(*args, **kwargs):
            return self.wrap("reference.sample", make(*args, **kwargs))

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is make:
                    setattr(m, key, make_reference)

    # -- results -------------------------------------------------------------

    def by_name(self) -> dict[str, list[int]]:
        totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for (_, name), (calls, self_ns, total_ns) in self.edges.items():
            entry = totals[name]
            entry[0] += calls
            entry[1] += self_ns
            entry[2] += total_ns
        return totals

    def layer_self_ns(self) -> dict[str, int]:
        layers = dict.fromkeys(LAYERS, 0)
        for name, (_, self_ns, _) in self.by_name().items():
            layers[name.split(".")[0]] += self_ns
        return layers

    def dump(self, path) -> None:
        spans = [
            {"parent": parent or None, "span": name, "calls": calls,
             "self_ns": self_ns, "total_ns": total_ns}
            for (parent, name), (calls, self_ns, total_ns) in sorted(self.edges.items())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh, indent=1)
