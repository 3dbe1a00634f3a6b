"""Command-line front end: simulate scenarios, audit gains, locate equilibria.

Configuration is flat key = value text with sections (INI style); every CLI
flag overrides the corresponding file key.  Angle-valued inputs accept a
``deg`` suffix ("20deg") and are stored internally in radians.  A simulate
run writes the trajectory CSV, per-figure data files and a manifest that can
be fed back as the config to reproduce the run bit-identically.

Exit codes: 0 ok, 1 run failure (divergence, failed gain conditions, no
equilibrium, stdout closed by its reader), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import NamedTuple, Optional

from . import __version__, certificate
from .controller import Gains
from .plant import HoopState, PlantParams, actuator_equilibrium
from .reference import SCENARIOS
from .regularizer import NominalParams, nominal_from_true
from .sim import (SETTLING_BAND, DivergenceError, RunSummary, SimConfig, Trajectory,
                  WriterError, integrate_to_csv, summarize)


class Option(NamedTuple):
    """One configuration key: where it lives, its default text, how it parses
    (``kind``), and the CLI flag that overrides it (hidden when ``help`` is None)."""

    section: str
    key: str
    default: str
    kind: str
    flag: str
    help: Optional[str]


# The config schema.  Kinds: float, angle (radians or a "deg" suffix), int,
# flag (a store-true switch, text "true"/"false"), optional (a float or
# "none"), scenario, and raw (text carried verbatim into the manifest).
SCHEMA = (
    Option("plant", "m_h", "1.0", "float", "--m-h", None),
    Option("plant", "i_h", "0.021", "float", "--i-h", None),
    Option("plant", "r", "0.18", "float", "--r", None),
    Option("plant", "m_a", "3.28", "float", "--m-a", None),
    Option("plant", "i_a", "0.035", "float", "--i-a", None),
    Option("plant", "l", "0.14", "float", "--l", None),
    Option("plant", "beta", "20deg", "angle", "--beta", "incline angle (radians, or e.g. 20deg)"),
    Option("plant", "g", "9.81", "float", "--g", None),
    Option("plant", "delta_s", "0.0", "float", "--delta-s", None),
    Option("plant", "delta_a", "0.0", "float", "--delta-a", None),
    Option("controller", "k_p", "16.0", "float", "--kp", "proportional gain"),
    Option("controller", "k_d", "7.0", "float", "--kd", "derivative gain"),
    Option("controller", "k_i", "4.0", "float", "--ki", "integral gain"),
    Option("controller", "k_c", "0.1", "float", "--kc", None),
    Option("controller", "mismatch", "1.5", "raw", "--mismatch",
           "nominal-parameter scale factor for the controller"),
    Option("reference", "scenario", "fixed_point", "scenario", "--scenario", "reference scenario"),
    Option("reference", "o_ref0", "0.0", "float", "--o-ref0", "reference start position"),
    Option("reference", "ramp_v", "0.2", "float", "--ramp-v", "ramp speed (m/s)"),
    Option("reference", "sin_amplitude", "0.3", "float", "--sin-amplitude",
           "sinusoid velocity amplitude"),
    Option("reference", "sin_rate", "0.5", "float", "--sin-rate", "sinusoid angular rate"),
    Option("simulation", "theta0", "0.0", "angle", "--theta0", "initial hoop angle"),
    Option("simulation", "o0", "-2.0", "float", "--o0", "initial center position (m)"),
    Option("simulation", "omega0", "-0.1", "float", "--omega0", "initial hoop angular velocity"),
    Option("simulation", "theta_a0", "0.0", "angle", "--theta-a0", "initial actuator angle"),
    Option("simulation", "omega_a0", "0.1", "float", "--omega-a0",
           "initial actuator angular velocity"),
    Option("simulation", "dt", "0.001", "float", "--dt", "RK4 step (s)"),
    Option("simulation", "t_end", "60.0", "float", "--t-end", "simulated time (s)"),
    Option("simulation", "stride", "10", "int", "--stride", "record every n-th step"),
    Option("simulation", "feedforward", "false", "flag", "--feedforward",
           "add reference-acceleration feedforward (off by default)"),
    Option("simulation", "open_loop", "false", "flag", "--open-loop",
           "disable the controller entirely (zero input torque)"),
    Option("simulation", "hold_dt", "none", "optional", "--hold-dt",
           "zero-order-hold period for the torque (default: continuous)"),
    Option("simulation", "seed", "0", "raw", "--seed",
           "recorded in the manifest; the simulation itself is deterministic"),
)

# Section -> key -> default text.
DEFAULTS: dict[str, dict[str, str]] = {
    section: {opt.key: opt.default for opt in SCHEMA if opt.section == section}
    for section in dict.fromkeys(opt.section for opt in SCHEMA)
}

# Plot-ready per-figure tables next to trajectory.csv: position against the
# reference, and the three error series.
FIGURES = (
    ("fig_position.csv", ("t", "o", "o_ref")),
    ("fig_tracking_error.csv", ("t", "o_e")),
    ("fig_velocity_error.csv", ("t", "omega_e")),
    ("fig_actuator_velocity.csv", ("t", "omega_a")),
)


class ConfigError(Exception):
    """Bad configuration file or value; maps to exit code 2."""


def parse_angle(text: str) -> float:
    """Angle from config text: plain number = radians, 'deg' suffix = degrees."""
    text = text.strip()
    if text.endswith("deg"):
        return math.radians(float(text[: -len("deg")]))
    return float(text)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_optional(text: str) -> Optional[float]:
    lowered = text.strip().lower()
    return None if lowered in ("none", "") else float(lowered)


_PARSERS = {
    "float": float, "angle": parse_angle, "int": int, "flag": _parse_bool,
    "optional": _parse_optional, "scenario": str, "raw": str,
}


def _options(*sections: str) -> list[Option]:
    return [opt for opt in SCHEMA if opt.section in sections]


def _values(cfg: dict[str, dict[str, str]], section: str) -> dict[str, object]:
    """The keys of one config section, parsed by kind."""
    return {opt.key: _PARSERS[opt.kind](cfg[section][opt.key]) for opt in _options(section)}


def _normalized(opt: Option, text: str) -> str:
    """Manifest text of a value: angles in radians, floats via repr, raw text as is."""
    value = _PARSERS[opt.kind](text)
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def load_config(path: Optional[str]) -> dict[str, dict[str, str]]:
    """Defaults overlaid with the config file (if any), as raw strings."""
    merged = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is None:
        return merged
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        if section in ("meta", "summary"):
            continue  # manifest extras, ignored on re-ingest
        if section not in merged:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key, value in parser.items(section):
            if key not in merged[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            merged[section][key] = value
    return merged


def _apply_overrides(cfg: dict[str, dict[str, str]], args: argparse.Namespace) -> None:
    for opt in SCHEMA:
        value = getattr(args, f"{opt.section}.{opt.key}", None)
        if value is not None:
            cfg[opt.section][opt.key] = value


def build_plant(cfg: dict[str, dict[str, str]]) -> PlantParams:
    try:
        return PlantParams(**_values(cfg, "plant"))
    except ValueError as exc:
        raise ConfigError(f"invalid plant parameters: {exc}") from exc


def build_gains(cfg: dict[str, dict[str, str]]) -> Gains:
    try:
        values = _values(cfg, "controller")
        del values["mismatch"]
        return Gains(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid gains: {exc}") from exc


def build_nominal(cfg: dict[str, dict[str, str]], plant: PlantParams) -> NominalParams:
    """The controller's belief: ``plant`` scaled by the configured mismatch."""
    try:
        return nominal_from_true(plant, float(cfg["controller"]["mismatch"]))
    except ValueError as exc:
        raise ConfigError(f"invalid mismatch: {exc}") from exc


def build_sim_config(cfg: dict[str, dict[str, str]]) -> SimConfig:
    plant = build_plant(cfg)
    gains = build_gains(cfg)
    nominal = build_nominal(cfg, plant)
    try:
        sim = _values(cfg, "simulation")
        del sim["seed"]  # kept so old manifests load; the simulation draws no random numbers
        initial = HoopState(**{
            name: sim.pop(name + "0") for name in ("theta", "o", "omega", "theta_a", "omega_a")
        })
        return SimConfig(
            plant=plant, nominal=nominal, gains=gains, initial=initial,
            **_values(cfg, "reference"), **sim,
        )
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


def settling_time(traj: Trajectory) -> float:
    """Earliest time after which |o_e| stays inside SETTLING_BAND; inf if never."""
    return summarize(traj).settling_time


def write_manifest(
    path: Path, cfg: dict[str, dict[str, str]], summary: Optional[RunSummary] = None,
) -> None:
    """Write the run manifest: a re-ingestable config plus the summary but its rows.

    Values are normalized (angles in radians, floats via repr) so a rerun
    from the manifest reproduces the trajectory bit-identically.
    """
    out = configparser.ConfigParser(interpolation=None)
    out.optionxform = str
    for section in DEFAULTS:
        out[section] = {
            opt.key: _normalized(opt, cfg[section][opt.key]) for opt in _options(section)
        }
    out["meta"] = {"tool_version": __version__}
    if summary is not None:
        out["summary"] = {key: repr(getattr(summary, key)) for key in RunSummary._fields[1:]}
    with open(path, "w", encoding="utf-8") as fh:
        out.write(fh)


@contextmanager
def _writing(path: Path):
    """An output that cannot be created is a configuration error, not a crash.

    Only an error that names a file counts; a failed pipe or fork, or a
    write to a full disk, still raises.
    """
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            raise
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_simulate(args: argparse.Namespace, cfg: dict[str, dict[str, str]]) -> int:
    sim_cfg = build_sim_config(cfg)
    out_dir = Path(args.out)
    summary = None
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            summary = integrate_to_csv(
                sim_cfg,
                out_dir / "trajectory.csv",
                [(out_dir / name, columns) for name, columns in FIGURES],
            )
        except DivergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)  # the partial run is written all the same
        except WriterError as exc:
            if exc.status < 0:  # a signal ended the writer before it could say why
                print(f"error: {exc}", file=sys.stderr)
        except KeyboardInterrupt:  # the new rows are written; no earlier manifest stays
            write_manifest(out_dir / "manifest.ini", cfg)
            raise
        write_manifest(out_dir / "manifest.ini", cfg, summary)
    if summary is None:
        return 1
    print(
        f"scenario {sim_cfg.scenario}: {summary.rows} samples over {sim_cfg.t_end} s; "
        f"terminal |o_e| = {summary.terminal_o_e:.3e} m, "
        f"max |omega_a| = {summary.max_omega_a:.3f} rad/s, "
        f"settling(|o_e|<{SETTLING_BAND}) = {summary.settling_time:.3f} s"
    )
    print(f"wrote {out_dir / 'trajectory.csv'} and manifest.ini")
    return 0


def _certificate_inputs(cfg: dict[str, dict[str, str]], args: argparse.Namespace):
    plant = build_plant(cfg)
    gains = build_gains(cfg)
    build_nominal(cfg, plant)  # validated only: the certificate believes --cert-mismatch
    factor = args.cert_mismatch if args.cert_mismatch is not None else 1.0
    try:
        believed = nominal_from_true(plant, factor)
        constants = certificate.derived_constants(believed, args.k_x)
        certificate.check_r_const(args.r_const)
    except ValueError as exc:
        raise ConfigError(f"invalid certificate flags: {exc}") from exc
    if args.kappa is None:
        kappa = certificate.kappa_mid(constants)
    elif math.isfinite(args.kappa):
        kappa = args.kappa
    else:
        raise ConfigError(f"kappa must be finite, got {args.kappa!r}")
    return gains, constants, kappa


@contextmanager
def _evaluating_certificate():
    """Flags that leave the thresholds undefined (the square root of a negative
    number, an overflow, a division by a power of k_i that underflows) are a
    configuration error, not a crash."""
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"certificate undefined at these flags: {exc}") from exc


def cmd_check_gains(args: argparse.Namespace, cfg: dict[str, dict[str, str]]) -> int:
    gains, constants, kappa = _certificate_inputs(cfg, args)

    if args.sweep is not None:
        name, spec_text = args.sweep
        try:
            start, stop, step = (float(v) for v in spec_text.split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad sweep range {spec_text!r}, want start:stop:step") from exc
        if not all(math.isfinite(v) for v in (start, stop, step)) or step <= 0.0:
            raise ConfigError(
                f"bad sweep range {spec_text!r}, want finite start:stop and a step > 0"
            )
        if name not in ("kp", "kd", "ki"):
            raise ConfigError(f"can only sweep kp, kd or ki, not {name!r}")
        field = f"k_{name[1]}"
        limit = stop + 1e-12  # every counted value is <= limit; a start above it counts none
        if start <= limit:
            # The values only grow from the start, so a valid start makes
            # every value a valid gain.
            try:
                replace(gains, **{field: start})
            except ValueError as exc:
                raise ConfigError(f"bad sweep range {spec_text!r}: {exc}") from exc
        # Count the values first, storing none, then certify them chunk by chunk.
        count, value = 0, start
        while value <= limit:
            if value + step == value:
                raise ConfigError(
                    f"bad sweep range {spec_text!r}, the step does not change {value!r}"
                )
            count += 1
            value += step
        import numpy as np  # imported here: simulate starts without numpy

        # the header goes out with the first certified chunk, or alone
        value, header = start, f"{name}\tk_i_margin\tk_p_margin\tlambda_min_P\tpassed\n"
        triple = {"k_p": gains.k_p, "k_d": gains.k_d, "k_i": gains.k_i}
        for first in range(0, count, certificate.CHUNK):
            steps = np.full(min(certificate.CHUNK, count - first), step)
            steps[0] = value
            triple[field] = np.cumsum(steps)  # adds one step at a time, as counted
            value = triple[field][-1].item() + step
            with _evaluating_certificate():
                audit = certificate.certify_chunk(**triple, constants=constants, kappa=kappa,
                                                  r_const=args.r_const)
            sys.stdout.write(header + "".join(map(
                "{:g}\t{:.6g}\t{:.6g}\t{:.6g}\t{}\n".format, triple[field].tolist(),
                audit["k_i_margin"].tolist(), audit["k_p_margin"].tolist(),
                audit["p_eigenvalues"][:, 0].tolist(), audit["passed"].tolist())))
            header = ""
        sys.stdout.write(header)
        return 0

    with _evaluating_certificate():
        report = certificate.check_gains(gains, constants, kappa, args.r_const)
    print(report.serialize())
    return 0 if report.passed else 1


def cmd_equilibrium(args: argparse.Namespace, cfg: dict[str, dict[str, str]]) -> int:
    plant = build_plant(cfg)
    result = actuator_equilibrium(plant)
    print(f"beta_max = {math.degrees(result.beta_max):.4f} deg ({result.beta_max:.6f} rad)")
    if result.theta_a is None:
        if abs(plant.beta) > result.beta_max:
            print(f"no equilibrium: incline {math.degrees(plant.beta):.4f} deg exceeds "
                  f"the holdable maximum")
        else:
            print("no equilibrium: no restoring actuator angle balances the torques")
        return 1
    print(
        f"theta_a* = {math.degrees(result.theta_a):.4f} deg ({result.theta_a:.6f} rad)"
    )
    return 0


def _sweep_chunk(u, constants: certificate.DerivedConstants,
                 kappa: float, r_const: float) -> tuple[str, int, float]:
    """CSV lines of the triples this (n, 3) block of uniforms gives, their certified
    count and least lambda_min(P_s); ``--jobs N`` workers send back this text."""
    audit = certificate.certify_sample(u, constants, kappa, r_const)
    lambda_p = audit["p_eigenvalues"][:, 0].tolist()
    certified = audit["passed"] & audit["p_positive_definite"]
    columns = [audit[name].tolist() for name in ("k_p", "k_d", "k_i", "k_i_margin", "k_p_margin")]
    columns += [lambda_p, audit["q_eigenvalues"][:, 0].tolist()]
    text = "\r\n".join(map(",".join, zip(*(map(repr, column) for column in columns),
                                         map(str, certified.tolist()))))
    return text + "\r\n", int(certified.sum()), min(lambda_p)


def cmd_sweep(args: argparse.Namespace, cfg: dict[str, dict[str, str]]) -> int:
    if args.count < 1 or args.jobs < 1:
        raise ConfigError(
            f"--count and --jobs must be >= 1, got {args.count} and {args.jobs}"
        )
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    _, constants, kappa = _certificate_inputs(cfg, args)
    import numpy as np  # imported here: simulate starts without numpy
    from multiprocessing import Pool  # imported here: no other command needs it

    u = np.random.default_rng(args.seed).random((args.count, 3))
    sweep_chunk = partial(_sweep_chunk, constants=constants, kappa=kappa, r_const=args.r_const)
    chunks = (u[i:i + certificate.CHUNK] for i in range(0, args.count, certificate.CHUNK))
    jobs = min(args.jobs, -(-args.count // certificate.CHUNK))  # a worker past the chunks would idle
    # Every chunk is certified before --out is opened, so a failed sweep
    # leaves no file.
    with _evaluating_certificate(), Pool(jobs) if jobs > 1 else nullcontext() as pool:
        texts, counts, minima = zip(*(
            pool.imap(sweep_chunk, chunks) if pool else map(sweep_chunk, chunks)
        ))

    out_path = Path(args.out)
    with _writing(out_path), open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k_p,k_d,k_i,k_i_margin,k_p_margin,lambda_min_P,lambda_min_Q,certified\r\n")
        fh.writelines(texts)
    print(
        f"swept {args.count} admissible gain triples (seed {args.seed}): "
        f"{sum(counts)} certified, min lambda_min(P_s) = {min(minima):.6g}"
    )
    print(f"wrote {out_path}")
    return 0


def _add_config_flags(sub: argparse.ArgumentParser, *sections: str, skip=()) -> None:
    """``--config`` plus one flag per key of ``sections`` but those in ``skip``;
    each overrides the file."""
    sub.add_argument("--config", help="configuration file (key = value with sections)")
    for opt in (opt for opt in _options(*sections) if opt.key not in skip):
        if opt.kind == "flag":
            kwargs: dict = {"action": "store_const", "const": "true"}
        elif opt.kind == "scenario":
            kwargs = {"choices": SCENARIOS}
        else:
            kwargs = {"metavar": opt.key.upper()}
        sub.add_argument(
            opt.flag, dest=f"{opt.section}.{opt.key}",
            help=argparse.SUPPRESS if opt.help is None else opt.help, **kwargs,
        )


def _add_certificate_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k-x", type=float, default=6.0,
                     help="actuator velocity bound of the certified region (default 6)")
    sub.add_argument("--kappa", type=float, default=None,
                     help="interconnection weight; default is the admissible midpoint")
    sub.add_argument("--r-const", type=float, default=1.0,
                     help="abstract r constant in the k_1/k_2 thresholds (default 1)")
    sub.add_argument("--cert-mismatch", type=float, default=None,
                     help="evaluate the certificate at scaled believed params "
                          "(default: the plant values themselves)")


def _stdout_reader_gone() -> bool:
    """Whether stdout is a pipe or socket whose reader has gone away."""
    import select

    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # replaced by an in-memory stream
        return False
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(event & (select.POLLERR | select.POLLHUP) for _, event in poller.poll(0))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hooprobot",
        description="Hoop robot on an incline: geometric PID simulation and gain auditing",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a closed-loop scenario, write CSV + manifest")
    _add_config_flags(p_sim, "plant", "controller", "reference", "simulation")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_chk = sub.add_parser("check-gains", help="evaluate the stability gain conditions")
    _add_config_flags(p_chk, "plant", "controller")
    _add_certificate_flags(p_chk)
    p_chk.add_argument("--sweep", nargs=2, metavar=("PARAM", "START:STOP:STEP"),
                       help="tabulate margins while sweeping kp, kd or ki; a start <= 0 exits 2")
    p_chk.set_defaults(func=cmd_check_gains)

    p_eq = sub.add_parser("equilibrium", help="steady actuator angle and max incline")
    _add_config_flags(p_eq, "plant")
    p_eq.set_defaults(func=cmd_equilibrium)

    p_sw = sub.add_parser("sweep", help="seeded sweep of admissible gain triples")
    # sweep draws its own gains, so of the controller flags it takes --mismatch only
    _add_config_flags(p_sw, "plant", "controller", skip=("k_p", "k_d", "k_i", "k_c"))
    _add_certificate_flags(p_sw)
    p_sw.add_argument("--count", type=int, default=100)
    p_sw.add_argument("--seed", type=int, default=1)
    p_sw.add_argument("--jobs", type=int, default=1,
                      help="parallel workers, at most one per chunk of 512 points")
    p_sw.add_argument("--out", default="sweep.csv")
    p_sw.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        status = args.func(args, cfg)
        sys.stdout.flush()  # a closed pipe then raises here, not at exit
        return status
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        if not _stdout_reader_gone():
            raise  # a pipe other than stdout, such as a FIFO given as --out
        # Point stdout at devnull so that flushing what is still buffered at
        # exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
