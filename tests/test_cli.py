"""Command-line interface: config handling, subcommands, exit codes, outputs."""
import configparser
import csv
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

import hooprobot
from hooprobot import certificate
from hooprobot.cli import (
    DEFAULTS,
    SCHEMA,
    ConfigError,
    build_gains,
    build_plant,
    build_sim_config,
    load_config,
    main,
    parse_angle,
    settling_time,
)
from hooprobot.controller import Gains
from hooprobot.reference import SAMPLES
from hooprobot.regularizer import nominal_from_true
from hooprobot.sim import SimConfig, Trajectory


OUTPUT_FIGURES = {
    "fig_position.csv": ["t", "o", "o_ref"],
    "fig_tracking_error.csv": ["t", "o_e"],
    "fig_velocity_error.csv": ["t", "omega_e"],
    "fig_actuator_velocity.csv": ["t", "omega_a"],
}
DIVERGED_AT_FIRST_STEP = ("error: simulation diverged at t=0.001000: state magnitude "
                          "exceeded 1e+06 or became non-finite\n")


def assert_figures_match_trajectory(out):
    """Every figure row repeats its trajectory.csv fields as text; o_ref is
    the repr of the run's reference position.  Returns the trajectory rows."""
    with open(out / "trajectory.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    reference = build_sim_config(load_config(str(out / "manifest.ini"))).reference()
    for name, header in OUTPUT_FIGURES.items():
        with open(out / name, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == header, name
        expected = [
            [repr(reference(float(row["t"])).o_ref) if column == "o_ref" else row[column]
             for column in header]
            for row in rows
        ]
        assert table[1:] == expected, name
    return rows


class TestParseAngle:
    def test_plain_number_is_radians(self):
        assert parse_angle("0.5") == 0.5
        assert parse_angle("-1.2") == -1.2

    def test_deg_suffix(self):
        assert parse_angle("20deg") == pytest.approx(math.radians(20.0))
        assert parse_angle(" 90deg ") == pytest.approx(math.pi / 2)

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_angle("steep")


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg == DEFAULTS
        assert cfg is not DEFAULTS  # must be a copy
        cfg["plant"]["m_h"] = "2.0"
        assert DEFAULTS["plant"]["m_h"] == "1.0"

    def test_file_overlays_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[plant]\nbeta = 10deg\n\n[controller]\nk_p = 20\n")
        cfg = load_config(str(path))
        assert cfg["plant"]["beta"] == "10deg"
        assert cfg["controller"]["k_p"] == "20"
        assert cfg["plant"]["m_h"] == "1.0"  # untouched default

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[rocket]\nthrust = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[plant]\nmass = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(path))

    def test_manifest_extras_ignored(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[meta]\ntool_version = 0.0.1\n\n[summary]\nterminal_o_e = 1\n")
        cfg = load_config(str(path))
        assert "meta" not in cfg
        assert "summary" not in cfg

    def test_missing_file_raises(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.ini")


class TestBuilders:
    def test_default_plant(self):
        plant = build_plant(load_config(None))
        assert plant.m_a == 3.28
        assert plant.beta == pytest.approx(math.radians(20.0))

    def test_default_gains(self):
        gains = build_gains(load_config(None))
        assert (gains.k_p, gains.k_d, gains.k_i, gains.k_c) == (16.0, 7.0, 4.0, 0.1)

    def test_default_sim_config(self):
        cfg = build_sim_config(load_config(None))
        assert cfg.scenario == "fixed_point"
        assert cfg.initial.o == -2.0
        assert cfg.dt == 1e-3
        assert cfg.t_end == 60.0
        # the believed parameters carry the configured 1.5x mismatch
        assert cfg.nominal.m_a == pytest.approx(1.5 * cfg.plant.m_a)

    def test_schema_defaults_equal_sim_config_defaults(self):
        # SCHEMA and SimConfig each hold the run defaults; perfbench builds
        # its runs from SimConfig's, the CLI from SCHEMA's
        built = build_sim_config(load_config(None))
        plain = SimConfig(plant=built.plant, nominal=built.nominal, gains=built.gains)
        for f in fields(SimConfig):
            assert getattr(built, f.name) == getattr(plain, f.name), f.name

    def test_scenario_parameters_are_sim_config_fields_and_schema_keys(self):
        # a scenario parameter is named alike in reference.SAMPLES, SimConfig
        # and the [reference] section, so no map between the names is needed
        config_fields = {f.name for f in fields(SimConfig)}
        keys = {opt.key for opt in SCHEMA if opt.section == "reference"}
        for scenario, (params, _, _) in SAMPLES.items():
            for name in params:
                assert name in config_fields and name in keys, (scenario, name)

    def test_bad_value_becomes_config_error(self):
        cfg = load_config(None)
        cfg["plant"]["m_h"] = "-1"
        with pytest.raises(ConfigError, match="plant"):
            build_plant(cfg)
        cfg = load_config(None)
        cfg["simulation"]["dt"] = "0"
        with pytest.raises(ConfigError, match="dt"):
            build_sim_config(cfg)


class TestSettlingTime:
    def make_traj(self, times, errors):
        traj = Trajectory()
        traj.t = list(times)
        traj.o_e = list(errors)
        return traj

    def test_inside_band_from_start(self):
        traj = self.make_traj([0.0, 1.0, 2.0], [0.001, 0.002, 0.0])
        assert settling_time(traj) == 0.0

    def test_settles_after_excursion(self):
        traj = self.make_traj([0.0, 1.0, 2.0, 3.0], [0.5, 0.02, 0.004, 0.001])
        assert settling_time(traj) == 2.0

    def test_never_settles(self):
        traj = self.make_traj([0.0, 1.0, 2.0], [0.5, 0.3, 0.2])
        assert settling_time(traj) == math.inf

    def test_re_excursion_restarts_the_clock(self):
        traj = self.make_traj([0.0, 1.0, 2.0, 3.0], [0.5, 0.002, 0.4, 0.001])
        assert settling_time(traj) == 3.0


class TestSimulateCommand:
    def test_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--t-end", "2", "--out", str(out)]) == 0
        assert (out / "trajectory.csv").is_file()
        assert (out / "manifest.ini").is_file()
        for name in ("fig_position.csv", "fig_tracking_error.csv",
                     "fig_velocity_error.csv", "fig_actuator_velocity.csv"):
            assert (out / name).is_file()
        captured = capsys.readouterr()
        assert "201 samples" in captured.out

    def test_manifest_round_trip_is_bit_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["simulate", "--t-end", "2", "--beta", "15deg", "--theta-a0", "5deg",
                     "--hold-dt", "0.01", "--feedforward", "--mismatch", "1.20",
                     "--seed", "7", "--out", str(first)]) == 0
        assert main(["simulate", "--config", str(first / "manifest.ini"),
                     "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(["trajectory.csv", "manifest.ini", *OUTPUT_FIGURES])
        assert sorted(p.name for p in second.iterdir()) == names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_manifest_contains_summary_and_normalized_values(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--t-end", "2", "--out", str(out)])
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(out / "manifest.ini")
        assert parser.has_section("summary")
        assert parser.has_section("meta")
        # angles are normalized to radians on write
        assert float(parser["plant"]["beta"]) == pytest.approx(math.radians(20.0))

    def test_figure_files_have_expected_headers(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--t-end", "1", "--out", str(out)])
        assert (out / "fig_position.csv").read_text().splitlines()[0] == "t,o,o_ref"
        assert (out / "fig_tracking_error.csv").read_text().splitlines()[0] == "t,o_e"

    def test_figure_rows_are_trajectory_fields(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--t-end", "1", "--stride", "3", "--scenario", "sinusoid",
                     "--o-ref0", "0.4", "--out", str(out)]) == 0
        assert_figures_match_trajectory(out)

    def test_divergent_run_rewrites_figures_of_an_earlier_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--t-end", "1", "--out", str(out)]) == 0
        assert main(["simulate", "--o0", "2e6", "--t-end", "1", "--out", str(out)]) == 1
        rows = assert_figures_match_trajectory(out)
        assert len(rows) == 1 and rows[0]["o"] == repr(2e6)

    def test_bad_config_value_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--dt", "0", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--scenario", "sinusoid", "--sin-rate", "0"],
        ["--o-ref0", "nan"],
        ["--o0", "nan"],
        ["--ramp-v", "inf"],
        ["--sin-rate", "inf"],
        ["--sin-amplitude", "nan"],
        ["--o-ref0", "nan", "--open-loop"],
    ])
    def test_bad_reference_or_start_exits_two_before_writing(self, flags, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", *flags, "--t-end", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_divergent_run_exits_one_with_partial_csv(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--o0", "2e6", "--t-end", "1", "--out", str(out)])
        assert code == 1
        assert "diverged" in capsys.readouterr().err
        assert (out / "trajectory.csv").is_file()

    def test_non_finite_torque_exits_one_with_one_line(self, tmp_path, capsys):
        # the torque at t = 0 is infinite: the step from t = 0 diverges
        out = tmp_path / "run"
        for flags in (["--kp", "1e308"], ["--o-ref0", "1e308"], ["--o0", "1e308"],
                      ["--kp", "1e308", "--hold-dt", "0.01"]):
            assert main(["simulate", *flags, "--t-end", "0.01", "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == DIVERGED_AT_FIRST_STEP
            assert len(assert_figures_match_trajectory(out)) == 1  # the row at t = 0
            manifest = configparser.ConfigParser(interpolation=None)
            manifest.read(out / "manifest.ini")
            assert "summary" not in manifest

    def test_non_finite_torque_rewrites_files_of_an_earlier_run(self, tmp_path, capsys):
        # the torque at t = 0 is infinite: the row at t = 0 holds it
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--kp", "1e308", "--t-end", "0.01", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == DIVERGED_AT_FIRST_STEP
        assert len(assert_figures_match_trajectory(out)) == 1  # the row at t = 0
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(out / "manifest.ini")
        assert "summary" not in manifest
        assert manifest["controller"]["k_p"] == "1e+308"

    def test_overflow_rewrites_files_of_an_earlier_run(self, tmp_path, capsys):
        # k_p 1e200 takes a stage's omega_a past 1.3e154, where omega_a**2 raises
        out = tmp_path / "run"
        assert main(["simulate", "--t-end", "0.5", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--kp", "1e200", "--t-end", "0.01", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == DIVERGED_AT_FIRST_STEP
        assert len(assert_figures_match_trajectory(out)) == 1  # the row at t = 0
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(out / "manifest.ini")
        assert "summary" not in manifest
        assert manifest["controller"]["k_p"] == "1e+200"

    def test_interrupt_rewrites_the_manifest_of_an_earlier_run(
        self, tmp_path, leaves_no_child_or_fd, interrupt_at_row,
    ):
        out = tmp_path / "run"
        assert main(["simulate", "--t-end", "0.5", "--out", str(out)]) == 0
        interrupt_at_row(0.3)  # Ctrl-C as the loop records the row at t = 0.3
        with leaves_no_child_or_fd():
            with pytest.raises(KeyboardInterrupt):
                main(["simulate", "--t-end", "600", "--out", str(out)])
        assert len(assert_figures_match_trajectory(out)) == 30  # t = 0 to 0.29
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(out / "manifest.ini")
        assert "summary" not in manifest
        assert manifest["simulation"]["t_end"] == "600.0"

    @pytest.mark.parametrize("occupied", ["out", "out/trajectory.csv"])
    def test_unwritable_out_exits_two_with_one_line(self, occupied, tmp_path, capfd,
                                                    leaves_no_child_or_fd):
        # a file where the directory goes, or a directory where a table goes
        out = tmp_path / "out"
        if occupied == "out":
            out.write_text("keep")
        else:
            (tmp_path / occupied).mkdir(parents=True)
        with leaves_no_child_or_fd():
            assert main(["simulate", "--t-end", "0.1", "--out", str(out)]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert occupied != "out" or out.read_text() == "keep"

    def test_hold_of_endless_steps_leaves_an_earlier_run(self, tmp_path, capsys):
        # hold_dt / dt overflows to inf, so the torque would hold for no whole number of steps
        out = tmp_path / "run"
        assert main(["simulate", "--t-end", "0.5", "--out", str(out)]) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        argv = ["simulate", "--dt", "1e-300", "--t-end", "1e-297", "--hold-dt", "1e10"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("config error: invalid configuration: hold_dt must be "
                                       "positive and cover a finite number of steps")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_t_end_of_no_step_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--t-end", "0.0005", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: invalid configuration: t_end must cover a finite number of steps"
        )
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_writer_exits_one_with_its_one_line(self, tmp_path, capfd,
                                                       leaves_no_child_or_fd):
        out = tmp_path / "run"
        out.mkdir()
        (out / "fig_position.csv").symlink_to("/dev/full")  # every write fails: disk full
        with leaves_no_child_or_fd():
            assert main(["simulate", "--t-end", "2", "--out", str(out)]) == 1
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "error: CSV writer: [Errno 28] No space left on device\n"
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(out / "manifest.ini")
        assert "summary" not in manifest

    @pytest.mark.parametrize("flags, code", [
        ([], 0),
        (["--o0", "2e6"], 1),  # diverges
        (["--kp", "1e308"], 1),  # non-finite torque
    ])
    def test_output_printed_before_a_run_appears_once(self, flags, code, tmp_path):
        # In a fresh, buffered interpreter whose stdout is a pipe, so that both
        # texts still sit in the buffers of sys.stdout and sys.stderr at the fork.
        script = (
            "import sys\n"
            "from hooprobot.cli import main\n"
            "print('printed before', end='')\n"
            "print('printed before', end='', file=sys.stderr)\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(hooprobot.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--t-end", "1", *flags,
             "--out", str(tmp_path / "run")],
            cwd=src, capture_output=True, text=True,
            env={key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
        )
        assert result.returncode == code
        assert result.stdout.count("printed before") == 1
        assert result.stderr.count("printed before") == 1
        assert result.stderr.count("\n") == code  # the one error line of a failed run

    def test_open_loop_flag(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--g", "0", "--open-loop", "--t-end", "1",
                     "--omega0", "1.0", "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert all(float(line.split(",")[9]) == 0.0 for line in lines)


# A non-default value for every config key, with its text in the manifest.
NON_DEFAULT = {
    "m_h": ("1.25", "1.25"), "i_h": ("0.025", "0.025"), "r": ("0.2", "0.2"),
    "m_a": ("3", "3.0"), "i_a": ("0.03", "0.03"), "l": ("0.15", "0.15"),
    "beta": ("10deg", repr(math.radians(10.0))), "g": ("9.8", "9.8"),
    "delta_s": ("0.01", "0.01"), "delta_a": ("-0.02", "-0.02"),
    "k_p": ("20", "20.0"), "k_d": ("6", "6.0"), "k_i": ("3", "3.0"),
    "k_c": ("0.2", "0.2"), "mismatch": ("1.20", "1.20"),
    "scenario": ("ramp", "ramp"), "o_ref0": ("0.5", "0.5"), "ramp_v": ("0.1", "0.1"),
    "sin_amplitude": ("0.2", "0.2"), "sin_rate": ("0.4", "0.4"),
    "theta0": ("0.3", "0.3"), "o0": ("-1.5", "-1.5"), "omega0": ("0.2", "0.2"),
    "theta_a0": ("5deg", repr(math.radians(5.0))), "omega_a0": ("-0.1", "-0.1"),
    "dt": ("0.002", "0.002"), "t_end": ("0.1", "0.1"), "stride": ("3", "3"),
    "feedforward": (None, "true"), "open_loop": (None, "true"),
    "hold_dt": ("0.01", "0.01"), "seed": ("x7", "x7"),
}


class TestSchema:
    @pytest.mark.parametrize("opt", SCHEMA, ids=lambda opt: f"{opt.section}.{opt.key}")
    def test_flag_value_lands_normalized_in_manifest(self, opt, tmp_path):
        given, written = NON_DEFAULT[opt.key]
        assert written != DEFAULTS[opt.section][opt.key]
        flag = [opt.flag] if given is None else [opt.flag, given]
        out = tmp_path / "run"
        assert main(["simulate", "--t-end", "0.05", *flag, "--out", str(out)]) == 0
        manifest = configparser.ConfigParser(interpolation=None)
        manifest.read(out / "manifest.ini")
        assert manifest[opt.section][opt.key] == written

    def test_certificate_commands_take_no_simulation_flags(self, capsys):
        for command in ("check-gains", "equilibrium", "sweep"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--dt", "0.01"])
            assert excinfo.value.code == 2
        assert "unrecognized arguments: --dt" in capsys.readouterr().err
        # equilibrium reads only [plant], so it takes no controller flag either
        for flag in (["--kp", "16"], ["--mismatch", "1.5"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["equilibrium", *flag])
            assert excinfo.value.code == 2
            assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--kp", "--kd", "--ki", "--kc"])
    def test_sweep_takes_no_gain_flag(self, flag, tmp_path, capsys):
        # sweep draws its own triples, so a gain flag is refused, not ignored
        out = tmp_path / "sweep.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--count", "5", flag, "1e-110", "--out", str(out)])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 1e-110" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_takes_the_plant_flags_and_mismatch(self, tmp_path):
        # the plant flags and --mismatch at their defaults give the defaults' CSV
        flags = ["--m-h", "1.0", "--i-h", "0.021", "--r", "0.18", "--m-a", "3.28",
                 "--i-a", "0.035", "--l", "0.14", "--beta", "20deg", "--mismatch", "1.5"]
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main(["sweep", "--count", "600", "--out", str(plain)]) == 0
        assert main(["sweep", *flags, "--count", "600", "--out", str(flagged)]) == 0
        assert flagged.read_bytes() == plain.read_bytes()


# In a fresh interpreter: import the CLI, run main(argv), and print the
# heavy modules loaded after the import and after the run, then the exit code.
# scipy belongs to `equilibrium`, numpy to the certificate commands and
# multiprocessing to `sweep --jobs`; each dominates start-up.
FRESH_MAIN = """\
import sys
from hooprobot.cli import main
def heavy():
    return [name for name in ("numpy", "scipy", "multiprocessing") if name in sys.modules]
at_import = heavy()
code = main(sys.argv[1:])
print(at_import, heavy(), code)
"""


def fresh_main(*argv):
    """stdout lines of FRESH_MAIN with the package under test."""
    src = str(Path(hooprobot.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], cwd=src,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_cli_start_up_loads_no_numpy_scipy_or_multiprocessing(tmp_path):
    out = tmp_path / "run"
    lines = fresh_main("simulate", "--t-end", "0.01", "--out", str(out))
    assert lines[-1] == "[] [] 0"
    assert (out / "trajectory.csv").is_file()


def test_check_gains_loads_numpy_on_demand():
    lines = fresh_main("check-gains", "--kp", "120")
    assert "passed = True" in lines
    assert lines[-1] == "[] ['numpy'] 0"


class TestCheckGainsCommand:
    def test_default_gains_fail_certificate(self, capsys):
        assert main(["check-gains"]) == 1
        out = capsys.readouterr().out
        assert "passed = False" in out
        assert "k_p_ok = False" in out

    def test_strong_proportional_gain_passes(self, capsys):
        assert main(["check-gains", "--kp", "120"]) == 0
        assert "passed = True" in capsys.readouterr().out

    def test_sweep_table(self, capsys):
        assert main(["check-gains", "--sweep", "kp", "90:100:5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("kp\t")
        assert len(lines) == 4  # header + 90, 95, 100

    @pytest.mark.parametrize("name, spec", [("kp", "90:100:5"), ("kd", "2:4:1"),
                                            ("ki", "0.5:2.5:1")])
    def test_sweep_rows_match_check_gains(self, name, spec, capsys):
        assert main(["check-gains", "--sweep", name, spec]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        believed = nominal_from_true(build_plant(load_config(None)), 1.0)
        constants = certificate.derived_constants(believed, 6.0)
        field = {"kp": "k_p", "kd": "k_d", "ki": "k_i"}[name]
        start, stop, step = (float(v) for v in spec.split(":"))
        assert len(rows) == round((stop - start) / step) + 1
        for k, row in enumerate(rows):
            value = start + k * step
            report = certificate.check_gains(
                replace(build_gains(load_config(None)), **{field: value}),
                constants, certificate.kappa_mid(constants),
            )
            assert row == [f"{value:g}", f"{report.k_i_margin:.6g}",
                           f"{report.k_p_margin:.6g}",
                           f"{report.p_eigenvalues[0]:.6g}", str(report.passed)]

    def test_long_sweep_prints_the_table_chunk_by_chunk(self, monkeypatch, capsys):
        # the table of every value's audit alone
        believed = nominal_from_true(build_plant(load_config(None)), 1.0)
        constants = certificate.derived_constants(believed, 6.0)
        values, value = [], 0.3
        while value <= 390.1 + 1e-12:
            values.append(value)
            value += 0.3
        assert len(values) == 1300
        reports = [
            certificate.check_gains(replace(build_gains(load_config(None)), k_p=v),
                                    constants, certificate.kappa_mid(constants), 1.0)
            for v in values
        ]
        expected = "kp\tk_i_margin\tk_p_margin\tlambda_min_P\tpassed\n" + "".join(
            f"{v:g}\t{r.k_i_margin:.6g}\t{r.k_p_margin:.6g}\t{r.p_eigenvalues[0]:.6g}"
            f"\t{r.passed}\n" for v, r in zip(values, reports)
        )
        sizes, certify = [], certificate.certify_chunk

        def counted(*args, **kwargs):
            audit = certify(*args, **kwargs)
            sizes.append(len(audit["k_p"]))  # the triples of one column pass
            return audit

        monkeypatch.setattr(certificate, "certify_chunk", counted)
        assert main(["check-gains", "--sweep", "kp", "0.3:390.1:0.3"]) == 0
        assert capsys.readouterr().out == expected
        assert max(sizes) <= certificate.CHUNK and sum(sizes) == 1300

    def test_sweep_table_builds_no_reports(self, monkeypatch, capsys):
        # each chunk's rows go straight into the table's text
        def forbidden(*args, **kwargs):
            raise AssertionError("check-gains --sweep built a report")

        monkeypatch.setattr(certificate, "CertificateReport", forbidden)
        assert main(["check-gains", "--sweep", "kp", "90:100:5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("kp\t") and len(lines) == 4

    def test_sweep_negative_start_is_a_usage_error(self, capsys):
        # argparse reads "-1e16:2e16:1" as an option; no start <= 0 is a valid
        # gain, so the range would exit 2 all the same
        with pytest.raises(SystemExit) as exit_info:
            main(["check-gains", "--sweep", "kp", "-1e16:2e16:1"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: hooprobot check-gains ")
        assert captured.err.endswith(
            "hooprobot check-gains: error: argument --sweep: expected 2 arguments\n"
        )

    def test_sweep_rejects_bad_range_argument(self, capsys):
        assert main(["check-gains", "--sweep", "kp", "1:2"]) == 2
        assert main(["check-gains", "--sweep", "kq", "1:2:1"]) == 2

    @pytest.mark.parametrize("spec", [
        "90:100:0", "90:100:-5", "90:100:nan", "nan:100:5", "90:nan:5",
        "90:inf:5", "90:-inf:5", "90:100:inf", "0:10:5",
        "1e16:2e16:1",  # the step is below half an ulp of the start
        "0:-1e-13:1",  # start > stop, but within the counting tolerance: one value, k_p = 0
    ])
    def test_sweep_rejects_empty_or_endless_range(self, spec, capsys):
        assert main(["check-gains", "--sweep", "kp", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("config error: bad sweep range")

    def test_sweep_checks_its_start_before_counting(self, capsys):
        # the start is no valid k_p, and the step is also below half an ulp of
        # it; the start is checked first, so that is the error reported.  The
        # leading blank keeps argparse from reading the spec as a flag, and
        # float() ignores it.
        assert main(["check-gains", "--sweep", "kp", " -1e16:2e16:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: bad sweep range ' -1e16:2e16:1': "
                                "k_p must be finite and positive, got -1e+16\n")

    def test_closed_stdout_ends_quietly_with_exit_one(self):
        # the reader stops after three lines, as `| head -3` does
        src = str(Path(hooprobot.__file__).resolve().parents[1])
        with subprocess.Popen(
            [sys.executable, "-m", "hooprobot", "check-gains", "--sweep", "kp", "1:1e5:1"],
            cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            lines = [proc.stdout.readline() for _ in range(3)]
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 1
        assert lines[0].startswith("kp\t") and lines[2].startswith("2\t")
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_closed_output_file_pipe_still_raises(self, tmp_path):
        # only stdout's reader going away is a quiet exit; a FIFO given as
        # --out whose reader quits is a failed write, with its traceback
        src = str(Path(hooprobot.__file__).resolve().parents[1])
        fifo = tmp_path / "rows"
        os.mkfifo(fifo)
        with subprocess.Popen(
            [sys.executable, "-m", "hooprobot", "sweep", "--count", "8000", "--out", str(fifo)],
            cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            with open(fifo, encoding="utf-8") as reader:
                assert reader.readline().startswith("k_p,")
            out, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert out == ""
        assert "BrokenPipeError" in err


# Certificate flags outside their domain, with the start of the error line.
BAD_CERTIFICATE_FLAGS = [
    (["--r-const", "0"], "invalid certificate flags: r_const"),
    (["--r-const", "inf"], "invalid certificate flags: r_const"),
    (["--kappa", "nan"], "kappa must be finite"),
    (["--kappa", "inf"], "kappa must be finite"),
    (["--k-x", "-1"], "invalid certificate flags: operating-region velocity bound"),
    (["--k-x", "nan"], "invalid certificate flags: operating-region velocity bound"),
    (["--cert-mismatch", "0"], "invalid certificate flags: mismatch factor"),
    (["--cert-mismatch", "nan"], "invalid certificate flags: mismatch factor"),
    (["--kappa", "1e160"], "certificate undefined at these flags"),  # kappa**2 overflows
]


class TestCertificateFlags:
    @pytest.mark.parametrize("flags, message", BAD_CERTIFICATE_FLAGS + [
        # a negative kappa puts a negative number under the k_2 square root
        (["--ki", "0.5", "--kappa", "-0.00146"], "certificate undefined at these flags"),
    ])
    @pytest.mark.parametrize("sweep", [[], ["--sweep", "kp", "90:100:5"]])
    def test_check_gains_exits_two_with_one_line(self, flags, message, sweep, capsys):
        assert main(["check-gains", *flags, *sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("flags, cause", [
        # a negative kappa puts a negative number under the k_2 square root
        (["--ki", "0.5", "--kappa", "-0.00146"], "math domain error"),
        # k_i**3 underflows to 0, and the k_2 threshold divides by it
        (["--ki", "1e-110"], "float division by zero"),
    ])
    @pytest.mark.parametrize("sweep", [[], ["--sweep", "kp", "90:100:5"]])
    def test_undefined_thresholds_name_the_float_error(self, flags, cause, sweep, capsys):
        # the table's column pass fails as the one triple of check-gains does
        assert main(["check-gains", *flags, *sweep]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: certificate undefined at these flags: {cause}\n"

    @pytest.mark.parametrize("flags, message", BAD_CERTIFICATE_FLAGS + [
        (["--r-const", "-1"], "invalid certificate flags: r_const"),
        # k_i's upper bound is about 1e-305, so the thresholds divide by k_i**3 == 0
        (["--k-x", "1e308"], "certificate undefined at these flags"),
    ])
    def test_sweep_exits_two_with_one_line(self, flags, message, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        for jobs in ("1", "2"):
            assert main(["sweep", "--count", "5", *flags, "--jobs", jobs,
                         "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith(f"config error: {message}")
            assert not out.exists()

    @pytest.mark.parametrize("mismatch", ["abc", "nan", "0", "-1.5"])
    @pytest.mark.parametrize("command", [
        ["check-gains", "--kp", "120"],
        ["check-gains", "--sweep", "kp", "90:100:5"],
        ["sweep", "--count", "3"],
    ])
    def test_bad_mismatch_exits_two_with_one_line(self, command, mismatch, tmp_path, capsys):
        # these commands audit at --cert-mismatch, but take --mismatch and
        # reject what simulate rejects
        out = tmp_path / "sweep.csv"
        argv = [*command, "--mismatch", mismatch]
        if command[0] == "sweep":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("config error: invalid mismatch:")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_error_in_a_chunk_exits_two_with_one_line(
        self, jobs, monkeypatch, tmp_path, capsys,
    ):
        # A flag whose matrices overflow is hard to find past the sampler's
        # checks, so the last chunk, a single triple, is made to fail; with
        # --jobs 2 it fails in a worker, forked with this patch in place.
        check_finite = certificate._check_finite

        def failing_last_chunk(p_s, q_s):
            if len(p_s) == 1:
                raise ValueError("non-finite entry in Lyapunov matrices")
            check_finite(p_s, q_s)

        monkeypatch.setattr(certificate, "_check_finite", failing_last_chunk)
        out = tmp_path / "sweep.csv"
        count = str(certificate.CHUNK + 1)
        assert main(["sweep", "--count", count, "--jobs", jobs, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: certificate undefined at these flags: "
            "non-finite entry in Lyapunov matrices\n"
        )
        assert not out.exists()


class TestEquilibriumCommand:
    def test_default_incline(self, capsys):
        assert main(["equilibrium"]) == 0
        out = capsys.readouterr().out
        assert "theta_a* = 15.0162 deg" in out
        assert "beta_max = 36.5878 deg" in out

    def test_steep_incline_exits_one(self, capsys):
        for beta in ("40", "-40"):
            assert main(["equilibrium", f"--beta={beta}deg"]) == 1
            assert capsys.readouterr().out.splitlines()[1] == (
                f"no equilibrium: incline {beta}.0000 deg exceeds the holdable maximum")

    @pytest.mark.parametrize("flags", [
        ["--beta", "0", "--delta-s", "5"],  # the disturbance has no balancing angle
        ["--g", "0"],  # every angle is neutral, none restores
    ])
    def test_no_restoring_angle_on_a_holdable_incline_exits_one(self, flags, capsys):
        assert main(["equilibrium", *flags]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "beta_max = 36.5878 deg (0.638578 rad)",
            "no equilibrium: no restoring actuator angle balances the torques",
        ]


# i_a + m_a l^2 exceeds m_a r l by about 5e-13, less than the plant's margin
NEAR_SINGULAR = ["--r", "0.2", "--m-a", "1.0", "--l", "0.1", "--i-a", "0.0100000000005",
                 "--beta", "0"]


@pytest.mark.parametrize("command", ["simulate", "equilibrium", "check-gains"])
def test_plant_whose_coupling_can_vanish_exits_two_with_one_line(command, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    extra = ["--out", str(out)] if command == "simulate" else []
    assert main([command, *NEAR_SINGULAR, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "config error: invalid plant parameters: input coupling can vanish: ")
    assert list(out.iterdir()) == []


class TestSweepCommand:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--count", "10", "--seed", "3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("k_p,k_d,k_i,")
        assert len(lines) == 11
        assert "10 certified" in capsys.readouterr().out

    def test_parallel_jobs_match_serial(self, tmp_path):
        # two chunks, so --jobs 2 runs both workers
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        count = str(certificate.CHUNK + 1)
        main(["sweep", "--count", count, "--seed", "3", "--out", str(serial)])
        main(["sweep", "--count", count, "--seed", "3", "--jobs", "2",
              "--out", str(parallel)])
        assert serial.read_bytes() == parallel.read_bytes()

    def test_asks_for_at_most_one_worker_per_chunk(self, monkeypatch, tmp_path):
        import multiprocessing

        sizes = []

        class InProcessPool:
            """Runs the chunks here and records the size it was asked for."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def imap(self, func, iterable):
                return map(func, iterable)

        monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
        for count, pools in (("100", []), ("1300", [3])):  # one chunk, then three
            out = {}
            for jobs in ("64", "1"):
                out[jobs] = tmp_path / f"sweep-{count}-{jobs}.csv"
                assert main(["sweep", "--count", count, "--seed", "3", "--jobs", jobs,
                             "--out", str(out[jobs])]) == 0
                assert sizes == pools
            assert out["64"].read_bytes() == out["1"].read_bytes()
            sizes.clear()

    @pytest.mark.parametrize("flags", [["--count", "0"], ["--count", "-4"],
                                       ["--jobs", "0"], ["--jobs", "-1"]])
    def test_rejects_count_or_jobs_below_one(self, flags, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("config error: --count and --jobs must be >= 1")
        assert not out.exists()

    def test_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--seed", "-1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_directory_as_out_exits_two_with_one_line(self, tmp_path, capsys):
        assert main(["sweep", "--count", "10", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write {tmp_path}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_chunked_output_equals_per_triple_loop(self, jobs, tmp_path, capsys):
        seed = 11
        believed = nominal_from_true(build_plant(load_config(None)), 1.0)
        constants = certificate.derived_constants(believed, 6.0)
        kappa = certificate.kappa_mid(constants)
        # one triple past whole chunks, so the last chunk holds a single triple
        for count in (certificate.CHUNK + 1, 2 * certificate.CHUNK + 1):
            rows = []
            for g in certificate.admissible_gain_sample(count, seed, constants, kappa):
                report = certificate.check_gains(
                    Gains(k_p=g.k_p, k_d=g.k_d, k_i=g.k_i), constants, kappa, r_const=1.0,
                )
                rows.append((
                    g.k_p, g.k_d, g.k_i, report.k_i_margin, report.k_p_margin,
                    report.p_eigenvalues[0], report.q_eigenvalues[0],
                    report.passed and report.p_positive_definite,
                ))
            expected = tmp_path / "expected.csv"
            with open(expected, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["k_p", "k_d", "k_i", "k_i_margin", "k_p_margin",
                                 "lambda_min_P", "lambda_min_Q", "certified"])
                for row in rows:
                    writer.writerow([repr(v) if isinstance(v, float) else v for v in row])

            out = tmp_path / "sweep.csv"
            assert main(["sweep", "--count", str(count), "--seed", str(seed),
                         "--jobs", jobs, "--out", str(out)]) == 0
            assert out.read_bytes() == expected.read_bytes()
            summary = capsys.readouterr().out.splitlines()[0]
            assert summary == (
                f"swept {count} admissible gain triples (seed {seed}): "
                f"{sum(1 for row in rows if row[-1])} certified, "
                f"min lambda_min(P_s) = {min(row[5] for row in rows):.6g}"
            )

    def test_evaluates_the_thresholds_once_per_triple(self, monkeypatch, tmp_path):
        # the sampler's thresholds are the audit's: one evaluation per sampled
        # triple, a column of at most CHUNK triples at a time
        sizes, thresholds = [], certificate.gain_thresholds

        def counted(k_d, *args):
            sizes.append(len(k_d))
            return thresholds(k_d, *args)

        monkeypatch.setattr(certificate, "gain_thresholds", counted)
        assert main(["sweep", "--count", "513", "--seed", "3", "--jobs", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert sizes == [certificate.CHUNK, 1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_builds_no_gains(self, jobs, monkeypatch, tmp_path, capsys):
        # the sampled triples go to the audit as plain floats, in every process
        expected = tmp_path / "expected.csv"
        argv = ["sweep", "--count", str(certificate.CHUNK + 1), "--seed", "3", "--jobs", jobs]
        assert main([*argv, "--out", str(expected)]) == 0
        want = capsys.readouterr().out.replace(str(expected), "OUT")

        def forbidden(*args, **kwargs):
            raise AssertionError("sweep built a Gains")

        monkeypatch.setattr(certificate, "Gains", forbidden)
        out = tmp_path / "sweep.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out.replace(str(out), "OUT") == want
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflowing_floor_names_k_p(self, jobs, tmp_path, capsys):
        # the sampler keeps the check Gains made on k_p; two chunks, so with
        # --jobs 2 it fails in a worker
        out = tmp_path / "sweep.csv"
        count = str(certificate.CHUNK + 1)
        assert main(["sweep", "--count", count, "--kappa", "1e154", "--jobs", jobs,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: certificate undefined at these flags: "
                                "k_p must be finite and positive, got inf\n")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_builds_no_reports_and_no_csv_writer(self, jobs, monkeypatch, tmp_path):
        # sweep turns each chunk's rows straight into text, in every process
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep left its text path")

        monkeypatch.setattr(certificate, "CertificateReport", forbidden)
        monkeypatch.setattr(csv, "writer", forbidden)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--count", str(certificate.CHUNK + 1), "--jobs", jobs,
                     "--out", str(out)]) == 0
        assert out.read_text().count("\n") == certificate.CHUNK + 2
