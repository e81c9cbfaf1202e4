"""End-to-end CLI runs: exit codes, file formats, determinism, cache."""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import warnings

import yaml

import bosecool
from bosecool import cli
from bosecool.cli import CACHE_ENV, main

OBS_HEADER = "cycle,frac_0_mean,frac_0_std,frac_1_mean,frac_1_std,mean_shell"
EVENTS_HEADER = "trajectory,cycle,pulse_index,from_id,excited_id,to_id"


def sim_doc(out_dir: str) -> dict:
    # two-sideband 1D ladder walk, small enough for sub-second runs
    return {
        "basis": {"dim": 1, "max_shell": 5},
        "params": {"eta": 0.7, "omega0_tau_abs": 0.4},
        "atoms": 2,
        "trajectories": 30,
        "seed": 7,
        "initial": {"point_level": [5]},
        "schedule": {"pulses": [{"s": -1}, {"s": -2}], "total_cycles": 80},
        "recorder": {"stride": 5, "events": True},
        "watched": [[0], [1]],
        "output": {"directory": out_dir},
    }


def write_doc(tmp_path, doc, name="run.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def run_cli(argv) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


def read(out_dir: str, name: str) -> str:
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return fh.read()


def test_simulate_writes_all_outputs(tmp_path):
    out = str(tmp_path / "out")
    cfg = write_doc(tmp_path, sim_doc(out))
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0

    obs = read(out, "observables.csv").splitlines()
    assert obs[0] == OBS_HEADER
    assert len(obs) == 1 + 80 // 5 + 1  # header + grid [0, 5, ..., 80]
    first = obs[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0  # all atoms start at level 5
    assert float(first[5]) == 5.0

    events = read(out, "events.csv").splitlines()
    assert events[0] == EVENTS_HEADER
    assert len(events) > 1
    for row in events[1:]:
        t, cyc, pulse, src, exc, dst = (int(v) for v in row.split(","))
        assert 0 <= t < 30
        assert 0 <= cyc < 80
        assert pulse in (0, 1)
        assert all(0 <= i < 6 for i in (src, exc, dst))

    summary = read(out, "summary.txt")
    for key in ("command: simulate", "seed: 7", "threads: 1", "atoms: 2",
                "trajectories: 30", "total_cycles: 80", "omega0_tau_abs:",
                "final_fraction_0:", "cycles_to_0.9:", "p_max:",
                "pulses_above_p_0.5: 0", "events_total:", "abs_builds: 2",
                "sp_builds: 1", "disk_loads: 0", "wall_seconds:"):
        assert key in summary, key


def test_same_seed_reproduces_bytes(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = write_doc(tmp_path, sim_doc(out_a))
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    assert run_cli(["simulate", "--config", cfg, "--threads", "1",
                    "--out", out_b]) == 0
    assert read(out_a, "observables.csv") == read(out_b, "observables.csv")
    assert read(out_a, "events.csv") == read(out_b, "events.csv")


def test_different_seed_changes_results(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = write_doc(tmp_path, sim_doc(out_a))
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    assert run_cli(["simulate", "--config", cfg, "--threads", "1",
                    "--seed", "8", "--out", out_b]) == 0
    assert read(out_a, "events.csv") != read(out_b, "events.csv")
    assert "seed: 8" in read(out_b, "summary.txt")


def test_thread_count_does_not_change_bytes(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = write_doc(tmp_path, sim_doc(out_a))
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    assert run_cli(["simulate", "--config", cfg, "--threads", "3",
                    "--out", out_b]) == 0
    assert read(out_a, "observables.csv") == read(out_b, "observables.csv")
    assert read(out_a, "events.csv") == read(out_b, "events.csv")


def test_config_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")

    doc = sim_doc(out)
    doc["bogus"] = 1
    cfg = write_doc(tmp_path, doc, "bad.yaml")
    assert run_cli(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: config:")

    assert run_cli(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert capsys.readouterr().err.startswith("error: config:")

    cfg = write_doc(tmp_path, sim_doc(out), "nocrit.yaml")
    assert run_cli(["criterion", "--config", cfg]) == 2
    assert "criterion.target" in capsys.readouterr().err

    doc = sim_doc(out)  # hysteresis declared but nothing ramps
    doc["hysteresis"] = {"source": [5], "targets": [[0]]}
    cfg = write_doc(tmp_path, doc, "noramp.yaml")
    assert run_cli(["hysteresis", "--config", cfg]) == 2
    assert "no ramp" in capsys.readouterr().err

    cfg = write_doc(tmp_path, sim_doc(out), "seed.yaml")
    assert run_cli(["simulate", "--config", cfg, "--seed", "-1"]) == 2

    doc = sim_doc(out)  # a ramp whose end value no pulse can take
    doc["schedule"]["ramps"] = [{"pulse": 0, "field": "omega0_tau_abs",
                                 "start": 0.4, "end": 1.5,
                                 "start_cycle": 10, "end_cycle": 40}]
    cfg = write_doc(tmp_path, doc, "ramp.yaml")
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "omega0_tau_abs" in err


def test_memory_preflight_exits_2(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    doc = sim_doc(out)  # 6 levels: 32 B per level pair, 1,152 bytes
    doc["criterion"] = {"target": [0]}
    doc["schedule"]["ramps"] = [{"pulse": 0, "field": "a_x", "start": 1.0,
                                 "end": 0.5, "start_cycle": 0,
                                 "end_cycle": 40}]
    doc["hysteresis"] = {"source": [5], "targets": [[0]]}
    cfg = write_doc(tmp_path, doc)
    real = cli._physical_memory()
    assert real is None or real > 1 << 20
    monkeypatch.setattr(cli, "_physical_memory", lambda: 1000)
    for command in ("simulate", "criterion", "hysteresis"):
        assert run_cli([command, "--config", cfg, "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: the emission matrix of "
                              "basis(dim=1,max_shell=5) needs about 1,152 "
                              "bytes")
        assert "more than the 1,000 bytes" in err
        assert err.count("\n") == 1
    assert not os.path.exists(out)
    # darkstates needs no emission matrix
    assert run_cli(["darkstates", "--config", cfg]) == 0

    # enough memory, or a platform that cannot say: the run goes ahead
    for probe in (lambda: 1152, lambda: None):
        monkeypatch.setattr(cli, "_physical_memory", probe)
        assert run_cli(["criterion", "--config", cfg]) == 0


def test_overdriven_pulse_exits_3(tmp_path, capsys):
    # 3-beam diagonal on a hot level pushes per-atom probability past 1
    doc = {
        "basis": {"dim": 3, "max_shell": 8},
        "params": {"eta": 2.0, "omega0_tau_abs": 0.9},
        "atoms": 1,
        "trajectories": 1,
        "seed": 1,
        "initial": {"point_level": [1, 1, 3]},
        "schedule": {"pulses": [{"s": 0, "amps": [1.0, 1.0, -2.0]}],
                     "total_cycles": 5},
        "watched": [[0, 0, 0]],
        "output": {"directory": str(tmp_path / "out")},
    }
    cfg = write_doc(tmp_path, doc)
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: physics:")
    assert "exceeds 1" in err


def test_cache_reuse_and_corruption(tmp_path, capsys):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    doc = sim_doc(out1)
    doc["cache_dir"] = str(tmp_path / "cache")
    cfg = write_doc(tmp_path, doc)

    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    assert "abs_builds: 2" in read(out1, "summary.txt")

    # a fresh process only touches the disk, never rebuilds
    assert run_cli(["simulate", "--config", cfg, "--threads", "1",
                    "--out", out2]) == 0
    summary = read(out2, "summary.txt")
    assert "abs_builds: 0" in summary
    assert "sp_builds: 0" in summary
    assert "disk_loads: 3" in summary

    files = sorted(glob.glob(str(tmp_path / "cache" / "*.rates")))
    assert len(files) == 3
    raw = bytearray(open(files[0], "rb").read())
    raw[-10] ^= 0xFF
    open(files[0], "wb").write(bytes(raw))
    assert run_cli(["simulate", "--config", cfg, "--threads", "1",
                    "--out", str(tmp_path / "r3")]) == 4
    assert capsys.readouterr().err.startswith("error: io:")


def test_cache_dir_env_override(tmp_path, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv(CACHE_ENV, str(env_cache))
    out = str(tmp_path / "out")
    cfg = write_doc(tmp_path, sim_doc(out))
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    assert len(glob.glob(str(env_cache / "*.rates"))) == 3


def test_darkstates_reports_the_ground_level(tmp_path):
    out = str(tmp_path / "out")
    doc = {
        "basis": {"dim": 1, "max_shell": 5},
        "params": {"eta": 0.7, "omega0_tau_abs": 0.4},
        "initial": {"point_level": [1]},
        "schedule": {"pulses": [{"s": -1}], "total_cycles": 10},
        "watched": [[0]],
        "output": {"directory": out},
    }
    cfg = write_doc(tmp_path, doc)
    assert run_cli(["darkstates", "--config", cfg]) == 0
    text = read(out, "darkstates.txt")
    assert "exact_dark_count: 1" in text
    assert "dark: level=(0,) depletion=0" in text


def test_criterion_reports_condensing(tmp_path):
    out = str(tmp_path / "out")
    doc = sim_doc(out)
    doc["criterion"] = {"target": [0]}
    cfg = write_doc(tmp_path, doc)
    assert run_cli(["criterion", "--config", cfg]) == 0
    text = read(out, "criterion.txt")
    assert "target: (0,)" in text
    assert "verdict: condensing" in text
    assert "violating_count: 0" in text
    assert "cooling_time_cycles:" in text


def test_hysteresis_command_end_to_end(tmp_path):
    # V-shaped amplitude sweep; decay happens on the way down, the
    # target keeps its population so the return never crosses
    out = str(tmp_path / "out")
    doc = {
        "basis": {"dim": 1, "max_shell": 3},
        "params": {"eta": 0.7, "omega0_tau_abs": 0.8},
        "atoms": 1,
        "trajectories": 20,
        "seed": 3,
        "initial": {"point_level": [1]},
        "schedule": {
            "pulses": [{"s": -1, "amps": [1.0]}],
            "ramps": [
                {"pulse": 0, "field": "a_x", "start": 1.0, "end": 0.2,
                 "start_cycle": 0, "end_cycle": 30},
                {"pulse": 0, "field": "a_x", "start": 0.2, "end": 1.0,
                 "start_cycle": 30, "end_cycle": 60},
            ],
            "total_cycles": 60,
        },
        "recorder": {"stride": 2, "events": False},
        "watched": [[1], [0]],
        "hysteresis": {"threshold": 0.5, "source": [1], "targets": [[0]]},
        "output": {"directory": out},
    }
    cfg = write_doc(tmp_path, doc)
    assert run_cli(["hysteresis", "--config", cfg, "--threads", "1"]) == 0
    assert run_cli(["hysteresis", "--config", cfg, "--threads", "2",
                    "--out", str(tmp_path / "out2")]) == 0
    summaries = [read(d, "summary.txt").splitlines()
                 for d in (out, str(tmp_path / "out2"))]
    evals = [[ln for ln in lines if ln.startswith("ramp_evals:")]
             for lines in summaries]
    # worker-side evaluations count: every cycle moves the amplitude
    assert evals[0] == evals[1] == ["ramp_evals: 1200"]
    assert "events_total: not recorded" in summaries[0]
    text = read(out, "hysteresis.txt")
    assert "up_transfer_value: 0.70666666666666667" in text
    assert "up_transfer_cycle: 12" in text
    assert "down_transfer_value: none" in text
    assert "found_both: False" in text
    header = read(out, "observables.csv").splitlines()[0]
    assert header == ("cycle,ramp0_a_x,frac_1_mean,frac_1_std,"
                      "frac_0_mean,frac_0_std,mean_shell")


def test_auto_area_run_builds_each_structure_once(tmp_path, monkeypatch):
    # fig3's eight pulses on a small basis: calibration and the run share
    # one structure memo, cold cache or warm
    from bosecool import dynamics
    calls = []
    build = dynamics.absorption_structure

    def counted(*args, **kwargs):
        calls.append(args[2:])
        return build(*args, **kwargs)

    monkeypatch.setattr(dynamics, "absorption_structure", counted)
    out = str(tmp_path / "out")
    doc = {
        "basis": {"dim": 3, "max_shell": 4},
        "params": {"eta": 2.0, "omega0_tau_abs": "auto"},
        "atoms": 3,
        "trajectories": 1,
        "seed": 1,
        "initial": {"thermal_mean_shell": 1.5},
        "schedule": {"figure": "fig3", "ramp_scale": 0.0001},
        "recorder": {"stride": 100, "events": False},
        "watched": [[0, 0, 0]],
        "output": {"directory": out},
        "cache_dir": str(tmp_path / "cache"),
    }
    cfg = write_doc(tmp_path, doc)
    for _ in range(2):
        calls.clear()
        assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
        assert len(calls) == len(set(calls)) == 8
        assert "structure_builds: 8" in read(out, "summary.txt").splitlines()


def child_env() -> dict:
    """Environment in which a child process imports the package under
    test, installed or not."""
    src = os.path.dirname(os.path.dirname(bosecool.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "bosecool", "--help"],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
    assert "hysteresis" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, bosecool.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
