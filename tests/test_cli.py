"""End-to-end CLI runs: exit codes, file formats, determinism, cache."""

from __future__ import annotations

import errno
import gc
import glob
import mmap
import os
import stat
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import pytest
import yaml

import bosecool
from bosecool import basis as basis_module
from bosecool import cli, emission_quadrature, enumerate_levels
from bosecool.cli import CACHE_ENV, main
from bosecool.basis import enumeration_bytes
from bosecool.cache import cache_load, cache_store
from bosecool.config import load_config
from bosecool.rates import emission_memory_bytes

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
    # the ramp check comes before the pulse area is calibrated, which this
    # config cannot be: its atoms start in the level the pulse leaves dark
    doc = {"basis": {"dim": 1, "max_shell": 3},
           "params": {"eta": 0.7, "omega0_tau_abs": "auto"},
           "initial": {"point_level": [0]},
           "schedule": {"pulses": [{"s": -1}], "total_cycles": 10},
           "hysteresis": {"source": [1], "targets": [[0]]},
           "output": {"directory": out}}
    cfg = write_doc(tmp_path, doc, "noramp_auto.yaml")
    assert run_cli(["hysteresis", "--config", cfg]) == 2
    assert "error: config: no ramp" in capsys.readouterr().err

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

    doc = sim_doc(out)  # a ramp whose endpoints pass but which sweeps the
    # pulse's only beam through 0 at cycle 5
    doc["schedule"]["ramps"] = [{"pulse": 0, "field": "a_x", "start": 1.0,
                                 "end": -1.0, "start_cycle": 0,
                                 "end_cycle": 10}]
    cfg = write_doc(tmp_path, doc, "ramp0.yaml")
    for command in ("simulate", "hysteresis"):
        assert run_cli([command, "--config", cfg, "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: schedule:")
        assert "no nonzero beam amplitude at cycle 5" in err
        assert err.count("\n") == 1

    # knobs no computation reads: gamma, ramp_scale outside fig3, and ramps
    # beside a figure preset
    fig1 = {"basis": {"dim": 3, "max_shell": 4}, "params": {"eta": 2.0},
            "schedule": {"figure": "fig1", "ramp_scale": 0.5},
            "watched": [[0, 0, 0]], "output": {"directory": out}}
    fig1_ramps = {**fig1, "schedule": {"figure": "fig1", "ramps": [
        {"pulse": 99, "field": "bogus"}]}}
    gamma, pulses = sim_doc(out), sim_doc(out)
    gamma["params"]["gamma"] = 0.01
    pulses["schedule"]["ramp_scale"] = 0.5
    for doc, fragment in ((gamma, "params: unknown keys ['gamma']"),
                          (pulses, "schedule.ramp_scale"),
                          (fig1, "schedule.ramp_scale"),
                          (fig1_ramps, "schedule.ramps")):
        cfg = write_doc(tmp_path, doc, "knob.yaml")
        assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and fragment in err
    assert not os.path.exists(out)


def test_overrides_are_checked_as_the_keys_they_replace(tmp_path, capsys,
                                                        monkeypatch):
    # --out and --seed go through the config parser: an empty --out is
    # refused like an empty output.directory, before anything is written
    monkeypatch.chdir(tmp_path)
    cfg = write_doc(tmp_path, sim_doc(str(tmp_path / "out")))
    doc = sim_doc("")
    bad = write_doc(tmp_path, doc, "empty_out.yaml")
    for argv, message in (
            (["--config", cfg, "--out", ""], "output.directory must be a path"),
            (["--config", bad], "output.directory must be a path"),
            (["--config", cfg, "--seed", "-1"], "seed must be >= 0")):
        for command in ("simulate", "darkstates"):
            assert run_cli([command, *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: config:") and message in err
    assert sorted(os.listdir(tmp_path)) == ["empty_out.yaml", "run.yaml"]
    # a good override replaces the bad key it overrides
    assert run_cli(["darkstates", "--config", bad, "--out", "alt"]) == 0
    assert os.listdir(tmp_path / "alt") == ["darkstates.txt"]


def test_beam_cross_fade_runs(tmp_path):
    # a_x fades 1 -> 0 while a_y fades 0 -> 1: each beam is off at one
    # end of the window, but some beam is on at every cycle
    out = str(tmp_path / "out")
    doc = sim_doc(out)
    doc["basis"] = {"dim": 2, "max_shell": 3}
    doc["initial"] = {"point_level": [2, 1]}
    doc["watched"] = [[0, 0]]
    doc["schedule"] = {
        "pulses": [{"s": -1, "amps": [1.0, 1.0]}, {"s": 0, "amps": [1.0, 0.0]}],
        "total_cycles": 20,
        "ramps": [{"pulse": 1, "field": "a_x", "start": 1.0, "end": 0.0,
                   "start_cycle": 5, "end_cycle": 15},
                  {"pulse": 1, "field": "a_y", "start": 0.0, "end": 1.0,
                   "start_cycle": 5, "end_cycle": 15}]}
    cfg = write_doc(tmp_path, doc, "fade.yaml")
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    rows = read(out, "observables.csv").splitlines()
    assert rows[0].startswith("cycle,ramp1_a_x,ramp1_a_y,")
    assert rows[1].startswith("0,1,0,") and rows[-1].startswith("20,0,1,")


def test_memory_preflight_exits_2(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "out")
    doc = sim_doc(out)  # 6 levels
    doc["criterion"] = {"target": [0]}
    doc["schedule"]["ramps"] = [{"pulse": 0, "field": "a_x", "start": 1.0,
                                 "end": 0.5, "start_cycle": 0,
                                 "end_cycle": 40}]
    doc["hysteresis"] = {"source": [5], "targets": [[0]]}
    cfg = write_doc(tmp_path, doc)
    real = basis_module._physical_memory()
    assert real is None or real > 1 << 20
    need = emission_memory_bytes(enumerate_levels(1, 5), emission_quadrature(1))
    monkeypatch.setattr(basis_module, "_physical_memory", lambda: need - 1)
    for command in ("simulate", "criterion", "hysteresis"):
        assert run_cli([command, "--config", cfg, "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: the emission matrix of "
                              f"basis(dim=1,max_shell=5) needs about {need:,} "
                              "bytes")
        assert f"more than the {need - 1:,} bytes" in err
        assert err.count("\n") == 1
    assert not os.path.exists(out)
    # darkstates needs no emission matrix
    assert run_cli(["darkstates", "--config", cfg]) == 0

    # enough memory, or a platform that cannot say: the run goes ahead
    for probe in (lambda: need, lambda: None):
        monkeypatch.setattr(basis_module, "_physical_memory", probe)
        assert run_cli(["criterion", "--config", cfg]) == 0


def test_oversized_basis_exits_2_before_enumeration(tmp_path, capsys,
                                                   monkeypatch):
    # 2001**3 quantum-number tuples: enumeration would take 366 GiB, so
    # every command refuses before any table is allocated
    from bosecool import config

    def unreachable(*args):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(config, "enumerate_levels", unreachable)
    monkeypatch.setattr(basis_module, "_physical_memory", lambda: 16 << 30)
    out = str(tmp_path / "out")
    doc = {
        "basis": {"dim": 3, "max_shell": 2000},
        "params": {"eta": 2.0},
        "atoms": 3,
        "initial": {"point_level": [2000, 0, 0]},
        "schedule": {"figure": "fig3"},
        "watched": [[0, 0, 0]],
        "criterion": {"target": [0, 0, 0]},
        "hysteresis": {"source": [0, 0, 1], "targets": [[0, 1, 0]]},
        "output": {"directory": out},
    }
    cfg = write_doc(tmp_path, doc)
    need = enumeration_bytes(3, 2000)
    for command in ("simulate", "darkstates", "criterion", "hysteresis"):
        assert run_cli([command, "--config", cfg, "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: config: enumerating basis(dim=3,max_shell=2000) "
                       f"needs about {need:,} bytes (365.8 GiB), more than "
                       f"the {16 << 30:,} bytes (16.0 GiB) of physical "
                       "memory; lower basis.max_shell\n")
    assert not os.path.exists(out)


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
    raw = bytearray(Path(files[0]).read_bytes())
    raw[-10] ^= 0xFF
    Path(files[0]).write_bytes(raw)
    assert run_cli(["simulate", "--config", cfg, "--threads", "1",
                    "--out", str(tmp_path / "r3")]) == 4
    assert capsys.readouterr().err.startswith("error: io:")


class _DiskFull:
    """A binary file that writes the first bytes of its first part and
    then fails, as a write to a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, part):
        self.fh.write(bytes(part)[:8])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_interrupted_writes_keep_the_old_bytes(tmp_path, capsys, monkeypatch):
    # a write that fails midway leaves its target as it was and no
    # temporary file, for a command's outputs and a cache store alike; the
    # temporary files are hidden, so no "*" or "*.rates" glob sees them
    doc = sim_doc(str(tmp_path / "out"))
    doc["cache_dir"] = str(tmp_path / "cache")
    cfg = write_doc(tmp_path, doc)

    def files() -> dict:  # hidden ones included
        return {p: p.read_bytes() for p in sorted(tmp_path.glob("*/*"))}

    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    before = files()

    temps = []
    real_mkstemp, real_fdopen = tempfile.mkstemp, os.fdopen

    def mkstemp(**kwargs):
        fd, tmp = real_mkstemp(**kwargs)
        temps.append(tmp)
        return fd, tmp

    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _DiskFull(
        real_fdopen(fd, mode)))
    # the warm run stores nothing, so only its first output is written
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 4
    assert "No space left on device" in capsys.readouterr().err
    rates = glob.glob(str(tmp_path / "cache" / "*.rates"))[0]
    with pytest.raises(OSError, match="No space left on device"):
        cache_store(cache_load(rates), rates)

    assert len(temps) == 2
    assert all(os.path.basename(t).startswith(".tmp-") for t in temps)
    assert not any(os.path.exists(t) for t in temps)
    assert files() == before


def test_cache_dir_env_override(tmp_path, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv(CACHE_ENV, str(env_cache))
    out = str(tmp_path / "out")
    cfg = write_doc(tmp_path, sim_doc(out))
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    assert len(glob.glob(str(env_cache / "*.rates"))) == 3
    # the variable wins over cache_dir, and an empty one is ignored
    doc = sim_doc(out)
    doc["cache_dir"] = str(tmp_path / "cfgcache")
    cfg = write_doc(tmp_path, doc, "cached.yaml")
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    assert not (tmp_path / "cfgcache").exists()
    monkeypatch.setenv(CACHE_ENV, "")
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    assert len(glob.glob(str(tmp_path / "cfgcache" / "*.rates"))) == 3


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_written_files_take_the_umask_mode(tmp_path, umask, mode):
    # outputs and cache files get the mode open() gives a new file, not
    # the owner-only mode of their temporary file
    doc = sim_doc(str(tmp_path / "out"))
    doc["cache_dir"] = str(tmp_path / "cache")
    cfg = write_doc(tmp_path, doc)
    old = os.umask(umask)
    try:
        assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    finally:
        os.umask(old)
    rates = sorted((tmp_path / "cache").glob("*.rates"))
    assert len(rates) == 3
    for path in (tmp_path / "out" / "observables.csv", *rates):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path


def test_mapping_failure_exits_4(tmp_path, capsys, monkeypatch):
    doc = sim_doc(str(tmp_path / "r1"))
    doc["cache_dir"] = str(tmp_path / "cache")
    cfg = write_doc(tmp_path, doc)
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refuse)
    assert run_cli(["simulate", "--config", cfg, "--threads", "1",
                    "--out", str(tmp_path / "r2")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: io:")
    assert "Cannot allocate memory" in err
    assert not (tmp_path / "r2").exists()


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


def test_darkstates_needs_no_watched_level(tmp_path):
    # darkstates reads no watched level: without one it writes what it
    # writes with one
    doc = sim_doc(str(tmp_path / "watched"))
    assert run_cli(["darkstates", "--config", write_doc(tmp_path, doc)]) == 0
    del doc["watched"]
    doc["output"]["directory"] = str(tmp_path / "unwatched")
    assert run_cli(["darkstates", "--config", write_doc(tmp_path, doc)]) == 0
    assert read(str(tmp_path / "unwatched"), "darkstates.txt") == \
        read(str(tmp_path / "watched"), "darkstates.txt")


def test_nan_beam_amplitude_exits_2(tmp_path, capsys):
    # a NaN amplitude would excite nothing and the run would exit 0
    doc = sim_doc(str(tmp_path / "out"))
    doc["schedule"]["pulses"][0]["amps"] = [float("nan")]
    cfg = write_doc(tmp_path, doc)
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config: schedule.pulses[0]: beam amplitudes must be finite")
    assert not os.path.exists(tmp_path / "out")


def test_infinite_eta_with_a_figure_schedule_exits_2(tmp_path, capsys):
    # the figure's shell targets round eta^2, which cannot be done at inf
    doc = {"basis": {"dim": 3, "max_shell": 4},
           "params": {"eta": float("inf")}, "schedule": {"figure": "fig1"},
           "output": {"directory": str(tmp_path / "out")}}
    cfg = write_doc(tmp_path, doc)
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config: params: eta must be >= 0 and finite, got inf")
    assert not os.path.exists(tmp_path / "out")


def test_unattainable_thermal_start_exits_2_before_any_build(tmp_path, capsys):
    # the six-level ladder's hottest mean shell is below 5; simulate refuses
    # that start before it builds or stores a matrix, while darkstates and
    # criterion read no initial state
    doc = sim_doc(str(tmp_path / "out"))
    doc["initial"] = {"thermal_mean_shell": 5.0}
    doc["criterion"] = {"target": [0]}
    doc["cache_dir"] = str(tmp_path / "cache")
    cfg = write_doc(tmp_path, doc)
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 2
    assert "not attainable" in capsys.readouterr().err
    assert not glob.glob(str(tmp_path / "cache" / "*"))
    assert not os.path.exists(tmp_path / "out")
    for command in ("darkstates", "criterion"):
        assert run_cli([command, "--config", cfg]) == 0


@pytest.mark.parametrize("own", [0.99, 0.05])
def test_calibration_leaves_out_pulses_with_their_own_area(tmp_path, own):
    # the s = 0 pulse keeps its own area whatever the calibration finds,
    # so only the s = -1 pulse, which alone calibrates to the cap, counts
    doc = {
        "basis": {"dim": 1, "max_shell": 5},
        "params": {"eta": 0.1, "omega0_tau_abs": "auto"},
        "atoms": 1,
        "initial": {"point_level": [1]},
        "schedule": {"pulses": [{"s": 0, "omega0_tau_abs": own}, {"s": -1}],
                     "total_cycles": 10},
        "output": {"directory": str(tmp_path / "out")},
    }
    provider = cli._prepare(load_config(write_doc(tmp_path, doc)),
                            emission=False)
    assert provider.params.omega0_tau_abs == 0.9


def test_preset_pulse_areas_are_pinned():
    want = {"fig1": 0.5527137918977827, "fig2": 0.9, "fig2_eta205": 0.9,
            "fig3": 0.5600646403017431, "fig3_short": 0.5600646403017431}
    configs = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "configs")
    for name, area in want.items():
        cfg = load_config(os.path.join(configs, f"{name}.yaml"))
        provider = cli._prepare(cfg, emission=False)
        assert cfg.omega0_tau_abs == "auto"
        assert provider.params.omega0_tau_abs == area, name


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
    # each worker evaluates once per cycle, as every cycle moves the
    # amplitude, whatever the number of trajectories it runs
    assert evals == [["ramp_evals: 60"], ["ramp_evals: 120"]]
    assert "events_total: not recorded" in summaries[0]
    text = read(out, "hysteresis.txt")
    assert "up_transfer_value: 0.70666666666666667" in text
    assert "up_transfer_cycle: 12" in text
    assert "down_transfer_value: none" in text
    assert "found_both: False" in text
    header = read(out, "observables.csv").splitlines()[0]
    assert header == ("cycle,ramp0_a_x,frac_1_mean,frac_1_std,"
                      "frac_0_mean,frac_0_std,mean_shell")


def fig3_auto_doc(tmp_path) -> dict:
    """fig3's eight pulses, one of them ramped, at a calibrated area on a
    small basis."""
    return {
        "basis": {"dim": 3, "max_shell": 4},
        "params": {"eta": 2.0, "omega0_tau_abs": "auto"},
        "atoms": 3,
        "trajectories": 1,
        "seed": 1,
        "initial": {"thermal_mean_shell": 1.5},
        "schedule": {"figure": "fig3", "ramp_scale": 0.0001},
        "recorder": {"stride": 100, "events": False},
        "watched": [[0, 0, 0]],
        "output": {"directory": str(tmp_path / "out")},
        "cache_dir": str(tmp_path / "cache"),
    }


def built_structures(monkeypatch) -> list:
    """(arguments after basis and params, weak reference) of each
    absorption structure built from now on."""
    from bosecool import dynamics
    built = []
    build = dynamics.absorption_structure

    def tracked(*args, **kwargs):
        st = build(*args, **kwargs)
        built.append((args[2:], weakref.ref(st)))
        return st

    monkeypatch.setattr(dynamics, "absorption_structure", tracked)
    return built


def test_auto_area_calibration_and_run_build_their_own_structures(
        tmp_path, monkeypatch):
    # calibration builds one structure per pulse and drops them; the
    # provider builds each it needs once: all eight on an empty cache, only
    # the ramped pulse's on a warm one
    built = built_structures(monkeypatch)
    doc = fig3_auto_doc(tmp_path)
    out = doc["output"]["directory"]
    cfg = write_doc(tmp_path, doc)
    for run_builds in (8, 1):
        built.clear()
        assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
        assert len(built) == 8 + run_builds
        assert len({key for key, _ in built[8:]}) == run_builds
        assert (f"structure_builds: {run_builds}"
                in read(out, "summary.txt").splitlines())


def test_calibration_structures_are_freed_before_the_run(tmp_path, monkeypatch):
    # the emission load sets a run's peak memory, so nothing the
    # calibration built may still be alive when the provider is returned
    built = built_structures(monkeypatch)
    cfg = load_config(write_doc(tmp_path, fig3_auto_doc(tmp_path)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        provider = cli._prepare(cfg)
    gc.collect()
    assert len(built) == 8  # all calibration's: the provider built none yet
    assert [ref() for _, ref in built] == [None] * 8
    assert provider.counters["structure_builds"] == 0


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


def test_p_above_half_warns_once_per_run(tmp_path):
    # 3 atoms at p ~ 0.79 (the amplified self-coupling of
    # test_trajectory_warns_above_half): each forked worker counts its
    # pulses above 0.5, and only the calling process warns, once
    doc = {
        "basis": {"dim": 1, "max_shell": 2},
        "params": {"eta": 0.9, "omega0_tau_abs": 0.75},
        "atoms": 3,
        "trajectories": 6,
        "initial": {"point_level": [0]},
        "schedule": {"pulses": [{"s": 0, "amps": [-2.0]}], "total_cycles": 4},
        "recorder": {"stride": 1, "events": False},
        "watched": [[0]],
    }
    counts = set()
    for threads in ("1", "3"):
        out = tmp_path / f"out{threads}"
        doc["output"] = {"directory": str(out)}
        cfg = write_doc(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, "-m", "bosecool", "simulate", "--config", cfg,
             "--threads", threads],
            capture_output=True, text=True, timeout=120, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("exceeded 0.5") == 1, proc.stderr
        counts.update(line for line in (out / "summary.txt").read_text()
                      .splitlines() if line.startswith("pulses_above_p_0.5"))
    assert len(counts) == 1 and counts != {"pulses_above_p_0.5: 0"}


def test_trajectory_memory_preflight_exits_2(tmp_path, capsys, monkeypatch):
    # sim_doc: 30 trajectories of 2 atoms on 6 levels, 17 rows (80 cycles
    # at stride 5), 2 watched levels; the hysteresis run watches a third
    # level and ramps one field. Each trajectory is bounded by 3,584 bytes,
    # 10 a level and per row 24 and 32 a watched level, and the one worker
    # draws with 16 bytes an atom and a level
    def unreachable(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    doc = sim_doc(str(tmp_path / "simulate"))
    sim = write_doc(tmp_path, doc, "sim.yaml")
    doc["output"] = {"directory": str(tmp_path / "hysteresis")}
    doc["schedule"]["ramps"] = [{"pulse": 0, "field": "a_x", "start": 1.0,
                                 "end": 0.5, "start_cycle": 0,
                                 "end_cycle": 40}]
    doc["hysteresis"] = {"source": [5], "targets": [[0]]}
    hys = write_doc(tmp_path, doc, "hys.yaml")
    for command, cfg, need in (
            ("simulate", sim,
             30 * (3584 + 10 * 6 + 17 * (24 + 32 * 2)) + 16 * (2 + 6)),
            ("hysteresis", hys,
             30 * (3584 + 10 * 6 + 17 * (24 + 32 * 3)) + 16 * (2 + 6))):
        monkeypatch.setattr(cli, "run_ensemble", unreachable)
        monkeypatch.setattr(basis_module, "_physical_memory", lambda: need - 1)
        assert run_cli([command, "--config", cfg, "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: config: 30 trajectories of 2 atoms on "
                       f"basis(dim=1,max_shell=5) needs about {need:,} bytes "
                       f"(0.0 GiB), more than the {need - 1:,} bytes (0.0 GiB) "
                       "of physical memory; lower trajectories\n")
        assert not os.path.exists(tmp_path / command)
        # enough memory, or a platform that cannot say: the run goes ahead
        monkeypatch.setattr(cli, "run_ensemble", bosecool.run_ensemble)
        for probe in (lambda: need, lambda: None):
            monkeypatch.setattr(basis_module, "_physical_memory", probe)
            assert run_cli([command, "--config", cfg, "--threads", "1"]) == 0


_HUGE = 10 ** 400  # a YAML integer that no float holds


@pytest.mark.parametrize("key,named", [
    ("params.eta", "params.eta"),
    ("amps", "schedule.pulses[0].amps"),
    ("hysteresis.threshold", "hysteresis.threshold"),
    ("initial.thermal_mean_shell", "initial.thermal_mean_shell"),
    ("basis.max_shell", "lower basis.max_shell"),
    ("trajectories", "lower trajectories")])
def test_huge_numbers_in_a_config_exit_2(tmp_path, capsys, monkeypatch, key,
                                         named):
    # float() of the first four overflows; the last two ask for more bytes
    # than a float can count, so the memory refusal must still name them
    doc = sim_doc(str(tmp_path / "out"))
    if key == "amps":
        doc["schedule"]["pulses"][0]["amps"] = [_HUGE]
    elif key == "initial.thermal_mean_shell":
        doc["initial"] = {"thermal_mean_shell": _HUGE}
    elif "." in key:
        section, name = key.split(".")
        doc.setdefault(section, {})[name] = _HUGE
    else:
        doc[key] = _HUGE
    monkeypatch.setattr(cli, "run_ensemble", None)  # no trajectory may run
    monkeypatch.setattr(basis_module, "_physical_memory", lambda: 8 << 30)
    assert run_cli(["simulate", "--config", write_doc(tmp_path, doc),
                    "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and named in err
    assert not os.path.exists(tmp_path / "out")


def test_preflight_counts_the_initial_draw_and_every_row(tmp_path, capsys,
                                                         monkeypatch):
    # each worker's initial draw holds 16 bytes an atom and a level, so 10**9
    # atoms ask 16 GB of each; a huge total_cycles is counted row by row
    # without building the rows; an atom count no int64 holds is refused at
    # load. Nothing here may run or allocate what it refuses
    def unreachable(*args, **kwargs):
        raise AssertionError("a trajectory ran")

    monkeypatch.setattr(cli, "run_ensemble", unreachable)
    have = 8 << 30
    monkeypatch.setattr(basis_module, "_physical_memory", lambda: have)
    rows = 17 * (24 + 32 * 2)
    for key, value, threads, need, named in (
            ("atoms", 10 ** 9, 1, 16 * (10 ** 9 + 6), "lower atoms"),
            ("atoms", 10 ** 9 // 3, 3, 3 * 16 * (10 ** 9 // 3 + 6),
             "lower atoms"),
            ("total_cycles", _HUGE, 1, None, "lower trajectories"),
            ("atoms", 2 ** 63, 1, None, "atoms must be >= 1 and below 2**63"),
            ("atoms", _HUGE, 1, None, "atoms must be >= 1 and below 2**63")):
        doc = sim_doc(str(tmp_path / "out"))
        if key == "total_cycles":
            doc["schedule"]["total_cycles"] = value
        else:
            doc[key] = value
        argv = ["simulate", "--config", write_doc(tmp_path, doc), "--threads",
                str(threads)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        if need is not None:
            need += 30 * (3584 + 10 * 6 + rows)
            assert f"needs about {need:,} bytes" in err
        elif key == "total_cycles":
            assert "needs over 2**64 bytes" in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("sign", [1, -1])
def test_a_huge_shell_target_is_a_dark_pulse(tmp_path, sign):
    # no shift of a huge target reaches the basis, so no channel is listed
    doc = sim_doc(str(tmp_path / "out"))
    doc["schedule"]["pulses"].append({"s": sign * _HUGE})
    doc["cache_dir"] = str(tmp_path / "cache")
    cfg = write_doc(tmp_path, doc)
    assert run_cli(["darkstates", "--config", cfg]) == 0
    assert run_cli(["simulate", "--config", cfg, "--threads", "1"]) == 0
    provider = cli._prepare(load_config(cfg))
    rates = provider.absorption(load_config(cfg).schedule.cycle[-1],
                                persist=True)
    assert not rates.depletion.any() and rates.chan_to.size == 0
