"""Strict YAML config parsing into a run's validated schedule."""

from __future__ import annotations

import copy
import glob
import math
import os
import re

import pytest

from bosecool import PulseSpec, Ramp, figure_schedule
from bosecool.config import (ConfigError, RunConfig, config_from_dict,
                             load_config)

from oracles import FIGURE_PULSES


def base_doc() -> dict:
    # minimal valid 1D run with explicit pulses
    return {
        "basis": {"dim": 1, "max_shell": 5},
        "params": {"eta": 0.7, "omega0_tau_abs": 0.4},
        "atoms": 2,
        "trajectories": 10,
        "seed": 42,
        "initial": {"point_level": [5]},
        "schedule": {"pulses": [{"s": -1}, {"s": -2}], "total_cycles": 50},
        "recorder": {"stride": 5, "events": True},
        "watched": [[0], [1]],
        "output": {"directory": "out/test"},
    }


def fig_doc() -> dict:
    return {
        "basis": {"dim": 3, "max_shell": 8},
        "params": {"eta": 2.0},
        "atoms": 500,
        "initial": {"thermal_mean_shell": 6.0},
        "schedule": {"figure": "fig1"},
        "criterion": {"target": [0, 0, 0]},
    }


def test_explicit_pulses_parse_to_schedule():
    doc = base_doc()
    doc["schedule"]["pulses"] = [
        {"s": -1, "amps": [1.0]},
        {"s": 0, "amps": [1.0], "omega0_tau_abs": 0.3},
    ]
    doc["schedule"]["ramps"] = [
        {"pulse": 1, "field": "a_x", "start": 1.0, "end": 0.2,
         "start_cycle": 0, "end_cycle": 25},
    ]
    schedule = config_from_dict(doc).schedule
    assert schedule.cycle == (PulseSpec(s=-1, amps=(1.0,)),
                              PulseSpec(s=0, amps=(1.0,), omega0_tau_abs=0.3))
    assert schedule.ramps == (Ramp(1, "a_x", 1.0, 0.2, 0, 25),)
    assert schedule.total_cycles == 50


def test_figure_preset_parses_to_schedule():
    cfg = config_from_dict(fig_doc())
    assert cfg.schedule == figure_schedule("fig1", eta=2.0)
    assert cfg.schedule.cycle == tuple(
        PulseSpec(s=s, amps=amps) for s, amps in FIGURE_PULSES["fig1"])
    assert cfg.criterion_target == (0, 0, 0)


def test_ramp_scale_only_with_fig3():
    doc = base_doc()
    doc["schedule"]["ramp_scale"] = 0.5
    with pytest.raises(ConfigError, match="schedule.ramp_scale.*fig3"):
        config_from_dict(doc)
    doc = fig_doc()
    doc["schedule"]["ramp_scale"] = 0.5
    with pytest.raises(ConfigError, match="schedule.ramp_scale.*fig3"):
        config_from_dict(doc)
    doc["schedule"] = {"figure": "fig3", "ramp_scale": 0.1}
    assert config_from_dict(doc).schedule == figure_schedule(
        "fig3", eta=2.0, ramp_scale=0.1)
    doc["schedule"]["ramp_scale"] = 1.5  # figure_schedule's own range check
    with pytest.raises(ConfigError, match=r"schedule: ramp_scale must lie"):
        config_from_dict(doc)


def test_auto_area_marker_survives_round_trip():
    cfg = config_from_dict(fig_doc())
    assert cfg.omega0_tau_abs == "auto"
    # and cannot build params until an actual number is supplied
    with pytest.raises(ConfigError, match="auto"):
        cfg.build_params()
    assert cfg.build_params(0.55).omega0_tau_abs == 0.55


def test_defaults_fill_in():
    doc = {
        "basis": {"dim": 1, "max_shell": 3},
        "params": {"eta": 0.5, "omega0_tau_abs": 0.2},
        "schedule": {"pulses": [{"s": -1}], "total_cycles": 10},
    }
    cfg = config_from_dict(doc)
    assert cfg.n_atoms == 1
    assert cfg.n_traj == 1
    assert cfg.seed == 0
    assert cfg.initial.kind == "thermal"
    assert cfg.initial.mean_shell == 6.0
    assert cfg.recorder.stride == 1
    assert cfg.recorder.events is True
    assert cfg.out_dir == "out"
    assert cfg.cache_dir is None
    assert cfg.criterion_target is None
    assert cfg.hysteresis.threshold == 0.5
    assert cfg.omega_tau_abs == 4.0
    assert cfg.eta_sp_ratio == 1.0
    assert cfg.resonance_window == 0
    assert cfg.emission_pattern == "isotropic"
    assert cfg.quadrature_order == 24
    assert cfg.watched == ()
    assert cfg.hysteresis.source is None
    assert cfg.hysteresis.targets == ()
    assert cfg.schedule.cycle == (PulseSpec(s=-1, amps=(1.0,)),)
    doc["params"] = {"eta": 2.0}
    assert config_from_dict(doc).omega0_tau_abs == "auto"
    doc["basis"] = {"dim": 3, "max_shell": 3}
    doc["schedule"] = {"pulses": [{"s": -1}], "total_cycles": 10}
    assert config_from_dict(doc).schedule.cycle[0].amps == (1.0, 1.0, 1.0)
    doc["schedule"] = {"figure": "fig3"}  # ramp_scale 1: 1,200 + 2 * 18,600
    assert config_from_dict(doc).schedule == figure_schedule("fig3", eta=2.0)
    assert config_from_dict(doc).schedule.total_cycles == 38_400


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(bogus=1), "config: unknown keys"),
    (lambda d: d["basis"].update(extra=2), "basis: unknown keys"),
    (lambda d: d["params"].update(etaa=0.5), "params: unknown keys"),
    (lambda d: d["params"].update(gamma=0.01),
     r"params: unknown keys \['gamma'\]"),
    (lambda d: d["schedule"]["pulses"][0].update(area=0.1),
     r"schedule.pulses\[0\]: unknown keys"),
    (lambda d: d["recorder"].update(step=3), "recorder: unknown keys"),
    (lambda d: d["output"].update(path="x"), "output: unknown keys"),
    (lambda d: d["initial"].update(kind="point"),
     r"initial: unknown keys \['kind'\]"),
    (lambda d: d["schedule"].update(cycles=50),
     r"schedule: unknown keys \['cycles'\]"),
    (lambda d: d.update(criterion={"target": [0], "level": [1]}),
     r"criterion: unknown keys \['level'\]"),
    (lambda d: d.update(hysteresis={"source": [5], "targets": [[0]],
                                    "thresh": 0.4}),
     r"hysteresis: unknown keys \['thresh'\]"),
])
def test_unknown_keys_rejected_per_section(mutate, fragment):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(doc)


def test_unknown_ramp_key_rejected():
    doc = base_doc()
    doc["schedule"]["ramps"] = [
        {"pulse": 0, "field": "a_x", "start": 1.0, "end": 0.5,
         "start_cycle": 0, "end_cycle": 10, "shape": "linear"},
    ]
    with pytest.raises(ConfigError, match=r"schedule.ramps\[0\]: unknown keys"):
        config_from_dict(doc)


def test_initial_requires_exactly_one_variant():
    doc = base_doc()
    doc["initial"] = {"thermal_mean_shell": 6.0, "point_level": [0]}
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(doc)
    doc["initial"] = {}
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(doc)


def test_schedule_requires_exactly_one_source():
    doc = base_doc()
    doc["basis"] = {"dim": 3, "max_shell": 4}
    doc["initial"] = {"thermal_mean_shell": 2.0}
    doc["watched"] = []
    doc["schedule"] = {"figure": "fig1",
                       "pulses": [{"s": -1, "amps": [1, 1, 1]}],
                       "total_cycles": 50}
    with pytest.raises(ConfigError, match="exactly one of figure/pulses"):
        config_from_dict(doc)
    doc["schedule"] = {"total_cycles": 50}
    with pytest.raises(ConfigError, match="exactly one of figure/pulses"):
        config_from_dict(doc)


def test_explicit_pulses_need_total_cycles():
    doc = base_doc()
    del doc["schedule"]["total_cycles"]
    with pytest.raises(ConfigError, match="total_cycles is required"):
        config_from_dict(doc)


@pytest.mark.parametrize("key, level", [
    ("watched", [9]),
    ("point", [9]),
    ("criterion", [9]),
    ("watched", [-1]),
])
def test_levels_outside_basis_rejected(key, level):
    doc = base_doc()
    if key == "watched":
        doc["watched"] = [level]
        match = "outside the basis"
    elif key == "point":
        doc["initial"] = {"point_level": level}
        match = "point_level"
    else:
        doc["criterion"] = {"target": level}
        match = "outside the basis"
    with pytest.raises(ConfigError, match=match):
        config_from_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    ("watched", [[0], [1], [0]], "watched: level (0,) is listed twice"),
    ("hysteresis", {"source": [5], "targets": [[1], [0], [1]]},
     "hysteresis.targets: level (1,) is listed twice"),
    ("hysteresis", {"source": [5], "targets": 5},
     "hysteresis.targets must be a list of levels"),
])
def test_level_lists_rejected(key, value, message):
    # a repeated watched level would write its observables.csv columns twice,
    # and a repeated target would count twice in the hysteresis target series
    doc = base_doc()
    doc[key] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(doc)


def test_level_dimension_must_match_basis():
    doc = base_doc()
    doc["watched"] = [[0, 0]]
    with pytest.raises(ConfigError, match="1-component level"):
        config_from_dict(doc)


def test_figure_schedule_needs_3d_basis():
    doc = base_doc()
    doc["schedule"] = {"figure": "fig1"}
    with pytest.raises(ConfigError, match="3D basis"):
        config_from_dict(doc)


def test_unknown_figure_id_rejected():
    doc = fig_doc()
    doc["schedule"] = {"figure": "fig9"}
    with pytest.raises(ConfigError, match="schedule.figure"):
        config_from_dict(doc)


def test_dipole_pattern_needs_3d_basis():
    doc = base_doc()
    doc["params"]["emission_pattern"] = "dipole:z"
    with pytest.raises(ConfigError, match="3D basis"):
        config_from_dict(doc)
    doc3 = fig_doc()
    doc3["params"]["emission_pattern"] = "dipole:z"
    assert config_from_dict(doc3).emission_pattern == "dipole:z"


def test_booleans_are_not_integers():
    doc = base_doc()
    doc["recorder"]["stride"] = True
    with pytest.raises(ConfigError, match="expected an integer"):
        config_from_dict(doc)


def test_area_must_lie_in_unit_interval():
    doc = base_doc()
    doc["params"]["omega0_tau_abs"] = 1.0
    with pytest.raises(ConfigError, match="omega0_tau_abs"):
        config_from_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    ("eta", -0.1, "params: eta must be >= 0"),
    ("eta", math.inf, "params: eta must be >= 0 and finite, got inf"),
    ("eta", math.nan, "params: eta must be >= 0 and finite, got nan"),
    ("omega_tau_abs", 1.0, "params: omega_tau_abs must exceed 1"),
    ("omega_tau_abs", math.inf, "params: omega_tau_abs must exceed 1 "
     "(spectrally resolved pulses) and be finite, got inf"),
    ("omega0_tau_abs", 0.0, "params: omega0_tau_abs must lie in (0, 1)"),
    ("omega0_tau_abs", math.nan, "params: omega0_tau_abs must lie in (0, 1)"),
    ("eta_sp_ratio", -1.0, "params: eta_sp_ratio must be >= 0"),
    ("eta_sp_ratio", math.inf,
     "params: eta_sp_ratio must be >= 0 and finite, got inf"),
    ("resonance_window", -1, "params: resonance_window must be >= 0"),
    ("emission_pattern", "dipole:w", "params: unknown emission pattern"),
    ("emission_pattern", 5, "params: unknown emission pattern 5"),
    ("quadrature_order", 1, "params: quadrature order must be >= 2"),
])
def test_param_ranges_are_config_errors(key, value, message):
    # the types that use each parameter check its range, at load
    doc = base_doc()
    doc["params"][key] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(doc)


def test_total_cycles_must_be_positive():
    doc = base_doc()
    doc["schedule"]["total_cycles"] = 0
    with pytest.raises(ConfigError, match="schedule: total_cycles must be >= 1"):
        config_from_dict(doc)
    for figure in ("fig1", "fig2"):
        doc = fig_doc()
        doc["schedule"] = {"figure": figure, "total_cycles": 0}
        with pytest.raises(ConfigError,
                           match="schedule: total_cycles must be >= 1"):
            config_from_dict(doc)


def test_bad_pulse_amps_are_config_errors():
    doc = base_doc()
    doc["schedule"]["pulses"] = [{"s": -1, "amps": [0.0]}]
    with pytest.raises(ConfigError, match=r"schedule.pulses\[0\]"):
        config_from_dict(doc)


_NON_FINITE_MESSAGES = {
    "amps": "schedule.pulses[1]: beam amplitudes must be finite",
    "omega_tau_abs": "schedule.pulses[1]: omega_tau_abs must exceed 1 and be "
                     "finite",
    "start": "schedule.ramps[0]: ramp endpoints must be finite",
    "end": "schedule.ramps[0]: ramp endpoints must be finite",
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", list(_NON_FINITE_MESSAGES))
def test_non_finite_schedule_numbers_are_config_errors(key, bad):
    # a NaN amplitude would load and excite nothing; the pulse and ramp
    # types refuse every non-finite value and the message names the key
    doc = base_doc()
    doc["schedule"]["ramps"] = [{"pulse": 1, "field": "a_x", "start": 1.0,
                                 "end": 0.5, "start_cycle": 0,
                                 "end_cycle": 10}]
    if key in ("start", "end"):
        doc["schedule"]["ramps"][0][key] = bad
    else:
        doc["schedule"]["pulses"][1][key] = [bad] if key == "amps" else bad
    with pytest.raises(ConfigError,
                       match=re.escape(_NON_FINITE_MESSAGES[key])):
        config_from_dict(doc)


def test_hysteresis_section_parses_and_validates():
    doc = base_doc()
    doc["hysteresis"] = {"threshold": 0.5, "source": [5], "targets": [[0], [1]]}
    cfg = config_from_dict(doc)
    assert cfg.hysteresis.source == (5,)
    assert cfg.hysteresis.targets == ((0,), (1,))
    doc["hysteresis"]["threshold"] = 1.0
    with pytest.raises(ConfigError, match="threshold"):
        config_from_dict(doc)


def test_every_shipped_preset_parses():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    paths = sorted(glob.glob(os.path.join(root, "*.yaml")))
    assert len(paths) >= 6
    for path in paths:
        cfg = load_config(path)
        assert isinstance(cfg, RunConfig)


def test_load_errors_wrap_as_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("basis: [unclosed\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(str(bad))


def test_mutating_copies_does_not_alias():
    # frozen dataclasses: equality is by value, copies stay independent
    cfg = config_from_dict(base_doc())
    clone = copy.deepcopy(cfg)
    assert clone == cfg and clone is not cfg
