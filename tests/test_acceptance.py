"""Acceptance gate: nine end-to-end criteria, one test each.

Every stochastic check runs at a pinned seed, so the suite is
deterministic; tolerances are the contract bounds, not the observed
slack. The big 3D runs share one basis, one thermal start and one
on-disk rate cache through module fixtures.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np
import pytest
import yaml

from bosecool import (Configuration, MatrixProvider, PulseSpec, RecorderSpec,
                      Schedule, SimParams, calibrate_pulse_area,
                      condensation_criterion, emission_counts,
                      enumerate_levels, exact_propagate, fano_factor,
                      figure_schedule, franck_condon_1d, hysteresis_extract,
                      run_ensemble, split_ramp_branches,
                      thermal_distribution)
from bosecool.analysis import depletion_profile
from bosecool.cli import main as cli_main
from bosecool.dynamics import _step

import oracles

FIG1_AREA = 0.5527137918977827
FIG2_AREA = 0.9
FIG3_AREA = 0.5600646403017431


def quiet_run(*args, **kwargs):
    # fig-sized bases clip the top of the emission band; the warning is
    # expected there and would otherwise flood the report
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_ensemble(*args, **kwargs)


def quiet_calibrate(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return calibrate_pulse_area(*args, **kwargs)


@pytest.fixture(scope="module")
def rate_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("rates"))


@pytest.fixture(scope="module")
def fig_system():
    basis = enumerate_levels(3, 20)
    return basis, thermal_distribution(basis, 6.0)


@pytest.fixture(scope="module")
def fig1_env(fig_system, rate_cache):
    basis, _ = fig_system
    params = SimParams(eta=2.0, omega0_tau_abs=FIG1_AREA)
    return params, MatrixProvider(basis, params, cache_dir=rate_cache)


def test_criterion_1_dark_state_algebra(fig_system, fig1_env):
    basis, _ = fig_system
    params, provider = fig1_env
    start = time.monotonic()

    # beam-balance zeros: the weighted displacement sum cancels exactly
    dep = depletion_profile([PulseSpec(s=0, amps=(1.0, 1.0, -2.0 / 3.0))],
                            basis, params, provider=provider)
    top = dep.max()
    assert dep[basis.id_of((1, 0, 1))] <= 1e-12 * top
    assert dep[basis.id_of((0, 1, 1))] <= 1e-12 * top

    dep = depletion_profile([PulseSpec(s=0, amps=(1.0, 1.0, -2.0))],
                            basis, params, provider=provider)
    top = dep.max()
    for m in range(7):
        assert dep[basis.id_of((m, m, m))] <= 1e-12 * top

    # lowering pulse leaves the ground level exactly dark
    dep = depletion_profile([PulseSpec(s=-1, amps=(1.0, 1.0, 1.0))],
                            basis, params, provider=provider)
    assert dep[basis.id_of((0, 0, 0))] == 0.0

    # kick^2 = shift + 1 puts a displacement node on the first level
    dep = depletion_profile([PulseSpec(s=3, amps=(1.0, 1.0, 1.0))],
                            basis, params, provider=provider)
    assert dep.max() > 0
    assert dep[basis.id_of((1, 1, 1))] <= 1e-12 * dep.max()

    assert time.monotonic() - start < 1.0


def test_criterion_2_overlap_oracle():
    # closed form against direct Gauss-Hermite quadrature
    for kappa in (0.5, 1.0, 2.0, 2.05):
        for n_out in range(13):
            for n_in in range(13):
                ref = oracles.displacement_overlap_quad(n_out, n_in, kappa)
                got = franck_condon_1d(n_out, n_in, kappa)
                assert abs(got - ref) <= 1e-10, (n_out, n_in, kappa)
    # completeness of each source column
    for kappa in (0.5, 1.0, 2.0, 2.05):
        for n_in in range(11):
            total = sum(abs(franck_condon_1d(n_out, n_in, kappa)) ** 2
                        for n_out in range(201))
            assert abs(total - 1.0) <= 1e-8


def test_criterion_3_exact_propagator_agreement():
    basis = enumerate_levels(1, 5)
    params = SimParams(eta=0.7, omega0_tau_abs=0.4)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),
                               PulseSpec(s=-2, amps=(1.0,))),
                        total_cycles=200)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[5] = 1
    occ[3] = 1
    initial = Configuration(occ)
    provider = MatrixProvider(basis, params)

    state = exact_propagate(basis, params, schedule, initial,
                            provider=provider)
    ensemble = quiet_run(basis, params, schedule, initial, n_atoms=None,
                         n_traj=10_000, seed=9000,
                         recorder=RecorderSpec(watched_ids=(0,), stride=0,
                                               record_events=False),
                         provider=provider)
    empirical = np.zeros(len(state.probs))
    for row in ensemble.final_occ:
        empirical[state.index[tuple(int(x) for x in row)]] += 1.0
    empirical /= empirical.sum()
    tv = 0.5 * float(np.abs(empirical - state.probs).sum())
    assert tv < 0.02


def test_criterion_4_collective_ground_state_capture(fig_system, fig1_env):
    basis, dist = fig_system
    params, provider = fig1_env
    schedule = figure_schedule("fig1")

    probe = SimParams(eta=2.0, omega0_tau_abs=0.5)
    assert quiet_calibrate(basis, probe, schedule, 500 * dist) == FIG1_AREA

    gid = basis.id_of((0, 0, 0))
    recorder = RecorderSpec(watched_ids=(gid,), stride=10,
                            record_events=False)
    big = quiet_run(basis, params, schedule, dist, n_atoms=500, n_traj=8,
                    seed=777, recorder=recorder, provider=provider)
    frac = big.watched_fraction_mean()[:, 0]
    assert (frac > 0.9).any()
    crossing = int(big.cycles[int(np.argmax(frac > 0.9))])
    assert crossing <= 2000
    assert frac[-1] > 0.9

    # one atom has no enhancement to ride: at least 3x slower
    lone = quiet_run(basis, params, schedule, dist, n_atoms=1, n_traj=48,
                     seed=778, recorder=recorder, provider=provider)
    lone_frac = lone.watched_fraction_mean()[:, 0]
    early = lone_frac[big.cycles <= 3 * crossing]
    assert early.max() <= 0.9
    if (lone_frac > 0.9).any():
        lone_cross = int(lone.cycles[int(np.argmax(lone_frac > 0.9))])
        assert lone_cross >= 3 * crossing


def test_criterion_5_noise_robustness_and_blockade(fig_system, rate_cache):
    basis, dist = fig_system
    eid = basis.id_of((1, 1, 1))
    recorder = RecorderSpec(watched_ids=(eid,), stride=5,
                            record_events=False)

    # the probe calibration saturates at the cap for both trap depths
    for eta in (2.0, 2.05):
        probe = SimParams(eta=eta, omega0_tau_abs=0.5)
        sched = figure_schedule("fig2", eta=eta)
        assert quiet_calibrate(basis, probe, sched, 500 * dist) == FIG2_AREA

    runs = {}
    for eta, n_atoms, n_traj, seed in ((2.05, 1, 100, 912),
                                       (2.0, 500, 8, 911),
                                       (2.05, 500, 8, 911)):
        params = SimParams(eta=eta, omega0_tau_abs=FIG2_AREA)
        provider = MatrixProvider(basis, params, cache_dir=rate_cache)
        runs[(eta, n_atoms)] = quiet_run(
            basis, params, figure_schedule("fig2", eta=eta), dist,
            n_atoms=n_atoms, n_traj=n_traj, seed=seed, recorder=recorder,
            provider=provider)

    # (a) a single atom never transfers: destructive interference holds
    solo = runs[(2.05, 1)].watched_fraction_mean()[:, 0]
    assert solo.max() < 0.5

    # (b) 500 atoms condense at either depth, along matching curves
    m20 = runs[(2.0, 500)].watched_fraction_mean()[:, 0]
    m25 = runs[(2.05, 500)].watched_fraction_mean()[:, 0]
    s20 = runs[(2.0, 500)].watched_fraction_se()[:, 0]
    s25 = runs[(2.05, 500)].watched_fraction_se()[:, 0]
    assert m20[-1] > 0.9
    assert m25[-1] > 0.9
    both_up = (m20 > 0.9) & (m25 > 0.9)
    assert both_up.any()
    kstar = int(np.argmax(both_up))
    window = slice(0, kstar + 1)
    diff = np.abs(m20 - m25)[window]
    band = 2.0 * np.sqrt(s20 ** 2 + s25 ** 2)[window]
    assert np.all(diff <= band)


def test_criterion_6_ramp_hysteresis(fig_system, rate_cache):
    basis, dist = fig_system
    source = basis.id_of((0, 0, 0))
    pair = (basis.id_of((1, 0, 1)), basis.id_of((0, 1, 1)))
    params = SimParams(eta=2.0, omega0_tau_abs=FIG3_AREA)
    provider = MatrixProvider(basis, params, cache_dir=rate_cache)

    probe = SimParams(eta=2.0, omega0_tau_abs=0.5)
    assert quiet_calibrate(basis, probe, figure_schedule("fig3"),
                           500 * dist) == FIG3_AREA

    # shortened sweep first, then the full-length one: the loop must
    # stay open in both
    for scale, stride in ((0.1, 10), (1.0, 40)):
        schedule = figure_schedule("fig3", ramp_scale=scale)
        recorder = RecorderSpec(watched_ids=(source, *pair), stride=stride,
                                record_events=False)
        ens = quiet_run(basis, params, schedule, dist, n_atoms=500,
                        n_traj=8, seed=1234, recorder=recorder,
                        provider=provider)
        ramp = ens.ramp_values[:, 0]
        up, down = split_ramp_branches(ramp)
        frac = ens.watched_fraction_mean()
        source_series = frac[:, 0]
        target_series = frac[:, 1] + frac[:, 2]
        loop = hysteresis_extract(ramp[up], source_series[up],
                                  ramp[down], target_series[down])
        assert loop.found_both, scale
        assert loop.up_value > loop.down_value, scale


def test_criterion_7_criterion_simulation_consistency(fig_system, fig1_env,
                                                      rate_cache):
    basis, dist = fig_system
    params, provider = fig1_env
    schedule = figure_schedule("fig1")
    target = (0, 0, 0)
    gid = basis.id_of(target)
    recorder = RecorderSpec(watched_ids=(gid,), stride=10,
                            record_events=False)

    report = condensation_criterion(list(schedule.cycle), basis, params,
                                    target, provider=provider, n_atoms=500)
    assert report.verdict == "condensing"
    assert report.min_tilde > 0

    full = quiet_run(basis, params, schedule, dist, n_atoms=500, n_traj=8,
                     seed=31, recorder=recorder, provider=provider)
    assert full.watched_fraction_mean()[-1, 0] > 0.9

    # drop the two pulses that kept every competitor leaky
    broken_cycle = tuple(p for i, p in enumerate(schedule.cycle)
                         if i not in (3, 7))
    broken_sched = Schedule(cycle=broken_cycle, total_cycles=2000)
    probe = SimParams(eta=2.0, omega0_tau_abs=0.5)
    broken_area = quiet_calibrate(basis, probe, broken_sched, 500 * dist)
    broken_params = SimParams(eta=2.0, omega0_tau_abs=broken_area)
    broken_provider = MatrixProvider(basis, broken_params,
                                     cache_dir=rate_cache)

    broken_report = condensation_criterion(list(broken_cycle), basis,
                                           broken_params, target,
                                           provider=broken_provider,
                                           n_atoms=500)
    assert broken_report.verdict == "not_condensing"
    assert broken_report.violating_ids.size > 0

    crippled = quiet_run(basis, broken_params, broken_sched, dist,
                         n_atoms=500, n_traj=8, seed=31, recorder=recorder,
                         provider=broken_provider)
    assert crippled.watched_fraction_mean()[-1, 0] < 0.5


def test_criterion_8_emission_statistics(fig_system, rate_cache):
    basis, _ = fig_system
    gid = basis.id_of((0, 0, 0))
    params = SimParams(eta=2.0, omega0_tau_abs=0.55)
    provider = MatrixProvider(basis, params, cache_dir=rate_cache)

    # condensed steady state held by a slightly unbalanced dark pulse,
    # so the target keeps a small but nonzero scattering rate
    schedule = Schedule(cycle=(PulseSpec(s=0, amps=(1.0, 1.0, -1.8)),),
                        total_cycles=4000)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[gid] = 500
    recorder = RecorderSpec(watched_ids=(gid,), stride=0, record_events=True)
    ens = quiet_run(basis, params, schedule, Configuration(occ),
                    n_atoms=None, n_traj=40, seed=101, recorder=recorder,
                    provider=provider)

    fanos = []
    for events in ens.events:
        counts = emission_counts(events, 50, 4000, self_level=gid)
        assert counts.size == 80
        fanos.append(fano_factor(counts).fano)
    mean_fano = float(np.mean(fanos))
    assert 0.9 <= mean_fano <= 1.1


def test_criterion_9_conservation_and_determinism(tmp_path):
    # one million in-place pulse steps, atom number checked after each
    basis = enumerate_levels(1, 5)
    params = SimParams(eta=0.7, omega0_tau_abs=0.4)
    provider = MatrixProvider(basis, params)
    pulses = [provider.absorption(PulseSpec(s=-1, amps=(1.0,))),
              provider.absorption(PulseSpec(s=-2, amps=(1.0,))),
              provider.absorption(PulseSpec(s=1, amps=(1.0,)))]
    sp_dense = provider.spontaneous_dense()
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 2
    occ[5] = 1
    rng = np.random.Generator(np.random.Philox(20260816))
    n_events = 0
    for k in range(1_000_000):
        events, _ = _step(occ, pulses[k % 3], sp_dense, rng)
        n_events += len(events)
        assert occ.sum() == 3
    assert n_events > 0

    # identical seeds, any worker count: byte-identical outputs
    doc = {
        "basis": {"dim": 1, "max_shell": 5},
        "params": {"eta": 0.7, "omega0_tau_abs": 0.4},
        "atoms": 2,
        "trajectories": 30,
        "seed": 7,
        "initial": {"point_level": [5]},
        "schedule": {"pulses": [{"s": -1}, {"s": -2}], "total_cycles": 80},
        "recorder": {"stride": 5, "events": True},
        "watched": [[0], [1]],
        "output": {"directory": str(tmp_path / "t1")},
    }
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    outputs = []
    for threads in (1, 2, 3):
        out = str(tmp_path / f"t{threads}")
        code = cli_main(["simulate", "--config", str(cfg),
                         "--threads", str(threads), "--out", out])
        assert code == 0
        with open(os.path.join(out, "observables.csv"), "rb") as fh:
            obs = fh.read()
        with open(os.path.join(out, "events.csv"), "rb") as fh:
            ev = fh.read()
        outputs.append((obs, ev))
    assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_9_ramped_hysteresis_is_thread_independent(tmp_path):
    # a worker shares each window's ramped rates across its block of
    # trajectories; the outputs must not depend on how the blocks fall
    doc = {
        "basis": {"dim": 1, "max_shell": 3},
        "params": {"eta": 0.7, "omega0_tau_abs": 0.8},
        "atoms": 2,
        "trajectories": 7,
        "seed": 3,
        "initial": {"point_level": [1]},
        "schedule": {
            "pulses": [{"s": -1, "amps": [1.0]}, {"s": 0, "amps": [0.5]}],
            "ramps": [
                {"pulse": 0, "field": "a_x", "start": 1.0, "end": 0.2,
                 "start_cycle": 5, "end_cycle": 30},
                {"pulse": 0, "field": "a_x", "start": 0.2, "end": 1.0,
                 "start_cycle": 30, "end_cycle": 55},
            ],
            "total_cycles": 60,
        },
        "recorder": {"stride": 3, "events": True},
        "watched": [[1], [0]],
        "hysteresis": {"threshold": 0.5, "source": [1], "targets": [[0]]},
        "output": {"directory": str(tmp_path / "t1")},
    }
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    outputs = []
    for threads in (1, 2, 3):
        out = str(tmp_path / f"t{threads}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli_main(["hysteresis", "--config", str(cfg),
                             "--threads", str(threads), "--out", out])
        assert code == 0
        files = []
        for name in ("observables.csv", "events.csv", "hysteresis.txt"):
            with open(os.path.join(out, name), "rb") as fh:
                files.append(fh.read())
        outputs.append(files)
    assert outputs[0][1].count(b"\n") > 20  # events were logged
    assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_9_thread_independence_over_a_loaded_matrix(tmp_path):
    # criterion 9's simulate run with a cache: one worker builds and
    # stores the emission matrix, then two and three workers share the
    # verified file's read-only mapping; the bytes must not change
    doc = {
        "basis": {"dim": 1, "max_shell": 5},
        "params": {"eta": 0.7, "omega0_tau_abs": 0.4},
        "atoms": 2,
        "trajectories": 30,
        "seed": 7,
        "initial": {"point_level": [5]},
        "schedule": {"pulses": [{"s": -1}, {"s": -2}], "total_cycles": 80},
        "recorder": {"stride": 5, "events": True},
        "watched": [[0], [1]],
        "output": {"directory": str(tmp_path / "t1")},
        "cache_dir": str(tmp_path / "cache"),
    }
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    outputs = []
    for threads, sp_builds in ((1, 1), (2, 0), (3, 0)):
        out = str(tmp_path / f"t{threads}")
        code = cli_main(["simulate", "--config", str(cfg),
                         "--threads", str(threads), "--out", out])
        assert code == 0
        with open(os.path.join(out, "summary.txt"), encoding="utf-8") as fh:
            assert f"sp_builds: {sp_builds}\n" in fh.read()
        with open(os.path.join(out, "observables.csv"), "rb") as fh:
            obs = fh.read()
        with open(os.path.join(out, "events.csv"), "rb") as fh:
            ev = fh.read()
        outputs.append((obs, ev))
    assert outputs[0][1].count(b"\n") > 20  # events were logged
    assert outputs[0] == outputs[1] == outputs[2]
