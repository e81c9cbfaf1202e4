"""The benchmark's tracer binds package functions by name from outside the
package; these tests fail when a binding it relies on goes away, so a
broken ``perfbench/tracer.py`` run shows up here first."""
from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

from bosecool import (EmissionMatrix, SimParams, build_spontaneous_rates,
                      cache_filename, cache_store, emission_quadrature,
                      enumerate_levels)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_list(name):
    """The literal value of a module-level list in the tracer's source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


@pytest.mark.parametrize("module,attr,span", tracer_list("FUNCTIONS"))
def test_traced_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span


@pytest.mark.parametrize("module,cls,attr,span", tracer_list("METHODS"))
def test_traced_method_resolves(module, cls, attr, span):
    # the tracer replaces the entry in the class's own namespace
    assert attr in vars(getattr(importlib.import_module(module), cls)), span


def test_cache_hooks_read_the_path_positionally():
    # the byte counters read cache_load's args[0] and cache_store's args[1]
    cache = importlib.import_module("bosecool.cache")
    assert list(inspect.signature(cache.cache_load).parameters)[0] == "path"
    assert list(inspect.signature(cache.cache_store).parameters)[1] == "path"
    dynamics = importlib.import_module("bosecool.dynamics")
    assert "spontaneous_dense" in vars(dynamics.MatrixProvider)


def test_emission_build_has_integer_nnz_and_kind_byte(tmp_path):
    basis = enumerate_levels(3, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        built = build_spontaneous_rates(basis, SimParams(eta=2.0,
                                                         omega0_tau_abs=0.4),
                                        emission_quadrature(3))
    assert isinstance(built, EmissionMatrix)
    assert isinstance(built.nnz, int)
    assert 0 < built.nnz <= basis.size ** 2
    # the benchmark's path guard finds emission files by magic and kind byte
    path = tmp_path / cache_filename(built.fingerprint)
    cache_store(built, path)
    head = path.read_bytes()[:13]
    assert path.suffix == ".rates"
    assert head[:8] == b"BCRATES1" and head[12] == 1


def test_evaluate_is_the_only_absorption_evaluation():
    # the tracer counts rates.absorption_evaluate_calls on ``evaluate``; a
    # second evaluation method would run untraced
    rates = importlib.import_module("bosecool.rates")
    names = [n for n in vars(rates.AbsorptionStructure) if n.startswith("evaluate")]
    assert names == ["evaluate"]


def _shapes():
    """Call shapes the benchmark uses outside the tracer's lists, as
    (callable, positional args, keyword args); ``X`` stands for any value."""
    from bosecool import (MatrixProvider, Schedule, calibrate_pulse_area,
                          exact_propagate)
    from bosecool.config import RunConfig
    X = object()
    return {
        "Schedule.is_ramped": (Schedule.is_ramped, (X, 0), {}),
        "MatrixProvider.absorption": (MatrixProvider.absorption, (X, X),
                                      {"persist": True}),
        "MatrixProvider": (MatrixProvider, (X, X),
                           {"cache_dir": X, "quadrature": X}),
        "RunConfig.build_params": (RunConfig.build_params, (X,),
                                   {"omega0_resolved": X}),
        "RunConfig.build_params(area)": (RunConfig.build_params, (X, 0.5), {}),
        "RunConfig.build_params()": (RunConfig.build_params, (X,), {}),
        "RunConfig.build_basis()": (RunConfig.build_basis, (X,), {}),
        "RunConfig.build_schedule()": (RunConfig.build_schedule, (X,), {}),
        "RunConfig.initial_distribution": (RunConfig.initial_distribution,
                                           (X, X), {}),
        "emission_quadrature": (emission_quadrature, (3, X),
                                {"polar_order": X}),
        "calibrate_pulse_area": (calibrate_pulse_area, (X, X, X, X), {}),
        "exact_propagate": (exact_propagate, (X, X, X, X), {}),
    }


@pytest.mark.parametrize("name", list(_shapes()))
def test_untraced_call_shapes_bind(name):
    # perfbench's micro pass and setup call these with exactly these
    # shapes; a refactor that drops one must fail here, not mid-benchmark
    fn, args, kwargs = _shapes()[name]
    inspect.signature(fn).bind(*args, **kwargs)


def test_config_fields_the_benchmark_reads():
    # perfbench reads these RunConfig and InitialStateConfig fields directly
    from bosecool.config import InitialStateConfig, RunConfig
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert {"omega0_tau_abs", "n_atoms", "n_traj", "dim", "emission_pattern",
            "quadrature_order", "cache_dir", "watched", "initial"} <= names
    assert "level" in {f.name for f in dataclasses.fields(InitialStateConfig)}


def test_sampler_step_is_bound_by_name(monkeypatch):
    # the tracer counts pulses by replacing the module's ``_step``, which
    # must return (events, p); without ``_step`` it skips those counters
    # silently, so a rename has to fail here
    from bosecool import (Configuration, PulseSpec, RecorderSpec, Schedule,
                          run_trajectory)
    dynamics = importlib.import_module("bosecool.dynamics")
    assert "_step" in vars(dynamics)
    step, outs = dynamics._step, []

    def counted_step(*args, **kwargs):
        outs.append(step(*args, **kwargs))
        return outs[-1]

    monkeypatch.setattr(dynamics, "_step", counted_step)
    basis = enumerate_levels(1, 3)
    schedule = Schedule(cycle=(PulseSpec(s=-1, amps=(1.0,)),), total_cycles=20)
    occ = np.zeros(basis.size, dtype=np.int64)
    occ[3] = 4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        run_trajectory(basis, SimParams(eta=0.9, omega0_tau_abs=0.8), schedule,
                       Configuration(occ), None, 1, RecorderSpec(watched_ids=(0,)))
    assert any(events for events, _ in outs)
    for out in outs:
        events, p = out
        assert type(out) is tuple and type(events) is tuple and type(p) is float
        assert all(len(ev) == 3 for ev in events)
