"""Stochastic pulse-by-pulse dynamics over diagonal configurations.

One step of the coarse-grained cooling map: during a pulse, every atom
sitting in ground level m is independently excited with probability
2 * Gamma_m, where Gamma_m is the level's total absorption rate (so the
expected number of excitations is sum_m 2 Gamma_m occ[m], and the
excited fraction of the cloud stays small while 2 Gamma_m << 1). Each
excited atom is assigned an excited level l with weight Gamma_abs[l,m].
The excited atoms then re-emit one at a time in uniformly random order;
each lands in ground level n drawn with Bose-enhanced weight
Gamma_sp[n,l] * (occ'[n] + 1), where occ' is the instantaneous
intermediate configuration (every still-excited atom removed, every
already-emitted atom back in place). Enhancement therefore counts
re-emitted atoms immediately, and an atom returning to its source level
is enhanced by the atoms it left behind plus itself.

The per-atom probability 2 Gamma_m is the step law's validity knob: the
hard error fires when it exceeds 1 for an occupied level, and a warning
fires above 0.5. Both bounds are independent of atom number, so a pulse
area legal for one atom is legal for five hundred.

Trajectories draw from counter-based Philox streams keyed by
(master seed, trajectory index), so an ensemble is bitwise reproducible
for any worker count and any execution order.

A trajectory keeps each pulse's draw inputs (the occupied levels it
couples, their counts and probabilities, the worst probability) from one
pulse to the next, so a quiet pulse costs only its binomial draws. An
event patches every kept entry with the levels it moved: an entry that
couples none of them stays as it is, one that lists all of them still
occupied takes their new counts, and a short entry gains or loses
levels in place. A long (array) entry whose levels change, or one that
a level past P_HARD would join, is dropped and computed afresh at its
pulse's turn, which is where that computation raises. A ramped pulse
reads its field values straight from the active ramps each cycle; in a
cycle where they change it gets new rates and drops its own inputs. A
diagonal-only ramped pulse gets them as one vector of rates, without
grouping channels by source (``LazyPulseRates``). Every kept, patched
or lazy value is bitwise the one a fresh computation gives, so reuse
changes no random number.
"""

from __future__ import annotations

import math
import os
import warnings
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import multiprocessing as mp
import numpy as np

from .basis import Basis, Configuration, SimParams, sample_initial_configuration
from .cache import cache_filename, cache_load, cache_store
from .rates import (AbsorptionStructure, PhysicsValidityError, PulseRates,
                    RateMatrix, absorption_fingerprint, absorption_structure,
                    build_spontaneous_rates, emission_quadrature,
                    spontaneous_fingerprint, EmissionQuadrature)
from .schedule import PulseSpec, Schedule, resolve_cycle

P_WARN = 0.5  # single-pulse excitation probability worth a warning
P_HARD = 1.0  # and the value at which the step law stops being a probability
# Up to this many coupled levels, one scalar binomial per level is cheaper
# than one array call; numpy draws an array element by element, so both
# consume the same stream.
_SCALAR_DRAWS = 8


class MatrixProvider:
    """Builds, caches and serves the rate matrices a schedule needs.

    A static pulse (``persist=True``) is loaded from ``cache_dir`` or
    built and stored there, once, and then served from memory. Any other
    pulse is evaluated from its memoized amplitude-independent structure
    on every call and kept nowhere, so a per-cycle amplitude only costs
    an O(size) evaluation.
    """

    def __init__(self, basis: Basis, params: SimParams,
                 cache_dir: str | None = None,
                 quadrature: EmissionQuadrature | None = None,
                 structures: StructureMemo | None = None):
        self.basis = basis
        self.params = params
        self.cache_dir = cache_dir
        self.quadrature = quadrature or emission_quadrature(basis.dim)
        # ``structures`` may come filled by ``calibrate_pulse_area``; its
        # builds count here
        self._structures = StructureMemo() if structures is None else structures
        self._static: dict[tuple, PulseRates] = {}
        self._sp_matrix: RateMatrix | None = None
        self._sp_dense: np.ndarray | None = None
        self.counters = {"abs_builds": 0, "sp_builds": 0, "disk_loads": 0,
                         "structure_builds": self._structures.builds}

    # -- absorption ----------------------------------------------------

    def structure(self, pulse: PulseSpec) -> AbsorptionStructure:
        """The memoized amplitude-independent structure of a resolved pulse."""
        st = self._structures.get(self.basis, self.params, pulse)
        self.counters["structure_builds"] = self._structures.builds
        return st

    def _evaluate(self, pulse: PulseSpec) -> PulseRates:
        return self.structure(pulse).evaluate(pulse.amps, pulse.omega0_tau_abs)

    def _load_or_build(self, pulse: PulseSpec) -> PulseRates:
        fp = absorption_fingerprint(self.basis, pulse.s, self.params.eta,
                                    pulse.amps, pulse.omega0_tau_abs,
                                    pulse.omega_tau_abs, self.params.resonance_window)
        path = (os.path.join(self.cache_dir, cache_filename(fp))
                if self.cache_dir is not None else None)
        if path is not None and os.path.exists(path):
            rates = PulseRates.from_matrix(cache_load(path, fp))
            self.counters["disk_loads"] += 1
            return rates
        rates = self._evaluate(pulse)
        self.counters["abs_builds"] += 1
        if path is not None:
            record = rates.matrix
            record.fingerprint = fp
            cache_store(record, path)
        return rates

    def absorption(self, pulse: PulseSpec, persist: bool = False) -> PulseRates:
        pulse = pulse.resolved(self.params)
        if not persist:
            return self._evaluate(pulse)
        key = pulse.key()
        if key not in self._static:
            self._static[key] = self._load_or_build(pulse)
        return self._static[key]

    # -- spontaneous ---------------------------------------------------

    def spontaneous(self) -> RateMatrix:
        if self._sp_matrix is None:
            fp = spontaneous_fingerprint(self.basis, self.params, self.quadrature)
            path = (os.path.join(self.cache_dir, cache_filename(fp))
                    if self.cache_dir is not None else None)
            if path is not None and os.path.exists(path):
                self._sp_matrix = cache_load(path, fp)
                self.counters["disk_loads"] += 1
            else:
                self._sp_matrix = build_spontaneous_rates(
                    self.basis, self.params, self.quadrature)
                self.counters["sp_builds"] += 1
                if path is not None:
                    cache_store(self._sp_matrix, path)
        return self._sp_matrix

    def spontaneous_dense(self) -> np.ndarray:
        """Dense emission matrix; column-major, so the column an emission
        draw reads is contiguous."""
        if self._sp_dense is None:
            self._sp_dense = self.spontaneous().to_dense()
        return self._sp_dense

    def prepare(self, schedule: Schedule) -> None:
        """Build everything a run needs up front (parent process side).

        Static pulses are served from memory from then on, so only the
        ramped pulses' structures stay in the memo.
        """
        self.spontaneous_dense()
        pulses = [p.resolved(self.params) for p in schedule.cycle]
        ramped = [p for i, p in enumerate(pulses) if schedule.is_ramped(i)]
        for i, pulse in enumerate(pulses):
            if not schedule.is_ramped(i):
                self.absorption(pulse, persist=True)
        self._structures.retain(self.basis, self.params, ramped)
        for pulse in ramped:  # amplitudes change; matrix cannot
            self.structure(pulse)


class StructureMemo:
    """Absorption structures built on first use, by what they depend on:
    the basis, ``eta``, the resonance window and a resolved pulse's ``s``
    and width, not its amplitudes or area. So one memo serves a pulse-area
    calibration and the run at the calibrated area. ``builds`` counts the
    structures built."""

    def __init__(self):
        self._memo: dict[tuple, AbsorptionStructure] = {}
        self.builds = 0

    @staticmethod
    def _key(basis: Basis, params: SimParams, pulse: PulseSpec) -> tuple:
        return (basis.fingerprint(), params.eta, params.resonance_window,
                pulse.s, pulse.omega_tau_abs)

    def get(self, basis: Basis, params: SimParams,
            pulse: PulseSpec) -> AbsorptionStructure:
        key = self._key(basis, params, pulse)
        st = self._memo.get(key)
        if st is None:
            st = self._memo[key] = absorption_structure(basis, params, pulse.s,
                                                        pulse.omega_tau_abs)
            self.builds += 1
        return st

    def retain(self, basis: Basis, params: SimParams, pulses) -> None:
        """Drop every structure but those of ``pulses``."""
        keys = {self._key(basis, params, p) for p in pulses}
        self._memo = {k: v for k, v in self._memo.items() if k in keys}


# ------------------------------------------------------------- stepping


@dataclass
class PulseStepOutcome:
    config: Configuration
    p_excite: float  # worst per-atom excitation probability among occupied levels
    events: tuple[tuple[int, int, int], ...]  # (from_id, excited_id, to_id)


def _draw_index(weights: np.ndarray, rng: np.random.Generator,
                cw: np.ndarray | None = None) -> int:
    """Index drawn with probability proportional to ``weights``; the
    cumulative sum goes into ``cw`` when given."""
    cw = np.add.accumulate(weights, out=cw)  # np.cumsum, minus its wrapper
    total = cw[-1]
    if not total > 0.0:
        raise PhysicsValidityError("no open channel to draw from")
    k = int(cw.searchsorted(rng.random() * total, side="right"))
    if k >= weights.size or weights[k] == 0.0:
        nz = np.flatnonzero(weights)
        k = int(nz[min(np.searchsorted(nz, k), nz.size - 1)])
    return k


# the draw inputs of a pulse that couples no occupied level (shared, so
# never changed in place)
_DARK = ([], [], [], 0.0)


def _draw_inputs(occ: np.ndarray, occ_ids: np.ndarray, depletion: np.ndarray):
    """What one pulse's excitation draw reads: the occupied levels the
    pulse couples (ascending), their counts, their per-atom probabilities
    2 Gamma_m and the worst of these (0.0 when no occupied level
    couples). Ids, counts and probabilities are lists for at most
    ``_SCALAR_DRAWS`` levels, arrays above. Raises where an occupied
    level's probability exceeds P_HARD."""
    pa = 2.0 * depletion[occ_ids]
    hit = pa > 0.0
    if not hit.any():
        return _DARK
    worst = float(pa.max())
    if worst > P_HARD:
        raise PhysicsValidityError(
            f"per-atom excitation probability {worst:.4f} exceeds 1 for an "
            "occupied level; the perturbative step law is invalid at this "
            "pulse area")
    ids = occ_ids[hit]
    if ids.size <= _SCALAR_DRAWS:
        return ids.tolist(), occ[ids].tolist(), pa[hit].tolist(), worst
    return ids, occ[ids], pa[hit], worst


def _patch_inputs(inputs, occ: np.ndarray, depletion: np.ndarray, touched):
    """A pulse's kept ``_draw_inputs`` after an event changed the counts
    of the levels in ``touched``: bitwise what a fresh computation
    returns, or None where only that computation, at the pulse's own
    turn, should decide (arrays whose levels change, or a level past
    P_HARD joining, which must raise there)."""
    coupled = [t for t in touched if depletion[t] > 0.0]
    if not coupled:
        return inputs
    ids, n_occ, pa, worst = inputs
    if type(pa) is not list:  # arrays: new counts, or a fresh computation
        k = np.searchsorted(ids, coupled)
        if k.max() < ids.size and (ids[k] == coupled).all() and occ[coupled].all():
            return ids, occ[ids], pa, worst
        return None
    if all(t in ids and occ[t] for t in coupled):  # counts only
        n_occ = n_occ.copy()
        for t in coupled:
            n_occ[ids.index(t)] = int(occ[t])
        return ids, n_occ, pa, worst
    ids, n_occ, pa = ids.copy(), n_occ.copy(), pa.copy()
    for t in coupled:
        k = bisect_left(ids, t)
        n = int(occ[t])
        if k < len(ids) and ids[k] == t:
            if n:
                n_occ[k] = n
            else:
                del ids[k], n_occ[k], pa[k]
        elif n:
            p = 2.0 * float(depletion[t])
            if p > P_HARD:
                return None
            ids.insert(k, t)
            n_occ.insert(k, n)
            pa.insert(k, p)
    if not ids:
        return _DARK
    if len(ids) <= _SCALAR_DRAWS:
        return ids, n_occ, pa, max(pa)
    return (np.array(ids, dtype=np.int64), np.array(n_occ, dtype=np.int64),
            np.array(pa), max(pa))


def _step(occ: np.ndarray, occf: np.ndarray, rates: PulseRates,
          sp_dense: np.ndarray, rng: np.random.Generator, inputs=None):
    """Advance one pulse in place. Returns (events, worst per-atom p).

    Draw order is fixed: one binomial per occupied coupled level in
    ascending level order, one permutation for the emission order, then
    per excited atom a channel draw and a destination draw. Fixed order
    keeps trajectories bitwise reproducible.

    ``rates`` is a ``PulseRates`` or a ``LazyPulseRates``. ``inputs`` is
    this pulse's ``_draw_inputs`` for the current ``occ`` and ``rates``;
    without it they are computed here. A caller that keeps them must
    patch them (``_patch_inputs``) once a step returns events and drop
    them once ``rates`` change.
    """
    if inputs is None:
        inputs = _draw_inputs(occ, np.flatnonzero(occ), rates.depletion)
    occ_ids, n_occ, pa, worst = inputs
    if not worst:
        return (), 0.0
    if type(pa) is list:
        counts = [rng.binomial(k, q) for k, q in zip(n_occ, pa)]
        if not any(counts):
            return (), worst
        occ_ids = np.array(occ_ids, dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)
    else:
        counts = rng.binomial(n_occ, pa)
        if not counts.any():
            return (), worst
    total = int(counts.sum())
    absorbed = np.repeat(occ_ids, counts)
    occ[occ_ids] -= counts
    occf[occ_ids] -= counts.astype(np.float64)
    emit_order = rng.permutation(total) if total > 1 else np.zeros(1, int)

    excited = np.empty(total, dtype=np.int64)
    for i, m in enumerate(absorbed):
        to, rate = rates.channels(m)
        excited[i] = to[0] if to.size == 1 else to[_draw_index(rate, rng)]

    # Bose-enhanced weights Gamma_sp[:, l] * (occ + 1), with occ + 1 kept
    # up to date and both buffers reused across this pulse's emissions
    occ1 = occf + 1.0
    weights = np.empty_like(occ1)
    cw = np.empty_like(occ1)
    events = []
    for i in emit_order:
        m = int(absorbed[i])
        l = int(excited[i])
        n = _draw_index(np.multiply(sp_dense[:, l], occ1, out=weights), rng, cw)
        occ[n] += 1
        occf[n] += 1.0
        occ1[n] += 1.0
        events.append((m, l, n))
    return tuple(events), worst


def pulse_step(config: Configuration, rates: PulseRates, sp_dense: np.ndarray,
               rng: np.random.Generator) -> PulseStepOutcome:
    """One stochastic pulse applied to a copy of ``config``; ``sp_dense``
    is the dense emission matrix."""
    out = config.copy()
    occf = out.occ.astype(np.float64)
    events, p = _step(out.occ, occf, rates, sp_dense, rng)
    return PulseStepOutcome(config=out, p_excite=p, events=events)


# ------------------------------------------------------------ recording


@dataclass(frozen=True)
class RecorderSpec:
    """What a trajectory keeps: occupancies of ``watched_ids`` every
    ``stride`` cycles (0 means initial and final rows only), the mean
    shell, any ramped field values, and optionally the event log."""

    watched_ids: tuple[int, ...]
    stride: int = 1
    record_events: bool = True

    def __post_init__(self):
        if self.stride < 0:
            raise ValueError("stride must be >= 0")


@dataclass
class TrajectoryRecord:
    cycles: np.ndarray          # completed-cycle counts, first row is 0
    watched_occ: np.ndarray     # (rows, n_watched)
    mean_shell: np.ndarray      # (rows,)
    ramp_values: np.ndarray     # (rows, n_ramp_fields)
    events: np.ndarray          # (n_events, 5): cycle, pulse, from, excited, to
    final_occ: np.ndarray
    p_max: float
    n_warn_pulses: int
    seed_key: tuple
    ramp_evals: int             # ramped pulses' resolved forms, one per change


def run_trajectory(basis: Basis, params: SimParams, schedule: Schedule,
                   initial: Configuration | np.ndarray, n_atoms: int | None,
                   seed: int | tuple, recorder: RecorderSpec,
                   provider: MatrixProvider | None = None) -> TrajectoryRecord:
    """One stochastic trajectory with its own counter-based RNG stream.

    ``initial`` is either a concrete Configuration or a level distribution
    to sample ``n_atoms`` from (the draw consumes the leading RNG output,
    so ensembles get independent initial states per trajectory).
    """
    if provider is None:
        provider = MatrixProvider(basis, params)
        provider.prepare(schedule)
    seed_key = seed if isinstance(seed, tuple) else (seed,)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_key)))

    if isinstance(initial, Configuration):
        config = initial.copy()
    else:
        if n_atoms is None:
            raise ValueError("n_atoms is required when sampling the initial state")
        config = sample_initial_configuration(basis, initial, n_atoms, rng)
    if config.occ.shape[0] != basis.size:
        raise ValueError("initial configuration does not match the basis")

    occ = config.occ
    occf = occ.astype(np.float64)
    sp_dense = provider.spontaneous_dense()
    shells_f = basis.shells.astype(np.float64)
    n_total = float(occ.sum())
    watched = np.asarray(recorder.watched_ids, dtype=np.int64)

    # a ramped pulse is re-evaluated only in cycles where a field changes;
    # ``slots[i]`` are the positions of pulse i's fields in ``values``
    schedule = schedule.resolved(params)
    fields = schedule.ramp_fields
    slots: dict[int, list[int]] = {}
    for k, (i, _) in enumerate(fields):
        slots.setdefault(i, []).append(k)
    structures = {i: provider.structure(schedule.cycle[i]) for i in slots}
    values = schedule.field_values(0)

    def ramped_rates(i: int):
        amps, area = schedule.cycle[i].driven([fields[k][1] for k in slots[i]],
                                              [values[k] for k in slots[i]])
        if not any(amps):  # the one check a resolved pulse could fail mid-ramp
            raise ValueError("a pulse needs a nonzero beam amplitude")
        return structures[i].evaluate_lazy(amps, area)

    rates = [ramped_rates(i) if i in slots else provider.absorption(p, persist=True)
             for i, p in enumerate(schedule.cycle)]
    ramp_evals = len(slots)
    # each pulse's draw inputs, patched after an event, dropped on new rates
    occupied = np.flatnonzero(occ).tolist()
    occ_ids = np.array(occupied, dtype=np.int64)
    inputs: list = [None] * schedule.n_pulses

    rows_cycles: list[int] = []
    rows_watch: list[np.ndarray] = []
    rows_shell: list[float] = []
    rows_ramp: list[tuple] = []
    events: list[tuple[int, int, int, int, int]] = []
    p_max = 0.0
    n_warn = 0

    def record(done: int) -> None:
        rows_cycles.append(done)
        rows_watch.append(occ[watched].copy())
        rows_shell.append(float(shells_f @ occf / n_total))
        rows_ramp.append(values)

    record(0)
    warned = False
    for c in range(schedule.total_cycles):
        if slots and c:
            now = schedule.field_values(c)
            if now != values:
                old, values = values, now
                for i, ks in slots.items():
                    if any(old[k] != now[k] for k in ks):
                        rates[i] = ramped_rates(i)
                        inputs[i] = None
                        ramp_evals += 1
        for i in range(schedule.n_pulses):
            if inputs[i] is None:
                if occ_ids is None:
                    occ_ids = np.array(occupied, dtype=np.int64)
                inputs[i] = _draw_inputs(occ, occ_ids, rates[i].depletion)
            pulse_events, p = _step(occ, occf, rates[i], sp_dense, rng,
                                    inputs[i])
            if p > p_max:
                p_max = p
            if p > P_WARN:
                n_warn += 1
                if not warned:
                    warnings.warn("per-atom excitation probability exceeded "
                                  "0.5; rates are near the edge of the "
                                  "perturbative regime", stacklevel=2)
                    warned = True
            if pulse_events:
                touched = {t for ev in pulse_events for t in (ev[0], ev[2])}
                for t in touched:
                    k = bisect_left(occupied, t)
                    listed = k < len(occupied) and occupied[k] == t
                    if listed != bool(occ[t]):
                        if listed:
                            del occupied[k]
                        else:
                            occupied.insert(k, t)
                        occ_ids = None
                for j, kept in enumerate(inputs):
                    if kept is not None:
                        inputs[j] = _patch_inputs(kept, occ, rates[j].depletion,
                                                  touched)
                if recorder.record_events:
                    for ev in pulse_events:
                        events.append((c, i) + ev)
        done = c + 1
        if (recorder.stride and done % recorder.stride == 0
                and done < schedule.total_cycles):
            record(done)
    record(schedule.total_cycles)

    return TrajectoryRecord(
        cycles=np.asarray(rows_cycles, dtype=np.int64),
        watched_occ=np.asarray(rows_watch, dtype=np.int64),
        mean_shell=np.asarray(rows_shell),
        ramp_values=np.asarray(rows_ramp, dtype=np.float64).reshape(
            len(rows_cycles), len(fields)),
        events=np.asarray(events, dtype=np.int64).reshape(len(events), 5),
        final_occ=occ.copy(),
        p_max=p_max,
        n_warn_pulses=n_warn,
        seed_key=seed_key,
        ramp_evals=ramp_evals)


# ------------------------------------------------------------- ensemble


@dataclass
class EnsembleResult:
    cycles: np.ndarray
    ramp_fields: list[tuple[int, str]]
    ramp_values: np.ndarray          # (rows, n_fields)
    watched_ids: tuple[int, ...]
    watched_mean: np.ndarray         # (rows, n_watched), occupancies
    watched_std: np.ndarray
    mean_shell_mean: np.ndarray
    mean_shell_std: np.ndarray
    final_occ: np.ndarray            # (n_traj, size)
    events: list[np.ndarray]
    n_atoms: int
    n_traj: int
    seed: int
    p_max: float
    n_warn_pulses: int
    ramp_evals: int

    def watched_fraction_mean(self) -> np.ndarray:
        return self.watched_mean / self.n_atoms

    def watched_fraction_se(self) -> np.ndarray:
        return self.watched_std / (self.n_atoms * math.sqrt(self.n_traj))


_CTX: dict = {}


def _ensemble_worker(idx: int) -> TrajectoryRecord:
    c = _CTX
    return run_trajectory(c["basis"], c["params"], c["schedule"], c["initial"],
                          c["n_atoms"], (c["seed"], idx), c["recorder"],
                          c["provider"])


def run_ensemble(basis: Basis, params: SimParams, schedule: Schedule,
                 initial: Configuration | np.ndarray, n_atoms: int,
                 n_traj: int, seed: int, recorder: RecorderSpec,
                 provider: MatrixProvider | None = None,
                 threads: int = 1) -> EnsembleResult:
    """Independent trajectories reduced in index order.

    Results are bitwise identical for every ``threads`` value: each
    trajectory's stream is keyed by (seed, index) and the reduction walks
    indices in order regardless of which worker produced them.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if isinstance(initial, Configuration):
        if n_atoms is not None and n_atoms != initial.n_atoms:
            raise ValueError(f"n_atoms={n_atoms} contradicts the initial "
                             f"configuration of {initial.n_atoms} atoms")
        n_atoms = initial.n_atoms
    elif n_atoms is None:
        raise ValueError("n_atoms is required when sampling the initial state")
    if provider is None:
        provider = MatrixProvider(basis, params)
    provider.prepare(schedule)

    global _CTX
    _CTX = {"basis": basis, "params": params, "schedule": schedule,
            "initial": initial, "n_atoms": n_atoms, "seed": seed,
            "recorder": recorder, "provider": provider}
    try:
        if threads <= 1 or n_traj == 1:
            records = [_ensemble_worker(i) for i in range(n_traj)]
        else:
            workers = min(threads, n_traj)
            chunk = max(1, n_traj // (4 * workers))
            ctx = mp.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as ex:
                records = list(ex.map(_ensemble_worker, range(n_traj),
                                      chunksize=chunk))
    finally:
        _CTX = {}

    watched = np.stack([r.watched_occ for r in records]).astype(np.float64)
    shells = np.stack([r.mean_shell for r in records])
    ddof = 1 if n_traj > 1 else 0
    wstd = watched.std(axis=0, ddof=ddof) if n_traj > 1 else np.zeros_like(watched[0])
    sstd = shells.std(axis=0, ddof=ddof) if n_traj > 1 else np.zeros_like(shells[0])

    return EnsembleResult(
        cycles=records[0].cycles,
        ramp_fields=schedule.ramp_fields,
        ramp_values=records[0].ramp_values,
        watched_ids=recorder.watched_ids,
        watched_mean=watched.mean(axis=0),
        watched_std=wstd,
        mean_shell_mean=shells.mean(axis=0),
        mean_shell_std=sstd,
        final_occ=np.stack([r.final_occ for r in records]),
        events=[r.events for r in records],
        n_atoms=n_atoms,
        n_traj=n_traj,
        seed=seed,
        p_max=max(r.p_max for r in records),
        n_warn_pulses=sum(r.n_warn_pulses for r in records),
        ramp_evals=sum(r.ramp_evals for r in records))


# ------------------------------------------------------- exact reference


@dataclass
class ExactState:
    """Probability vector over every configuration of N atoms in the basis."""

    configs: np.ndarray   # (n_configs, size) int64
    probs: np.ndarray
    index: dict = field(repr=False)

    def marginal_occupancy(self) -> np.ndarray:
        return self.configs.T.astype(np.float64) @ self.probs


def enumerate_configurations(n_atoms: int, n_levels: int,
                             max_configs: int = 200_000) -> np.ndarray:
    count = math.comb(n_atoms + n_levels - 1, n_atoms)
    if count > max_configs:
        raise ValueError(f"{count} configurations exceed the exact-propagation "
                         f"bound of {max_configs}")
    out = np.zeros((count, n_levels), dtype=np.int64)
    row = 0

    def rec(prefix: list[int], remaining: int, slots: int):
        nonlocal row
        if slots == 1:
            out[row, :len(prefix)] = prefix
            out[row, -1] = remaining
            row += 1
            return
        for first in range(remaining, -1, -1):
            rec(prefix + [first], remaining - first, slots - 1)

    if n_levels == 1:
        out[0, 0] = n_atoms
    else:
        rec([], n_atoms, n_levels)
    return out


def exact_initial_state(basis: Basis, config: Configuration,
                        max_configs: int = 200_000) -> ExactState:
    configs = enumerate_configurations(config.n_atoms, basis.size, max_configs)
    index = {tuple(row): i for i, row in enumerate(configs)}
    probs = np.zeros(configs.shape[0])
    probs[index[tuple(config.occ)]] = 1.0
    return ExactState(configs=configs, probs=probs, index=index)


def _exact_pulse_matrix(state: ExactState, rates: PulseRates,
                        sp_dense: np.ndarray) -> np.ndarray:
    """Dense (to, from) transition matrix of one pulse over configurations.

    Enumerates, per source configuration, every excitation-count vector
    (independent per-atom binomials), every channel assignment, every
    emission order and every destination chain. Cost explodes with atom
    number; meant for the few-atom oracle regime.
    """
    n_cfg, n_lvl = state.configs.shape
    T = np.zeros((n_cfg, n_cfg))
    indptr, cto, crate = rates.chan_indptr, rates.chan_to, rates.chan_rate
    dep = rates.depletion

    def emit_chain(excited: tuple, inter: np.ndarray, weight: float,
                   ci: int) -> None:
        if not excited:
            T[state.index[tuple(inter)], ci] += weight
            return
        total = len(excited)
        seen = set()
        for j, l in enumerate(excited):
            if l in seen:
                continue
            seen.add(l)
            mult = excited.count(l)
            rest = excited[:j] + excited[j + 1:]
            bw = sp_dense[:, l] * (inter + 1.0)
            bw = bw / bw.sum()
            for n in np.flatnonzero(bw):
                inter[n] += 1
                emit_chain(rest, inter, weight * (mult / total) * bw[n], ci)
                inter[n] -= 1

    def assign_channels(absorbed: list, excited: tuple, inter: np.ndarray,
                        weight: float, ci: int) -> None:
        if not absorbed:
            emit_chain(excited, inter, weight, ci)
            return
        m = absorbed[0]
        lo, hi = indptr[m], indptr[m + 1]
        for k in range(lo, hi):
            assign_channels(absorbed[1:], excited + (int(cto[k]),), inter,
                            weight * crate[k] / dep[m], ci)

    for ci in range(n_cfg):
        c = state.configs[ci]
        ids = [m for m in np.flatnonzero(c) if dep[m] > 0.0]
        qs = [2.0 * dep[m] for m in ids]
        bad = [q for q in qs if q > P_HARD]
        if bad:
            raise PhysicsValidityError(
                f"per-atom excitation probability {max(bad):.4f} > 1 in "
                "exact propagation")

        def count_vectors(pos: int, absorbed: list, weight: float) -> None:
            if pos == len(ids):
                if not absorbed:
                    T[ci, ci] += weight
                else:
                    inter = c.copy()
                    for m in absorbed:
                        inter[m] -= 1
                    assign_channels(absorbed, (), inter, weight, ci)
                return
            m, q = ids[pos], qs[pos]
            n_m = int(c[m])
            for k in range(n_m + 1):
                w = math.comb(n_m, k) * q ** k * (1.0 - q) ** (n_m - k)
                count_vectors(pos + 1, absorbed + [m] * k, weight * w)

        count_vectors(0, [], 1.0)
    colsum = T.sum(axis=0)
    if np.abs(colsum - 1.0).max() > 1e-12:
        raise AssertionError("exact pulse matrix columns do not sum to 1")
    return T


def exact_propagate(basis: Basis, params: SimParams, schedule: Schedule,
                    initial: Configuration | ExactState,
                    provider: MatrixProvider | None = None,
                    max_configs: int = 200_000) -> ExactState:
    """Evolve the full configuration distribution through the schedule.

    Brute-force reference for the sampler: cost is quadratic in the number
    of configurations, so it only suits small bases and atom numbers.
    Ramped schedules are supported but rebuild matrices per distinct pulse.
    """
    schedule = schedule.resolved(params)
    if provider is None:
        provider = MatrixProvider(basis, params)
        provider.prepare(schedule)
    state = (initial if isinstance(initial, ExactState)
             else exact_initial_state(basis, initial, max_configs))
    sp_dense = provider.spontaneous_dense()

    matrices: dict[tuple, np.ndarray] = {}
    probs = state.probs.copy()
    for c in range(schedule.total_cycles):
        for pulse in resolve_cycle(schedule, c):
            T = matrices.get(pulse.key())
            if T is None:
                T = _exact_pulse_matrix(state, provider.absorption(pulse),
                                        sp_dense)
                matrices[pulse.key()] = T
            probs = T @ probs
    return ExactState(configs=state.configs, probs=probs, index=state.index)


def emission_counts(events: np.ndarray, window: int, total_cycles: int,
                    self_level: int | None = None) -> np.ndarray:
    """Photon counts per full window of ``window`` cycles.

    Each event is one scattered photon. Only complete windows are
    returned, so every count has identical exposure. ``self_level``
    restricts the tally to photons scattered by atoms that started and
    ended in that level, the slow self-transition channel of a condensed
    mode; recovery cascades of atoms knocked out of it are excluded.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n_windows = total_cycles // window
    if n_windows == 0:
        return np.zeros(0, dtype=np.int64)
    if events.size and self_level is not None:
        events = events[(events[:, 2] == self_level)
                        & (events[:, 4] == self_level)]
    cycles = events[:, 0] if events.size else np.empty(0, dtype=np.int64)
    cycles = cycles[cycles < n_windows * window]
    return np.bincount(cycles // window, minlength=n_windows).astype(np.int64)


# ---------------------------------------------------------- calibration


def calibrate_pulse_area(basis: Basis, params: SimParams, schedule: Schedule,
                         expected_occ: np.ndarray, target: float = 0.5,
                         cap: float = 0.9, occupancy_floor: float = 0.5,
                         hard_margin: float = 0.98,
                         structures: StructureMemo | None = None) -> float:
    """Pulse area such that the worst per-atom excitation probability,
    over levels the initial state actually populates, is ``target``.

    Levels expected to hold fewer than ``occupancy_floor`` atoms do not
    constrain the target (they would let the empty hot tail of the basis
    throttle every run), but a second, looser bound keeps the per-atom
    probability of EVERY level at or below ``hard_margin``, so no
    occupancy fluctuation can trip the step law's hard error. The
    quadratic scaling p ~ (omega0 tau)^2 makes both bounds single
    solves; the result is capped to stay perturbative (the step law
    itself needs omega0 tau < 1).

    ``structures`` is a structure memo to fill and reuse; pass the same
    memo to the ``MatrixProvider`` of the run, and no structure is built
    twice.
    """
    if not 0 < target <= 1:
        raise ValueError("target must lie in (0, 1]")
    if not float(expected_occ.sum()) > 0:
        raise ValueError("expected occupancy is empty")
    populated = expected_occ >= occupancy_floor
    if not populated.any():
        populated = expected_occ >= expected_occ.max()
    worst_pop = 0.0
    worst_any = 0.0
    structures = StructureMemo() if structures is None else structures
    for pulse in resolve_cycle(schedule.resolved(params), 0):
        struct = structures.get(basis, params, pulse)
        dep = struct.evaluate_lazy(pulse.amps, omega0_tau_abs=0.5).depletion
        worst_pop = max(worst_pop, 2.0 * float(dep[populated].max()))
        worst_any = max(worst_any, 2.0 * float(dep.max()))
    if worst_pop == 0.0:
        raise PhysicsValidityError(
            "cycle 0 drives no excitation at the initial state; "
            "pulse-area calibration is impossible")
    area = 0.5 * math.sqrt(target / worst_pop)
    guard = 0.5 * math.sqrt(hard_margin / worst_any)
    return min(cap, area, guard)
