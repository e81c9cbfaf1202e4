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

Each emission lands in the first level whose prefix sum of Bose-enhanced
weights exceeds u times their sequential total T, for one uniform u. On a
basis of more than 2 ``_HEAD`` levels the draw first bounds T by the dot
product of the same weights, widened by its proven rounding error, and
walks the first ``_HEAD`` prefix sums in plain Python; the first one
above u times the bound's lower end is the draw if it also lies above u
times its upper end. Elsewhere it sums every level from the same u. The
prefix sums are the full sum's own, bit for bit, so the shortcut changes
no random number and no level drawn.

A trajectory keeps each pulse's draw inputs (the occupied levels it
couples, their counts and probabilities, the worst probability) from one
pulse to the next, so a quiet pulse costs only its binomial draws. A
pulse's events drop the inputs of each pulse that couples a level whose
count they changed; events that return each atom to its source level, or
swap atoms between levels, drop nothing. Dropped inputs are computed
afresh when the next block is planned or at the pulse's turn, where the
step refuses inputs past the hard bound. Inputs that couple no changed
level read nothing the events changed, so reuse changes no random number.

While the kept inputs stay the same, cycles run as blocks. numpy's
binomial draws by inversion (BINV) where p <= 0.5 and n p <= 30: it
reads one uniform U and returns 0 exactly when U <= qn = (1 - p)**n,
which ``_threshold`` computes bitwise as numpy (>= 2.4) does, each time
the kept inputs change. A block saves the generator's state, draws the
uniforms of the rest of a stretch of cycles that share one rates list in
one call and finds the first cycle with some U > qn; it restores the
state and re-draws the quiet cycles' uniforms, so that busy cycle runs
pulse by pulse from the stream position it would have had. A cycle whose
pulses are all dark draws nothing, so a dark stretch is skipped whole.
Blocks run only where every level is in the inversion regime, at least
two cycles of the stretch are left and a cycle is quiet with probability
above ``_QUIET_MIN``, as decided each time the kept inputs change.
Elsewhere, and in every cycle that brings new rates, pulses run one by
one. Blocks change no random number.

A worker runs its trajectories window by window on rates it resolves
once per window, where a ramped pulse gets new rates only in cycles that
change its fields; those drop the pulse's kept inputs.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain, combinations_with_replacement, islice

import multiprocessing as mp
import numpy as np

from .basis import (Basis, Configuration, SimParams, _check_memory,
                    sample_initial_configuration)
from .cache import cache_filename, cache_load, cache_store
from .rates import (AbsorptionStructure, EmissionMatrix, PhysicsValidityError,
                    PulseRates, absorption_fingerprint, absorption_structure,
                    build_spontaneous_rates, emission_quadrature,
                    spontaneous_fingerprint, EmissionQuadrature)
from .schedule import PulseSpec, Schedule, resolve_cycle

P_WARN = 0.5  # single-pulse excitation probability worth a warning
P_HARD = 1.0  # and the value at which the step law stops being a probability
# Up to this many coupled levels, one scalar binomial per level is cheaper
# than one array call; numpy draws an array element by element, so both
# consume the same stream.
_SCALAR_DRAWS = 8
# Cycles per window: a window costs each trajectory one call and holds new
# rates per ramp-moving cycle (14 KB on fig3). 64 is where demo1d's CPU time
# stops falling; fig3 workers then peak at 60 MB.
_WINDOW = 64
# Cycles run as one block of uniforms only while a cycle draws no excitation
# with at least this probability; below it a busy cycle comes so often that
# saving and restoring the generator's state costs more than blocks save.
_QUIET_MIN = 0.5
# Levels an emission draw walks in plain Python before it takes the full
# prefix sum; on fig3 most destinations lie in the first ten.
_HEAD = 24


class MatrixProvider:
    """Builds, caches and serves the rate matrices a schedule needs.

    A static pulse (``persist=True``) is loaded from ``cache_dir`` or
    built and stored there, once, and then served from memory. Any other
    pulse is evaluated from its amplitude-independent structure on every
    call and kept nowhere, so a per-cycle amplitude only costs an O(size)
    evaluation. Structures are built on first use and kept until
    ``prepare``, which keeps only the ramped pulses'. The emission matrix
    is loaded or built (and stored) once and kept as its dense
    column-major array only.
    """

    def __init__(self, basis: Basis, params: SimParams,
                 cache_dir: str | None = None,
                 quadrature: EmissionQuadrature | None = None):
        self.basis = basis
        self.params = params
        self.cache_dir = cache_dir
        self.quadrature = quadrature or emission_quadrature(basis.dim)
        # by a resolved pulse's (s, omega_tau_abs): the basis and params
        # are fixed, and a structure depends on neither amplitudes nor area
        self._structures: dict[tuple, AbsorptionStructure] = {}
        self._static: dict[PulseSpec, PulseRates] = {}
        self._sp: EmissionMatrix | None = None
        self._prepared: Schedule | None = None
        self.counters = {"abs_builds": 0, "sp_builds": 0, "disk_loads": 0,
                         "structure_builds": 0, "ramp_evals": 0}

    # -- absorption ----------------------------------------------------

    def structure(self, pulse: PulseSpec) -> AbsorptionStructure:
        """The amplitude-independent structure of a resolved pulse."""
        key = (pulse.s, pulse.omega_tau_abs)
        st = self._structures.get(key)
        if st is None:
            st = self._structures[key] = absorption_structure(
                self.basis, self.params, pulse.s, pulse.omega_tau_abs)
            self.counters["structure_builds"] += 1
        return st

    def _evaluate(self, pulse: PulseSpec) -> PulseRates:
        return self.structure(pulse).evaluate(pulse.amps, pulse.omega0_tau_abs)

    def _load_or_build(self, fp: str, build, counter: str):
        """The record of fingerprint ``fp``: loaded from ``cache_dir`` if
        stored there, else ``build()``, counted in ``counters[counter]``
        and stored."""
        path = (os.path.join(self.cache_dir, cache_filename(fp))
                if self.cache_dir is not None else None)
        if path is not None and os.path.exists(path):
            record = cache_load(path, fp)
            self.counters["disk_loads"] += 1
            return record
        record = build()
        self.counters[counter] += 1
        if path is not None:
            cache_store(record, path)
        return record

    def absorption(self, pulse: PulseSpec, persist: bool = False) -> PulseRates:
        pulse = pulse.resolved(self.params)
        if not persist:
            return self._evaluate(pulse)
        if pulse not in self._static:
            fp = absorption_fingerprint(self.basis, pulse.s, self.params.eta,
                                        pulse.amps, pulse.omega0_tau_abs,
                                        pulse.omega_tau_abs, self.params.resonance_window)
            self._static[pulse] = PulseRates.from_matrix(self._load_or_build(
                fp, lambda: replace(self._evaluate(pulse).matrix, fingerprint=fp),
                "abs_builds"))
        return self._static[pulse]

    # -- spontaneous ---------------------------------------------------

    def spontaneous(self) -> EmissionMatrix:
        if self._sp is None:
            self._sp = self._load_or_build(
                spontaneous_fingerprint(self.basis, self.params, self.quadrature),
                lambda: build_spontaneous_rates(self.basis, self.params,
                                                self.quadrature),
                "sp_builds")
        return self._sp

    def spontaneous_dense(self) -> np.ndarray:
        """Dense emission matrix; column-major, so the column an emission
        draw reads is contiguous."""
        return self.spontaneous().dense

    def prepare(self, schedule: Schedule) -> None:
        """Build everything a run needs up front (parent process side).

        Static pulses are served from memory from then on, so only the
        ramped pulses' structures are kept. Preparing the schedule
        prepared last again does nothing, so a caller can prepare outside
        its timing and hand the provider to ``run_ensemble``.
        """
        if schedule is self._prepared:
            return
        self.spontaneous_dense()
        pulses = [p.resolved(self.params) for p in schedule.cycle]
        for i, pulse in enumerate(pulses):
            if not schedule.is_ramped(i):
                self.absorption(pulse, persist=True)
        # amplitudes change, so a ramped pulse keeps its structure, not a matrix
        self._structures = {(p.s, p.omega_tau_abs): self.structure(p)
                            for i, p in enumerate(pulses) if schedule.is_ramped(i)}
        self._prepared = schedule

    def cycle_rates(self, schedule: Schedule):
        """Each cycle's rates per pulse of a prepared, resolved
        ``schedule``. A ramped pulse is evaluated (counted in
        ``counters["ramp_evals"]``) at cycle 0 and where its fields change;
        other cycles reuse its ``PulseRates``, and the list if none moved."""
        ramped = {i: self.structure(p) for i, p in enumerate(schedule.cycle)
                  if schedule.is_ramped(i)}
        rates = [None if i in ramped else self.absorption(p, persist=True)
                 for i, p in enumerate(schedule.cycle)]
        driven, values = dict.fromkeys(ramped), None
        for c in range(schedule.total_cycles):
            now = schedule.field_values(c)
            if now != values:
                values, rates = now, list(rates)
                for i, structure in ramped.items():
                    pulse = schedule.driven(i, now)
                    if pulse != driven[i]:
                        driven[i] = pulse
                        rates[i] = structure.evaluate(*pulse)
                        self.counters["ramp_evals"] += 1
            yield rates


# ------------------------------------------------------------- stepping


@dataclass
class PulseStepOutcome:
    config: Configuration
    p_excite: float  # worst per-atom excitation probability among occupied levels
    events: tuple[tuple[int, int, int], ...]  # (from_id, excited_id, to_id)


def _draw_index(weights: np.ndarray, rng: np.random.Generator,
                cw: np.ndarray | None = None, u: float | None = None) -> int:
    """Index drawn with probability proportional to ``weights``, from
    ``u`` if given, else from one ``rng.random()``; the cumulative sum
    goes into ``cw`` when given."""
    cw = np.add.accumulate(weights, out=cw)  # np.cumsum, minus its wrapper
    total = cw[-1]
    if not total > 0.0:
        raise PhysicsValidityError("no open channel to draw from")
    if u is None:
        u = rng.random()
    k = int(cw.searchsorted(u * total, side="right"))
    if k >= weights.size or weights[k] == 0.0:
        nz = np.flatnonzero(weights)
        k = int(nz[min(np.searchsorted(nz, k), nz.size - 1)])
    return k


def _emission_index(col: np.ndarray, occ1: np.ndarray, head: list | None,
                    rng: np.random.Generator, weights: np.ndarray,
                    cw: np.ndarray) -> int:
    """``_draw_index(col * occ1, rng, cw)``, bit for bit, read where it can
    be from the shortest prefix of the sequential sum that settles it.

    ``head`` holds ``occ1[:_HEAD]`` as floats, or None to take the full
    path. The full path draws the first k with cw[k] > fl(u T), T the
    sequential total. The dot product D = col . occ1 bounds T: both err
    from the exact sum by at most gamma_N of it (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3), so T lies in
    [lo, hi] = D (1 -+ 4 N 2**-53), a margin that also covers rounding lo
    and hi. As fl(u x) is monotone in x, the first prefix above fl(u lo)
    is k if it also lies above fl(u hi). Python's float product and sum
    round as numpy's multiply and accumulate do, so the prefix is cw's.
    Where the head cannot settle the draw, the full path draws from the
    same u; where underflowing products could break the bound (lo at or
    below 2**-1000, or a NaN), it draws u itself."""
    u = None
    if head is not None:
        total = float(np.dot(col, occ1))
        eps = col.shape[0] * 2.0 ** -51
        lo = total * (1.0 - eps)
        if lo > 2.0 ** -1000:
            u = rng.random()
            x = u * lo
            c = 0.0
            for k, a in enumerate(col[:_HEAD].tolist()):
                c += a * head[k]
                if c > x:
                    if c > u * (total * (1.0 + eps)):
                        return k
                    break
    return _draw_index(np.multiply(col, occ1, out=weights), rng, cw, u)


# the draw inputs of a pulse that couples no occupied level (shared, so
# never changed in place)
_DARK = ([], [], [], 0.0)


def _draw_inputs(occ: np.ndarray, occupied, depletion: np.ndarray):
    """What one pulse's excitation draw reads: the occupied levels the
    pulse couples (ascending), their counts, their per-atom probabilities
    2 Gamma_m and the worst of these (0.0 when no occupied level
    couples), which ``_step`` refuses above P_HARD. Ids, counts and
    probabilities are lists for at most ``_SCALAR_DRAWS`` levels, arrays
    above. ``occupied`` holds the occupied levels in ascending order; up
    to ``_SCALAR_DRAWS`` of them are read in plain Python, more as an
    int64 array, bitwise alike."""
    if len(occupied) <= _SCALAR_DRAWS:
        ids = [m for m in occupied if depletion[m] > 0.0]
        n_occ = [int(occ[m]) for m in ids]
        pa = [2.0 * float(depletion[m]) for m in ids]
        worst = max(pa, default=0.0)
    else:
        occ_ids = np.asarray(occupied, dtype=np.int64)
        pa = depletion[occ_ids]
        pa *= 2.0
        worst = float(np.maximum.reduce(pa))
        if not worst > 0.0:
            return _DARK
        hit = pa > 0.0
        ids = occ_ids[hit]
        n_occ, pa = occ[ids], pa[hit]
        if ids.size <= _SCALAR_DRAWS:
            ids, n_occ, pa = ids.tolist(), n_occ.tolist(), pa.tolist()
    if not worst:
        return _DARK
    return ids, n_occ, pa, worst


def _threshold(n: int, p: float) -> float | None:
    """qn = (1 - p)**n for a level of ``n`` atoms at probability ``p``, or
    None if the level draws outside the regime of numpy's inversion
    binomial (p > 0.5 or n p > 30). In the regime a draw reads one
    uniform U and returns 0 iff U <= qn, where numpy (>= 2.4, the floor
    in pyproject.toml) computes qn as exp(n log1p(-p)) with libm, as
    here; exp(n log(1 - p)) can differ in the last bit."""
    if p > 0.5 or p * n > 30.0:
        return None
    return math.exp(n * math.log1p(-p))


def _quiet_cycles(rng: np.random.Generator, qn: np.ndarray, cycles: int) -> int:
    """How many of the next ``cycles`` cycles, each drawing one binomial per
    entry of ``qn`` (the cycle's thresholds, in draw order), return 0 in
    every draw. Leaves ``rng`` just past those cycles' draws, bitwise where
    the binomials would have left it."""
    bits = rng.bit_generator
    saved = bits.state
    loud = rng.random(cycles * qn.size).reshape(cycles, qn.size) > qn
    first = int(loud.argmax())
    if not loud.flat[first]:
        return cycles
    quiet = first // qn.size
    bits.state = saved
    if quiet:
        rng.random(quiet * qn.size)
    return quiet


def _step(occ: np.ndarray, rates: PulseRates, sp_dense: np.ndarray,
          rng: np.random.Generator, inputs=None):
    """Advance one pulse in place. Returns (events, worst per-atom p);
    raises before any draw where that p exceeds P_HARD.

    Draw order is fixed: one binomial per occupied coupled level in
    ascending level order, one permutation for the emission order, then
    per excited atom a channel draw and a destination draw. Fixed order
    keeps trajectories bitwise reproducible. A destination draw reads one
    uniform; where the basis has more than 2 ``_HEAD`` levels,
    ``_emission_index`` settles it from the shortest prefix that a proven
    bound on the total allows, and draws the same level as the full sum.

    ``inputs`` is this pulse's ``_draw_inputs`` for the current ``occ``
    and ``rates``; without it they are computed here. A caller that
    keeps them must drop them once ``rates`` change, or once a step
    returns events that move a level ``rates`` couple.
    """
    if inputs is None:
        inputs = _draw_inputs(occ, np.flatnonzero(occ), rates.depletion)
    occ_ids, n_occ, pa, worst = inputs
    if not worst:
        return (), 0.0
    if worst > P_HARD:
        raise PhysicsValidityError(
            f"per-atom excitation probability {worst:.4f} exceeds 1 for an "
            "occupied level; the perturbative step law is invalid at this "
            "pulse area")
    if type(pa) is list:
        counts = [rng.binomial(k, q) for k, q in zip(n_occ, pa)]
        if not any(counts):
            return (), worst
        absorbed = []
        for m, k in zip(occ_ids, counts):
            if k:
                absorbed += [int(m)] * k
                occ[m] -= k
    else:
        counts = rng.binomial(n_occ, pa)
        if not counts.any():
            return (), worst
        absorbed = np.repeat(occ_ids, counts).tolist()
        occ[occ_ids] -= counts
    total = len(absorbed)
    emit_order = rng.permutation(total).tolist() if total > 1 else [0]

    indptr, chan_to = rates.chan_indptr, rates.chan_to
    chan_rate = rates.chan_rate
    excited = []
    for m in absorbed:
        lo, hi = indptr[m], indptr[m + 1]
        if hi - lo > 1:
            lo += _draw_index(chan_rate[lo:hi], rng)
        excited.append(int(chan_to[lo]))

    # Bose-enhanced weights Gamma_sp[:, l] * (occ + 1), with occ + 1 kept
    # up to date (its first _HEAD entries also as floats where the basis
    # is large enough for prefix draws) and both buffers reused across
    # this pulse's emissions
    occ1 = occ + 1.0
    head = occ1[:_HEAD].tolist() if sp_dense.shape[0] > 2 * _HEAD else None
    weights = np.empty_like(occ1)
    cw = np.empty_like(occ1)
    events = []
    for i in emit_order:
        l = excited[i]
        n = _emission_index(sp_dense[:, l], occ1, head, rng, weights, cw)
        occ[n] += 1
        occ1[n] += 1.0
        if head is not None and n < _HEAD:
            head[n] += 1.0
        events.append((absorbed[i], l, n))
    return tuple(events), worst


def pulse_step(config: Configuration, rates: PulseRates, sp_dense: np.ndarray,
               rng: np.random.Generator) -> PulseStepOutcome:
    """One stochastic pulse applied to a copy of ``config``; ``sp_dense``
    is the dense emission matrix."""
    out = config.copy()
    events, p = _step(out.occ, rates, sp_dense, rng)
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


def _row_cycles(total: int, stride: int) -> np.ndarray:
    """The cycles of a trajectory's rows: the multiples of ``stride``
    below ``total``, then ``total`` (0 and ``total`` alone at stride 0)."""
    return np.append(np.arange(0, total, stride or total), total)


@dataclass
class TrajectoryRecord:
    cycles: np.ndarray          # completed-cycle counts, first row is 0
    watched_occ: np.ndarray     # (rows, n_watched)
    mean_shell: np.ndarray      # (rows,)
    ramp_values: np.ndarray     # (rows, n_ramp_fields), of each row's last cycle
    events: np.ndarray          # (n_events, 5): cycle, pulse, from, excited, to
    final_occ: np.ndarray
    p_max: float
    n_warn_pulses: int


def _provider_for(basis: Basis, params: SimParams,
                  provider: MatrixProvider | None) -> MatrixProvider:
    """``provider``, refused unless built for ``basis`` and ``params``, or
    a new provider for them."""
    if provider is None:
        return MatrixProvider(basis, params)
    if (provider.basis.fingerprint() != basis.fingerprint()
            or provider.params != params):
        raise ValueError(f"the provider serves {provider.basis.fingerprint()} "
                         f"at {provider.params}, not {basis.fingerprint()} "
                         f"at {params}")
    return provider


class _Run:
    """What the trajectories of a run share."""

    def __init__(self, basis: Basis, params: SimParams, schedule: Schedule,
                 initial: Configuration | np.ndarray, n_atoms: int | None,
                 recorder: RecorderSpec, provider: MatrixProvider | None):
        if isinstance(initial, Configuration):
            if n_atoms not in (None, initial.n_atoms):
                raise ValueError(f"n_atoms={n_atoms} contradicts the initial "
                                 f"configuration of {initial.n_atoms} atoms")
            if initial.occ.shape[0] != basis.size:
                raise ValueError("initial configuration does not match the basis")
            n_atoms = initial.n_atoms
        elif n_atoms is None:
            raise ValueError("n_atoms is required when sampling the initial state")
        self.provider = _provider_for(basis, params, provider)
        self.provider.prepare(schedule)
        self.basis, self.initial, self.n_atoms = basis, initial, n_atoms
        self.schedule, self.recorder = schedule.resolved(params), recorder
        self.sp_dense = self.provider.spontaneous_dense()
        self.shells_f = basis.shells.astype(np.float64)
        self.watched = np.asarray(recorder.watched_ids, dtype=np.int64)
        self.cycles = _row_cycles(self.schedule.total_cycles, recorder.stride)
        self.ramp_values = np.empty((self.cycles.size,
                                     len(self.schedule.ramp_fields)))
        for k, d in enumerate(self.cycles.tolist()):
            self.ramp_values[k] = self.schedule.field_values(max(d - 1, 0))

    def block(self, seed_keys) -> tuple[list[TrajectoryRecord], int]:
        """One record per seed key, and the ramped-pulse evaluations made."""
        evals = self.provider.counters["ramp_evals"]
        trajectories = [_Trajectory(self, key) for key in seed_keys]
        cycles = self.provider.cycle_rates(self.schedule)
        for start in range(0, self.schedule.total_cycles, _WINDOW):
            stretches = []  # [rates, cycles] of cycles sharing rates
            for rates in islice(cycles, _WINDOW):
                if stretches and stretches[-1][0] is rates:
                    stretches[-1][1] += 1
                else:
                    stretches.append([rates, 1])
            for t in trajectories:
                t.advance(start, stretches)
        return ([t.record() for t in trajectories],
                self.provider.counters["ramp_evals"] - evals)


class _Trajectory:
    """One trajectory's state between windows."""

    def __init__(self, run: _Run, seed_key: tuple):
        self.run = run
        self.rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed_key)))
        if isinstance(run.initial, Configuration):
            self.occ = run.initial.occ.copy()
        else:  # the draw consumes the leading output of the stream
            self.occ = sample_initial_configuration(
                run.basis, run.initial, run.n_atoms, self.rng).occ
        self.n_total = float(self.occ.sum())
        self.occupied = None  # occ's nonzero levels for _inputs; None once moved
        # each pulse's draw inputs, dropped after an event that moves a level
        # the pulse couples and when its rates are no longer the object they
        # were computed from
        self.rates: list = [None] * run.schedule.n_pulses
        self.inputs = self.rates.copy()
        # _plan() of the kept inputs; None once they change
        self.plan = None
        # the rows of run.cycles, of which the first n_rows are recorded
        self.watched_occ = np.empty((run.cycles.size, run.watched.size),
                                    dtype=np.int64)
        self.mean_shell = np.empty(run.cycles.size)
        self.n_rows = 0
        self._rows(0)
        self.events: list[tuple[int, int, int, int, int]] = []
        self.p_max, self.n_warn = 0.0, 0

    def _rows(self, done: int) -> None:
        """Record the rows due once ``done`` cycles are done."""
        due = int(self.run.cycles.searchsorted(done, "right"))
        if due > self.n_rows:
            self.watched_occ[self.n_rows:due] = self.occ[self.run.watched]
            self.mean_shell[self.n_rows:due] = (self.run.shells_f @ self.occ
                                                / self.n_total)
            self.n_rows = due

    def advance(self, c: int, stretches) -> None:
        """Run cycles ``c``, ``c + 1``, ... through ``stretches``, each
        (rates, cycles) of cycles that share one rates list."""
        for rates, cycles in stretches:
            if rates is not self.rates:
                for i, r in enumerate(rates):
                    if r is not self.rates[i]:
                        self.inputs[i] = None
                self.rates, self.plan = rates, None
            end = c + cycles
            while c < end:
                if end - c > 1:
                    if self.plan is None:
                        self.plan = self._plan()
                    if self.plan:
                        c += self._quiet(c, end - c)
                        if c == end:
                            break
                self._cycle(c, rates)
                c += 1

    def _inputs(self, i: int):
        """Pulse ``i``'s draw inputs at the current occupancies, now kept, so
        the plan of the kept inputs no longer holds."""
        if self.occupied is None:  # a list up to _SCALAR_DRAWS levels
            ids = np.flatnonzero(self.occ)
            self.occupied = ids.tolist() if ids.size <= _SCALAR_DRAWS else ids
        self.inputs[i] = _draw_inputs(self.occ, self.occupied,
                                      self.rates[i].depletion)
        self.plan = None
        return self.inputs[i]

    def _plan(self):
        """Whether cycles on the kept inputs run as blocks: False, or one
        cycle's thresholds in draw order (None where every pulse is dark)
        and its worst p. Computes the missing inputs it reaches; a p past
        P_HARD lies outside inversion, so its step raises at its turn."""
        qn, worst, quiet = [], 0.0, 1.0
        for i, kept in enumerate(self.inputs):
            if kept is None:
                kept = self._inputs(i)
            _, n_occ, pa, p = kept
            if not p:
                continue
            if type(pa) is not list:
                n_occ, pa = n_occ.tolist(), pa.tolist()
            for n, q in zip(n_occ, pa):
                level_qn = _threshold(n, q)
                if level_qn is None:
                    return False
                # every qn <= 1, so the product only falls
                quiet *= level_qn
                if quiet <= _QUIET_MIN:
                    return False
                qn.append(level_qn)
            worst = max(worst, p)
        return (np.array(qn), worst) if qn else (None, 0.0)

    def _quiet(self, c: int, cycles: int) -> int:
        """Run the quiet cycles among ``c``, ``c + 1``, ... of a stretch
        of ``cycles`` as a block; returns how many there were."""
        qn, worst = self.plan
        quiet = cycles if qn is None else _quiet_cycles(self.rng, qn, cycles)
        if quiet:
            self.p_max = max(self.p_max, worst)
            self._rows(c + quiet)
        return quiet

    def _cycle(self, c: int, rates: list) -> None:
        """Run cycle ``c`` on ``rates`` pulse by pulse."""
        run, occ, rng = self.run, self.occ, self.rng
        inputs, p_max, n_warn = self.inputs, self.p_max, self.n_warn
        for i, pulse_rates in enumerate(rates):
            if inputs[i] is None:
                self._inputs(i)
            pulse_events, p = _step(occ, pulse_rates, run.sp_dense, rng,
                                    inputs[i])
            if p > p_max:
                p_max = p
            if p > P_WARN:
                n_warn += 1
            if pulse_events:
                net = {}  # level -> change of its count
                for m, _, n in pulse_events:
                    net[m] = net.get(m, 0) - 1
                    net[n] = net.get(n, 0) + 1
                moved = [t for t, d in net.items() if d]
                if moved:
                    self.plan = self.occupied = None
                    for j, r in enumerate(rates):
                        if any(r.depletion[t] > 0.0 for t in moved):
                            inputs[j] = None
                if run.recorder.record_events:
                    self.events.extend((c, i) + ev for ev in pulse_events)
        self.p_max, self.n_warn = p_max, n_warn
        self._rows(c + 1)

    def record(self) -> TrajectoryRecord:
        return TrajectoryRecord(
            cycles=self.run.cycles, watched_occ=self.watched_occ,
            mean_shell=self.mean_shell, ramp_values=self.run.ramp_values,
            events=np.asarray(self.events, dtype=np.int64).reshape(-1, 5),
            final_occ=self.occ, p_max=self.p_max, n_warn_pulses=self.n_warn)


def _warn_above_half(n_warn_pulses: int) -> None:
    """Warn once per run, in the calling process, where a pulse took a
    per-atom excitation probability above P_WARN."""
    if n_warn_pulses:
        warnings.warn("per-atom excitation probability exceeded 0.5; rates "
                      "are near the edge of the perturbative regime",
                      stacklevel=3)


def run_trajectory(basis: Basis, params: SimParams, schedule: Schedule,
                   initial: Configuration | np.ndarray, n_atoms: int | None,
                   seed: int | tuple, recorder: RecorderSpec,
                   provider: MatrixProvider | None = None) -> TrajectoryRecord:
    """One stochastic trajectory with its own counter-based RNG stream.

    ``initial`` is either a concrete Configuration or a level distribution
    to sample ``n_atoms`` from (the draw consumes the leading RNG output,
    so ensembles get independent initial states per trajectory).
    """
    run = _Run(basis, params, schedule, initial, n_atoms, recorder, provider)
    records, _ = run.block([seed if isinstance(seed, tuple) else (seed,)])
    _warn_above_half(records[0].n_warn_pulses)
    return records[0]


# ------------------------------------------------------------- ensemble


@dataclass
class EnsembleResult:
    cycles: np.ndarray
    ramp_fields: list[tuple[int, str]]
    ramp_values: np.ndarray          # (rows, n_fields)
    watched_mean: np.ndarray         # (rows, n_watched), occupancies
    watched_std: np.ndarray
    mean_shell_mean: np.ndarray
    final_occ: np.ndarray            # (n_traj, size)
    events: list[np.ndarray]
    n_atoms: int
    n_traj: int
    p_max: float
    n_warn_pulses: int
    ramp_evals: int                  # ramped-pulse evaluations, summed over workers

    def watched_fraction_mean(self) -> np.ndarray:
        return self.watched_mean / self.n_atoms

    def watched_fraction_se(self) -> np.ndarray:
        return self.watched_std / (self.n_atoms * math.sqrt(self.n_traj))


def trajectory_bytes(size: int, schedule: Schedule,
                     recorder: RecorderSpec) -> int:
    """An upper bound on the bytes one trajectory of an ensemble on
    ``size`` levels holds at the run's peak, its event log aside: 3.5 KiB
    of generator and state, 18 a level (its occupations and their stacked
    copy) and, per recorded row, 24 plus 32 a watched level (the mean
    shell and watched counts, then their stacked float copies as the
    ensemble reduces them). tracemalloc peaks of in-process runs read 1.1
    to 1.5 times less (README)."""
    rows = len(_row_cycles(schedule.total_cycles, recorder.stride))
    return 3584 + 18 * size + rows * (24 + 32 * len(recorder.watched_ids))


_POOL_RUN: _Run | None = None  # set in each pool worker by its initializer


def _pool_init(run: _Run) -> None:
    global _POOL_RUN
    _POOL_RUN = run


def _pool_block(seed_keys) -> tuple[list[TrajectoryRecord], int]:
    return _POOL_RUN.block(seed_keys)


def run_ensemble(basis: Basis, params: SimParams, schedule: Schedule,
                 initial: Configuration | np.ndarray, n_atoms: int,
                 n_traj: int, seed: int, recorder: RecorderSpec,
                 provider: MatrixProvider | None = None,
                 threads: int = 1) -> EnsembleResult:
    """Independent trajectories reduced in index order.

    Each worker runs one contiguous block of trajectory indices. Results
    are bitwise identical for every ``threads`` value: each trajectory's
    stream is keyed by (seed, index) and the reduction walks indices in
    order regardless of which worker produced them.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    run = _Run(basis, params, schedule, initial, n_atoms, recorder, provider)
    keys = [(seed, k) for k in range(n_traj)]
    workers = min(threads, n_traj)
    if workers == 1:
        blocks = [run.block(keys)]
    else:
        # the run reaches each forked worker as an inherited initializer
        # argument, never pickled
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=mp.get_context("fork"),
                                 initializer=_pool_init,
                                 initargs=(run,)) as ex:
            blocks = list(ex.map(_pool_block, [
                keys[w * n_traj // workers:(w + 1) * n_traj // workers]
                for w in range(workers)]))
    records = [r for block, _ in blocks for r in block]
    n_warn = sum(r.n_warn_pulses for r in records)
    _warn_above_half(n_warn)

    watched = np.stack([r.watched_occ for r in records]).astype(np.float64)
    shells = np.stack([r.mean_shell for r in records])
    ddof = min(1, n_traj - 1)  # one trajectory: a zero spread

    return EnsembleResult(
        cycles=run.cycles,
        ramp_fields=run.schedule.ramp_fields,
        ramp_values=run.ramp_values,
        watched_mean=watched.mean(axis=0),
        watched_std=watched.std(axis=0, ddof=ddof),
        mean_shell_mean=shells.mean(axis=0),
        final_occ=np.stack([r.final_occ for r in records]),
        events=[r.events for r in records],
        n_atoms=run.n_atoms,
        n_traj=n_traj,
        p_max=max(r.p_max for r in records),
        n_warn_pulses=n_warn,
        ramp_evals=sum(evals for _, evals in blocks))


# ------------------------------------------------------- exact reference


@dataclass
class ExactState:
    """Probability vector over every configuration of N atoms in the basis."""

    configs: np.ndarray   # (n_configs, size) int64
    probs: np.ndarray
    index: dict = field(repr=False)


def enumerate_configurations(n_atoms: int, n_levels: int) -> np.ndarray:
    """Every occupation row of ``n_atoms`` atoms on ``n_levels`` levels.
    Refuses, before it allocates them, rows whose arrays cannot fit in
    physical memory: per row, the level and cell indices (``n_atoms``
    int64 each) and the occupations (``n_levels`` int64)."""
    count = math.comb(n_atoms + n_levels - 1, n_atoms)
    _check_memory(f"{count:,} configurations of {n_atoms} atoms on "
                  f"{n_levels} levels", 8 * count * (2 * n_atoms + n_levels))
    # the sorted level multisets come in ascending order, so their
    # occupation rows come in descending lexicographic order
    levels = np.fromiter(chain.from_iterable(
        combinations_with_replacement(range(n_levels), n_atoms)),
        dtype=np.int64, count=count * n_atoms).reshape(count, n_atoms)
    cells = levels + n_levels * np.arange(count)[:, None]
    return np.bincount(cells.ravel(), minlength=count * n_levels).reshape(
        count, n_levels)


def exact_initial_state(basis: Basis, config: Configuration) -> ExactState:
    if config.occ.shape[0] != basis.size:
        raise ValueError("initial configuration does not match the basis")
    configs = enumerate_configurations(config.n_atoms, basis.size)
    index = {tuple(row): i for i, row in enumerate(configs.tolist())}
    probs = np.zeros(configs.shape[0])
    probs[index[tuple(config.occ)]] = 1.0
    return ExactState(configs=configs, probs=probs, index=index)


def _exact_pulse_matrix(state: ExactState, rates: PulseRates,
                        sp_dense: np.ndarray) -> np.ndarray:
    """Dense (to, from) transition matrix of one pulse over configurations.

    A forward pass per source configuration over the probabilities of
    (sorted excited levels, ground configuration) states, merged after
    every step. Each atom of a coupled level m stays (1 - 2 Gamma_m) or
    enters channel k (2 chan_rate[k]); then the next emitter is drawn
    uniformly from the atoms still excited, and one from level l lands
    on level n with weight Gamma_sp[n, l] (occ_n + 1).
    """
    n_cfg = state.configs.shape[0]
    T = np.zeros((n_cfg, n_cfg))
    indptr, cto, crate = rates.chan_indptr, rates.chan_to, rates.chan_rate
    dep = rates.depletion
    for ci, c in enumerate(state.configs.tolist()):
        ids = [m for m, n_m in enumerate(c) if n_m and dep[m] > 0.0]
        worst = max((2.0 * dep[m] for m in ids), default=0.0)
        if worst > P_HARD:
            raise PhysicsValidityError(
                f"per-atom excitation probability {worst:.4f} > 1 in "
                "exact propagation")
        states = {((), tuple(c)): 1.0}
        for m in ids:
            stay = 1.0 - 2.0 * dep[m]
            chans = [(int(cto[k]), 2.0 * crate[k])
                     for k in range(indptr[m], indptr[m + 1])]
            for _ in range(c[m]):
                after = defaultdict(float)
                for (excited, ground), w in states.items():
                    after[excited, ground] += w * stay
                    left = ground[:m] + (ground[m] - 1,) + ground[m + 1:]
                    for to, q in chans:
                        after[tuple(sorted(excited + (to,))), left] += w * q
                states = after
        # an ended path adds straight into T, path by path like the tests'
        # enumeration, so long propagations agree with it to rounding
        T[ci, ci] += states.pop(((), tuple(c)))
        while states:
            after = defaultdict(float)
            for (excited, ground), w in states.items():
                bose = np.array(ground) + 1.0
                for l in dict.fromkeys(excited):
                    j = excited.index(l)
                    rest = excited[:j] + excited[j + 1:]
                    bw = sp_dense[:, l] * bose
                    bw = bw / bw.sum()
                    wl = w * (excited.count(l) / len(excited))
                    for n in np.flatnonzero(bw).tolist():
                        landed = ground[:n] + (ground[n] + 1,) + ground[n + 1:]
                        if rest:
                            after[rest, landed] += wl * bw[n]
                        else:
                            T[state.index[landed], ci] += wl * bw[n]
            states = after
    colsum = T.sum(axis=0)
    if np.abs(colsum - 1.0).max() > 1e-12:
        raise AssertionError("exact pulse matrix columns do not sum to 1")
    return T


def exact_propagate(basis: Basis, params: SimParams, schedule: Schedule,
                    initial: Configuration,
                    provider: MatrixProvider | None = None) -> ExactState:
    """Evolve the full configuration distribution through the schedule.

    Brute-force reference for the sampler: cost is quadratic in the number
    of configurations, so it only suits small bases and atom numbers.
    It holds one dense pulse matrix per pulse of the cycle, rebuilt when a
    ramp changes that pulse, beside the configurations, their index and
    the probabilities, and refuses all of them before it enumerates a
    configuration if together they cannot fit in physical memory.
    """
    n_configs = math.comb(initial.n_atoms + basis.size - 1, initial.n_atoms)
    # a configuration's row of each float64 pulse matrix, its int64 row of
    # configs, its index key of basis.size ints (under 160 bytes more with
    # its dict slot and value, by tracemalloc) and its probability before
    # and after a pulse
    _check_memory(f"exact propagation over {n_configs:,} configurations",
                  n_configs * (8 * schedule.n_pulses * n_configs
                               + 8 * (2 * basis.size + 20) + 16))
    provider = _provider_for(basis, params, provider)
    state = exact_initial_state(basis, initial)
    sp_dense = provider.spontaneous_dense()

    held: list[PulseSpec | None] = [None] * schedule.n_pulses
    matrices: list[np.ndarray | None] = [None] * schedule.n_pulses
    probs = state.probs
    for c in range(schedule.total_cycles):
        for i, pulse in enumerate(resolve_cycle(schedule, c)):
            if pulse != held[i]:
                matrices[i] = None  # freed before its successor is built
                matrices[i] = _exact_pulse_matrix(
                    state, provider.absorption(pulse), sp_dense)
                held[i] = pulse
            probs = matrices[i] @ probs
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


# calibrate_pulse_area's target and bounds, described there
_TARGET, _AREA_CAP, _OCCUPANCY_FLOOR, _HARD_MARGIN = 0.5, 0.9, 0.5, 0.98


def calibrate_pulse_area(basis: Basis, params: SimParams, schedule: Schedule,
                         expected_occ: np.ndarray) -> float:
    """Pulse area such that the worst per-atom excitation probability,
    over levels the initial state actually populates, is ``_TARGET``.
    Only cycle-0 pulses without an area of their own (ramped or set per
    pulse) take the calibrated one, so only they enter both bounds.

    Levels expected to hold fewer than ``_OCCUPANCY_FLOOR`` atoms do not
    constrain the target (they would let the empty hot tail of the basis
    throttle every run), but a second, looser bound keeps the per-atom
    probability of EVERY level at or below ``_HARD_MARGIN``, so no
    occupancy fluctuation can trip the step law's hard error. The
    quadratic scaling p ~ (omega0 tau)^2 makes both bounds single
    solves; the result is capped at ``_AREA_CAP`` to stay perturbative
    (the step law itself needs omega0 tau < 1). The absorption
    structures it builds are dropped when it returns.
    """
    if not float(expected_occ.sum()) > 0:
        raise ValueError("expected occupancy is empty")
    populated = expected_occ >= _OCCUPANCY_FLOOR
    if not populated.any():
        populated = expected_occ >= expected_occ.max()
    worst_pop = 0.0
    worst_any = 0.0
    for pulse in resolve_cycle(schedule, 0):
        if pulse.omega0_tau_abs is not None:  # keeps its own area
            continue
        pulse = pulse.resolved(params)
        struct = absorption_structure(basis, params, pulse.s, pulse.omega_tau_abs)
        dep = struct.evaluate(pulse.amps, omega0_tau_abs=0.5).depletion
        worst_pop = max(worst_pop, 2.0 * float(dep[populated].max()))
        worst_any = max(worst_any, 2.0 * float(dep.max()))
    if worst_pop == 0.0:
        raise PhysicsValidityError(
            "cycle 0 drives no excitation at the initial state; "
            "pulse-area calibration is impossible")
    area = 0.5 * math.sqrt(_TARGET / worst_pop)
    guard = 0.5 * math.sqrt(_HARD_MARGIN / worst_any)
    return min(_AREA_CAP, area, guard)
