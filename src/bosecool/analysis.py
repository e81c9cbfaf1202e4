"""Steady-state diagnostics: dark levels, the condensation criterion,
hysteresis extraction, photon statistics, wall-clock conversion.

Everything here is a pure function of rate matrices or recorded series;
nothing mutates simulation state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Basis, SimParams
from .dynamics import MatrixProvider, _provider_for


def _cycle_rates(pulses, basis, params, provider=None):
    provider = _provider_for(basis, params, provider)
    return [provider.absorption(p) for p in pulses], provider


def depletion_profile(pulses, basis: Basis, params: SimParams,
                      provider: MatrixProvider | None = None) -> np.ndarray:
    """Total per-level emptying probability summed over the given pulses."""
    if not pulses:
        raise ValueError("at least one pulse is required")
    rates, _ = _cycle_rates(pulses, basis, params, provider)
    out = np.zeros(basis.size)
    for r in rates:
        out += r.depletion
    return out


def find_dark_states(pulses, basis: Basis, params: SimParams,
                     tol: float = 1e-12,
                     provider: MatrixProvider | None = None):
    """Levels whose emptying probability is below tol times the largest.

    With the default tolerance this returns exactly dark levels; raise
    tol (say 1e-3) to survey near-dark levels as well. Sorted by
    depletion, then id.
    """
    if not 0 < tol < 1:
        raise ValueError("tol must lie in (0, 1)")
    dep = depletion_profile(pulses, basis, params, provider)
    top = dep.max()
    if top == 0.0:
        ids = np.arange(basis.size)
    else:
        ids = np.flatnonzero(dep < tol * top)
    order = np.lexsort((ids, dep[ids]))
    return [(basis.level(int(i)), float(dep[i])) for i in ids[order]]


@dataclass
class CriterionReport:
    """Outcome of the stationary net-flow test for one target level.

    tilde[n] is the net per-cycle drain of level n in excess of what
    leaks out of the target and branches back to n; condensation into
    the target requires tilde > 0 for every other level.
    """

    target_id: int
    target_level: tuple
    tilde: np.ndarray
    verdict: str                         # condensing | not_condensing | indeterminate
    violating_ids: np.ndarray
    indeterminate_source_ids: np.ndarray
    min_tilde: float
    cooling_time_cycles: float | None
    cooling_time_seconds: float | None
    phase_diffusion_per_cycle: float
    phase_diffusion_hz: float


def condensation_criterion(pulses, basis: Basis, params: SimParams,
                           target, provider: MatrixProvider | None = None,
                           n_atoms: int = 1) -> CriterionReport:
    """Net-drain test over the cycle's summed absorption rates.

    For every level n != target: the total absorption out of n, minus
    absorption out of the target weighted by the emission branching ratio
    into n versus back into the target. A source excited level with
    nonzero flow out of the target but zero emission back to it makes the
    ratio ill-defined; such levels are reported, never guessed. Times in
    seconds take ``cycles_to_seconds``' trap frequency and repump ratio.
    """
    if not pulses:
        raise ValueError("at least one pulse is required")
    target_id = target if isinstance(target, (int, np.integer)) \
        else basis.id_of(tuple(target))
    rates, provider = _cycle_rates(pulses, basis, params, provider)

    n0 = int(target_id)
    first = np.zeros(basis.size)          # cycle absorption out of each level
    from_target = np.zeros(basis.size)    # cycle absorption out of the target,
    for r in rates:                       # resolved per excited level
        first += r.depletion
        lo, hi = r.chan_indptr[n0], r.chan_indptr[n0 + 1]
        np.add.at(from_target, r.chan_to[lo:hi], r.chan_rate[lo:hi])

    sp = provider.spontaneous_dense()
    sources = np.flatnonzero(from_target > 0.0)
    denom = sp[n0, sources]
    bad = sources[denom <= 0.0]
    good = sources[denom > 0.0]
    second = sp[:, good] @ (from_target[good] / sp[n0, good])

    tilde = first - second
    tilde[n0] = np.nan
    mask = np.ones(basis.size, dtype=bool)
    mask[n0] = False
    min_tilde = float(tilde[mask].min()) if basis.size > 1 else math.inf
    violating = np.flatnonzero(mask & ~(tilde > 0.0))

    if bad.size:
        verdict = "indeterminate"
    elif violating.size == 0:
        verdict = "condensing"
    else:
        verdict = "not_condensing"

    n_pulses = len(pulses)
    if verdict == "condensing" and min_tilde > 0.0 and math.isfinite(min_tilde):
        cooling_cycles = 1.0 / min_tilde
        cooling_seconds = cycles_to_seconds(
            cooling_cycles, n_pulses=n_pulses,
            omega_tau_abs=params.omega_tau_abs)
    else:
        cooling_cycles = None
        cooling_seconds = None

    # condensate dephasing scales inversely with the atom number
    diffusion_cycle = float(from_target.sum()) / (2.0 * n_atoms)
    cycle_seconds = cycles_to_seconds(1.0, n_pulses=n_pulses,
                                      omega_tau_abs=params.omega_tau_abs)
    return CriterionReport(
        target_id=n0,
        target_level=basis.level(n0),
        tilde=tilde,
        verdict=verdict,
        violating_ids=violating,
        indeterminate_source_ids=bad,
        min_tilde=min_tilde,
        cooling_time_cycles=cooling_cycles,
        cooling_time_seconds=cooling_seconds,
        phase_diffusion_per_cycle=diffusion_cycle,
        phase_diffusion_hz=diffusion_cycle / cycle_seconds)


# ------------------------------------------------------------ hysteresis


@dataclass
class HysteresisResult:
    threshold: float
    up_value: float | None
    up_index: int | None
    down_value: float | None
    down_index: int | None

    @property
    def found_both(self) -> bool:
        return self.up_value is not None and self.down_value is not None


def first_downward_crossing(series: np.ndarray, threshold: float) -> int | None:
    """Index where the series first drops below threshold after having
    been at or above it. None if it never crosses from above; entries
    below the threshold before the series first reaches it are ignored,
    so a population still being built up does not count as a loss.
    """
    s = np.asarray(series, dtype=np.float64)
    above = np.flatnonzero(s >= threshold)
    if above.size == 0:
        return None
    idx = np.flatnonzero(s[above[0]:] < threshold)
    return int(above[0] + idx[0]) if idx.size else None


def split_ramp_branches(ramp_values: np.ndarray) -> tuple[slice, slice]:
    """Row ranges of the outbound and return branches of one sweep.

    The split point is the row farthest from the starting value; both
    slices include it, so the turning point belongs to both branches.
    """
    r = np.asarray(ramp_values, dtype=np.float64)
    if r.size < 2:
        raise ValueError("need at least two recorded rows to split a sweep")
    pivot = int(np.argmax(np.abs(r - r[0])))
    return slice(0, pivot + 1), slice(pivot, r.size)


def hysteresis_extract(up_ramp, up_series, down_ramp, down_series,
                       threshold: float = 0.5) -> HysteresisResult:
    """Ramp values at which each branch's source population first falls
    through the threshold from above. A branch that never establishes or
    never loses its population reports None.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    up_ramp = np.asarray(up_ramp, dtype=np.float64)
    down_ramp = np.asarray(down_ramp, dtype=np.float64)
    if up_ramp.shape[0] != np.asarray(up_series).shape[0]:
        raise ValueError("up branch ramp and series lengths differ")
    if down_ramp.shape[0] != np.asarray(down_series).shape[0]:
        raise ValueError("down branch ramp and series lengths differ")
    iu = first_downward_crossing(up_series, threshold)
    idn = first_downward_crossing(down_series, threshold)
    return HysteresisResult(
        threshold=threshold,
        up_value=float(up_ramp[iu]) if iu is not None else None,
        up_index=iu,
        down_value=float(down_ramp[idn]) if idn is not None else None,
        down_index=idn)


# ------------------------------------------------------- photon counting


@dataclass
class FanoResult:
    fano: float | None
    error: float | None
    mean: float
    n_windows: int


_MIN_WINDOWS = 30  # fewest windows fano_factor accepts


def fano_factor(counts) -> FanoResult:
    """Variance-to-mean ratio of window counts with a jackknife error.

    1 for a Poisson process; 0 for constant counts. A zero mean leaves
    the ratio undefined and is reported as absent rather than raised.
    """
    c = np.asarray(counts, dtype=np.float64)
    n = c.size
    if n < _MIN_WINDOWS:
        raise ValueError(f"need at least {_MIN_WINDOWS} windows, got {n}")
    mean = float(c.mean())
    if mean == 0.0:
        return FanoResult(fano=None, error=None, mean=0.0, n_windows=n)
    fano = float(c.var(ddof=1) / mean)

    # leave-one-out estimates in O(n): mean and sum of squares update
    s, q = c.sum(), (c * c).sum()
    loo_mean = (s - c) / (n - 1)
    loo_var = (q - c * c - (n - 1) * loo_mean ** 2) / (n - 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        loo_f = np.where(loo_mean > 0.0, loo_var / loo_mean, np.nan)
    if np.isnan(loo_f).any():
        err = None
    else:
        err = float(np.sqrt((n - 1) / n * ((loo_f - loo_f.mean()) ** 2).sum()))
    return FanoResult(fano=fano, error=err, mean=mean, n_windows=n)


def cycles_to_seconds(cycles: float, omega_hz: float = 1e4,
                      n_pulses: int = 8, omega_tau_abs: float = 4.0,
                      sp_ratio: float = 3.0) -> float:
    """Wall-clock duration of a cycle count.

    One cycle is n_pulses chunks of absorption plus repump; the repump
    lasts sp_ratio times the absorption window. omega_hz is the trap
    frequency in Hz.
    """
    if omega_hz <= 0:
        raise ValueError("omega_hz must be positive")
    tau_abs = omega_tau_abs / (2.0 * math.pi * omega_hz)
    return cycles * n_pulses * tau_abs * (1.0 + sp_ratio)
