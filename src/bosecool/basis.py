"""Truncated harmonic-trap level basis and thermal state preparation.

Conventions used throughout the package:

* the trap is isotropic, one quantum of energy per shell, and the zero
  point offset is dropped, so level energy == shell index == sum of the
  per-axis quantum numbers;
* levels are ordered shell-major (all of shell 0, then shell 1, ...) and
  lexicographically inside a shell, so truncating to a lower ``max_shell``
  is a prefix of the same ordering;
* a many-atom state is a dense occupation vector over the level list
  (diagonal configurations only; no coherences are tracked).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

TrapLevel = tuple[int, ...]

_BETA_LIMIT = 60.0  # inverse-temperature bracket for the thermal solver


@dataclass(frozen=True)
class Basis:
    """All trap levels with shell index at most ``max_shell``.

    ``levels`` has shape (size, dim); row ``i`` is the quantum-number
    tuple of level id ``i``. ``lut`` maps quantum numbers back to ids
    (-1 outside the truncation) so axis shifts vectorize.
    """

    dim: int
    max_shell: int
    levels: np.ndarray
    shells: np.ndarray
    lut: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.levels.shape[0]

    def id_of(self, level: TrapLevel) -> int:
        q = tuple(int(x) for x in level)
        if len(q) != self.dim or min(q) < 0 or sum(q) > self.max_shell:
            raise KeyError(f"level {level!r} outside basis "
                           f"(dim={self.dim}, max_shell={self.max_shell})")
        return int(self.lut[q])

    def level(self, level_id: int) -> TrapLevel:
        return tuple(int(q) for q in self.levels[level_id])

    def fingerprint(self) -> str:
        return f"basis(dim={self.dim},max_shell={self.max_shell})"


def enumerate_levels(dim: int, max_shell: int) -> Basis:
    """Build the shell-major, lexicographically ordered level basis."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if max_shell < 0:
        raise ValueError(f"max_shell must be >= 0, got {max_shell}")

    grids = np.indices((max_shell + 1,) * dim).reshape(dim, -1).T
    sums = grids.sum(axis=1)
    keep = grids[sums <= max_shell]
    del grids, sums  # the lut below is the only other per-cell array
    keysums = keep.sum(axis=1)
    # lexsort: last key is the primary one
    order = np.lexsort(tuple(keep[:, j] for j in range(dim - 1, -1, -1)) + (keysums,))
    levels = np.ascontiguousarray(keep[order], dtype=np.int32)
    shells = np.ascontiguousarray(levels.sum(axis=1), dtype=np.int32)

    lut = np.full((max_shell + 1,) * dim, -1, dtype=np.int64)
    lut[tuple(levels[:, j] for j in range(dim))] = np.arange(levels.shape[0])

    expected = math.comb(max_shell + dim, dim)
    assert levels.shape[0] == expected
    return Basis(dim=dim, max_shell=max_shell, levels=levels, shells=shells,
                 lut=lut)


def enumeration_bytes(dim: int, max_shell: int) -> int:
    """An upper bound on the bytes of the arrays ``enumerate_levels(dim,
    max_shell)`` holds at its peak: for each of the (max_shell + 1)**dim
    quantum-number tuples, the index grid (dim int64), its shell sums (one
    int64) and their mask (one byte), which are freed before the lut (one
    int64) is allocated; per level, the kept tuples, their sort keys and
    order, the returned levels and shells and the lut's ids and index
    arrays (20 dim + 36 bytes)."""
    cells = (max_shell + 1) ** dim
    levels = math.comb(max_shell + dim, dim)
    return (8 * dim + 9) * cells + (20 * dim + 36) * levels


def _physical_memory() -> int | None:
    """Physical memory in bytes, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(what: str, need: int) -> None:
    """Refuse, before it is allocated, ``what`` if its ``need`` bytes
    cannot fit in physical memory."""
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"{what} needs about {need:,} bytes ({need / 2**30:.1f} GiB), "
            f"more than the {have:,} bytes ({have / 2**30:.1f} GiB) of "
            "physical memory")


@dataclass(frozen=True)
class SimParams:
    """Physics parameters shared by the rate builders.

    All energies are in units of the trap frequency, all times in units
    of the absorption pulse width. ``eta`` is the Lamb-Dicke parameter of
    the stimulated beams, ``eta_sp_ratio`` rescales it for the emitted
    photon.
    ``resonance_window`` is the number of shells around exact resonance
    kept in absorption matrices; the default 0 keeps only resonant terms,
    which the pulse widths (omega_tau_abs > 1) are chosen to justify.
    """

    eta: float
    omega_tau_abs: float = 4.0
    omega0_tau_abs: float = 0.25
    eta_sp_ratio: float = 1.0
    resonance_window: int = 0

    def __post_init__(self):
        if not 0 <= self.eta < math.inf:
            raise ValueError(f"eta must be >= 0 and finite, got {self.eta}")
        if not 1 < self.omega_tau_abs < math.inf:
            raise ValueError("omega_tau_abs must exceed 1 (spectrally resolved pulses) "
                             f"and be finite, got {self.omega_tau_abs}")
        if not 0 < self.omega0_tau_abs < 1:
            raise ValueError("omega0_tau_abs must lie in (0, 1) (perturbative pulses), "
                             f"got {self.omega0_tau_abs}")
        if not 0 <= self.eta_sp_ratio < math.inf:
            raise ValueError("eta_sp_ratio must be >= 0 and finite, "
                             f"got {self.eta_sp_ratio}")
        if self.resonance_window < 0:
            raise ValueError("resonance_window must be >= 0")

    @property
    def eta_sp(self) -> float:
        return self.eta * self.eta_sp_ratio


@dataclass
class Configuration:
    """Occupation numbers of every basis level for a fixed atom number."""

    occ: np.ndarray

    def __post_init__(self):
        self.occ = np.asarray(self.occ, dtype=np.int64)
        if self.occ.ndim != 1:
            raise ValueError("occupation must be a flat vector")
        if (self.occ < 0).any():
            raise ValueError("occupation numbers must be non-negative")

    @property
    def n_atoms(self) -> int:
        return int(self.occ.sum())

    def copy(self) -> "Configuration":
        return Configuration(self.occ.copy())


def _shell_moments(basis: Basis, beta: float) -> float:
    """Mean shell of exp(-beta * shell) on the truncated basis."""
    s = np.arange(basis.max_shell + 1, dtype=np.float64)
    g = np.bincount(basis.shells, minlength=basis.max_shell + 1).astype(np.float64)
    expo = -beta * s
    expo -= expo.max()  # beta may be negative; keep exp() in range
    w = g * np.exp(expo)
    return float((w * s).sum() / w.sum())


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` bracketed by [xa, xb]: Brent's method, step for step
    as scipy's C ``brentq``, so the root agrees with it to the last bit."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):  # scipy's default maxiter
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("root finder failed to converge after 100 iterations")


def thermal_distribution(basis: Basis, mean_shell: float) -> np.ndarray:
    """Boltzmann weights over levels with the requested mean shell.

    Solves for the inverse temperature on the truncated basis, so the
    returned distribution hits ``mean_shell`` exactly (to root-finder
    accuracy) rather than inheriting a truncation bias.
    """
    if not mean_shell > 0:
        raise ValueError(f"mean_shell must be > 0, got {mean_shell}")
    if basis.max_shell == 0:
        raise ValueError("single-shell basis cannot have mean_shell > 0")

    lo_mean = _shell_moments(basis, _BETA_LIMIT)    # coldest reachable
    hi_mean = _shell_moments(basis, -_BETA_LIMIT)   # hottest reachable
    if not (lo_mean < mean_shell < hi_mean):
        raise ValueError(
            f"mean_shell={mean_shell} not attainable on this basis "
            f"(reachable range [{lo_mean:.3g}, {hi_mean:.3g}])")

    beta = _brentq(lambda b: _shell_moments(basis, b) - mean_shell,
                   -_BETA_LIMIT, _BETA_LIMIT, xtol=1e-13, rtol=8.882e-16)

    expo = -beta * basis.shells.astype(np.float64)
    expo -= expo.max()
    p = np.exp(expo)
    p /= p.sum()
    return p


def sample_initial_configuration(basis: Basis, distribution: np.ndarray,
                                 n_atoms: int, rng: np.random.Generator) -> Configuration:
    """Draw ``n_atoms`` independent level assignments from ``distribution``."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    p = np.asarray(distribution, dtype=np.float64)
    if p.shape != (basis.size,):
        raise ValueError("distribution length does not match basis size")
    if (p < 0).any() or not math.isclose(p.sum(), 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError("distribution must be normalized and non-negative")
    ids = rng.choice(basis.size, size=n_atoms, p=p / p.sum())
    occ = np.bincount(ids, minlength=basis.size)
    return Configuration(occ)
