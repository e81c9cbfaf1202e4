"""Rate matrices for stimulated absorption and spontaneous emission.

Absorption rates are dimensionless per-pulse excitation factors: the
second-order pulse-area prefactor pi/8 * (omega0_tau_abs)^2 is folded in,
so the per-pulse excitation probability of one atom in ground level m is
2 * depletion[m], the sum of the rates of m's channels. A pulse's
absorption lives in ``PulseRates``, its channels grouped by source level
in the order the sampler draws them; ``LazyPulseRates`` holds the same
values for a ramped diagonal-only pulse without that grouping.
Spontaneous entries are branching rates in units of the excited-state
linewidth; the dynamics renormalizes them per configuration, so only
ratios matter.

``RateMatrix`` holds (to_id, from_id) triplets, i.e. columns are source
levels. It is the emission matrix, whose column sums approach 1 when the
truncation holds the full emission band, and the record a pulse's
absorption is cached as on disk.

The 3D emission matrix is built block by block over pairs of z quantum
numbers from per-ring (x, y) tensors, bitwise equal to summing every
quadrature node over every level pair, and its record is taken out row
block by row block; ``emission_memory_bytes`` states what the path holds
at its peak, which the command line checks against physical memory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import Basis, SimParams, enumerate_levels

REL_CUTOFF = 1e-12  # entries below this fraction of the max are dropped


class PhysicsValidityError(RuntimeError):
    """A coarse-grained validity bound was violated at run time."""


# ---------------------------------------------------------------- kernels


def _laguerre_upward(n: int, alpha: int, x: float) -> float:
    """Associated Laguerre L_n^(alpha)(x) by the three-term upward recurrence."""
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def franck_condon_1d(n_out: int, n_in: int, kappa: float) -> complex:
    """<n_out| exp(i kappa (a + a^dag)) |n_in> for one oscillator axis.

    Closed form exp(-kappa^2/2) (i kappa)^|dn| sqrt(n_<! / n_>!)
    L_{n_<}^{|dn|}(kappa^2); the factorial ratio goes through lgamma so
    large quantum numbers stay finite.
    """
    if n_out < 0 or n_in < 0:
        raise ValueError("quantum numbers must be non-negative")
    d = abs(n_out - n_in)
    if kappa == 0.0:
        return 1.0 + 0.0j if d == 0 else 0.0 + 0.0j
    lo, hi = (n_out, n_in) if n_out < n_in else (n_in, n_out)
    x = kappa * kappa
    lag = _laguerre_upward(lo, d, x)
    log_mag = (-0.5 * x + d * math.log(abs(kappa))
               + 0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1)))
    amp = math.exp(log_mag) * lag
    phase = _I_POW[d % 4]
    if kappa < 0 and d % 2 == 1:
        amp = -amp
    return amp * phase


def fc_diag(n_max: int, kappa: float) -> np.ndarray:
    """Real diagonal amplitudes <n|e^{i kappa x}|n> for n = 0..n_max."""
    x = kappa * kappa
    out = np.empty(n_max + 1)
    pref = math.exp(-0.5 * x)
    prev, cur = 1.0, 1.0 - x
    out[0] = pref
    if n_max >= 1:
        out[1] = pref * cur
    for k in range(1, n_max):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        out[k + 1] = pref * cur
    return out


def fc_abs2_shift(n_max: int, delta: int, kappa: float) -> np.ndarray:
    """|<n+delta|e^{i kappa x}|n>|^2 for n = 0..n_max (0 where n+delta < 0)."""
    out = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        if n + delta >= 0:
            a = franck_condon_1d(n + delta, n, kappa)
            out[n] = (a * a.conjugate()).real
    return out


def fc_abs2_table(n_max: int, kappa: float) -> np.ndarray:
    """Full |<n_out|e^{i kappa x}|n_in>|^2 table, shape (n_max+1, n_max+1).

    One upward Laguerre recurrence per |dn| fills a whole diagonal, so the
    cost is O(n_max^2) and the table is exactly symmetric.
    """
    size = n_max + 1
    out = np.empty((size, size))
    if kappa == 0.0:
        return np.eye(size)
    x = kappa * kappa
    lg = np.array([math.lgamma(k + 1) for k in range(size)])
    logk = math.log(abs(kappa))
    for d in range(size):
        n_lo = np.arange(size - d)
        log_mag = -x + 2 * d * logk + lg[n_lo] - lg[n_lo + d]
        prev, cur = 1.0, 1.0 + d - x
        vals = np.empty(size - d)
        vals[0] = 1.0
        if size - d > 1:
            vals[1] = cur
        for k in range(1, size - d - 1):
            prev, cur = cur, ((2 * k + 1 + d - x) * cur - (k + d) * prev) / (k + 1)
            vals[k + 1] = cur
        sq = np.exp(log_mag) * vals * vals
        idx = np.arange(size - d)
        out[idx + d, idx] = sq
        out[idx, idx + d] = sq
    return out


def pulse_spectrum_sq(delta_mismatch: float, omega_tau_abs: float) -> float:
    """Peak-normalized |spectrum|^2 of the Gaussian pulse at a detuning error.

    ``delta_mismatch`` is in trap-frequency units; the Fourier transform of
    exp(-t^2/tau^2) gives exp(-(delta*tau)^2/2) after peak normalization.
    """
    z = delta_mismatch * omega_tau_abs
    return math.exp(-0.5 * z * z)


# ----------------------------------------------------------- rate matrix


@dataclass
class RateMatrix:
    """Sparse non-negative rate matrix in (to, from) coordinate triplets."""

    kind: str
    shape: tuple[int, int]
    to_ids: np.ndarray
    from_ids: np.ndarray
    rates: np.ndarray
    fingerprint: str = ""

    def __post_init__(self):
        self.to_ids = np.asarray(self.to_ids, dtype=np.uint32)
        self.from_ids = np.asarray(self.from_ids, dtype=np.uint32)
        self.rates = np.asarray(self.rates, dtype=np.float64)
        if (self.rates < 0).any():
            raise ValueError("rates must be non-negative")

    @property
    def nnz(self) -> int:
        return self.rates.shape[0]

    def column_sums(self) -> np.ndarray:
        return np.bincount(self.from_ids, weights=self.rates,
                           minlength=self.shape[1])

    def max_rate(self) -> float:
        return float(self.rates.max()) if self.nnz else 0.0

    def to_dense(self) -> np.ndarray:
        """Dense copy in column-major order, so a column is contiguous.

        Each (to, from) pair appears at most once (the emission build
        takes its entries from ``np.nonzero``, and a pulse lists each
        channel once), so the entries are assigned, not summed.
        """
        out = np.zeros(self.shape, order="F")
        out[self.to_ids, self.from_ids] = self.rates
        return out


@dataclass
class PulseRates:
    """One pulse's absorption, grouped by source level for the sampler.

    Channels of source m live at ``chan_indptr[m]:chan_indptr[m+1]``:
    excited level ``chan_to`` at rate ``chan_rate``, in the order the
    structure lists them (the diagonal first, then the one-axis shifts),
    which is the order the sampler's channel draw walks. ``depletion[m]``
    sums source m's channel rates.
    """

    depletion: np.ndarray
    chan_indptr: np.ndarray
    chan_to: np.ndarray
    chan_rate: np.ndarray

    @classmethod
    def from_matrix(cls, matrix: RateMatrix) -> "PulseRates":
        """Group a (to, from) record by source, keeping record order
        within each source."""
        n = matrix.shape[1]
        frm = matrix.from_ids.astype(np.int64)
        order = np.argsort(frm, kind="stable")
        return cls(depletion=matrix.column_sums(),
                   chan_indptr=np.searchsorted(frm[order], np.arange(n + 1)),
                   chan_to=matrix.to_ids.astype(np.int64)[order],
                   chan_rate=matrix.rates[order])

    @property
    def matrix(self) -> RateMatrix:
        """These rates as a (to, from) record, without a fingerprint."""
        n = self.depletion.shape[0]
        from_ids = np.repeat(np.arange(n), np.diff(self.chan_indptr))
        return RateMatrix("absorption", (n, n), self.chan_to, from_ids,
                          self.chan_rate)

    def channels(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Excited levels and rates of source ``m``'s channels."""
        lo, hi = self.chan_indptr[m], self.chan_indptr[m + 1]
        return self.chan_to[lo:hi], self.chan_rate[lo:hi]


class LazyPulseRates:
    """A diagonal-only pulse's absorption as the sampler reads it: each
    source's one channel, to ``chan_to[m]``, kept where ``keep[m]``.

    ``depletion`` and every ``channels(m)`` are bitwise what
    ``AbsorptionStructure.evaluate`` gives, without grouping the channels.
    """

    __slots__ = ("depletion", "_chan_to", "_rate", "_keep")

    def __init__(self, depletion, chan_to, rate, keep):
        self.depletion = depletion
        self._chan_to = chan_to
        self._rate = rate
        self._keep = keep

    def channels(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        hi = m + 1 if self._keep[m] else m
        return self._chan_to[m:hi], self._rate[m:hi]


# ------------------------------------------------------------ absorption


@dataclass(frozen=True)
class AbsorptionStructure:
    """Amplitude-independent skeleton of one pulse's absorption.

    The coherent beam sum only survives on the diagonal (any off-diagonal
    pair differs on exactly one axis and is reached by that axis' beam
    alone), so the rates are a quadratic form in the beam amplitudes:
    diagonal entries |sum_j A_j d_j(m)|^2, one-axis entries A_j^2 f_j.
    Channels are stored grouped by source as ``PulseRates`` holds them,
    so evaluating at a new amplitude vector is O(channels) with no
    regrouping, which is what makes amplitude ramps cheap.
    """

    basis: Basis
    diag_amp: np.ndarray | None       # (size, dim) per-axis diagonal amplitudes
    diag_spectrum: float
    indptr: np.ndarray                 # channels of source m: indptr[m]:indptr[m+1]
    chan_from: np.ndarray
    chan_to: np.ndarray
    chan_axis: np.ndarray              # beam axis of a shift, dim on the diagonal
    chan_fc2s: np.ndarray              # fc2 * spectrum of a shift, 0 on the diagonal

    def evaluate(self, amps: tuple[float, ...],
                 omega0_tau_abs: float) -> PulseRates:
        if len(amps) != self.basis.dim:
            raise ValueError("amplitude tuple length must match basis dim")
        pref = math.pi / 8.0 * omega0_tau_abs ** 2
        # a zero beam opens no channels; the diagonal is always open
        live = np.array([a != 0.0 for a in amps] + [True])[self.chan_axis]
        coef = np.array([pref * a * a for a in amps] + [0.0])
        rate = coef[self.chan_axis] * self.chan_fc2s
        if self.diag_amp is not None:  # each source's first channel
            m = self.diag_amp @ np.asarray(amps)
            rate[self.indptr[:-1]] = pref * self.diag_spectrum * m * m
        keep = live & (rate >= REL_CUTOFF * rate[live].max(initial=0.0))
        return PulseRates(
            depletion=np.bincount(self.chan_from[keep], weights=rate[keep],
                                  minlength=self.basis.size),
            chan_indptr=np.concatenate(([0], np.cumsum(keep)))[self.indptr],
            chan_to=self.chan_to[keep],
            chan_rate=rate[keep])

    def evaluate_lazy(self, amps: tuple[float, ...], omega0_tau_abs: float
                      ) -> PulseRates | LazyPulseRates:
        """``evaluate``, skipping the channel grouping where the diagonal
        is every channel (``s`` within the resonance window, no shift in
        it): then the rates are the diagonal vector alone, the same
        ((pref * spectrum) * m) * m, the cutoff from its maximum, and a
        cut entry's depletion 0.0, as ``bincount`` gives it. Any other
        structure is evaluated in full.
        """
        if self.diag_amp is None or self.chan_from.size != self.basis.size:
            return self.evaluate(amps, omega0_tau_abs)
        if len(amps) != self.basis.dim:
            raise ValueError("amplitude tuple length must match basis dim")
        pref = math.pi / 8.0 * omega0_tau_abs ** 2
        m = self.diag_amp @ np.asarray(amps)
        rate = pref * self.diag_spectrum * m * m
        keep = rate >= REL_CUTOFF * rate.max(initial=0.0)
        return LazyPulseRates(np.where(keep, rate, 0.0), self.chan_to,
                              rate, keep)


def absorption_fingerprint(basis: Basis, s: int, eta: float, amps,
                           omega0_tau_abs: float, omega_tau_abs: float,
                           window: int) -> str:
    astr = ",".join(repr(float(a)) for a in amps)
    return (f"abs|{basis.fingerprint()}|s={s}|eta={float(eta)!r}|A=({astr})"
            f"|omega0_tau={float(omega0_tau_abs)!r}"
            f"|omega_tau={float(omega_tau_abs)!r}|window={window}")


def absorption_structure(basis: Basis, params: SimParams, s: int,
                         omega_tau_abs: float) -> AbsorptionStructure:
    """Precompute the amplitude-independent pieces of a pulse's rates.

    Keeps (to, from) pairs whose shell change is within
    ``params.resonance_window`` of the pulse's shell target ``s``;
    ``omega_tau_abs`` is the pulse's resolved width. A beam moves quantum
    numbers on its own axis only, so pairs differing on two or more axes
    never appear. Channels are listed the diagonal first, then one
    (axis, delta) block after another, and grouped by source with a
    stable sort, so each source keeps that order.
    """
    window = params.resonance_window
    nq = basis.max_shell
    eta = params.eta
    n = basis.size

    on_diag = abs(s) <= window
    diag_amp = fc_diag(nq, eta)[basis.levels] if on_diag else None
    diag_spec = pulse_spectrum_sq(float(s), omega_tau_abs) if on_diag else 0.0
    # (from_ids, to_ids, axis, fc2 * spectrum): the diagonal, empty off
    # resonance, then one block per (axis, delta)
    ids = np.arange(n if on_diag else 0)
    chans = [(ids, ids, np.full(ids.size, basis.dim), np.zeros(ids.size))]
    deltas = [d for d in range(s - window, s + window + 1) if d != 0]
    for axis in range(basis.dim):
        q = basis.levels[:, axis]
        for delta in deltas:
            target = basis.levels.copy()
            target[:, axis] = q + delta
            ok = (target[:, axis] >= 0) & (basis.shells + delta <= nq)
            if not ok.any():
                continue
            from_ids = np.nonzero(ok)[0]
            to_ids = basis.lut[tuple(target[ok].T)].astype(np.int64)
            fc2 = fc_abs2_shift(nq, delta, eta)[q[ok]]
            spec = pulse_spectrum_sq(float(s - delta), omega_tau_abs)
            chans.append((from_ids, to_ids, np.full(from_ids.size, axis),
                          fc2 * spec))
    frm, to, axes, fc2s = (np.concatenate(col) for col in zip(*chans))
    order = np.argsort(frm, kind="stable")
    return AbsorptionStructure(
        basis=basis, diag_amp=diag_amp, diag_spectrum=diag_spec,
        indptr=np.searchsorted(frm[order], np.arange(n + 1)),
        chan_from=frm[order], chan_to=to[order], chan_axis=axes[order],
        chan_fc2s=fc2s[order])


# ------------------------------------------------------------- emission


@dataclass(frozen=True)
class EmissionQuadrature:
    """Photon-direction quadrature: unit directions and weights summing to 1."""

    directions: np.ndarray
    weights: np.ndarray
    pattern: str
    polar_order: int

    def __post_init__(self):
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"quadrature weights sum to {total}, expected 1")

    def fingerprint(self) -> str:
        return (f"quad|dim={self.directions.shape[1]}|pattern={self.pattern}"
                f"|order={self.polar_order}|n={self.directions.shape[0]}")


def emission_quadrature(dim: int, pattern: str = "isotropic",
                        polar_order: int = 24,
                        azimuthal_count: int | None = None) -> EmissionQuadrature:
    """Angular quadrature for the emission pattern in ``dim`` dimensions.

    In 3D: product Gauss-Legendre in cos(theta) times a uniform midpoint
    rule in phi. Lower-dimensional traps emit along their own axes (two
    points in 1D, a uniform circle in 2D); only the isotropic pattern is
    defined there. ``pattern`` is "isotropic" or "dipole:x|y|z" for the
    linear-dipole lobe 3/(16 pi) (1 + cos^2) about the given axis.
    """
    n_phi = azimuthal_count if azimuthal_count is not None else 2 * polar_order
    if dim == 1:
        if pattern != "isotropic":
            raise ValueError("only the isotropic pattern is defined in 1D")
        dirs = np.array([[1.0], [-1.0]])
        w = np.array([0.5, 0.5])
        return EmissionQuadrature(dirs, w, pattern, polar_order)
    if dim == 2:
        if pattern != "isotropic":
            raise ValueError("only the isotropic pattern is defined in 2D")
        phi = (np.arange(n_phi) + 0.5) * (2 * math.pi / n_phi)
        dirs = np.column_stack([np.cos(phi), np.sin(phi)])
        w = np.full(n_phi, 1.0 / n_phi)
        return EmissionQuadrature(dirs, w, pattern, polar_order)
    if dim != 3:
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")

    nodes, glw = np.polynomial.legendre.leggauss(polar_order)
    phi = (np.arange(n_phi) + 0.5) * (2 * math.pi / n_phi)
    ct = np.repeat(nodes, n_phi)
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    cphi = np.tile(np.cos(phi), polar_order)
    sphi = np.tile(np.sin(phi), polar_order)
    dirs = np.column_stack([st * cphi, st * sphi, ct])
    base_w = np.repeat(glw, n_phi) / (2.0 * n_phi)

    if pattern == "isotropic":
        w = base_w
    elif pattern.startswith("dipole:"):
        axis = {"x": 0, "y": 1, "z": 2}.get(pattern.split(":", 1)[1])
        if axis is None:
            raise ValueError(f"unknown dipole axis in pattern {pattern!r}")
        ca = dirs[:, axis]
        w = base_w * 0.75 * (1.0 + ca * ca)  # 3/(16pi)(1+c^2) over 1/(4pi)
    else:
        raise ValueError(f"unknown emission pattern {pattern!r}")
    return EmissionQuadrature(dirs, w, pattern, polar_order)


def spontaneous_fingerprint(basis: Basis, params: SimParams,
                            quadrature: EmissionQuadrature) -> str:
    return (f"sp|{basis.fingerprint()}|eta_sp={params.eta_sp!r}"
            f"|{quadrature.fingerprint()}")


def _kappa_key(kappa):
    """The rounded |kappa| a recoil table is computed and cached at;
    elementwise on an array."""
    return np.round(np.abs(kappa), 13)


def _kappa_table_cache(n_max: int):
    cache: dict[float, np.ndarray] = {}

    def get(kappa: float) -> np.ndarray:
        key = _kappa_key(kappa)
        tab = cache.get(key)
        if tab is None:
            tab = fc_abs2_table(n_max, key)
            cache[key] = tab
        return tab

    return get


_ROW_BLOCK = 16  # rows of the dense matrix scanned per extraction step


def _record_entries(dense: np.ndarray, threshold: float):
    """(to, from, rate) of the entries >= ``threshold`` in row-major order,
    as ``np.nonzero`` lists them, gathered row block by row block so that,
    past the boolean mask the count takes, the only full-size arrays are
    the record's own uint32/float64 columns."""
    nnz = np.count_nonzero(dense >= threshold)
    to_ids = np.empty(nnz, dtype=np.uint32)
    from_ids = np.empty(nnz, dtype=np.uint32)
    vals = np.empty(nnz)
    pos = 0
    for r in range(0, dense.shape[0], _ROW_BLOCK):
        block = dense[r:r + _ROW_BLOCK]
        keep = block >= threshold
        rows, cols = np.nonzero(keep)
        end = pos + rows.size
        to_ids[pos:end] = rows + r
        from_ids[pos:end] = cols
        vals[pos:end] = block[keep]
        pos = end
    return to_ids, from_ids, vals


def build_spontaneous_rates(basis: Basis, params: SimParams,
                            quadrature: EmissionQuadrature,
                            rel_cutoff: float = REL_CUTOFF,
                            completeness_warn: float = 0.01) -> RateMatrix:
    """Angle-averaged emission branching matrix, in linewidth units.

    Entry (n, l) integrates the product of per-axis recoil overlaps
    |<n_j|exp(i k_sp u_j x_j)|l_j>|^2 over photon directions u. Columns
    sum to 1 up to truncation loss; a single warning reports columns
    losing more than ``completeness_warn``.
    """
    if quadrature.directions.shape[1] != basis.dim:
        raise ValueError("quadrature dimension does not match basis dim")
    nq = basis.max_shell
    size = basis.size
    eta_sp = params.eta_sp
    table = _kappa_table_cache(nq)

    if basis.dim == 1:
        dense = np.zeros((size, size))
        for u, w in zip(quadrature.directions[:, 0], quadrature.weights):
            dense += w * table(eta_sp * u)
    elif basis.dim == 2:
        qx = basis.levels[:, 0].astype(np.int64)
        qy = basis.levels[:, 1].astype(np.int64)
        dense = np.zeros((size, size))
        for (ux, uy), w in zip(quadrature.directions, quadrature.weights):
            tx = table(eta_sp * ux)
            ty = table(eta_sp * uy)
            dense += w * (tx[np.ix_(qx, qx)] * ty[np.ix_(qy, qy)])
    else:
        dense = _spontaneous_dense_3d(basis, eta_sp, quadrature, table)

    to_ids, from_ids, vals = _record_entries(dense, rel_cutoff * dense.max())
    del dense
    fp = spontaneous_fingerprint(basis, params, quadrature)
    mat = RateMatrix("spontaneous", (size, size), to_ids, from_ids, vals, fp)

    lost = 1.0 - mat.column_sums()
    bad = int((lost > completeness_warn).sum())
    if bad:
        warnings.warn(
            f"{bad} of {size} spontaneous columns lose more than "
            f"{completeness_warn:.0%} of their branching to truncation "
            f"(worst {lost.max():.3f}); raise max_shell if the dynamics "
            "populates the top of the band", stacklevel=2)
    return mat


def emission_memory_bytes(basis: Basis, quadrature: EmissionQuadrature) -> int:
    """Bytes the emission matrix path holds at its peak on ``basis``.

    Per level pair: 8 for the dense matrix the build fills and the run
    keeps, 16 for the (u32 to, u32 from, f64 rate) record, and 16 more
    while a load holds the file's bytes next to the record it copies
    out, so 32 in all. The 3D kernel also holds, next to its dense
    output, one float64 (K x K) tensor per polar group plus a ring's
    node terms and the running sum, for K 2D levels.
    """
    pairs = basis.size ** 2
    kernel = 0
    if basis.dim == 3:
        groups = _polar_groups(quadrature)
        k = math.comb(basis.max_shell + 2, 2)
        ring = max(len(m) for m in groups.values())
        kernel = 8 * (pairs + k * k * (len(groups) + ring + 1))
    return max(32 * pairs, kernel)


def _polar_groups(quadrature: EmissionQuadrature) -> dict[float, list[int]]:
    """Quadrature node indices grouped by their (rounded) z component, in
    first-seen order; the phi nodes of a ring share a group."""
    groups: dict[float, list[int]] = {}
    for i, z in enumerate(np.round(quadrature.directions[:, 2], 13)):
        groups.setdefault(float(z), []).append(i)
    return groups


def _spontaneous_dense_3d(basis: Basis, eta_sp: float,
                          quadrature: EmissionQuadrature, table) -> np.ndarray:
    """Dense 3D emission matrix, column-major, built block by block.

    Entry (n, l) sums, over polar groups g in first-seen order,
    XY_g[(qx, qy)_n, (qx, qy)_l] * Z_g[qz_n, qz_l]: Z_g is the group's z
    recoil table and XY_g adds w_i * (X_i * Y_i) over the group's phi
    nodes in node order. XY_g is indexed by pairs of 2D levels with
    qx + qy <= max_shell in shell-major order, so the levels of one qz
    use a prefix of it, and the (qz_n, qz_l) block of the matrix is a
    prefix slice of each XY_g times one Z_g entry. The recoil tables are
    exactly symmetric, so the (qz_l, qz_n) block is the transpose of the
    (qz_n, qz_l) one and is copied, not summed again. A node's term is
    formed once per distinct (x table, y table, weight); the phi nodes
    of a ring meet about a quarter as many. Every entry takes the same
    float operations in the same order as a per-pair gather over all
    nodes (``tests/oracles.py`` keeps that form), so the result is
    bitwise the same. Besides the output, the kernel holds one K x K
    tensor per group and a ring's terms, for K 2D levels.
    """
    nq = basis.max_shell
    size = basis.size
    dirs = quadrature.directions
    w = quadrature.weights
    plane = enumerate_levels(2, nq)  # shell-major, so qx + qy <= m is a prefix
    px, py = (plane.levels[:, j].astype(np.intp) for j in range(2))

    # a node's term depends only on its two tables and its weight
    node_keys = [(kx, ky, wi) for (kx, ky), wi in
                 zip(_kappa_key(eta_sp * dirs[:, :2]).tolist(), w.tolist())]
    xy, tz = [], []
    for z, members in _polar_groups(quadrature).items():
        terms: dict[tuple, np.ndarray] = {}
        acc = np.zeros((plane.size, plane.size))
        for i in members:
            term = terms.get(node_keys[i])
            if term is None:
                tx = table(eta_sp * dirs[i, 0])[px][:, px]
                ty = table(eta_sp * dirs[i, 1])[py][:, py]
                term = w[i] * (tx * ty)
                terms[node_keys[i]] = term
            acc += term
        xy.append(acc)
        tz.append(table(eta_sp * z))

    # ids of the levels with qz = c, in the plane's order
    prefix = [math.comb(nq - c + 2, 2) for c in range(nq + 1)]
    ids = [basis.lut[px[:k], py[:k], c] for c, k in enumerate(prefix)]
    out = np.zeros((size, size), order="F")
    for cn, kn in enumerate(prefix):
        for cl in range(cn, nq + 1):
            kl = prefix[cl]
            block = np.zeros((kn, kl))
            for g, t in zip(xy, tz):
                block += g[:kn, :kl] * t[cn, cl]
            out[np.ix_(ids[cn], ids[cl])] = block
            out[np.ix_(ids[cl], ids[cn])] = block.T
    return out
