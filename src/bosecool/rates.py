"""Rate matrices for stimulated absorption and spontaneous emission.

Absorption rates are dimensionless per-pulse excitation factors: the
second-order pulse-area prefactor pi/8 * (omega0_tau_abs)^2 is folded in,
so the per-pulse excitation probability of one atom in ground level m is
2 * depletion[m], the sum of the rates of m's channels. A pulse's
absorption lives in ``PulseRates``, its channels grouped by source level
in the order the sampler draws them; where no channel is cut, that
grouping is the ``AbsorptionStructure``'s own, shared and read-only.
``RateMatrix`` is the (to_id, from_id, rate) record a static pulse's
absorption is cached as on disk.

Spontaneous entries are branching rates in units of the excited-state
linewidth; the dynamics renormalizes them per configuration, so only
ratios matter. ``EmissionMatrix`` holds them as one dense column-major
float64 array, the form the sampler reads and the cache stores, with
entries below ``REL_CUTOFF`` of the maximum zeroed; its column sums
approach 1 when the truncation holds the full emission band.

The 3D emission matrix is built in its own buffer one polar group's
(x, y) tensor at a time, over blocks of z quantum numbers, bitwise equal
to summing every quadrature node over every level pair; a 1D one in the
buffer of its recoil table. ``emission_memory_bytes`` states what the
path holds at its peak, which the command line checks against physical
memory.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .basis import Basis, SimParams, enumerate_levels

REL_CUTOFF = 1e-12  # entries below this fraction of the max are dropped
_COMPLETENESS_WARN = 0.01  # branching a column may lose to truncation unreported


class PhysicsValidityError(RuntimeError):
    """A coarse-grained validity bound was violated at run time."""


# ---------------------------------------------------------------- kernels


def _laguerre(n: int, alpha: int, x: float) -> list[float]:
    """Associated Laguerre L_0^(alpha)(x) .. L_n^(alpha)(x) by the
    three-term upward recurrence."""
    prev, cur = 1.0, 1.0 + alpha - x
    vals = [prev, cur]
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
        vals.append(cur)
    return vals[:n + 1]


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
    lag = _laguerre(lo, d, x)[-1]
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
    return math.exp(-0.5 * x) * np.array(_laguerre(n_max, 0, x))


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
        vals = np.array(_laguerre(size - d - 1, d, x))
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
    """A pulse's absorption as a (to, from, rate) record: columns are
    source levels."""

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


@dataclass
class EmissionMatrix:
    """The emission branching matrix: ``dense[n, l]`` is the rate from
    excited level l to ground level n, float64 and column-major, so the
    column an emission draw reads is contiguous. A loaded matrix is a
    read-only view of its mapped cache file (``cache.cache_load``)."""

    dense: np.ndarray
    fingerprint: str = ""

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.dense))


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
        return RateMatrix((n, n), self.chan_to, from_ids, self.chan_rate)


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
    regrouping, which is what makes amplitude ramps cheap. The arrays are
    read-only: an evaluation that cuts no channel shares them.
    """

    basis: Basis
    diag_amp: np.ndarray | None       # (size, dim) per-axis diagonal amplitudes
    diag_spectrum: float
    indptr: np.ndarray                 # channels of source m: indptr[m]:indptr[m+1]
    chan_from: np.ndarray
    chan_to: np.ndarray
    chan_axis: np.ndarray              # beam axis of a shift, dim on the diagonal
    chan_fc2s: np.ndarray              # fc2 * spectrum of a shift, 0 on the diagonal

    def __post_init__(self):
        for a in (self.diag_amp, self.indptr, self.chan_from, self.chan_to,
                  self.chan_axis, self.chan_fc2s):
            if a is not None:
                a.flags.writeable = False

    def evaluate(self, amps: tuple[float, ...],
                 omega0_tau_abs: float) -> PulseRates:
        """Rates at beam amplitudes ``amps`` and area ``omega0_tau_abs``.

        With no channel cut (by a zero beam or ``REL_CUTOFF``) the result
        shares ``indptr`` and ``chan_to``, and where the diagonal is every
        channel its rate vector is the depletion too. Only a cut regroups.
        """
        if len(amps) != self.basis.dim:
            raise ValueError("amplitude tuple length must match basis dim")
        n = self.basis.size
        pref = math.pi / 8.0 * omega0_tau_abs ** 2
        if self.diag_amp is not None:  # each source's first channel
            m = self.diag_amp @ np.asarray(amps)
            diag = pref * self.diag_spectrum * m * m
        diag_only = self.diag_amp is not None and self.chan_from.size == n
        if diag_only:  # the diagonal is always open
            rate = diag
            keep = rate >= REL_CUTOFF * rate.max(initial=0.0)
        else:
            # a zero beam opens no channels
            live = np.array([a != 0.0 for a in amps] + [True])[self.chan_axis]
            coef = np.array([pref * a * a for a in amps] + [0.0])
            rate = coef[self.chan_axis] * self.chan_fc2s
            if self.diag_amp is not None:
                rate[self.indptr[:-1]] = diag
            keep = live & (rate >= REL_CUTOFF * rate[live].max(initial=0.0))
        indptr, chan_from, chan_to = self.indptr, self.chan_from, self.chan_to
        if not keep.all():
            indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
            chan_from, chan_to, rate = chan_from[keep], chan_to[keep], rate[keep]
        elif diag_only:
            return PulseRates(rate, indptr, chan_to, rate)
        # float64 even where no channel is left, which bincount makes int64
        depletion = np.bincount(chan_from, weights=rate, minlength=n)
        return PulseRates(depletion.astype(np.float64, copy=False), indptr,
                          chan_to, rate)


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


_PATTERNS = ("isotropic", "dipole:x", "dipole:y", "dipole:z")


def emission_quadrature(dim: int, pattern: str = "isotropic",
                        polar_order: int = 24) -> EmissionQuadrature:
    """Angular quadrature for the emission pattern in ``dim`` dimensions.

    In 3D: product Gauss-Legendre in cos(theta) times a uniform midpoint
    rule in phi at 2 * ``polar_order`` nodes. Lower-dimensional traps
    emit along their own axes (two points in 1D, a uniform circle of
    2 * ``polar_order`` nodes in 2D); only the isotropic pattern is
    defined there. ``pattern`` is "isotropic" or "dipole:x|y|z" for the
    linear-dipole lobe 3/(16 pi) (1 + cos^2) about the given axis.
    ``polar_order`` is at least 2.
    """
    if pattern not in _PATTERNS:
        raise ValueError(f"unknown emission pattern {pattern!r}; choose "
                         f"from {_PATTERNS}")
    if pattern != "isotropic" and dim != 3:
        raise ValueError("dipole emission patterns require a 3D basis")
    if polar_order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {polar_order}")
    n_phi = 2 * polar_order
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
        w = np.array([0.5, 0.5])
        return EmissionQuadrature(dirs, w, pattern, polar_order)
    if dim == 2:
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
    else:
        ca = dirs[:, "xyz".index(pattern[-1])]
        w = base_w * 0.75 * (1.0 + ca * ca)  # 3/(16pi)(1+c^2) over 1/(4pi)
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


def _block_cols(size: int) -> int:
    """Columns per block of an emission build's column passes: a sixteenth
    of the matrix, and at least 16, so a small basis takes one block."""
    return max(16, -(-size // 16))


def build_spontaneous_rates(basis: Basis, params: SimParams,
                            quadrature: EmissionQuadrature) -> EmissionMatrix:
    """Angle-averaged emission branching matrix, in linewidth units.

    Entry (n, l) integrates the product of per-axis recoil overlaps
    |<n_j|exp(i k_sp u_j x_j)|l_j>|^2 over photon directions u; entries
    below ``REL_CUTOFF`` of the maximum are zeroed in place, a block of
    columns at a time. Columns sum to 1 up to truncation loss; a single
    warning reports columns losing more than ``_COMPLETENESS_WARN``. A 1D
    matrix is built in the buffer of its recoil table and a 3D one in its
    output, so the build holds the matrix plus a few blocks
    (``emission_memory_bytes``).
    """
    if quadrature.directions.shape[1] != basis.dim:
        raise ValueError("quadrature dimension does not match basis dim")
    nq = basis.max_shell
    size = basis.size
    eta_sp = params.eta_sp
    table = _kappa_table_cache(nq)
    cols = _block_cols(size)

    if basis.dim < 3:
        # entry (n, l) adds w * (Tx * Ty) node by node, a block of columns
        # at a time. The tables are exactly symmetric, so a block gathers
        # its columns as table rows. In 1D the levels are the table's
        # indices and both nodes read one table as large as the matrix, so
        # the matrix fills that table's buffer, read column-major: a block
        # reads its own columns' rows before it writes them
        q = basis.levels.astype(np.intp)
        dense = (table(eta_sp * quadrature.directions[0, 0]).T
                 if basis.dim == 1 else np.empty((size, size), order="F"))
        for lo in range(0, size, cols):
            block = np.zeros((min(cols, size - lo), size))
            for u, w in zip(quadrature.directions, quadrature.weights):
                block += w * reduce(operator.imul, (  # Tx *= Ty: one copy
                    table(eta_sp * uj)[q[lo:lo + cols, j]][:, q[:, j]]
                    for j, uj in enumerate(u)))
            dense[:, lo:lo + cols] = block.T
    else:
        dense = _spontaneous_dense_3d(basis, eta_sp, quadrature, table)
    cut = REL_CUTOFF * dense.max()
    for lo in range(0, size, cols):
        block = dense[:, lo:lo + cols]
        np.copyto(block, 0.0, where=block < cut)

    lost = 1.0 - dense.sum(axis=0)
    bad = int((lost > _COMPLETENESS_WARN).sum())
    if bad:
        warnings.warn(
            f"{bad} of {size} spontaneous columns lose more than "
            f"{_COMPLETENESS_WARN:.0%} of their branching to truncation "
            f"(worst {lost.max():.3f}); raise max_shell if the dynamics "
            "populates the top of the band", stacklevel=2)
    return EmissionMatrix(dense, spontaneous_fingerprint(basis, params,
                                                         quadrature))


def emission_memory_bytes(basis: Basis, quadrature: EmissionQuadrature) -> int:
    """Bytes of the arrays the emission matrix path holds at its peak on
    ``basis``. Python objects and per-array overhead are not counted, so
    on bases of about a hundred levels or fewer a build's tracemalloc
    peak exceeds it (about 1.8x on 2D max_shell 3, 1.2x on 3D max_shell
    6); from a few hundred levels up the estimate lies above the peak.

    8 per level pair for the dense matrix the build fills, the cache
    stores and the run keeps. A load maps the cache file instead of
    allocating the matrix (``cache.cache_load``), so the same preflight,
    unchanged, is conservative there. The build adds its
    recoil tables, one (max_shell+1)^2 table per distinct |direction
    component| (a 1D matrix fills its one table's buffer), and the larger
    of what its steps hold at once: in 1D or 2D four column blocks, for
    the running sum, the gathers and the weighted term; in 3D the K x K
    tensor of one polar group beside a band of a quarter of its rows for
    each of a ring's node terms and four gathers (K 2D levels), or one
    column block of the final permutation.
    """
    size = basis.size
    cols = _block_cols(size)
    tables = len(set(_kappa_key(quadrature.directions).ravel().tolist()))
    extra = 8 * (basis.max_shell + 1) ** 2 * (tables - (basis.dim == 1))
    if basis.dim < 3:
        return 8 * size * size + extra + 8 * 4 * size * cols
    k = math.comb(basis.max_shell + 2, 2)
    ring = max(len(m) for m in _polar_groups(quadrature).values())
    kernel = 8 * k * k + 8 * -(-k // 4) * k * (ring + 4)
    return 8 * size * size + extra + max(kernel, 8 * size * cols)


def _polar_groups(quadrature: EmissionQuadrature) -> dict[float, list[int]]:
    """Quadrature node indices grouped by their (rounded) z component, in
    first-seen order; the phi nodes of a ring share a group."""
    groups: dict[float, list[int]] = {}
    for i, z in enumerate(np.round(quadrature.directions[:, 2], 13)):
        groups.setdefault(float(z), []).append(i)
    return groups


def _spontaneous_dense_3d(basis: Basis, eta_sp: float,
                          quadrature: EmissionQuadrature, table) -> np.ndarray:
    """Dense 3D emission matrix, column-major, built one polar group at a
    time in its own buffer.

    Entry (n, l) sums, over polar groups g in first-seen order,
    XY_g[(qx, qy)_n, (qx, qy)_l] * Z_g[qz_n, qz_l]: Z_g is the group's z
    recoil table and XY_g adds w_i * (X_i * Y_i) over the group's phi
    nodes in node order. XY_g is indexed by pairs of 2D levels with
    qx + qy <= max_shell in shell-major order, so the levels of one qz
    use a prefix of it. The output is first filled in qz-major order,
    where the (qz_n, qz_l) block is one contiguous slice: each group's
    XY_g, once complete, adds a prefix of itself times one Z_g entry to
    every block with qz_n <= qz_l and is dropped. The tables are exactly
    symmetric, so XY_g.T holds XY_g's values laid out like the output,
    each (qz_l, qz_n) block is the (qz_n, qz_l) one transposed and
    copied, and the basis order is reached by permuting rows a column
    block at a time and columns cycle by cycle. XY_g is formed a band of
    rows at a time, with each distinct (x table, y table, weight) node
    term formed once per band; the phi nodes of a ring meet about a
    quarter as many. Every entry takes the same float operations in the
    same order as a per-pair gather over all nodes (``tests/oracles.py``
    keeps that form), so the result is bitwise the same. Besides the
    output, the build holds one K x K tensor, a band of a ring's terms
    (for K 2D levels) and one column block.
    """
    nq = basis.max_shell
    size = basis.size
    dirs = quadrature.directions
    w = quadrature.weights
    plane = enumerate_levels(2, nq)  # shell-major, so qx + qy <= m is a prefix
    px, py = (plane.levels[:, j].astype(np.intp) for j in range(2))
    k = plane.size
    rows = -(-k // 4)  # tensor rows per band of node terms

    # the levels with qz = c, in the plane's order, sit at start[c]:start[c+1]
    prefix = [math.comb(nq - c + 2, 2) for c in range(nq + 1)]
    start = np.concatenate(([0], np.cumsum(prefix))).tolist()
    out = np.zeros((size, size), order="F")
    acc = np.empty((k, k))
    for z, members in _polar_groups(quadrature).items():
        # a node's term depends only on its two tables and its weight
        keys = [(kx, ky, wi) for (kx, ky), wi in zip(
            _kappa_key(eta_sp * dirs[members, :2]).tolist(), w[members].tolist())]
        for lo in range(0, k, rows):
            band = acc[lo:lo + rows]
            band.fill(0.0)
            terms: dict[tuple, np.ndarray] = {}
            for i, key in zip(members, keys):
                term = terms.get(key)
                if term is None:
                    tx = table(eta_sp * dirs[i, 0])[px[lo:lo + rows]][:, px]
                    ty = table(eta_sp * dirs[i, 1])[py[lo:lo + rows]][:, py]
                    term = w[i] * (tx * ty)
                    terms[key] = term
                band += term
        del terms, term, tx, ty  # only the complete tensor is added
        tz = table(eta_sp * z)
        xy = acc.T  # == acc, laid out like the output
        for cn, kn in enumerate(prefix):
            for cl in range(cn, nq + 1):
                out[start[cn]:start[cn + 1], start[cl]:start[cl + 1]] += (
                    xy[:kn, :prefix[cl]] * tz[cn, cl])
    del acc, band, xy
    for cn in range(nq + 1):
        for cl in range(cn + 1, nq + 1):
            out[start[cl]:start[cl + 1], start[cn]:start[cn + 1]] = (
                out[start[cn]:start[cn + 1], start[cl]:start[cl + 1]].T)

    # position p holds level order[p]; entry (n, l) is out[pos[n], pos[l]]
    order = np.concatenate([basis.lut[px[:kc], py[:kc], c]
                            for c, kc in enumerate(prefix)])
    pos = np.empty(size, dtype=np.intp)
    pos[order] = np.arange(size)
    cols = _block_cols(size)
    for lo in range(0, size, cols):
        out[:, lo:lo + cols] = out[pos, lo:lo + cols]
    done = np.zeros(size, dtype=bool)
    for first in range(size):
        if done[first]:
            continue
        keep, dst = out[:, first].copy(), first
        while (src := int(pos[dst])) != first:  # column dst takes column src
            out[:, dst] = out[:, src]
            done[dst], dst = True, src
        out[:, dst] = keep
        done[dst] = True
    return out
