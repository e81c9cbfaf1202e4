"""Independent numerical references used by the tests.

Everything here is built from first principles (quadrature, recurrences,
brute-force enumeration) so the library under test never certifies itself.
"""
from __future__ import annotations

import math

import numpy as np

from bosecool.dynamics import P_HARD
from bosecool.rates import REL_CUTOFF, EmissionQuadrature, PhysicsValidityError


_EQUAL = (1.0, 1.0, 1.0)

# the (s, amps) of each pulse of the preset schedules at eta = 2, written
# out rather than built: confinement at -3 eta^2 and -3 eta^2 - 1,
# pseudo-confinement at -3 eta^2 / 2 and -eta^2 (and one lower), the
# interference pulse at s = 0 and the last sideband
FIGURE_PULSES = {
    "fig1": [(-12, _EQUAL), (-6, _EQUAL), (-4, _EQUAL), (0, (1.0, 1.0, -2.0)),
             (-13, _EQUAL), (-7, _EQUAL), (-5, _EQUAL), (-1, _EQUAL)],
    "fig2": [(-12, _EQUAL), (-6, _EQUAL), (-3, _EQUAL), (3, _EQUAL),
             (-13, _EQUAL), (-7, _EQUAL), (-4, _EQUAL), (-2, _EQUAL)],
    "fig3": [(-12, _EQUAL), (-6, _EQUAL), (-4, _EQUAL), (0, (1.0, 1.0, -1.94)),
             (-13, _EQUAL), (-7, _EQUAL), (-5, _EQUAL), (-2, _EQUAL)],
}


def product_quadrature(pattern: str, polar_order: int,
                       n_phi: int) -> EmissionQuadrature:
    """The 3D product rule of ``emission_quadrature`` (Gauss-Legendre in
    cos(theta), midpoint in phi) at any number ``n_phi`` of phi nodes; the
    library always takes 2 * ``polar_order``, but the emission kernel
    takes any quadrature."""
    nodes, glw = np.polynomial.legendre.leggauss(polar_order)
    phi = (np.arange(n_phi) + 0.5) * (2 * math.pi / n_phi)
    ct = np.repeat(nodes, n_phi)
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    dirs = np.column_stack([st * np.tile(np.cos(phi), polar_order),
                            st * np.tile(np.sin(phi), polar_order), ct])
    w = np.repeat(glw, n_phi) / (2.0 * n_phi)
    if pattern != "isotropic":  # the dipole lobe about the named axis
        ca = dirs[:, "xyz".index(pattern[-1])]
        w = w * 0.75 * (1.0 + ca * ca)
    return EmissionQuadrature(dirs, w, pattern, polar_order)


def displacement_overlap_quad(n_out: int, n_in: int, kappa: float, order: int = 220) -> complex:
    """Overlap <n_out| exp(i*kappa*(a+a†)) |n_in> by Gauss-Hermite quadrature.

    With x = (a+a†)/sqrt(2) the operator is exp(i*sqrt(2)*kappa*x), so the
    overlap is the integral of psi_out(x)*psi_in(x)*exp(i*sqrt(2)*kappa*x)
    over the real line, with psi_n the orthonormal Hermite functions.  The
    Gaussian weight is absorbed into the quadrature; the Hermite functions
    are evaluated through the stable normalized recurrence.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    # normalized Hermite polynomials h_n = H_n / sqrt(2^n n! sqrt(pi))
    hmax = max(n_out, n_in)
    h = np.zeros((hmax + 1, order))
    h[0] = math.pi ** -0.25
    if hmax >= 1:
        h[1] = math.sqrt(2.0) * nodes * h[0]
    for n in range(1, hmax):
        h[n + 1] = nodes * math.sqrt(2.0 / (n + 1)) * h[n] - math.sqrt(n / (n + 1.0)) * h[n - 1]
    phase = np.exp(1j * math.sqrt(2.0) * kappa * nodes)
    return complex(np.sum(weights * h[n_out] * h[n_in] * phase))


def thermal_level_weights(shells: np.ndarray, beta: float) -> np.ndarray:
    """Normalized Boltzmann weights exp(-beta*shell) over an explicit level list."""
    w = np.exp(-beta * shells.astype(float))
    return w / w.sum()


def multinomial_sigma(p: float, n: int) -> float:
    """Standard error of an empirical frequency from n draws."""
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def spontaneous_dense_3d_flat(basis, eta_sp: float, quadrature, table) -> np.ndarray:
    """The 3D emission matrix by one flat gather per polar group.

    The plain form of the sum the library's blocked kernel evaluates:
    for each polar group (nodes sharing a rounded z component, in
    first-seen order) the phi nodes add w * outer(Tx, Ty) into a 4-index
    (x, y) tensor, and every level pair then gathers its tensor and z
    table entries through size^2-long index arrays. ``table(kappa)``
    returns the per-axis recoil table |<n|e^{i kappa x}|l>|^2. Row-major
    result, O(size^2) int64 temporaries: for small bases only.
    """
    nq1 = basis.max_shell + 1
    size = basis.size
    dirs = quadrature.directions
    w = quadrature.weights

    zkey = np.round(dirs[:, 2], 13)
    groups: dict[float, list[int]] = {}
    for i, z in enumerate(zkey):
        groups.setdefault(float(z), []).append(i)

    qx = basis.levels[:, 0].astype(np.int64)
    qy = basis.levels[:, 1].astype(np.int64)
    qz = basis.levels[:, 2].astype(np.int64)
    n_idx = np.repeat(np.arange(size, dtype=np.int64), size)
    l_idx = np.tile(np.arange(size, dtype=np.int64), size)
    flat_xy = ((qx[n_idx] * nq1 + qx[l_idx]) * nq1 + qy[n_idx]) * nq1 + qy[l_idx]
    flat_z = qz[n_idx] * nq1 + qz[l_idx]

    vals = np.zeros(size * size)
    for z, members in groups.items():
        tz = table(eta_sp * z).ravel()
        xy = np.zeros((nq1 * nq1, nq1 * nq1))
        for i in members:
            tx = table(eta_sp * dirs[i, 0]).ravel()
            ty = table(eta_sp * dirs[i, 1]).ravel()
            xy += w[i] * np.outer(tx, ty)
        vals += xy.ravel()[flat_xy] * tz[flat_z]
    return vals.reshape(size, size)


def absorption_rates_reference(struct, amps, omega0_tau_abs: float):
    """A pulse's (depletion, chan_indptr, chan_to, chan_rate) the plain way.

    Every channel's rate in the structure's order (pref * A_j^2 * fc2s on a
    shift, pref * spectrum * m * m on the diagonal), then the zero-beam and
    ``REL_CUTOFF`` masks, then a stable regroup by source, and each
    source's depletion summed channel by channel in that order.
    """
    dim, size = struct.basis.dim, struct.basis.size
    pref = math.pi / 8.0 * omega0_tau_abs ** 2
    rate = np.empty(struct.chan_from.size)
    live = np.empty(struct.chan_from.size, dtype=bool)
    if struct.diag_amp is not None:
        m = struct.diag_amp @ np.asarray(amps)
    for k, (frm, axis) in enumerate(zip(struct.chan_from, struct.chan_axis)):
        if axis == dim:  # the diagonal, always open
            rate[k], live[k] = pref * struct.diag_spectrum * m[frm] * m[frm], True
        else:
            a = amps[axis]
            rate[k], live[k] = pref * a * a * struct.chan_fc2s[k], a != 0.0
    top = max((r for r, ok in zip(rate, live) if ok), default=0.0)
    keep = live & (rate >= REL_CUTOFF * top)
    frm = struct.chan_from[keep]
    order = np.argsort(frm, kind="stable")
    depletion = np.zeros(size)
    for src, r in zip(frm[order], rate[keep][order]):
        depletion[src] += r
    return (depletion, np.searchsorted(frm[order], np.arange(size + 1)),
            struct.chan_to[keep][order], rate[keep][order])


def exact_pulse_matrix_reference(state, rates, sp_dense) -> np.ndarray:
    """Dense (to, from) transition matrix of one pulse over configurations,
    by brute-force enumeration.

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
    # each recursive closure holds itself and T: break those cycles, so T
    # is freed when its caller drops it, not at the next garbage collection
    del emit_chain, assign_channels, count_vectors
    colsum = T.sum(axis=0)
    if np.abs(colsum - 1.0).max() > 1e-12:
        raise AssertionError("exact pulse matrix columns do not sum to 1")
    return T
