"""Workloads of the benchmark: config generation from the shipped presets,
the one-off set-up each workload pays, and the correctness checks and
path guards applied to the outputs of every timed operation.

Run as a script, ``python3 perfbench/workloads.py <workload> <dir> [--toy]``
performs one set-up: it writes ``<dir>/config.yaml`` and, for a warm
workload, fills ``<dir>/cache`` through the package's public functions.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

THREADS = 2  # equals nproc on the 2-core machine the bounds were set on
ORACLE_TRAJECTORIES = 500  # about 3.5 s per simulate call at 2 threads
ORACLE_Z = 5.0  # standard errors allowed between ensemble and exact marginals


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    commands: tuple[str, ...]
    warm: bool  # set-up fills the rate cache; timed commands must only load
    overrides: dict = field(default_factory=dict)
    toy: dict = field(default_factory=dict)  # self-test size


_TOY_2D_PULSES = [{"s": -1, "amps": [1.0, 1.0]},
                  {"s": 0, "amps": [1.0, -1.0]},
                  {"s": -2, "amps": [1.0, 0.5]}]

WORKLOADS = {
    # The only preset whose per-cycle ramp path runs every cycle.
    "fig3_short": Workload(
        "fig3_short", "fig3_short", ("hysteresis",), warm=True,
        toy={"basis": {"dim": 2, "max_shell": 4}, "atoms": 20,
             "trajectories": 2, "initial": {"thermal_mean_shell": 1.5},
             "schedule": {"pulses": _TOY_2D_PULSES, "total_cycles": 12,
                          "ramps": [{"pulse": 1, "field": "a_y",
                                     "start": -1.0, "end": -0.2,
                                     "start_cycle": 2, "end_cycle": 12}]},
             "recorder": {"stride": 2, "events": False},
             "watched": [[0, 0]],
             "hysteresis": {"threshold": 0.5, "source": [0, 0],
                            "targets": [[1, 0], [0, 1]]}}),
    # The first-run flow on a new basis: build and store the emission
    # matrix in `criterion`, load it back in `simulate`.
    "fig1_session": Workload(
        "fig1_session", "fig1", ("darkstates", "criterion", "simulate"),
        warm=False,
        toy={"basis": {"dim": 2, "max_shell": 4}, "atoms": 20,
             "trajectories": 2, "initial": {"thermal_mean_shell": 1.5},
             "schedule": {"pulses": _TOY_2D_PULSES, "total_cycles": 12},
             "recorder": {"stride": 2, "events": False},
             "watched": [[0, 0]], "criterion": {"target": [0, 0]}}),
    # Per-pulse and per-trajectory overhead: rates and cache cost nothing.
    "oracle1d": Workload(
        "oracle1d", "demo1d", ("simulate",), warm=True,
        overrides={"trajectories": ORACLE_TRAJECTORIES},
        toy={"trajectories": 20,
             "schedule": {"pulses": [{"s": -1}, {"s": -2}],
                          "total_cycles": 20}}),
}


def _import_package():
    """Import bosecool from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bosecool
    if Path(bosecool.__file__).resolve().parent != SRC / "bosecool":
        raise RuntimeError(f"bosecool imported from {bosecool.__file__}, "
                           f"not from {SRC}")
    return bosecool


def generate_config(wl: Workload, directory: Path, toy: bool = False) -> Path:
    """Write the workload's config: its preset with the benchmark's
    overrides, outputs and rate cache redirected into ``directory``."""
    with open(CONFIGS / f"{wl.preset}.yaml", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    doc.update(wl.overrides)
    if toy:
        doc.update(wl.toy)
    doc["output"] = {"directory": str(directory / "out")}
    doc["cache_dir"] = str(directory / "cache")
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "config.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
    return path


def fill_cache(config_path: Path) -> None:
    """Build and store every persisted matrix the config's run will load,
    the way the CLI resolves them: calibrated pulse area, emission
    quadrature, then ``MatrixProvider.prepare``."""
    _import_package()
    from bosecool.config import load_config
    from bosecool.dynamics import MatrixProvider, calibrate_pulse_area
    from bosecool.rates import emission_quadrature

    cfg = load_config(str(config_path))
    basis = cfg.build_basis()
    schedule = cfg.build_schedule()
    if cfg.omega0_tau_abs == "auto":
        expected = cfg.n_atoms * cfg.initial_distribution(basis)
        omega0 = calibrate_pulse_area(basis, cfg.build_params(0.5), schedule,
                                      expected)
    else:
        omega0 = float(cfg.omega0_tau_abs)
    params = cfg.build_params(omega0_resolved=omega0)
    quadrature = emission_quadrature(cfg.dim, cfg.emission_pattern,
                                     polar_order=cfg.quadrature_order)
    os.makedirs(cfg.cache_dir, exist_ok=True)
    MatrixProvider(basis, params, cache_dir=cfg.cache_dir,
                   quadrature=quadrature).prepare(schedule)


def setup(wl: Workload, directory: Path, toy: bool = False) -> Path:
    path = generate_config(wl, directory, toy)
    if wl.warm:
        fill_cache(path)
    return path


def command_argv(command: str, config_path: Path, seed: int) -> list[str]:
    return [sys.executable, "-m", "bosecool", command,
            "--config", str(config_path), "--threads", str(THREADS),
            "--seed", str(seed)]


# ------------------------------------------------------------ parsing


def read_keyed(path: Path) -> dict[str, str]:
    """``key: value`` lines of summary.txt, hysteresis.txt and friends."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(": ")
            if sep and key not in out:
                out[key] = value
    return out


def final_observables(path: Path) -> dict[str, float]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return dict(zip(rows[0], (float(v) for v in rows[-1])))


def _tag(level) -> str:
    return "_".join(str(int(c)) for c in level)


def emission_cache_files(cache_dir: Path) -> list[Path]:
    """Cached spontaneous-emission matrices, by the kind byte at offset 12
    of the versioned ``.rates`` layout documented in ``bosecool.cache``."""
    if not cache_dir.is_dir():
        return []
    found = []
    for p in sorted(cache_dir.glob("*.rates")):
        with open(p, "rb") as fh:
            head = fh.read(13)
        if len(head) == 13 and head[:8] == b"BCRATES1" and head[12] == 1:
            found.append(p)
    return found


# ------------------------------------------------- guards and checks


class SessionGuard:
    """Path guard of one timed operation, consulted after each command.

    Warm workloads must neither build the emission matrix nor any static
    absorption matrix. The fig1 session must build the emission matrix
    exactly once (in `criterion`) and `simulate` must load that file.
    """

    def __init__(self, wl: Workload, directory: Path):
        self.wl = wl
        self.cache = directory / "cache"
        self.out = directory / "out"
        self.emission_stat = None

    def after(self, command: str) -> list[str]:
        if self.wl.warm:
            s = read_keyed(self.out / "summary.txt")
            if s.get("sp_builds") != "0" or s.get("abs_builds") != "0":
                return [f"warm path broken: sp_builds={s.get('sp_builds')} "
                        f"abs_builds={s.get('abs_builds')}"]
            return []
        files = emission_cache_files(self.cache)
        if command == "darkstates":
            return [f"darkstates stored {len(files)} emission matrices"] \
                if files else []
        if command == "criterion":
            if len(files) != 1:
                return [f"criterion left {len(files)} emission matrices, "
                        "expected exactly one build"]
            st = files[0].stat()
            self.emission_stat = (files[0].name, st.st_ino, st.st_mtime_ns)
            return []
        problems = []
        stats = [(p.name, p.stat().st_ino, p.stat().st_mtime_ns) for p in files]
        if stats != [self.emission_stat]:
            problems.append("simulate rebuilt or replaced the emission matrix")
        s = read_keyed(self.out / "summary.txt")
        if s.get("sp_builds") != "0" or s.get("disk_loads", "0") == "0":
            problems.append(f"simulate did not load the emission matrix: "
                            f"sp_builds={s.get('sp_builds')} "
                            f"disk_loads={s.get('disk_loads')}")
        return problems


def check_fig3_short(out: Path, ctx) -> list[str]:
    h = read_keyed(out / "hysteresis.txt")
    if h.get("found_both") != "True":
        return [f"hysteresis found_both={h.get('found_both')}"]
    up, down = float(h["up_transfer_value"]), float(h["down_transfer_value"])
    if not up > down:
        return [f"up transfer {up} not above down transfer {down}"]
    return []


FIG1_DARK_LEVELS = ["(0, 0, 0)"]  # the fig1 cycle leaves only the ground level dark


def check_fig1_session(out: Path, ctx) -> list[str]:
    problems = []
    c = read_keyed(out / "criterion.txt")
    if c.get("verdict") != "condensing":
        problems.append(f"criterion verdict {c.get('verdict')}")
    d = read_keyed(out / "darkstates.txt")
    with open(out / "darkstates.txt", encoding="utf-8") as fh:
        dark = [line.split("level=")[1].split(" depletion=")[0]
                for line in fh if line.startswith("dark: ")]
    if d.get("exact_dark_count") != str(len(FIG1_DARK_LEVELS)) \
            or dark != FIG1_DARK_LEVELS:
        problems.append(f"exact dark levels {dark}, expected {FIG1_DARK_LEVELS}")
    frac = final_observables(out / "observables.csv")["frac_0_0_0_mean"]
    if not frac > 0.9:
        problems.append(f"final (0,0,0) fraction {frac} not above 0.9")
    return problems


class OracleReference:
    """Exact final marginals of the oracle1d config, from ``exact_propagate``."""

    def __init__(self, config_path: Path):
        _import_package()
        import numpy as np
        from bosecool.basis import Configuration
        from bosecool.config import load_config
        from bosecool.dynamics import exact_propagate

        cfg = load_config(str(config_path))
        basis = cfg.build_basis()
        self.n_atoms = cfg.n_atoms
        self.n_traj = cfg.n_traj
        self.size = basis.size
        occ = np.zeros(basis.size, dtype=np.int64)
        self.start_id = basis.id_of(cfg.initial.level)
        occ[self.start_id] = cfg.n_atoms
        with warnings.catch_warnings():  # the 6-level band truncates by design
            warnings.simplefilter("ignore")
            state = exact_propagate(basis, cfg.build_params(),
                                    cfg.build_schedule(), Configuration(occ))
        self.watched = {}  # column tag -> (level id, exact mean, per-trajectory sd)
        for lv in cfg.watched:
            i = basis.id_of(lv)
            f = state.configs[:, i] / cfg.n_atoms
            mean = float(f @ state.probs)
            var = max(float((f * f) @ state.probs) - mean * mean, 0.0)
            self.watched[_tag(lv)] = (i, mean, math.sqrt(var))


def check_oracle1d(out: Path, ref: OracleReference) -> list[str]:
    problems = []
    final = final_observables(out / "observables.csv")
    for tag, (_, mean, sd) in ref.watched.items():
        got = final[f"frac_{tag}_mean"]
        bound = ORACLE_Z * sd / math.sqrt(ref.n_traj) + 1e-12
        if abs(got - mean) > bound:
            problems.append(f"final frac_{tag} {got:.5f} differs from exact "
                            f"{mean:.5f} by more than {bound:.5f}")
    # replay events.csv: no level may go negative, ids stay in the basis, and
    # the replayed final occupancies reproduce observables.csv
    occ = {}
    with open(out / "events.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, _, _, frm, _, to in reader:
            state = occ.get(t)
            if state is None:
                state = occ[t] = [0] * ref.size
                state[ref.start_id] = ref.n_atoms
            frm, to = int(frm), int(to)
            if not (0 <= frm < ref.size and 0 <= to < ref.size) or state[frm] < 1:
                problems.append(f"event in trajectory {t} empties level {frm} "
                                f"or leaves the basis")
                return problems
            state[frm] -= 1
            state[to] += 1
    for tag, (i, _, _) in ref.watched.items():
        total = sum(s[i] for s in occ.values())
        untouched = ref.n_traj - len(occ)
        total += untouched * (ref.n_atoms if i == ref.start_id else 0)
        replayed = total / (ref.n_traj * ref.n_atoms)
        if not math.isclose(replayed, final[f"frac_{tag}_mean"],
                            rel_tol=1e-12, abs_tol=1e-15):
            problems.append(f"events.csv replays frac_{tag}={replayed}, "
                            f"observables.csv says {final[f'frac_{tag}_mean']}")
    return problems


CHECKS = {"fig3_short": check_fig3_short,
          "fig1_session": check_fig1_session,
          "oracle1d": check_oracle1d}


def check_context(wl: Workload, config_path: Path):
    """Reference data a workload's check needs, computed once per run."""
    return OracleReference(config_path) if wl.name == "oracle1d" else None


def main() -> int:
    ap = argparse.ArgumentParser(description="one workload set-up")
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("directory")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    setup(WORKLOADS[args.workload], Path(args.directory), args.toy)
    return 0


if __name__ == "__main__":
    sys.exit(main())
