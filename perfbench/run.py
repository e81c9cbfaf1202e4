"""Benchmark of the bosecool CLI on three workloads.

    python3 perfbench/run.py --workload <fig3_short|fig1_session|oracle1d>
                             --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout; nothing needs installing, the
CLI runs from ``src`` as ``python3 -m bosecool``. With ``--trace 0`` it
sets the workload up several times, then repeats the workload's timed
operation (one CLI command, or the three-command fig1 session) until
``--seconds`` have passed, and reports the medians of the end-to-end
metrics. With ``--trace 1`` it runs the same untraced loop, then one
traced set-up and one traced operation, and reports per-layer metrics.
Every operation's outputs go through the workload's correctness check
and path guard; an operation that fails either counts as failed.

The last line of standard output is the result object; the run context,
per-sample numbers and output hashes go to the lines before it and to
``perfbench/_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer as T
import workloads as W

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
SETUP_MIN_REPEATS = 3  # set-up runs at least this often,
SETUP_MIN_SECONDS = 3.0  # and until this much time is spent on it
COMMAND_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BOSECOOL_CACHE_DIR", None)  # would override the generated cache_dir
    paths = [str(W.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


ENV = _child_env()


def timed(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run ``argv`` to completion: exit code, wall seconds, CPU seconds of
    the process tree, and the largest resident set of any process in it."""
    with open(log, "ab") as fh:
        fh.write((" ".join(argv) + "\n").encode())
        fh.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=ENV, cwd=W.ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def plain_argv(index: int, command: str, config: Path, seed: int) -> list[str]:
    return W.command_argv(command, config, seed)


def operation(wl: W.Workload, directory: Path, seed: int, ctx, toy: bool,
              argv_of=plain_argv) -> dict:
    """One timed operation: the workload's commands in order, each in a
    fresh interpreter, then its path guard and correctness check."""
    if not wl.warm:
        shutil.rmtree(directory / "cache", ignore_errors=True)
    shutil.rmtree(directory / "out", ignore_errors=True)
    guard = W.SessionGuard(wl, directory)
    config = directory / "config.yaml"
    sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
              "command_walls": [], "problems": []}
    for i, command in enumerate(wl.commands):
        code, wall, cpu, rss = timed(argv_of(i, command, config, seed),
                                     directory / "commands.log")
        sample["wall_s"] += wall
        sample["command_walls"].append(wall)
        sample["cpu_s"] += cpu
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], rss)
        if code != 0:
            sample["problems"].append(f"{command} exited with {code}")
            return sample
        sample["problems"] += guard.after(command)
    if not toy:  # the physics checks are sized for the full workload
        sample["problems"] += W.CHECKS[wl.name](directory / "out", ctx)
    sample["csv_sha256"] = {p.name: _sha256(p)
                            for p in sorted((directory / "out").glob("*.csv"))}
    return sample


def measure(wl, directory, seed, seconds, ctx, toy) -> list[dict]:
    """Repeat the operation until ``seconds`` have passed (at least once)."""
    deadline = time.perf_counter() + seconds
    samples = []
    while True:
        samples.append(operation(wl, directory, seed, ctx, toy))
        if time.perf_counter() >= deadline:
            return samples


def setup_argv(wl, directory, toy) -> list[str]:
    return ([sys.executable, str(HERE / "workloads.py"), wl.name, str(directory)]
            + (["--toy"] if toy else []))


def run_step(argv, log) -> float:
    code, wall, _, _ = timed(argv, log)
    if code != 0:
        raise SystemExit(f"perfbench: {argv[1]} failed with exit code {code}; "
                         f"see {log}")
    return wall


def context(args) -> dict:
    src = hashlib.sha256()
    for p in sorted(W.SRC.rglob("*.py")):
        src.update(str(p.relative_to(W.SRC)).encode() + b"\0" + p.read_bytes())
    revision = None
    if (W.ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(W.ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        revision = out.stdout.strip() or None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    import numpy
    return {"workload": args.workload, "seed": args.seed,
            "threads": W.THREADS, "seconds": args.seconds, "trace": args.trace,
            "git_revision": revision, "src_sha256": src.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": metadata.version("scipy")}


def median_of(samples, key) -> float:
    return statistics.median(s[key] for s in samples)


def untraced_run(wl, args, base, ctx) -> tuple[list[dict], dict, dict]:
    setup_s = []
    while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_SECONDS:
        d = base / f"setup-{len(setup_s)}"
        setup_s.append(run_step(setup_argv(wl, d, args.toy), base / "setup.log"))
        if len(setup_s) > 1:
            shutil.rmtree(d)
    directory = base / "setup-0"
    samples = measure(wl, directory, args.seed, args.seconds,
                      ctx(directory), args.toy)
    metrics = {"wall_s": median_of(samples, "wall_s"),
               "setup_s": statistics.median(setup_s),
               "cpu_s": median_of(samples, "cpu_s"),
               "peak_rss_mb": median_of(samples, "peak_rss_mb")}
    counts = {k: len(samples) for k in metrics}
    counts["setup_s"] = len(setup_s)
    return samples, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                     for k, v in metrics.items()}, {"setup_s": setup_s,
                                                    "sample_counts": counts}


def traced_run(wl, args, base, ctx) -> tuple[list[dict], dict, dict]:
    tracer_py = str(HERE / "tracer.py")
    trace_dir = base / "trace"
    directory = base / "traced"
    run_step(
        [sys.executable, tracer_py, "setup", str(trace_dir / "setup"), wl.name,
         str(directory)] + (["--toy"] if args.toy else []), base / "setup.log")
    check_ctx = ctx(directory)
    samples = measure(wl, directory, args.seed, args.seconds, check_ctx,
                      args.toy)

    step_dirs = [trace_dir / f"cmd{i}-{c}" for i, c in enumerate(wl.commands)]

    def traced_argv(i, command, config, seed):
        return [sys.executable, tracer_py, "command", str(step_dirs[i]),
                *W.command_argv(command, config, seed)[3:]]

    traced = operation(wl, directory, args.seed, check_ctx, args.toy,
                       traced_argv)
    traced["traced"] = True
    samples.append(traced)
    bytes_written = sum(p.stat().st_size for p in (directory / "out").glob("*")
                        if p.is_file())

    run_step([sys.executable, tracer_py, "micro", wl.name, str(directory),
              str(args.seed)], base / "setup.log")
    with open(directory / "micro.json", encoding="utf-8") as fh:
        micro = json.load(fh)
    metrics = T.layer_metrics(
        T.load_step(trace_dir / "setup"),
        [T.load_step(d) for d in step_dirs], traced["command_walls"],
        median_of(samples[:-1], "wall_s"), bytes_written, micro)
    return samples, {k: {"value": v, "unit": T.unit_of(k)}
                     for k, v in metrics.items()}, {"micro": micro}


def preflight() -> None:
    missing = [p for p in [W.SRC / "bosecool" / "__init__.py",
                           *(W.CONFIGS / f"{wl.preset}.yaml"
                             for wl in W.WORKLOADS.values())]
               if not p.is_file()]
    if missing:
        raise SystemExit("perfbench: not a bosecool source checkout, missing "
                         + ", ".join(str(p) for p in missing))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="self-test size; skips the physics checks")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    preflight()

    wl = W.WORKLOADS[args.workload]
    base = WORK / wl.name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    run_context = context(args)

    def check_ctx(directory):
        return None if args.toy else W.check_context(wl, directory / "config.yaml")

    try:
        run = traced_run if args.trace else untraced_run
        samples, metrics, details = run(wl, args, base, check_ctx)
    finally:
        for cache in base.glob("*/cache"):
            shutil.rmtree(cache, ignore_errors=True)

    failed = sum(1 for s in samples if s["problems"])
    hashes = {json.dumps(s.get("csv_sha256"), sort_keys=True) for s in samples}
    report = {"context": run_context, **details,
              "samples": samples,
              "outputs_identical_across_samples": len(hashes) == 1}
    with open(base / "result.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1)
    print("context: " + json.dumps(run_context))
    print("details: " + json.dumps(details))
    for i, s in enumerate(samples):
        print(f"sample {i}: " + json.dumps(s))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
