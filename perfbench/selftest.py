"""Fast self-test of the benchmark, at toy size (2D and 1D bases, a few
cycles, a couple of trajectories).

    python3 perfbench/selftest.py

For every workload it checks that the generated toy config loads, then
runs the benchmark untraced and traced and checks the result object: its
keys, that every metric BENCHMARK.json names appears with its unit and a
finite value, that pool-worker spans reached the trace, and that the
result file with the run context loads. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((W.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CONTEXT_KEYS = {"git_revision", "src_sha256", "nproc", "cpu_model", "python",
                "numpy", "scipy", "seed", "threads"}


def check(cond: bool, what: str, failures: list[str]) -> None:
    if not cond:
        failures.append(what)


def check_result(line: str, declared: list[dict], label: str,
                 failures: list[str]) -> dict:
    result = json.loads(line)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}", failures)
    check(result["correct"] is True and result["failed"] == 0,
          f"{label}: failed operations", failures)
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']}", failures)
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in metrics.items()}
    check(got == want, f"{label}: metrics/units differ: "
          f"missing {sorted(set(want) - set(got))}, "
          f"extra {sorted(set(got) - set(want))}, "
          f"units {[k for k in want if k in got and got[k] != want[k]]}",
          failures)
    for k, v in metrics.items():
        check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
              f"{label}: {k} value {v['value']}", failures)
    return metrics


def main() -> int:
    failures: list[str] = []
    sys.path.insert(0, str(W.SRC))
    from bosecool.config import load_config

    for name, wl in W.WORKLOADS.items():
        (HERE / "_work").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
            cfg = load_config(str(W.generate_config(wl, Path(tmp), toy=True)))
            check(cfg.n_traj <= 20, f"{name}: toy config is not toy-sized",
                  failures)
        for trace in (0, 1):
            label = f"{name} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--toy"], capture_output=True, text=True, cwd=W.ROOT)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr[-2000:]}")
                continue
            declared = BENCHMARK["per_layer" if trace else "end_to_end"]
            metrics = check_result(proc.stdout.strip().splitlines()[-1],
                                   declared, label, failures)
            if trace:
                check(all(metrics.get(k, {}).get("value", 0) > 0 for k in
                          ("dynamics.ensemble.run_s", "dynamics.sampler.self_s",
                           "dynamics.sampler.pulses")),
                      f"{label}: pool-worker spans missing from the trace",
                      failures)
            saved = json.loads((HERE / "_work" / name / "result.json")
                               .read_text(encoding="utf-8"))
            check(CONTEXT_KEYS <= set(saved["context"]),
                  f"{label}: run context lacks "
                  f"{sorted(CONTEXT_KEYS - set(saved['context']))}", failures)
            check(all("csv_sha256" in s for s in saved["samples"]),
                  f"{label}: output hashes missing", failures)
            print(f"{label}: {'ok' if not failures else 'FAIL'}")

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
