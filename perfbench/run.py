"""Run one workload of the benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-10k --seed 7 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a traced pass (layers a
workload does not exercise read 0).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: workload name -> (module, function) under ``perfbench``.
WORKLOADS = {
    "grid-10k": ("simulator", "grid_10k"),
    "fig4-campaign": ("simulator", "fig4_campaign"),
    "service-mix": ("service_mix", "service_mix"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run the benchmark "
            "from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import importlib

    from perfbench.common import WORK_ROOT

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module, func = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(f"perfbench.{module}"), func)
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = workload(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = out.metrics.get(m["name"], 0.0)
        if not args.trace and m["name"] not in out.metrics:
            out.fail(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in out.report:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {out.failed / max(1, out.attempted):.6g} ({out.failed}/{out.attempted})")
    for problem in out.problems:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": out.failed == 0 and not out.problems,
                "attempted": max(1, out.attempted),
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak memory is per process)."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
