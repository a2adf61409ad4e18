#!/usr/bin/env python
"""Collect the data behind EXPERIMENTS.md (paper-vs-measured record).

Runs every experiment of the paper's §IV at the requested profile through
the campaign runner — fanned out across worker processes, with completed
runs cached on disk so re-collections (e.g. after fixing one figure's
rendering) only pay for what actually changed — and dumps one JSON file
per figure into ``results/``.  ``render_experiments.py`` turns those into
the EXPERIMENTS.md tables.

Usage::

    python scripts/collect_experiments.py --profile medium --jobs 20
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.experiments.campaign import CampaignRun, CampaignRunner, RunSpec
from repro.experiments.figures import (
    FCFS_BASES,
    ccr_specs,
    churn_specs,
    fcfs_specs,
    load_factor_specs,
    scalability_specs,
    static_specs,
)

RESULTS = Path(__file__).resolve().parent.parent / "results"


def digest(run: CampaignRun) -> dict:
    """Slim, JSON-able record of one campaign run."""
    r = run.result
    times, tp = r.series("throughput")
    _, act = r.series("act")
    _, ae = r.series("ae")
    return {
        "label": run.label,
        "algorithm": r.algorithm,
        "n_nodes": r.n_nodes,
        "n_workflows": r.n_workflows,
        "n_done": r.n_done,
        "n_failed": r.n_failed,
        "act": float(r.act),
        "ae": float(r.ae),
        "rss_mean": float(r.rss_mean),
        "events": r.events_executed,
        "wall": run.wall_seconds,
        "cached": run.from_cache,
        "series": {"hours": times, "throughput": tp, "act": act, "ae": ae},
    }


def build_specs(profile: str, seed: int) -> dict[str, list[RunSpec]]:
    """One fully-resolved config per experiment of §IV, grouped by figure.

    The grids come from the figure harnesses' spec builders; only the
    wider Fig. 11 x-axis and Table II's extra DSMF pair are chosen here.
    """
    common = dict(profile=profile, seed=seed)
    return {
        "fig456": static_specs(**common),
        "fig78": load_factor_specs(**common),
        "fig910": ccr_specs(**common),
        "fig11": scalability_specs(
            scales=(100, 200, 400, 600, 800, 1000, 1400, 2000), **common
        ),
        "fig121314": churn_specs(**common),
        "table2": fcfs_specs(bases=FCFS_BASES + ("dsmf",), **common),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--profile", default="medium")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of figure groups to run")
    ap.add_argument("--cache-dir", default=None,
                    help="campaign cache location (default .repro_cache/campaign)")
    ap.add_argument("--no-cache", action="store_true",
                    help="force fresh runs; skip the result cache")
    args = ap.parse_args()

    RESULTS.mkdir(exist_ok=True)
    groups = build_specs(args.profile, args.seed)
    if args.only:
        groups = {k: v for k, v in groups.items() if k in args.only}

    flat = [(gname, spec) for gname, specs in groups.items() for spec in specs]
    print(f"{len(flat)} runs across {len(groups)} figure groups "
          f"({args.jobs} workers, profile={args.profile})")

    def progress(run: CampaignRun) -> None:
        # Labels repeat across figure groups (e.g. fig456's and table2's
        # "dsmf" — identical configs the runner dedupes), so progress lines
        # carry the label only; the per-group JSON keeps exact attribution.
        d = run.result
        src = "cache" if run.from_cache else f"{run.wall_seconds:.0f}s"
        print(f"  [{run.label}] done={d.n_done}/"
              f"{d.n_workflows} ACT={d.act:.0f} AE={d.ae:.3f} ({src})")

    t0 = time.perf_counter()
    runner = CampaignRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=progress,
    )
    campaign = runner.run([spec for _, spec in flat])

    by_group: dict[str, list[dict]] = {}
    for (gname, _), run in zip(flat, campaign.runs):
        by_group.setdefault(gname, []).append(digest(run))

    meta = {"profile": args.profile, "seed": args.seed,
            "wall_total": time.perf_counter() - t0,
            "n_cached": campaign.n_cached,
            "fingerprint": campaign.fingerprint()}
    for gname, items in by_group.items():
        out = RESULTS / f"{gname}_{args.profile}.json"
        out.write_text(json.dumps({"meta": meta, "runs": items}, indent=1))
        print(f"wrote {out}")
    print(f"total wall: {meta['wall_total']:.0f}s "
          f"({campaign.n_cached}/{len(campaign)} from cache)")


if __name__ == "__main__":
    main()
