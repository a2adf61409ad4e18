"""``repro serve`` with the service layers wrapped; writes spans on exit.

Usage: ``python perfbench/serve_traced.py OUT.json <repro serve arguments>``.
The server runs exactly as ``python -m repro serve`` does; on shutdown
(SIGTERM) the per-layer self times and the spans go to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    from perfbench.layers import Tracer, install_service
    from repro.experiments.cli import main as repro_main

    out, serve_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    try:
        with tracer.installed(install_service):
            return repro_main(serve_args)
    finally:
        record = {"layers": tracer.snapshot(), "events": tracer.chrome_events(os.getpid())}
        out.write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
