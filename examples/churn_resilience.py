#!/usr/bin/env python
"""Domain example: how much churn can a desktop-grid campaign absorb?

Reproduces the paper's §IV.B dynamic-environment study (Fig. 12–14) as a
practical capacity question: a lab submits a fixed campaign to a grid in
which half the machines are volatile desktop nodes that join and leave
every scheduling interval.  We sweep the dynamic factor and report
throughput, ACT and AE of the completed workflows — then show the paper's
proposed future-work fix (rescheduling lost tasks) closing the gap under
the harsher fail-churn semantics.

Run with ``python examples/churn_resilience.py``.
"""

from repro.experiments.config import ExperimentConfig
from repro.grid.system import P2PGridSystem


def run(df: float, churn_mode: str = "suspend", reschedule: bool = False):
    cfg = ExperimentConfig(
        algorithm="dsmf",
        n_nodes=80,
        load_factor=2,
        total_time=18 * 3600.0,
        seed=9,
        dynamic_factor=df,
        churn_mode=churn_mode,
        recovery_policy="reschedule" if reschedule else "fail",
    )
    return P2PGridSystem(cfg).run()


def main() -> None:
    print("Churn sweep (suspend semantics — Fig. 12/13/14 shape):")
    print(f"  {'df':>4}  {'finished':>8}  {'failed':>6}  {'ACT (s)':>8}  {'AE':>6}")
    for df in (0.0, 0.1, 0.2, 0.3, 0.4):
        r = run(df)
        print(f"  {df:>4.1f}  {r.n_done:>8}  {r.n_failed:>6}  {r.act:>8.0f}  {r.ae:>6.3f}")
    print()
    print("Harsh fail-churn semantics at df=0.2, with and without the")
    print("rescheduling extension (the paper's future work):")
    plain = run(0.2, churn_mode="fail")
    fixed = run(0.2, churn_mode="fail", reschedule=True)
    print(f"  no rescheduling : {plain.n_done} finished, {plain.n_failed} failed")
    print(f"  rescheduling on : {fixed.n_done} finished, {fixed.n_failed} failed")
    print()
    print("Takeaway: with suspend churn the finished workflows keep stable")
    print("ACT/AE up to df~0.2 (as the paper reports); abrupt task loss is")
    print("catastrophic without rescheduling, which is why the paper flags")
    print("it as the key piece of future work.")


if __name__ == "__main__":
    main()
