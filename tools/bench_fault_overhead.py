"""Measure the wall-time overhead of the fault-injection layer.

Runs the Table 1 gauss workload under Stache three ways -- no fault
plan at all, a fault plan armed but injecting nothing (empty rule
list), and the recovery layer armed on a reliable network -- and
reports wall time per configuration (median-of-repeats, with the
min/max spread so noise is visible).  Simulated cycles must come out
identical in all three (an idle fault plan and an idle watchdog are
pure bookkeeping); the script fails loudly if they do not.

Usage::

    PYTHONPATH=src python tools/bench_fault_overhead.py [-o BENCH_fault_overhead.json]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_common import bench_meta, timing_row, write_bench  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.protocols import compile_named_protocol  # noqa: E402
from repro.tempest.machine import Machine, MachineConfig  # noqa: E402
from repro.workloads import STACHE_WORKLOADS  # noqa: E402

N_NODES = 8
REPEATS = 5


def run_once(protocol, programs, n_blocks, faults, watchdog):
    config = MachineConfig(n_nodes=N_NODES, n_blocks=n_blocks,
                           faults=faults, watchdog=watchdog)
    machine = Machine(protocol, programs, config)
    start = time.perf_counter()
    result = machine.run()
    elapsed = time.perf_counter() - start
    return result.cycles, elapsed


def bench(make_faults, watchdog):
    """Wall-time samples over REPEATS; returns (cycles, samples)."""
    factory, blocks_fn = STACHE_WORKLOADS["gauss"]
    protocol = compile_named_protocol("stache")
    cycles = None
    samples = []
    for _ in range(REPEATS):
        programs = factory(n_nodes=N_NODES)
        run_cycles, elapsed = run_once(
            protocol, programs, blocks_fn(N_NODES),
            make_faults(), watchdog)
        if cycles is None:
            cycles = run_cycles
        elif cycles != run_cycles:
            raise SystemExit(f"non-deterministic run: {cycles} vs "
                             f"{run_cycles} cycles")
        samples.append(elapsed)
    return cycles, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output",
                        default="BENCH_fault_overhead.json")
    args = parser.parse_args()

    configs = {
        "no_fault_layer": (lambda: None, False),
        "plan_armed_idle": (lambda: FaultPlan(), False),
        "recovery_armed": (lambda: None, True),
    }
    rows = {}
    cycles_seen = set()
    for name, (make_faults, watchdog) in configs.items():
        cycles, samples = bench(make_faults, watchdog)
        cycles_seen.add(cycles)
        row = timing_row(samples)
        row["cycles"] = cycles
        rows[name] = row
        print(f"{name:20s} {row['wall_seconds']:8.4f}s "
              f"(+/-{row['wall_spread_pct']:.1f}%)  cycles={cycles}")
    if len(cycles_seen) != 1:
        raise SystemExit(f"cycle counts diverged: {sorted(cycles_seen)}")

    base = rows["no_fault_layer"]["wall_seconds"]
    for name, row in rows.items():
        row["overhead_pct"] = round(
            100.0 * (row["wall_seconds"] - base) / base, 1)

    report = bench_meta("fault layer overhead, Table 1 gauss on stache")
    report.update({
        "n_nodes": N_NODES,
        "repeats": REPEATS,
        "timer": "median-of-repeats wall time, machine.run() only, "
                 "min/max spread per row",
        "configs": rows,
        "note": "cycles are identical by construction; an idle fault "
                "plan and an idle watchdog change no simulated "
                "behaviour, only host wall time -- deltas within "
                "wall_spread_pct are noise",
    })
    write_bench(args.output, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
