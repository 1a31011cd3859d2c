"""Every metric the benchmark prints, by name, with its unit.

BENCHMARK.json at the root of the repo repeats these definitions for the
driver; bench/tests asserts that the two agree.  Later issues cite the
names, so they do not change.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    # Share of the earlier value by which the metric may get worse;
    # 0.0 means the value must repeat exactly.
    bound: float
    # Which workload kinds report it.
    kinds: tuple = ("verify", "sim")


# The issue hoped for 10% on wall_s and 7% on cpu_s.  Over ten runs on
# this host the paced timings spread up to 19% (README.md, "Noise"), and
# the driver accepts only a bound the spread stays inside.
END_TO_END = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("cpu_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
    EndToEnd("sim_cycles", "cycles", "lower", 0.0, ("sim",)),
    EndToEnd("teapot_overhead_pct", "%", "lower", 0.0, ("sim",)),
    EndToEnd("failed_share", "fraction", "lower", 0.0),
]

# BENCHMARK.json's `end_to_end` holds the metrics every workload reports
# and that are never 0.  `failed_share` reaches the driver as `failed`
# over `attempted`; the two simulated-time metrics reach it as the
# per-layer `tempest.sim_cycles` and `tempest.teapot_overhead_pct`.
CONTRACT_END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


# Printed beside the end-to-end metrics and kept in the trajectory, but
# not gated: the timings as the clock read them, before they were divided
# by `host_pace` (the probe's time over its time on the reference host).
UNPACED = {"setup_raw_s": "s", "wall_raw_s": "s", "cpu_raw_s": "s",
           "host_pace": "ratio"}


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str


def _layer(prefix: str, *rows) -> list[PerLayer]:
    return [PerLayer(f"{prefix}.{name}", unit, better)
            for name, unit, better in rows]


PER_LAYER = [
    PerLayer("trace_overhead_pct", "%", "lower"),
    *_layer("cli",
            ("interp_start_s", "s", "lower"),
            ("import_s", "s", "lower"),
            ("post_explore_s", "s", "lower")),
    *_layer("lang",
            ("tokenize_s", "s", "lower"),
            ("parse_s", "s", "lower"),
            ("typecheck_s", "s", "lower"),
            ("tokens", "count", "lower"),
            ("tokens_per_s", "1/s", "higher"),
            ("source_bytes", "bytes", "lower")),
    *_layer("compiler",
            ("lower_s", "s", "lower"),
            ("liveness_s", "s", "lower"),
            ("constcont_s", "s", "lower"),
            ("handlers", "count", "lower"),
            ("basic_blocks", "count", "lower"),
            ("suspend_sites", "count", "lower"),
            ("static_sites", "count", "higher"),
            ("inlined_resumes", "count", "higher")),
    *_layer("backends",
            ("emit_python_s", "s", "lower"),
            ("emit_c_s", "s", "lower"),
            ("emit_murphi_s", "s", "lower"),
            ("python_bytes", "bytes", "lower"),
            ("c_bytes", "bytes", "lower"),
            ("murphi_bytes", "bytes", "lower")),
    *_layer("api",
            ("compile_cold_s", "s", "lower"),
            ("compile_cached_s", "s", "lower")),
    *_layer("checker",
            ("explore_cold_s", "s", "lower"),
            ("explore_warm_s", "s", "lower"),
            ("memo_warm_ratio", "ratio", "higher"),
            ("states", "count", "lower"),
            ("transitions", "count", "lower"),
            ("max_depth", "count", "lower"),
            ("states_per_s", "1/s", "higher"),
            ("handler_fires", "count", "lower"),
            ("invariant_evals", "count", "lower"),
            ("canonical_states", "count", "lower")),
    *_layer("fingerprint",
            ("encode_ns_per_state", "ns", "lower"),
            ("bytes_per_state", "bytes", "lower"),
            ("hash_ns_per_state", "ns", "lower"),
            ("canonical_ns_per_state", "ns", "lower"),
            ("permutations", "count", "lower"),
            ("codec_roundtrip_ns_per_state", "ns", "lower"),
            ("mode_price_ratio", "ratio", "lower"),
            ("symmetry_price_ratio", "ratio", "lower"),
            ("symmetry_state_ratio", "ratio", "lower")),
    *_layer("invariants",
            ("ns_per_state", "ns", "lower")),
    *_layer("parallel",
            ("explore_w1_s", "s", "lower"),
            ("explore_w2_s", "s", "lower"),
            ("speedup_w2", "ratio", "higher"),
            ("cpu_ratio_w2", "ratio", "lower"),
            ("barrier_wait_share", "fraction", "lower"),
            ("cross_shard_bytes", "bytes", "lower")),
    *_layer("checkpoint",
            ("write_s", "s", "lower"),
            ("load_s", "s", "lower"),
            ("bytes", "bytes", "lower")),
    *_layer("obs",
            ("profile_price_ratio", "ratio", "lower"),
            ("atlas_price_ratio", "ratio", "lower"),
            ("sim_trace_price_ratio", "ratio", "lower"),
            ("sim_metrics_price_ratio", "ratio", "lower"),
            # Dispatch-mode shares: --profile-out bypasses the memo caches.
            ("profile.successors_share", "fraction", "lower"),
            ("profile.invariants_share", "fraction", "lower"),
            ("profile.fingerprint_share", "fraction", "lower"),
            ("profile.visited_share", "fraction", "lower"),
            ("profile.other_share", "fraction", "lower")),
    *_layer("tempest",
            ("run_s", "s", "lower"),
            ("dispatches", "count", "lower"),
            ("messages", "count", "lower"),
            ("cont_allocs", "count", "lower"),
            ("queue_allocs", "count", "lower"),
            ("static_cont_uses", "count", "higher"),
            ("ns_per_dispatch", "ns", "lower"),
            ("dispatches_per_s", "1/s", "higher"),
            ("sim_cycles", "cycles", "lower"),
            ("teapot_overhead_pct", "%", "lower"),
            ("fault_time_fraction", "fraction", "lower")),
    *_layer("workloads",
            ("build_s", "s", "lower"),
            ("ops", "count", "lower")),
]

# Counts a change to host speed must leave identical: --check-repeat
# compares them exactly between its two traced runs.
EXACT_PER_LAYER = frozenset(
    metric.name for metric in PER_LAYER
    if metric.name.startswith(("checker.", "tempest."))
    and metric.unit in ("count", "cycles")
) | {"tempest.teapot_overhead_pct"}


def benchmark_json(command, paths, run_seconds, workloads) -> dict:
    """The driver's view of these definitions (BENCHMARK.json)."""
    by_name = {metric.name: metric for metric in END_TO_END}
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in (by_name[name] for name in CONTRACT_END_TO_END)],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
