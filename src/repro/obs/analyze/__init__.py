"""Trace analysis: asking questions of the JSONL events PR 1 emits.

The paper's evaluation is built from exactly such questions: Figure 11
reconstructs a message-reordering interleaving (``causal``), Tables 1-2
attribute fault-wait time to protocol behaviour (``critical-path``), and
Section 7's claim rests on the checker having exercised every handler
(``coverage``).  ``diff`` compares two traces or two coverage reports.

Entry points::

    trace   = load_trace("run.jsonl")
    clocks  = vector_clocks(trace)              # happens-before order
    chain   = causal_chain(trace, target_idx)   # Figure-11 style
    faults  = fault_paths(trace)                # per-fault wait split
    report  = coverage_from_trace(trace, protocol)
    report  = coverage_from_checker(protocol, result, ...)
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.analyze.trace": ("Trace", "TraceError", "load_trace"),
    "repro.obs.analyze.order": ("causal_edges", "happens_before",
                                "vector_clocks"),
    "repro.obs.analyze.causal": ("causal_chain", "format_causal"),
    "repro.obs.analyze.critpath": ("FaultPath", "Segment", "fault_paths",
                                   "format_critical_path"),
    "repro.obs.analyze.coverage": ("CoverageReport", "arm_universe",
                                   "coverage_from_checker",
                                   "coverage_from_trace", "fault_only_arms",
                                   "format_fault_only", "load_coverage"),
    "repro.obs.analyze.diff": ("diff_coverage", "diff_traces"),
})

__all__ = [
    "Trace",
    "TraceError",
    "load_trace",
    "vector_clocks",
    "happens_before",
    "causal_edges",
    "causal_chain",
    "format_causal",
    "FaultPath",
    "Segment",
    "fault_paths",
    "format_critical_path",
    "CoverageReport",
    "arm_universe",
    "coverage_from_trace",
    "coverage_from_checker",
    "fault_only_arms",
    "format_fault_only",
    "load_coverage",
    "diff_traces",
    "diff_coverage",
]
