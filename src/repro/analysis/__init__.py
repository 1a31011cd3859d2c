"""Protocol structure analyses backing the paper's figures.

- :mod:`repro.analysis.stategraph`: extract the state-transition graph
  of a compiled protocol (Figures 1, 2, and 4 -- the idealized machines
  versus the intermediate-state explosion).
- :mod:`repro.analysis.diffstat`: count the places a protocol extension
  touches (Figure 6's "14 different places" comparison).
- :mod:`repro.analysis.loc`: source/generated line counting (the
  Section 6 in-text size comparisons).
- :mod:`repro.analysis.consistency`: value-level consistency checking
  over simulation logs (the data-value assertions the model checker
  deliberately abstracts away).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.analysis.stategraph": ("StateGraph", "build_state_graph"),
    "repro.analysis.diffstat": ("protocol_diffstat", "DiffStat"),
    "repro.analysis.loc": ("count_loc", "loc_report"),
    "repro.analysis.consistency": ("ConsistencyReport",
                                   "check_barrier_consistency",
                                   "check_read_values"),
})

__all__ = [
    "StateGraph",
    "build_state_graph",
    "protocol_diffstat",
    "DiffStat",
    "count_loc",
    "loc_report",
    "ConsistencyReport",
    "check_barrier_consistency",
    "check_read_values",
]
