"""The paper's application workloads, synthesised.

Tables 1 and 2 run real CM-5 programs; offline, we reproduce each
program's *sharing pattern* -- the sequence of protocol events its
memory references generate -- which is what drives the Teapot-versus-C
overhead the tables measure (see DESIGN.md's substitution notes).

- Table 1 (Stache): gauss, appbt, shallow, mp3d
- Table 2 (LCM):    adaptive, stencil, unstruct
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.workloads.table1": ("gauss_programs", "appbt_programs",
                               "shallow_programs", "mp3d_programs",
                               "STACHE_WORKLOADS"),
    "repro.workloads.table2": ("adaptive_programs", "stencil_programs",
                               "unstruct_programs", "LCM_WORKLOADS"),
    "repro.workloads.driver": ("WorkloadResult", "run_workload"),
})

__all__ = [
    "gauss_programs",
    "appbt_programs",
    "shallow_programs",
    "mp3d_programs",
    "adaptive_programs",
    "stencil_programs",
    "unstruct_programs",
    "STACHE_WORKLOADS",
    "LCM_WORKLOADS",
    "WorkloadResult",
    "run_workload",
]
