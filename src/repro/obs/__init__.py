"""Observability: structured tracing and metrics for runs and checks.

The paper's evaluation is built on *seeing* protocol behaviour --
Tables 1-2 count continuation/queue allocations and fault-wait time,
Figure 11 reconstructs a message-reordering interleaving, and Section 7
prints counterexample traces.  This package provides that visibility as
a first-class, zero-dependency subsystem:

- :mod:`repro.obs.sinks` -- the :class:`TraceSink` interface with a
  near-zero-overhead :class:`NullSink` default, a :class:`JsonlSink`
  (one structured event per line), and a :class:`ChromeTraceSink` whose
  output loads directly in ``chrome://tracing`` / Perfetto;
- :mod:`repro.obs.metrics` -- a :class:`MetricsRegistry` of per-handler
  counters and cycle histograms keyed by ``(state, message)``;
- :mod:`repro.obs.observer` -- the :class:`Observer` facade the
  simulator, runtime, and checker call into;
- :mod:`repro.obs.analyze` -- the trace-analysis engine behind
  ``teapot analyze``: happens-before vector clocks, causal chains,
  critical-path fault attribution, handler coverage, and trace diffs;
- :mod:`repro.obs.profile` -- the checker-side exploration profiler
  (``verify --profile-out`` / ``analyze check-profile``): per-phase
  hot-loop attribution, dispatch cost tables, states/s timelines, and
  parallel wave accounting.

Nothing here is imported on the hot path unless tracing is enabled: the
simulator and the handler engine guard every emit site with a single
``obs is None`` test, so default runs are cycle- and allocation-
identical to a build without this package.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.metrics": ("MetricsRegistry", "format_metrics"),
    "repro.obs.observer": ("Observer",),
    "repro.obs.profile": ("CheckProfile", "CheckProfiler", "diff_profiles",
                          "format_profile", "load_profile"),
    "repro.obs.sinks": ("MIN_SCHEMA_VERSION", "SCHEMA_VERSION",
                        "ChromeTraceSink", "JsonlSink", "NullSink",
                        "TraceSink", "open_sink"),
})

__all__ = [
    "CheckProfile",
    "CheckProfiler",
    "ChromeTraceSink",
    "JsonlSink",
    "MetricsRegistry",
    "MIN_SCHEMA_VERSION",
    "NullSink",
    "Observer",
    "SCHEMA_VERSION",
    "TraceSink",
    "diff_profiles",
    "format_metrics",
    "format_profile",
    "load_profile",
    "open_sink",
]
