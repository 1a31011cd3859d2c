"""Checker-side profiling: where the exploration hot loop spends time.

- :class:`CheckProfiler` -- the armed recorder a checker threads through
  its run: per-phase wall time, per-arm dispatch cost, the successor
  out-degree histogram, parallel wave accounting (per-worker
  busy/barrier-wait, cross-shard traffic, queue imbalance) and
  visited-set memory estimates.
- :class:`CheckProfile` -- the schema-versioned JSON artifact
  (``teapot verify --profile-out``), rendered by ``teapot analyze
  check-profile`` and diffable with ``teapot analyze diff``.  Its
  states/s + frontier ``timeline`` is the run's own
  (``CheckResult.timeline``), which ``--progress`` prints.

The profiler is strictly an observer of the engine users run.  Armed,
it only reads clocks and counts: verdict, counts, ``handler_fires``,
every fingerprint and checkpoint are identical to an unprofiled run's
(``tests/test_profile.py``), which records its own action effects just
the same; only host wall time changes (``bench/run.py --trace``
records the price as ``obs.profile_price_ratio``).

The phases: ``successors`` is the time spent inside the expand step's
iterator (handler dispatch included) less ``fingerprint``, every call
of the checker's fingerprint function; ``visited`` is the caller's time
per move less ``invariants``, the accept step's suite; ``checkpoint_io``
is snapshot writing and ``other`` the rest.  Serial phases partition
``run()`` wall time.  Parallel compute phases are summed *across
workers* (they partition worker-busy time, not wall time), and the
``parallel`` section tells the wall-clock story: per-worker busy and
barrier-wait sum to the total wave time, and master routing +
checkpoint I/O account for the rest.  Dispatch cost is a
sub-attribution of ``successors``, so the dispatch and phase tables do
not sum together.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.ioutil import atomic_write_json, check_envelope, read_json
from repro.obs.analyze.trace import TraceError
from repro.verify.fingerprint import FINGERPRINT_BITS, expected_collisions

PROFILE_KIND = "teapot-check-profile"
PROFILE_VERSION = 1

# The hot-loop phases every profile reports (missing ones render as 0).
PHASES = ("successors", "invariants", "fingerprint", "visited",
          "checkpoint_io", "other")

_perf = time.perf_counter


class CheckProfiler:
    """Armed recorder for one exploration run.

    The checkers call the ``add_*`` methods only when a profiler was
    passed; a fresh instance should be used per run (the counters are
    cumulative).
    """

    def __init__(self):
        self.phases: dict[str, float] = {}
        self.dispatch: dict[str, list] = {}   # arm -> [count, seconds]
        self.out_degree: dict[int, int] = {}  # successors -> state count
        self.visited_stats: dict = {}
        # Parallel-only accounting, populated by the master loop.
        self.waves: list[dict] = []
        self.cross_shard_entries = 0
        self.cross_shard_bytes = 0
        self.worker_totals: dict[int, dict] = {}

    # -- recording (checker-facing) -----------------------------------------

    def add_phase(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def add_dispatch(self, key: Optional[str], seconds: float) -> None:
        if key is None:
            return
        entry = self.dispatch.get(key)
        if entry is None:
            self.dispatch[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def add_out_degree(self, degree: int) -> None:
        self.out_degree[degree] = self.out_degree.get(degree, 0) + 1

    def timed_phase(self, name: str, fn):
        """``fn``, adding the time of each call to phase ``name``."""
        def timed_fn(*args):
            t0 = _perf()
            value = fn(*args)
            self.add_phase(name, _perf() - t0)
            return value
        return timed_fn

    def timed(self, moves):
        """Pass an expand step's ``moves`` through, taking three numbers
        from it: the time spent *inside* the iterator (handler dispatch
        included) less its fingerprinting is ``successors``; the
        caller's time per move less the invariant suite (both timed
        where they run) is ``visited``; and the number of moves is the
        state's out-degree, recorded when the iterator ends -- or raises
        the deadlock of a state with none, at 0."""
        phases, add = self.phases, self.add_phase
        degree = 0
        while True:
            hashed, t0 = phases.get("fingerprint", 0.0), _perf()
            try:
                move = next(moves)
            except StopIteration:
                break
            except Exception as stop:
                if getattr(stop, "kind", None) == "deadlock":
                    self.add_out_degree(0)
                raise
            finally:
                add("successors", _perf() - t0 + hashed
                    - phases.get("fingerprint", 0.0))
            degree += 1
            judged, t0 = phases.get("invariants", 0.0), _perf()
            yield move
            add("visited", _perf() - t0 + judged
                - phases.get("invariants", 0.0))
        self.add_out_degree(degree)

    def set_visited(self, entries: int, mode: str,
                    container_bytes: int = 0) -> None:
        """Visited-set memory accounting (collision stats for
        fingerprint tables are finalized in :meth:`build`)."""
        self.visited_stats = {"entries": entries, "mode": mode,
                              "container_bytes": container_bytes}

    # -- recording (parallel master-facing) ---------------------------------

    def record_wave(self, wave: int, wall_seconds: float,
                    workers: list[dict]) -> None:
        """One completed wave: master round-trip wall time plus each
        worker's self-reported busy time and accepted-state count."""
        self.waves.append({
            "wave": wave,
            "wall_seconds": round(wall_seconds, 6),
            "workers": workers,
        })
        for entry in workers:
            totals = self.worker_totals.setdefault(
                entry["id"], {"busy_seconds": 0.0,
                              "barrier_wait_seconds": 0.0,
                              "accepted": 0})
            totals["busy_seconds"] += entry["busy_seconds"]
            totals["barrier_wait_seconds"] += max(
                0.0, wall_seconds - entry["busy_seconds"])
            totals["accepted"] += entry["accepted"]

    def add_cross_shard(self, entries: int, payload_bytes: int) -> None:
        """Fingerprint-only exchange: ``entries`` counts routed metadata
        candidates (``entries=0`` for an adopt batch that ships states),
        ``payload_bytes`` covers both metadata and adopted states."""
        self.cross_shard_entries += entries
        self.cross_shard_bytes += payload_bytes

    def merge_worker(self, payload: Optional[dict]) -> None:
        """Fold one worker's phase/dispatch/out-degree accumulations
        (shipped in its ``finish`` reply) into this master profiler."""
        if not payload:
            return
        for name, seconds in payload["phases"].items():
            self.add_phase(name, seconds)
        for key, (count, seconds) in payload["dispatch"].items():
            entry = self.dispatch.setdefault(key, [0, 0.0])
            entry[0] += count
            entry[1] += seconds
        for degree, count in payload["out_degree"].items():
            degree = int(degree)
            self.out_degree[degree] = self.out_degree.get(degree, 0) + count
        stats = self.visited_stats or {"entries": 0, "mode": "fingerprint",
                                       "container_bytes": 0}
        stats["entries"] = stats.get("entries", 0) + payload["visited_entries"]
        stats["container_bytes"] = (stats.get("container_bytes", 0)
                                    + payload["visited_bytes"])
        self.visited_stats = stats

    def worker_payload(self) -> dict:
        """This (worker-side) profiler's accumulations, for the finish
        reply back to the master."""
        return {
            "phases": dict(self.phases),
            "dispatch": {key: list(entry)
                         for key, entry in self.dispatch.items()},
            "out_degree": {str(k): v for k, v in self.out_degree.items()},
            "visited_entries": self.visited_stats.get("entries", 0),
            "visited_bytes": self.visited_stats.get("container_bytes", 0),
        }

    # -- building the artifact ----------------------------------------------

    def build(self, result) -> "CheckProfile":
        """Finalize into a :class:`CheckProfile` for a finished
        :class:`~repro.verify.checker.CheckResult`."""
        wall = result.elapsed_seconds
        phases = {name: round(self.phases.get(name, 0.0), 6)
                  for name in PHASES if name != "other"}
        parallel = None
        if result.workers > 1 or self.waves:
            wave_total = sum(w["wall_seconds"] for w in self.waves)
            checkpoint_io = phases.get("checkpoint_io", 0.0)
            busy_total = sum(t["busy_seconds"]
                             for t in self.worker_totals.values())
            accepted = [t["accepted"] for t in self.worker_totals.values()]
            mean_accepted = (sum(accepted) / len(accepted)
                             if accepted else 0.0)
            parallel = {
                "waves": len(self.waves),
                "wave_seconds_total": round(wave_total, 6),
                "master_routing_seconds": round(
                    max(0.0, wall - wave_total - checkpoint_io), 6),
                "workers": [
                    {"id": wid,
                     "busy_seconds": round(t["busy_seconds"], 6),
                     "barrier_wait_seconds": round(
                         t["barrier_wait_seconds"], 6),
                     "accepted": t["accepted"]}
                    for wid, t in sorted(self.worker_totals.items())
                ],
                "busy_seconds_total": round(busy_total, 6),
                "cross_shard": {"entries": self.cross_shard_entries,
                                "bytes": self.cross_shard_bytes},
                "imbalance_max_over_mean_accepted": round(
                    max(accepted) / mean_accepted, 3)
                if mean_accepted else 1.0,
                "per_wave": self.waves,
            }
            # Compute phases are worker-CPU sums; close the partition
            # against total busy time, not wall (see module docstring).
            attributed = sum(v for k, v in phases.items()
                             if k != "checkpoint_io")
            phases["other"] = round(max(0.0, busy_total - attributed), 6)
        else:
            phases["other"] = round(
                max(0.0, wall - sum(phases.values())), 6)
        visited = dict(self.visited_stats)
        if visited.get("mode") == "fingerprint":
            visited["fingerprint_bits"] = FINGERPRINT_BITS
            visited["expected_collisions"] = expected_collisions(
                visited.get("entries", 0))
        result_section = {
            "ok": result.ok,
            "states": result.states_explored,
            "transitions": result.transitions,
            "max_depth": result.max_depth,
            "states_per_second": round(
                result.states_explored / wall, 1) if wall > 0 else 0.0,
        }
        # Reduction accounting: present only when a reduction ran, so
        # unreduced profiles are byte-identical to previous builds.
        if getattr(result, "canonical_states", None) is not None:
            result_section["canonical_states"] = result.canonical_states
        return CheckProfile(
            protocol=result.protocol_name,
            nodes=result.n_nodes,
            addresses=result.n_blocks,
            reorder=result.reorder_bound,
            workers=result.workers,
            wall_seconds=round(wall, 6),
            result=result_section,
            phases=phases,
            timeline=result.timeline,
            # count: the arm's fires, cache replays included; seconds:
            # the dispatches really executed (one per effects-cache miss).
            dispatch={key: {"count": count, "seconds": round(
                          self.dispatch.get(key, (0, 0.0))[1], 6)}
                      for key, count in result.handler_fires.items()},
            out_degree={str(k): v
                        for k, v in sorted(self.out_degree.items())},
            visited=visited,
            parallel=parallel,
        )


@dataclass(eq=False)
class CheckProfile:
    """The schema-versioned JSON profile artifact; the fields are the
    payload's keys after the ``kind``/``version`` header, in order."""

    protocol: str = "?"
    nodes: int = 0
    addresses: int = 0
    reorder: int = 0
    workers: int = 0
    wall_seconds: float = 0.0
    result: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)
    timeline: list = field(default_factory=list)
    dispatch: dict = field(default_factory=dict)
    out_degree: dict = field(default_factory=dict)
    visited: dict = field(default_factory=dict)
    parallel: Optional[dict] = None     # omitted from serial profiles

    def to_json(self) -> dict:
        payload = {"kind": PROFILE_KIND, "version": PROFILE_VERSION,
                   **vars(self)}
        if self.parallel is None:
            del payload["parallel"]
        return payload

    def save(self, path: str) -> None:
        atomic_write_json(path, self.to_json(), indent=2)

    @classmethod
    def from_json(cls, payload: dict, path: str = "<profile>"
                  ) -> "CheckProfile":
        check_envelope(payload, path, TraceError, "check profile",
                       "verify --profile-out", PROFILE_KIND, PROFILE_VERSION)
        return cls(**{name: payload[name] for name in cls.__dataclass_fields__
                      if name in payload})


def load_profile(path: str) -> CheckProfile:
    """Read a saved check profile, with friendly one-line errors."""
    return CheckProfile.from_json(
        read_json(path, TraceError, "check profile"), path)


# -- rendering ------------------------------------------------------------------

def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _bar(fraction: float, width: int = 24) -> str:
    return "#" * max(0, round(fraction * width))


def format_profile(profile: CheckProfile, top: int = 10) -> str:
    """The ``teapot analyze check-profile`` view: top-k cost tables,
    the exploration timeline, and (parallel) the imbalance report."""
    result = profile.result
    verdict = "PASS" if result.get("ok") else "FAIL"
    engine = ("serial" if profile.workers <= 1 and profile.parallel is None
              else f"{profile.workers} workers")
    lines = [
        f"check profile: {profile.protocol}  (nodes={profile.nodes} "
        f"addresses={profile.addresses} reorder={profile.reorder} "
        f"engine={engine})",
        f"verdict: {verdict}  states={result.get('states')} "
        f"transitions={result.get('transitions')} "
        f"depth={result.get('max_depth')}  "
        f"wall={_fmt_seconds(profile.wall_seconds)}  "
        f"{result.get('states_per_second', 0.0):.0f} states/s",
    ]
    phase_total = sum(profile.phases.values()) or 1.0
    basis = ("of wall time" if profile.parallel is None
             else "of worker busy time")
    lines.append(f"phases ({basis}):")
    for name in sorted(profile.phases,
                       key=lambda n: -profile.phases[n]):
        seconds = profile.phases[name]
        share = seconds / phase_total
        lines.append(f"  {name:14s} {_fmt_seconds(seconds):>9s}  "
                     f"{share:6.1%}  {_bar(share)}")

    if profile.dispatch:
        ranked = sorted(profile.dispatch.items(),
                        key=lambda item: -item[1]["seconds"])[:top]
        lines.append(f"top {len(ranked)} dispatch costs "
                     "(sub-attribution of the successors phase):")
        for key, entry in ranked:
            mean = entry["seconds"] / entry["count"] if entry["count"] else 0
            lines.append(
                f"  {key:40s} {entry['count']:>8} fires  "
                f"{_fmt_seconds(entry['seconds']):>9s} total  "
                f"{_fmt_seconds(mean):>8s} mean")

    if profile.out_degree:
        pairs = sorted(((int(k), v) for k, v in profile.out_degree.items()))
        total_states = sum(v for _, v in pairs)
        weighted = sum(k * v for k, v in pairs)
        lines.append(
            f"successor out-degree: mean "
            f"{weighted / total_states:.2f} over {total_states} expanded "
            "states; histogram "
            + " ".join(f"{k}:{v}" for k, v in pairs))

    if profile.timeline:
        lines.append("timeline (depth-sampled):")
        lines.append(f"  {'t':>8s} {'states':>8s} {'frontier':>8s} "
                     f"{'depth':>5s} {'states/s':>9s}")
        samples = profile.timeline
        if len(samples) > 2 * top:
            # Keep the shape readable: first, evenly thinned middle, last.
            step = max(1, len(samples) // (2 * top))
            samples = samples[::step] + [profile.timeline[-1]]
        for point in samples:
            lines.append(
                f"  {point['t']:8.3f} {point['states']:>8} "
                f"{point['frontier']:>8} {point['depth']:>5} "
                f"{point['states_per_s']:>9.0f}")

    visited = profile.visited
    if visited:
        detail = f"{visited.get('entries', 0)} entries"
        if visited.get("container_bytes"):
            detail += f", ~{visited['container_bytes'] / 1024:.0f} KiB"
        detail += f" ({visited.get('mode', '?')} keys"
        if "expected_collisions" in visited:
            detail += (f"; expected 64-bit collisions "
                       f"{visited['expected_collisions']:.2e}")
        detail += ")"
        lines.append(f"visited set: {detail}")

    if profile.parallel is not None:
        par = profile.parallel
        lines.append(
            f"parallel: {par['waves']} waves, "
            f"wave time {_fmt_seconds(par['wave_seconds_total'])}, "
            f"master routing "
            f"{_fmt_seconds(par['master_routing_seconds'])}, "
            f"imbalance(max/mean accepted)="
            f"{par['imbalance_max_over_mean_accepted']:.2f}")
        for worker in par["workers"]:
            busy = worker["busy_seconds"]
            barrier = worker["barrier_wait_seconds"]
            total = busy + barrier
            busy_share = busy / total if total else 0.0
            lines.append(
                f"  w{worker['id']}: busy {_fmt_seconds(busy):>9s} "
                f"({busy_share:5.1%})  barrier "
                f"{_fmt_seconds(barrier):>9s}  "
                f"accepted={worker['accepted']}")
        cross = par["cross_shard"]
        lines.append(
            f"  cross-shard: {cross['entries']} candidates routed, "
            f"~{cross['bytes'] / 1024:.1f} KiB (metadata + adopted states)")
    return "\n".join(lines) + "\n"


def diff_profiles(a: CheckProfile, b: CheckProfile,
                  top: int = 8) -> str:
    """Compare two check profiles (``teapot analyze diff a b``)."""

    def config(p: CheckProfile) -> str:
        return (f"{p.protocol} nodes={p.nodes} addresses={p.addresses} "
                f"reorder={p.reorder} workers={p.workers}")

    lines = [f"a: {config(a)}", f"b: {config(b)}"]
    if config(a) != config(b):
        lines.append("note: configurations differ; deltas compare "
                     "different explorations")

    def delta(name, va, vb, unit=""):
        change = ""
        if va:
            change = f"  ({(vb - va) / va:+.1%})"
        return f"  {name:24s} {va:>12.6g} -> {vb:>12.6g}{unit}{change}"

    lines.append("headline:")
    lines.append(delta("states/s",
                       a.result.get("states_per_second", 0.0),
                       b.result.get("states_per_second", 0.0)))
    lines.append(delta("wall_seconds", a.wall_seconds, b.wall_seconds))
    lines.append(delta("states", a.result.get("states", 0),
                       b.result.get("states", 0)))
    lines.append(delta("transitions", a.result.get("transitions", 0),
                       b.result.get("transitions", 0)))

    lines.append("phases (seconds):")
    for name in PHASES:
        va = a.phases.get(name, 0.0)
        vb = b.phases.get(name, 0.0)
        if va or vb:
            lines.append(delta(name, va, vb))

    movers = sorted(
        set(a.dispatch) | set(b.dispatch),
        key=lambda key: -abs(b.dispatch.get(key, {}).get("seconds", 0.0)
                             - a.dispatch.get(key, {}).get("seconds", 0.0)))
    movers = [key for key in movers
              if (a.dispatch.get(key, {}).get("seconds", 0.0)
                  or b.dispatch.get(key, {}).get("seconds", 0.0))][:top]
    if movers:
        lines.append(f"dispatch movers (top {len(movers)} by |delta|):")
        for key in movers:
            lines.append(delta(
                key,
                a.dispatch.get(key, {}).get("seconds", 0.0),
                b.dispatch.get(key, {}).get("seconds", 0.0)))

    ea = a.visited.get("entries", 0)
    eb = b.visited.get("entries", 0)
    if ea or eb:
        lines.append("visited set:")
        lines.append(delta("entries", ea, eb))
    return "\n".join(lines) + "\n"
