"""Regenerate STATE_ATLAS.json: the per-protocol state-space index.

Explores every registered protocol at a small, fixed configuration
(3 nodes, 1 address, FIFO delivery -- the smallest config where the
caching nodes are interchangeable), records the full atlas, and writes
one summary row per protocol: state/transition counts, terminal-SCC
structure, deadlocks, diameter, and the collapse a ``--symmetry`` run
achieves (``reduced_states``, ``achieved_ratio``).  Protocols whose
3-node space is too large to explore in a tool run are bounded by
``--max-states``; their rows say ``exhausted: false`` and describe the
explored prefix.

Usage::

    PYTHONPATH=src python tools/state_atlas.py \
        [-o STATE_ATLAS.json] [--atlas-dir DIR] [--max-states N] \
        [--protocol NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.api import (  # noqa: E402
    ArtifactOptions,
    CheckOptions,
    ReductionOptions,
    check,
)
from repro.protocols import PROTOCOLS  # noqa: E402
from repro.verify.atlas import analyze_structure  # noqa: E402

INDEX_KIND = "teapot-state-atlas-index"
INDEX_VERSION = 2

NODES = 3
ADDRESSES = 1
REORDER = 0


def atlas_row(name: str, max_states: int, atlas_dir: str | None) -> dict:
    start = time.perf_counter()
    result = check(name, CheckOptions(
        nodes=NODES, addresses=ADDRESSES, reorder=REORDER,
        max_states=max_states, artifacts=ArtifactOptions(atlas=True)))
    elapsed = time.perf_counter() - start
    atlas = result.atlas
    if atlas_dir:
        atlas.save(os.path.join(atlas_dir, f"{name}.json"))
    structure = analyze_structure(atlas)
    row = {
        "verdict": "PASS" if result.ok else "FAIL",
        "exhausted": bool(result.exhausted),
        "states": result.states_explored,
        "transitions": result.transitions,
        "max_depth": result.max_depth,
        "diameter": structure["diameter"],
        "sccs": structure["sccs"],
        "terminal_sccs": structure["terminal_sccs"],
        "deadlock_states": len(structure["deadlock_states"]),
    }

    # The collapse symmetry reduction achieves, as `verify --symmetry`
    # measures it.  A protocol that fails the checker's symmetry
    # certification (a node-asymmetric choice like lcm_mcc's PopSharer
    # copy-delegation) falls back to an unreduced run inside api.check,
    # so its ratio is 1.00x.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reduced = check(name, CheckOptions(
            nodes=NODES, addresses=ADDRESSES, reorder=REORDER,
            max_states=max_states,
            reduction=ReductionOptions(symmetry=True)))
    row["reduced_states"] = reduced.states_explored
    row["achieved_ratio"] = round(
        row["states"] / reduced.states_explored, 4)

    bounded = "" if row["exhausted"] else " bounded"
    print(f"{name:16s} states={row['states']:>7d} "
          f"achieved={row['achieved_ratio']:.2f}x "
          f"terminal_sccs={row['terminal_sccs']} "
          f"({elapsed:.1f}s{bounded})")
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--output", default="STATE_ATLAS.json")
    parser.add_argument("--atlas-dir", default=None,
                        help="also write each protocol's atlas file "
                             "(a checkpoint) into this directory (CI "
                             "artifacts)")
    parser.add_argument("--max-states", type=int, default=25_000,
                        help="exploration bound per protocol; rows "
                             "that hit it say exhausted: false")
    parser.add_argument("--protocol", action="append", default=None,
                        help="restrict to these protocols (repeatable; "
                             "default: all registered)")
    args = parser.parse_args()

    names = args.protocol or sorted(PROTOCOLS)
    unknown = [n for n in names if n not in PROTOCOLS]
    if unknown:
        parser.error(f"unknown protocol(s): {', '.join(unknown)}")
    if args.atlas_dir:
        os.makedirs(args.atlas_dir, exist_ok=True)

    rows = {}
    for name in names:
        rows[name] = atlas_row(name, args.max_states, args.atlas_dir)

    report = {
        "kind": INDEX_KIND,
        "version": INDEX_VERSION,
        "config": {"nodes": NODES, "addresses": ADDRESSES,
                   "reorder": REORDER, "max_states": args.max_states},
        "note": "one row per registered protocol at the smallest "
                "config with interchangeable caching nodes; "
                "reduced_states and achieved_ratio are what a "
                "--symmetry run explores and collapses (1.0 for a "
                "protocol that fails symmetry certification and falls "
                "back to an unreduced run; see docs/VERIFICATION.md).  "
                "Rows with "
                "exhausted: false describe a bounded prefix; their "
                "terminal/deadlock counts cover its expanded states.",
        "protocols": rows,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
