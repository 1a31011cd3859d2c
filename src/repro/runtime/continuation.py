"""Continuation records.

A continuation captures "the program position, as well as local
variables" (Section 3).  After splitting, the program position is simply
(handler, suspend-site); the locals are the suspend site's save set.

A record is a plain tuple of those values, so it hashes and compares in
C, by value, like the protocol state that holds it.  Whether it is
static is the cost model's business alone.  A tuple that is not a
record compares equal to one with the same fields: encoders that branch
on ``tuple`` test ``ContinuationRecord`` first.
"""

from __future__ import annotations

from typing import NamedTuple


class ContinuationRecord(NamedTuple):
    """The runtime value bound by ``Suspend`` and consumed by ``Resume``.

    - ``handler``: qualified name ``State.Message`` of the suspended
      handler (identifies the fragment table);
    - ``site_id``: which of that handler's suspend sites this is -- the
      "function pointer" of Figure 10;
    - ``saved``: the captured environment as (name, value) pairs;
    - ``is_static``: True when the record came from a statically
      allocated (shared, empty-environment) continuation.
    """

    handler: str
    site_id: int
    saved: tuple[tuple[str, object], ...]
    is_static: bool = False

    def __repr__(self) -> str:
        kind = "static" if self.is_static else "heap"
        return (f"<cont {self.handler}#{self.site_id} {kind} "
                f"{dict(self.saved)!r}>")
