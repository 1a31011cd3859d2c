"""Shared test utilities: a minimal protocol, fake contexts, programs."""

from __future__ import annotations

import random

from repro.compiler.pipeline import compile_source
from repro.protocols import PROTOCOLS
from repro.runtime.context import (
    Message,
    ProtocolContext,
    RuntimeCounters,
    ZERO_COSTS,
)
from repro.runtime.protocol import CompiledProtocol, OptLevel
from repro.verify.events import events_for_protocol
from repro.verify.invariants import standard_invariants

# A minimal migratory-token protocol exercising Suspend/Resume (with a
# suspend inside a conditional), used across the unit tests.
MINI_SOURCE = """
Protocol Mini
Begin
  Var owner : NODE;
  Var grants : INT;

  State Home_Idle {};
  State Home_Wait { C : CONT } Transient;
  State Cache_Invalid {};
  State Cache_Holding {};
  State Cache_Wait { C : CONT } Transient;

  Message GET_REQ;
  Message GET_RESP;
  Message PUT_REQ;
  Message PUT_RESP;
End;

State Mini.Home_Idle{}
Begin
  Message GET_REQ (id : ID; Var info : INFO; src : NODE)
  Begin
    If (owner != Nobody) Then
      Send(owner, PUT_REQ, id);
      Suspend(L, Home_Wait{L});
    Endif;
    -- Saturating counter: an unbounded counter would make the model
    -- checker's state space infinite.
    If (grants < 3) Then
      grants := grants + 1;
    Endif;
    owner := src;
    SendBlk(src, GET_RESP, id);
    AccessChange(id, Blk_Invalidate);
  End;

  Message RD_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    If (owner != Nobody) Then
      Send(owner, PUT_REQ, id);
      Suspend(L, Home_Wait{L});
      owner := Nobody;
      AccessChange(id, Blk_Upgrade_RW);
    Endif;
    WakeUp(id);
  End;

  Message WR_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    If (owner != Nobody) Then
      Send(owner, PUT_REQ, id);
      Suspend(L, Home_Wait{L});
      owner := Nobody;
      AccessChange(id, Blk_Upgrade_RW);
    Endif;
    WakeUp(id);
  End;

  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Error("invalid msg %s to Home_Idle", Msg_To_Str(MessageTag));
  End;
End;

State Mini.Home_Wait{C : CONT}
Begin
  Message PUT_RESP (id : ID; Var info : INFO; src : NODE)
  Begin
    RecvData(id, Blk_Upgrade_RW);
    SetState(info, Home_Idle{});
    Resume(C);
  End;

  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Enqueue(MessageTag, id, info, src);
  End;
End;

State Mini.Cache_Invalid{}
Begin
  Message RD_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(HomeNode(id), GET_REQ, id);
    Suspend(L, Cache_Wait{L});
    WakeUp(id);
  End;

  Message WR_FAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Send(HomeNode(id), GET_REQ, id);
    Suspend(L, Cache_Wait{L});
    WakeUp(id);
  End;

  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Error("invalid msg %s to Cache_Invalid", Msg_To_Str(MessageTag));
  End;
End;

State Mini.Cache_Holding{}
Begin
  Message PUT_REQ (id : ID; Var info : INFO; src : NODE)
  Begin
    SendBlk(HomeNode(id), PUT_RESP, id);
    AccessChange(id, Blk_Invalidate);
    SetState(info, Cache_Invalid{});
  End;

  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Error("invalid msg %s to Cache_Holding", Msg_To_Str(MessageTag));
  End;
End;

State Mini.Cache_Wait{C : CONT}
Begin
  Message GET_RESP (id : ID; Var info : INFO; src : NODE)
  Begin
    RecvData(id, Blk_Upgrade_RW);
    SetState(info, Cache_Holding{});
    Resume(C);
  End;

  Message DEFAULT (id : ID; Var info : INFO; src : NODE)
  Begin
    Enqueue(MessageTag, id, info, src);
  End;
End;
"""


def compile_mini(opt_level: OptLevel = OptLevel.O2) -> CompiledProtocol:
    return compile_source(
        MINI_SOURCE,
        opt_level=opt_level,
        initial_states=("Home_Idle", "Cache_Invalid"),
    )


def check_setup(name: str) -> dict:
    """The ``events`` and ``invariants`` a checker gets for the registered
    protocol ``name`` -- its registry entry's, as in ``api.check``."""
    return dict(
        events=events_for_protocol(name),
        invariants=standard_invariants(coherent=PROTOCOLS[name].coherent))


class FakeContext(ProtocolContext):
    """An in-memory single-block context for interpreter unit tests."""

    def __init__(self, protocol: CompiledProtocol,
                 state: tuple[str, tuple] = ("Home_Idle", ()),
                 node: int = 0):
        self.protocol = protocol
        self.counters = RuntimeCounters()
        self.costs = ZERO_COSTS
        self.state = state
        self.info = protocol.initial_info()
        self.sent: list = []
        self.woken: list = []
        self.deferred: list = []
        self.access_changes: list = []
        self.printed: list = []
        self.data = [0, 0, 0, 0]
        self.msg: Message | None = None
        self._node = node
        self.support: dict = {}

    @property
    def node(self) -> int:
        return self._node

    @property
    def current_message(self) -> Message:
        assert self.msg is not None
        return self.msg

    def home_node(self, block: int) -> int:
        return 0

    def set_state(self, name, args):
        self.state = (name, args)

    def send(self, dst, tag, block, payload, with_data):
        self.sent.append((dst, tag, block, payload, with_data))

    def access_change(self, block, mode):
        self.access_changes.append((block, mode))

    def recv_data(self, block, mode):
        self.access_changes.append((block, mode))

    def read_word(self, block, addr):
        return self.data[addr]

    def write_word(self, block, addr, value):
        self.data[addr] = value

    def enqueue_current(self):
        self.counters.queue_allocs += 1
        self.deferred.append(self.msg)

    def retry_queued(self, block):
        self.retried = getattr(self, "retried", 0) + 1

    def wakeup(self, block):
        self.woken.append(block)

    def debug_print(self, values):
        self.printed.append(tuple(values))

    def support_call(self, name, args):
        fn = self.support.get(name)
        if fn is None:
            return super().support_call(name, args)
        return fn(*args)

    def support_const(self, name):
        if name not in self.support:
            return super().support_const(name)
        return self.support[name]

    # test convenience -----------------------------------------------------

    def deliver(self, interp, tag, block=0, src=1, payload=(), data=None):
        self.msg = Message(tag, block, src=src, dst=self._node,
                           payload=payload, data=data)
        interp.dispatch(*self.state)


def random_sharing_programs(n_nodes: int, n_blocks: int, ops_per_node: int,
                            seed: int, write_ratio: float = 0.3,
                            log_reads: bool = False) -> list[list]:
    """Random read/write/compute programs ending in one barrier."""
    rng = random.Random(seed)
    programs = []
    for _node in range(n_nodes):
        program = []
        for _ in range(ops_per_node):
            block = rng.randrange(n_blocks)
            if rng.random() < write_ratio:
                program.append(("write", block, rng.randrange(1000)))
            elif log_reads:
                program.append(("read", block, "log"))
            else:
                program.append(("read", block))
            program.append(("compute", rng.randrange(60)))
        program.append(("barrier",))
        programs.append(program)
    return programs


def lcm_phase_programs(n_nodes: int, block: int = 0,
                       writer: int | None = None) -> list[list]:
    """Everyone enters a phase on ``block``; one node writes; exit."""
    programs = []
    for node in range(n_nodes):
        program = [
            ("barrier",),
            ("event", "ENTER_LCM_FAULT", block),
            ("barrier",),
        ]
        if writer is not None and node == writer:
            program.append(("write", block, 1000 + node))
        elif node != 0:
            program.append(("read", block))
        program += [
            ("event", "EXIT_LCM_FAULT", block),
            ("barrier",),
        ]
        programs.append(program)
    return programs
