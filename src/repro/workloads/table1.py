"""Reference generators for the Stache benchmarks of Table 1.

Each function returns one application program (a list of operations) per
node.  The operation vocabulary is the simulator's: ``("read", blk)``,
``("write", blk, value)``, ``("compute", cycles)``, ``("barrier",)``.

What matters for Table 1 is each application's *protocol-event mix*:

- **gauss** -- Gaussian elimination: the pivot row's owner produces it,
  everyone else consumes it (producer-consumer broadcast; Section 1
  notes invalidation protocols do poorly here), then nodes update their
  own row partitions.
- **appbt** -- NAS BT: 3-D block-structured nearest-neighbour exchange
  followed by heavy local computation.
- **shallow** -- shallow-water model: 2-D stencil with halo reads from
  the four neighbours and local writes.
- **mp3d** -- particle simulation: fine-grain migratory write sharing of
  particle cells with little computation per access (the paper's
  highest fault-time fraction, 72%).
"""

from __future__ import annotations

import random

Program = list


def _block_of(owner: int, index: int, blocks_per_node: int) -> int:
    return owner * blocks_per_node + index


def gauss_programs(n_nodes: int = 16, iterations: int = 6,
                   blocks_per_node: int = 2, seed: int = 11) -> list[Program]:
    """Pivot-row broadcast plus private-partition updates."""
    rng = random.Random(seed)
    programs: list[Program] = [[] for _ in range(n_nodes)]
    for iteration in range(iterations):
        pivot_owner = iteration % n_nodes
        pivot_block = _block_of(pivot_owner, 0, blocks_per_node)
        # The owner produces the pivot row.
        for node, program in enumerate(programs):
            if node == pivot_owner:
                program.append(("write", pivot_block, iteration + 1))
                program.append(("compute", 400))
            program.append(("barrier",))
        # Everyone consumes it, then updates its own partition.
        for node, program in enumerate(programs):
            if node != pivot_owner:
                program.append(("read", pivot_block))
            own = _block_of(node, 1, blocks_per_node)
            program.append(("compute", 420 + rng.randrange(120)))
            program.append(("write", own, iteration))
            program.append(("compute", 500))
            program.append(("barrier",))
    return programs


def appbt_programs(n_nodes: int = 16, iterations: int = 5,
                   seed: int = 12) -> list[Program]:
    """3-D nearest-neighbour exchange with heavy local compute."""
    rng = random.Random(seed)
    programs: list[Program] = [[] for _ in range(n_nodes)]
    # One face block per node per direction; neighbours on a 1-D ring
    # approximate the 3-D decomposition's six faces with two.
    for _iteration in range(iterations):
        for node, program in enumerate(programs):
            left = (node - 1) % n_nodes
            right = (node + 1) % n_nodes
            program.append(("read", left * 2))       # left neighbour's face
            program.append(("read", right * 2 + 1))  # right neighbour's face
            program.append(("compute", 3400 + rng.randrange(700)))
            program.append(("write", node * 2, node))      # own faces
            program.append(("write", node * 2 + 1, node))
            program.append(("compute", 2600))
            program.append(("barrier",))
    return programs


def shallow_programs(n_nodes: int = 16, iterations: int = 5,
                     seed: int = 13) -> list[Program]:
    """2-D stencil halo exchange (four neighbours on a grid)."""
    rng = random.Random(seed)
    side = max(2, int(n_nodes ** 0.5))
    programs: list[Program] = [[] for _ in range(n_nodes)]
    for _iteration in range(iterations):
        for node, program in enumerate(programs):
            row, col = divmod(node, side)
            neighbours = [
                ((row - 1) % side) * side + col,
                ((row + 1) % side) * side + col,
                row * side + (col - 1) % side,
                row * side + (col + 1) % side,
            ]
            for neighbour in neighbours:
                if neighbour < n_nodes and neighbour != node:
                    program.append(("read", neighbour))
            program.append(("compute", 2000 + rng.randrange(400)))
            program.append(("write", node, node))
            program.append(("compute", 1200))
            program.append(("barrier",))
    return programs


def mp3d_programs(n_nodes: int = 16, iterations: int = 4,
                  n_cells: int | None = None, seed: int = 17) -> list[Program]:
    """Migratory fine-grain write sharing of particle cells."""
    if n_cells is None:
        n_cells = n_nodes  # cell population scales with the machine
    rng = random.Random(seed)
    programs: list[Program] = [[] for _ in range(n_nodes)]
    for _iteration in range(iterations):
        for node, program in enumerate(programs):
            # Each node moves a few particles through random cells:
            # read-modify-write with almost no compute in between.
            for _particle in range(3):
                cell = rng.randrange(n_cells)
                program.append(("read", cell))
                program.append(("compute", 30))
                program.append(("write", cell, node))
                program.append(("compute", 40))
            program.append(("barrier",))
    return programs


STACHE_WORKLOADS = {
    "gauss": (gauss_programs, lambda n: n * 2),
    "appbt": (appbt_programs, lambda n: n * 2),
    "shallow": (shallow_programs, lambda n: n),
    "mp3d": (mp3d_programs, lambda n: n),
}
