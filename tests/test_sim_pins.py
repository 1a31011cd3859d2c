"""Simulated answers, pinned: every statistic a run reports.

The simulator's host-speed work (handler text, the block store, the
node and machine loops) must leave what it simulates untouched.  These
pins were taken before that work and are not to be re-pinned: a
mismatch is a bug in the change that caused it.

Each run pins ``cycles``, ``messages`` and ``fault_time_fraction`` as
literals, the sum over nodes of every ``NodeStats`` field (counters
included), and a SHA-256 over each node's full ``NodeStats`` and
``observed`` list -- so a drift names the statistic that moved, and
nothing per node can move unseen.

To print the values of the current checkout:
``PYTHONPATH=src python tests/test_sim_pins.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pprint

import pytest

from helpers import random_sharing_programs
from repro import api
from repro.api import FaultOptions, SimOptions
from repro.workloads.table1 import gauss_programs
from repro.workloads.table2 import stencil_programs


def _gauss():
    return gauss_programs(seed=11, n_nodes=32, iterations=6)


def _stencil():
    return stencil_programs(seed=22, n_nodes=32, phases=4)


def _sharing():
    return random_sharing_programs(8, 16, 60, seed=5, log_reads=True)


RUNS = {
    "stache_gauss": ("stache", _gauss, SimOptions()),
    "stache_sm_gauss": ("stache_sm", _gauss, SimOptions()),
    "lcm_stencil": ("lcm", _stencil, SimOptions()),
    "lcm_sm_stencil": ("lcm_sm", _stencil, SimOptions()),
    "stache_jitter": ("stache", _sharing, SimOptions(jitter=40)),
    "stache_faults": ("stache", _sharing, SimOptions(faults=FaultOptions(
        drop=0.02, dup=0.02, seed=3, watchdog=True))),
}


def measure(name: str) -> dict:
    protocol, programs, options = RUNS[name]
    result = api.simulate(protocol, programs=programs(), options=options)
    nodes = [dataclasses.asdict(stats) for stats in result.stats.nodes]
    totals = {}
    for node in nodes:
        for field, value in node.items():
            if field == "counters":
                for counter, count in value.items():
                    totals[counter] = totals.get(counter, 0) + count
            elif field != "node":
                totals[field] = totals.get(field, 0) + value
    detail = [[stats, node.observed]
              for stats, node in zip(nodes, result.machine.nodes)]
    digest = hashlib.sha256(
        json.dumps(detail, sort_keys=True).encode()).hexdigest()
    return {
        "cycles": result.cycles,
        "messages": result.stats.messages,
        "fault_time_fraction": repr(result.stats.fault_time_fraction),
        "observed": sum(len(node.observed) for node in result.machine.nodes),
        "totals": totals,
        "nodes_sha256": digest,
    }


PINS = {'stache_gauss': {'cycles': 86797,
                         'messages': 444,
                         'fault_time_fraction': '0.5716719039828566',
                         'observed': 0,
                         'totals': {'cont_allocs': 0,
                                    'cont_frees': 0,
                                    'static_cont_uses': 222,
                                    'queue_allocs': 150,
                                    'queue_frees': 150,
                                    'messages_sent': 444,
                                    'data_messages_sent': 222,
                                    'handler_dispatches': 816,
                                    'resumes': 222,
                                    'direct_resumes': 217,
                                    'suspends': 222,
                                    'nacks': 0,
                                    'errors': 0,
                                    'timeouts': 0,
                                    'retries': 0,
                                    'dups_absorbed': 0,
                                    'protocol_cycles': 172186,
                                    'app_cycles': 189449,
                                    'fault_wait_cycles': 1587821,
                                    'barrier_wait_cycles': 972809,
                                    'faults': 222,
                                    'read_hits': 186,
                                    'write_hits': 198,
                                    'finish_time': 2777504},
                         'nodes_sha256': '695cfa87ba6dda3075ad1f297c275cbfc8419b49c6a329460b9d34161a0cba92'},
        'stache_sm_gauss': {'cycles': 77497,
                            'messages': 444,
                            'fault_time_fraction': '0.5543613785049744',
                            'observed': 0,
                            'totals': {'cont_allocs': 0,
                                       'cont_frees': 0,
                                       'static_cont_uses': 0,
                                       'queue_allocs': 150,
                                       'queue_frees': 150,
                                       'messages_sent': 444,
                                       'data_messages_sent': 222,
                                       'handler_dispatches': 816,
                                       'resumes': 0,
                                       'direct_resumes': 0,
                                       'suspends': 0,
                                       'nacks': 0,
                                       'errors': 0,
                                       'timeouts': 0,
                                       'retries': 0,
                                       'dups_absorbed': 0,
                                       'protocol_cycles': 150818,
                                       'app_cycles': 189449,
                                       'fault_wait_cycles': 1374763,
                                       'barrier_wait_cycles': 887890,
                                       'faults': 222,
                                       'read_hits': 186,
                                       'write_hits': 198,
                                       'finish_time': 2479904},
                            'nodes_sha256': '6d2d4f7f263fc0d8cf68e17b305badb01371af4a8cc58bd90cfac2396256d9a0'},
        'lcm_stencil': {'cycles': 19955,
                        'messages': 896,
                        'fault_time_fraction': '0.6513123277374092',
                        'observed': 0,
                        'totals': {'cont_allocs': 0,
                                   'cont_frees': 0,
                                   'static_cont_uses': 448,
                                   'queue_allocs': 0,
                                   'queue_frees': 0,
                                   'messages_sent': 896,
                                   'data_messages_sent': 256,
                                   'handler_dispatches': 1408,
                                   'resumes': 448,
                                   'direct_resumes': 256,
                                   'suspends': 448,
                                   'nacks': 0,
                                   'errors': 0,
                                   'timeouts': 0,
                                   'retries': 0,
                                   'dups_absorbed': 0,
                                   'protocol_cycles': 318848,
                                   'app_cycles': 121374,
                                   'fault_wait_cycles': 415902,
                                   'barrier_wait_cycles': 12740,
                                   'faults': 512,
                                   'read_hits': 256,
                                   'write_hits': 128,
                                   'finish_time': 638560},
                        'nodes_sha256': 'e4a8c6339ab9d336d8590d77645500cadec7b3ab7701e2a4f5b7b7f1b419ef8a'},
        'lcm_sm_stencil': {'cycles': 18725,
                           'messages': 896,
                           'fault_time_fraction': '0.6383878504672894',
                           'observed': 0,
                           'totals': {'cont_allocs': 0,
                                      'cont_frees': 0,
                                      'static_cont_uses': 0,
                                      'queue_allocs': 0,
                                      'queue_frees': 0,
                                      'messages_sent': 896,
                                      'data_messages_sent': 256,
                                      'handler_dispatches': 1408,
                                      'resumes': 0,
                                      'direct_resumes': 0,
                                      'suspends': 0,
                                      'nacks': 0,
                                      'errors': 0,
                                      'timeouts': 0,
                                      'retries': 0,
                                      'dups_absorbed': 0,
                                      'protocol_cycles': 279360,
                                      'app_cycles': 121374,
                                      'fault_wait_cycles': 382522,
                                      'barrier_wait_cycles': 10760,
                                      'faults': 512,
                                      'read_hits': 256,
                                      'write_hits': 128,
                                      'finish_time': 599200},
                           'nodes_sha256': '1c5c4aef893bb52756833a39208e9b9ae06f1335234b9a7a870f8d60c0c4fbad'},
        'stache_jitter': {'cycles': 117528,
                          'messages': 1260,
                          'fault_time_fraction': '0.854493184602818',
                          'observed': 344,
                          'totals': {'cont_allocs': 242,
                                     'cont_frees': 242,
                                     'static_cont_uses': 388,
                                     'queue_allocs': 45,
                                     'queue_frees': 45,
                                     'messages_sent': 1260,
                                     'data_messages_sent': 425,
                                     'handler_dispatches': 1679,
                                     'resumes': 630,
                                     'direct_resumes': 349,
                                     'suspends': 630,
                                     'nacks': 0,
                                     'errors': 0,
                                     'timeouts': 0,
                                     'retries': 0,
                                     'dups_absorbed': 0,
                                     'protocol_cycles': 419242,
                                     'app_cycles': 13221,
                                     'fault_wait_cycles': 803415,
                                     'barrier_wait_cycles': 61246,
                                     'faults': 374,
                                     'read_hits': 344,
                                     'write_hits': 136,
                                     'finish_time': 940224},
                          'nodes_sha256': '645f017627617eb059689d142a1b22d7d5c9b95a5e3e977a8fef7a91a75cf729'},
        'stache_faults': {'cycles': 139735,
                          'messages': 1357,
                          'fault_time_fraction': '0.7684187927147815',
                          'observed': 344,
                          'totals': {'cont_allocs': 245,
                                     'cont_frees': 245,
                                     'static_cont_uses': 367,
                                     'queue_allocs': 48,
                                     'queue_frees': 48,
                                     'messages_sent': 1224,
                                     'data_messages_sent': 411,
                                     'handler_dispatches': 1633,
                                     'resumes': 612,
                                     'direct_resumes': 337,
                                     'suspends': 612,
                                     'nacks': 0,
                                     'errors': 0,
                                     'timeouts': 30,
                                     'retries': 29,
                                     'dups_absorbed': 112,
                                     'protocol_cycles': 414878,
                                     'app_cycles': 13221,
                                     'fault_wait_cycles': 859000,
                                     'barrier_wait_cycles': 185882,
                                     'faults': 361,
                                     'read_hits': 344,
                                     'write_hits': 136,
                                     'finish_time': 1117880},
                          'nodes_sha256': '4437a3cdac49ffa6a05d76afb00a89b73d8b5b475d3798fdc3d2a7e2cc9b42d3'}}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_simulated_statistics_match_the_pins(name):
    assert measure(name) == PINS[name]


def test_the_fault_run_injects_and_recovers():
    # The fault pin covers the drop, dup and watchdog paths only if the
    # run takes them.
    totals = PINS["stache_faults"]["totals"]
    assert totals["timeouts"] > 0 and totals["retries"] > 0
    assert totals["dups_absorbed"] > 0


if __name__ == "__main__":
    pprint.pprint({name: measure(name) for name in RUNS}, width=72,
                  sort_dicts=False)
