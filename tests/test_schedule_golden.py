"""Golden schedule pins for the event loop.

Each case replays a short seeded trace with schedule hashing on and compares
the per-node schedule digests, ``summary()`` and the scheduler's context
switch count with values recorded in ``schedule_golden.json``.  The pins
cover the stack shapes the event loop has to reproduce step for step:

* ``sun4`` — the paper's Sun 4/280 preset on one node under the seeded
  random policy;
* ``partitioned2`` / ``partitioned4`` — the node-partitioned trace of
  ``test_parallel.py`` at 2 and 4 nodes (home entry, node placement), the
  sequential reference the parallel executor is pinned against;
* ``cluster4`` — a 4-node read-mostly zipf replay through the front end with
  directory placement and the rebalancer on;
* ``small`` — the small test stack replaying the time-sorted sprite-like
  trace of ``test_streaming_replay.py``, recorded while lists still had a
  replay loop of their own, so the one demux-fed loop is pinned to it.

A change to the scheduler, or to anything that changes which thread runs
when, shows up here as a digest mismatch.  The values must not be
re-recorded to make a change pass; a change that is meant to alter the
schedule has to say so and why.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import cluster_config, small_test_config, sun4_280_config
from repro.patsy.simulator import PatsySimulator
from repro.patsy.workload import WorkloadProfile, generate_workload

from tests.test_parallel import partitioned_trace
from tests.test_streaming_replay import replay_trace

GOLDEN = json.loads((Path(__file__).with_name("schedule_golden.json")).read_text())


def _partitioned_config(nodes):
    config = cluster_config(nodes=nodes, scale=0.1, placement="node", rebalance=False)
    return replace(config, cluster=replace(config.cluster, client_entry="home"))


def _case(name):
    """(config, trace) of one pinned case."""
    if name == "sun4":
        profile = WorkloadProfile(name="sun4", duration=120.0, num_clients=6)
        return sun4_280_config(scale=0.01, seed=3), generate_workload(profile, seed=7)
    if name == "partitioned2":
        return _partitioned_config(2), partitioned_trace()
    if name == "partitioned4":
        return _partitioned_config(4), partitioned_trace()
    if name == "cluster4":
        profile = WorkloadProfile(
            name="cluster4",
            duration=40.0,
            num_clients=6,
            read_fraction=0.85,
            initial_files=40,
            directory_count=2,
            access_pattern="zipf",
        )
        config = cluster_config(nodes=4, scale=0.1, placement="directory", rebalance=True)
        return config, generate_workload(profile, seed=11)
    if name == "small":
        return small_test_config(seed=5), replay_trace()
    raise KeyError(name)


def observe(name):
    """The pinned quantities of one case, in JSON form."""
    config, trace = _case(name)
    sim = PatsySimulator(config)
    sim.scheduler.enable_schedule_hash()
    result = sim.replay(trace, trace_name=name)
    observed = {
        "digests": result.schedule_digests,
        "summary": result.summary(),
        "context_switches": sim.scheduler.context_switches,
    }
    # JSON turns int keys into strings; compare in that form.
    return json.loads(json.dumps(observed))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_schedule_matches_golden(name):
    observed = observe(name)
    golden = GOLDEN[name]
    assert observed["digests"] == golden["digests"]
    assert observed["context_switches"] == golden["context_switches"]
    assert observed["summary"] == golden["summary"]
