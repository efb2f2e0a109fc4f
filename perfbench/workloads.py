"""The three workloads: which models, which queries, which seeds.

``make_queries(workload, seed)`` is deterministic in its arguments; the
benchmark and its reference process both call it.  Model ``k`` of a
workload draws from ``numpy.random.default_rng([seed, k])``.  The two
fault queries of ``sweep_heavy`` draw from fixed seeds instead, so that
they fail the same way on every run, and so do the transitions of
``file_mdps``'s reward model, whose sweep count hinges on them.
"""

from __future__ import annotations

import numpy as np

import families
from families import Query
from reference import Csr, can_avoid

WORKLOADS = ("file_mdps", "sweep_heavy", "tiny_batch")

#: value-1 instance, maximal probability without start bounds (ROADMAP item 1)
F1_STATES, F1_SEED, F1_CAP = 300, 0, 1_000
#: sink instance, maximal probability without start bounds
F2_STATES, F2_SEED, F2_CAP = 200, 7, 3_000

#: share of random targets that the sink family sends to the losing sink
SINK_SHARE = 0.05
FILE_STATES = 1000
#: four smaller value-1 models rather than two of FILE_STATES: the collapse
#: cost of one varies with its structure by about 22%
VALUE1_MODELS, VALUE1_STATES = 4, 500
FILE_SINK_SHARE = 0.3
#: the reward model's transitions come from this fixed seed, its rewards
#: from the run's seed (see README.md, "Choices that keep the figures steady")
REWARD_SEED = 11
WALK_STATES, WALK_LEAK = 1000, 2e-2
CYCLES, CYCLE_SIZE = 40, 5
TINY_MODELS = 1000


def _rng(seed, k):
    return np.random.default_rng([seed % 2**63, k])  # seed sequences take no negatives


def make_queries(workload: str, seed: int):
    """Yield the workload's queries in order, building each model only when
    its first query is due, so a consumer can drop models it has used."""
    if workload == "file_mdps":
        return _file_mdps(seed)
    if workload == "sweep_heavy":
        return _sweep_heavy(seed)
    if workload == "tiny_batch":
        return _tiny_batch(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _file_mdps(seed):
    for k in range(VALUE1_MODELS):
        model = families.random_mdp(f"value1_{k}", VALUE1_STATES, _rng(seed, k))
        yield Query(model, "prob", "max", lower=0.0, upper=1.0)
    model = families.random_mdp("reward", FILE_STATES, np.random.default_rng(REWARD_SEED))
    families.with_rewards(model, _rng(seed, VALUE1_MODELS))
    yield Query(model, "reward", "min", bounds_from_reference=True)
    for k in range(VALUE1_MODELS + 1, VALUE1_MODELS + 3):
        model = families.random_mdp(
            f"sink_{k}", FILE_STATES, _rng(seed, k), sink_share=FILE_SINK_SHARE
        )
        yield Query(model, "prob", "max", lower=0.0, upper=1.0)
        yield Query(model, "prob", "min", lower=0.0, upper=1.0)


def _sweep_heavy(seed):
    walk = families.leaky_walk("walk_mdp", WALK_STATES, WALK_LEAK, _rng(seed, 0))
    yield Query(walk, "prob", "max")
    yield Query(walk, "prob", "min")
    chain = families.leaky_walk(
        "walk_chain", WALK_STATES, WALK_LEAK, _rng(seed, 1), num_choices=1
    )
    yield Query(chain, "prob", "max")
    cycles = families.cyclic_chain("cycles", CYCLES, CYCLE_SIZE, _rng(seed, 2))
    yield Query(cycles, "prob", "max", topological=True)
    f1 = families.random_mdp("f1_value1", F1_STATES, np.random.default_rng(F1_SEED))
    yield Query(f1, "prob", "max", max_iterations=F1_CAP, fault="F1")
    f2 = families.random_mdp(
        "f2_sink", F2_STATES, np.random.default_rng(F2_SEED), sink_share=SINK_SHARE
    )
    yield Query(f2, "prob", "max", max_iterations=F2_CAP, fault="F2")


def _tiny_batch(seed):
    for k in range(TINY_MODELS):
        model = families.tiny_model(f"tiny_{k}", _rng(seed, k))
        yield Query(model, "prob", "max")
        yield Query(model, "prob", "min")
        csr = Csr(model)
        if not can_avoid(csr, csr.goal).any():
            direction = "max" if k % 2 else "min"
            yield Query(model, "reward", direction, bounds_from_reference=True)
