"""The SCC-by-SCC topological solve, run block by block.

The one kernel of the model is built with a sort key for its live-first
order, the rank of each undecided state's strongly connected component: its
undecided states come first, predecessors first, one component after
another, so every component's successors sit at later positions.
Consecutive components are merged into *blocks*, each closed once it holds
``_BLOCK_ENTRIES`` kept entries (a component that large is a block of its
own), so a block is a contiguous position range and every transition
leaving it goes to a later position.  The blocks then run, successors
first, through the certified loop of ``solvers._certify``, which holds on
any set of undecided states whose exits carry fixed values; a model that
forms one block is solved exactly as the flat solve does.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from .analysis import scc_order
# validate_model stays imported: perfbench/tracing.py wraps it here.
from .model import Partition, SparseModel, validate_model
from .solvers import Method, SolveResult, SolverConfig, _certify, _Kernels, _shortcut

__all__ = ["topological_solve"]

#: a block closes once it holds this many kept entries.  A sweep's fixed
#: numpy cost (about 30-50 us on a 2-core x86 host, numpy 2.4) about equals
#: its cost per 2,000 entries, so smaller components share their sweeps; on
#: cycle-chain models 1,024 and 4,096 measured within noise of this, and
#: 8,192 lost.
_BLOCK_ENTRIES = 2048


def _blocks(starts: list, kern: _Kernels) -> list:
    """The ``(lo, hi)`` positions of the blocks, successors first.

    ``starts`` holds each component's first position, successors first.
    A block takes consecutive components until it holds ``_BLOCK_ENTRIES``
    kept entries or more; the last one takes whatever remains.
    """
    choice_entry = np.append(kern.choice_cuts, len(kern.targets))
    entry_at = choice_entry[np.append(kern.group_cuts, kern.num_choices)].tolist()
    blocks, hi = [], kern.m
    for lo in starts:
        if entry_at[hi] - entry_at[lo] >= _BLOCK_ENTRIES:
            blocks.append((lo, hi))
            hi = lo
    if hi > 0:
        blocks.append((0, hi))
    return blocks


def topological_solve(
    model: SparseModel,
    partition: Partition,
    config: SolverConfig,
) -> SolveResult:
    """Certified solve, one block of strongly connected components at a time.

    Components are merged, in processing order (successors first), into
    blocks, each closed once it holds ``_BLOCK_ENTRIES`` kept entries; a
    component that large is a block of its own.  A block is a contiguous
    range of positions whose outgoing transitions all go to later, already
    settled positions.  The blocks run the certified loop of
    ``svi_solve`` (``solvers._certify``), each from the configuration's
    start bounds, until the initial state's block is done; a run that forms
    one block is the flat solve, bit for bit.  Iteration counts add up
    across blocks, and a recorded trace has one row per sweep.  A run that
    uses up ``max_iterations`` raises :class:`IterationLimit` whose partial
    result holds the initial state's interval so far: the start bounds
    until its block runs.
    """
    config = replace(config, method=Method.SVI, topological=True).validated()
    short = _shortcut(model, partition, config)
    if short is not None:
        return short

    started = time.perf_counter()
    # undecided states first, predecessors first, component by component
    component_of = scc_order(model, restrict=partition.maybe).component_of
    key = np.where(partition.maybe, component_of.max() - component_of, model.num_states)
    kern = _Kernels(model, partition, config.objective, config.direction, key)
    starts = np.flatnonzero(np.diff(key[kern.live], prepend=-1))[::-1].tolist()
    return _certify(model, kern, _blocks(starts, kern), config, started)
