"""The SCC-by-SCC topological solve, run block by block.

The model is relabelled once so that its undecided states come first,
predecessors first, one strongly connected component after another.  The
kernels' live-first order is then the component order, and every
component's successors sit at later positions.  Consecutive components
are merged into *blocks*, each closed once it holds ``_BLOCK_ENTRIES``
kept entries (a component that large is a block of its own), so a block
is a contiguous position range and every transition leaving it goes to a
later position.  Each block runs on a slice of the one kernel
(``_Kernels.part``) that steps the views ``v[lo:]`` of three global
vectors.  Blocks run successors first, each a coupled iteration with
*two* value accumulators sharing one stay-probability and one choice
resolution.  What leaving the block is worth is read from fixed vector
entries: a solved block holds its certified lower and upper bounds in the
two accumulators with ``y = 0``.  So the accumulators differ only in
those exit values, and their certified intervals bracket the block's true
values: the certified loop holds on any sub-model whose exits carry fixed
values.  The accumulator the query direction optimizes takes the
certified loop's own step and both share its bound update.  A block
without cycles finishes in at most as many sweeps as one path through it
has states, since every successor outside it has ``y = 0``.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .analysis import scc_order
# validate_model stays imported: perfbench/tracing.py wraps it here.
from .model import Direction, Partition, SparseModel, _ranges, submodel, validate_model
from .solvers import (
    Method,
    Objective,
    SolveResult,
    SolverConfig,
    TraceRow,
    _finished,
    _Kernels,
    _result,
    _shortcut,
    _tighten_bounds,
    neutral_decision,
)

__all__ = ["topological_solve"]

#: a block closes once it holds this many kept entries.  A sweep's fixed
#: numpy cost (about 30-50 us on a 2-core x86 host, numpy 2.4) about equals
#: its cost per 2,000 entries, so smaller components share their sweeps; on
#: cycle-chain models 1,024 and 4,096 measured within noise of this, and
#: 8,192 lost.
_BLOCK_ENTRIES = 2048


def _component_layout(
    model: SparseModel, partition: Partition
) -> tuple[SparseModel, Partition, list]:
    """``model`` and ``partition`` relabelled so that the undecided states
    come first, predecessors first and component by component (ascending
    within one), then every other state ascending; and the first position
    of each component's undecided states, successors first."""
    n = model.num_states
    component_of = scc_order(model).component_of
    count = int(component_of.max()) + 1
    key = np.where(partition.maybe, count - 1 - component_of, count)
    order = np.argsort(key, kind="stable")
    state_map = np.empty(n, dtype=np.int64)
    state_map[order] = np.arange(n)
    sizes = model.group_sizes()[order]
    owner = np.repeat(np.arange(n), sizes)
    relabelled = submodel(model, owner, _ranges(model.row_group_start[order], sizes), n, state_map)
    relabelled_partition = Partition(
        partition.s0[order], partition.goal[order], partition.maybe[order]
    )
    counts = np.bincount(key[partition.maybe])
    members = counts[counts > 0]
    starts = members.cumsum() - members
    return relabelled, relabelled_partition, starts[::-1].tolist()


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
    component that large is a block of its own.  A block is a contiguous range of
    positions whose outgoing transitions all go to later, already settled
    positions, so when a block's turn comes every state reachable from it
    already carries certified bounds, held as fixed entries of the
    iteration vectors.  Each block runs the coupled two-accumulator
    iteration until ``y = 0`` on it or its widest certified per-state gap
    is below ``2 * epsilon``; a block without cycles takes at most as many
    sweeps as one path through it has states.  Iteration counts add up across blocks, and a
    recorded trace has one row per block.  Optional initial bounds tighten
    the final interval but are not fed into the per-block runs.  A run that
    uses up ``max_iterations`` raises :class:`IterationLimit` whose partial
    result holds the initial state's interval so far: the start bounds
    (within ``[0, 1]`` for probabilities) until its block is done.
    """
    config = replace(config, method=Method.SVI, topological=True).validated()
    short = _shortcut(model, partition, config)
    if short is not None:
        return short

    started = time.perf_counter()
    model, partition, starts = _component_layout(model, partition)
    kern = _Kernels(model, partition, config.objective, config.direction)
    maximize = config.direction is Direction.MAXIMIZE
    x_low, x_high, y = kern.x_start.copy(), kern.x_start.copy(), kern.y_start.copy()
    x_drive, x_follow = (x_high, x_low) if maximize else (x_low, x_high)
    neutral = neutral_decision(config.direction)
    threshold = 2.0 * config.epsilon
    trace: list[TraceRow] | None = [] if config.record_trace else None
    settled = kern.m  # positions from here on hold certified bounds and y = 0
    k = 0
    for lo, hi in _blocks(starts, kern):
        part = kern.part(lo, hi)
        low, high, y_part = x_low[lo:hi], x_high[lo:hi], y[lo:hi]
        lower, upper, decision = -math.inf, math.inf, neutral
        while settled > lo and k < config.max_iterations:
            k += 1
            bound = upper if maximize else lower
            chosen, decision = part.coupled_step(x_drive[lo:], y[lo:], bound, decision)
            x_follow[lo:hi] = part.choice_x(x_follow[lo:])[chosen]
            lower, upper = _tighten_bounds(low, high, y_part, lower, upper, decision, maximize)
            if y_part.max() == 0.0:
                settled = lo
            elif math.isfinite(lower) and math.isfinite(upper):
                member_low = low + y_part * lower
                member_high = high + y_part * upper
                if (member_high - member_low).max() < threshold:
                    low[:], high[:], y_part[:] = member_low, member_high, 0.0
                    settled = lo
        if settled > lo:
            break
        if trace is not None:
            trace.append(TraceRow(k, float(low.min()), float(high.max()), neutral, math.nan))

    initial = int(kern.position[model.initial_state])
    if initial >= settled:
        lo_init, hi_init = float(x_low[initial]), float(x_high[initial])
    elif config.objective is Objective.PROBABILITY:
        lo_init, hi_init = 0.0, 1.0
    else:
        lo_init, hi_init = -math.inf, math.inf
    if config.lower is not None:
        lo_init = max(lo_init, config.lower)
    if config.upper is not None:
        hi_init = min(hi_init, config.upper)
    elapsed = (time.perf_counter() - started) * 1000.0
    value = (lo_init + hi_init) / 2.0
    result = _result(value, lo_init, hi_init, k, elapsed, config, trace, settled == 0)
    return _finished(result, settled == 0, config)
