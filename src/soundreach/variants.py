"""The SCC-by-SCC topological solve.

The topological solver processes one SCC at a time, successors first.
Trivial components — a single state that cannot revisit itself — are settled
by a single Bellman evaluation over the already-certified bounds of their
successors.  Nontrivial components run a coupled iteration with *two* value
accumulators sharing one stay-probability and one choice resolution: the
accumulators differ only in what leaving the component is worth (the lower
versus the upper certified bound of the states outside), so their certified
intervals bracket the component's true values.  The accumulator the query
direction optimizes takes the certified loop's own step and both share its
bound update.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from .analysis import scc_order
from .errors import IterationLimit
# validate_model stays imported: perfbench/tracing.py wraps it here.
from .model import Direction, Partition, SparseModel, _ranges, submodel, validate_model
from .solvers import (
    Method,
    Objective,
    SolveResult,
    SolverConfig,
    TraceRow,
    _Kernels,
    _result,
    _shortcut,
    _tighten_bounds,
    neutral_decision,
)

__all__ = ["topological_solve"]


# ---------------------------------------------------------------------------
# topological (SCC-by-SCC) solving
# ---------------------------------------------------------------------------


def _trivial_component_bounds(
    model: SparseModel,
    state: int,
    low: np.ndarray,
    high: np.ndarray,
    direction: Direction,
    objective: Objective,
) -> tuple[float, float]:
    """Settle a no-self-loop singleton by one evaluation over known bounds."""
    maximize = direction is Direction.MAXIMIZE
    best_low = best_high = None
    for choice in model.choices_of(state):
        targets, probs = model.entries_of(choice)
        reward = float(model.choice_reward[choice]) if objective is Objective.REWARD else 0.0
        val_low = reward + float(np.add.reduce(probs * low[targets]))
        val_high = reward + float(np.add.reduce(probs * high[targets]))
        if best_low is None or (val_low > best_low if maximize else val_low < best_low):
            best_low = val_low
        if best_high is None or (val_high > best_high if maximize else val_high < best_high):
            best_high = val_high
    return best_low, best_high


class _ComponentSystem:
    """One nontrivial component turned into a self-contained reward query.

    Inner states are renumbered ``0..m-1``; everything outside becomes an
    absorbing sink at index ``m``.  Exiting through a transition earns the
    certified bound of the landed-on state, folded into per-choice exit
    rewards (a low and a high version — the only difference between the two
    value accumulators).  The model carries the driving accumulator's exit
    rewards (high when maximizing, low when minimizing) as its choice
    rewards, so the certified loop's step advances that accumulator;
    ``follow_reward`` holds the other accumulator's.
    """

    def __init__(
        self,
        model: SparseModel,
        members: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        objective: Objective,
        direction: Direction,
    ):
        drive, follow = (high, low) if direction is Direction.MAXIMIZE else (low, high)
        m = len(members)
        gs, cs = model.row_group_start, model.choice_start
        sizes = gs[members + 1] - gs[members]
        choices = _ranges(gs[members], sizes)
        state_map = np.full(model.num_states, m, dtype=np.int64)
        state_map[members] = np.arange(m)
        owner = np.repeat(np.arange(m + 1), np.append(sizes, 1))
        sub = submodel(model, owner, np.append(choices, -1), m + 1, state_map)
        lengths = cs[choices + 1] - cs[choices]
        entries = _ranges(cs[choices], lengths)
        targets = model.entry_target[entries]
        exit_prob = np.where(state_map[targets] == m, model.entry_prob[entries], 0.0)
        cuts = np.cumsum(lengths) - lengths
        base = model.choice_reward[choices] if objective is Objective.REWARD else 0.0
        drive_reward = base + np.add.reduceat(exit_prob * drive[targets], cuts)
        follow_reward = base + np.add.reduceat(exit_prob * follow[targets], cuts)
        # The sink (``m``) is the self-loop choice and earns nothing.
        drive_reward = np.append(drive_reward, 0.0)
        self.model = replace(sub, choice_reward=drive_reward, labels={}, initial_state=0)
        goal = np.zeros(m + 1, dtype=bool)
        goal[m] = True
        self.partition = Partition(
            s0=np.zeros(m + 1, dtype=bool), goal=goal, maybe=~goal
        )
        self.follow_reward = follow_reward


def _solve_component(
    system: _ComponentSystem,
    config: SolverConfig,
    iteration_budget: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the coupled two-accumulator iteration on one component.

    Returns certified per-member ``(low, high)`` bounds and the number of
    iterations spent.  The driving accumulator — the one whose optimum the
    query direction actually cares about — takes the certified loop's step,
    which steers choice selection and the decision value; the following
    accumulator then takes one step under the same choices.
    """
    maximize = config.direction is Direction.MAXIMIZE
    kern = _Kernels(system.model, system.partition, Objective.REWARD, config.direction)
    m = kern.m
    x_drive = kern.x_start.copy()
    x_follow = kern.x_start.copy()
    y = kern.y_start.copy()
    x_low, x_high = (x_follow, x_drive) if maximize else (x_drive, x_follow)
    low_live, high_live, y_live = x_low[:m], x_high[:m], y[:m]
    lower = -math.inf
    upper = math.inf
    decision = neutral_decision(config.direction)
    threshold = 2.0 * config.epsilon
    k = 0

    while True:
        k += 1
        if k > iteration_budget:
            raise IterationLimit(
                f"a component did not converge within the remaining "
                f"{iteration_budget} iterations"
            )
        bound = upper if maximize else lower
        chosen, decision = kern.coupled_step(x_drive, y, bound, decision)
        # choice_y adds no choice reward: the follower's exit rewards go in here
        x_follow[:m] = (kern.choice_y(x_follow) + system.follow_reward)[chosen]
        lower, upper = _tighten_bounds(
            low_live, high_live, y_live, lower, upper, decision, maximize
        )

        if float(y_live.max()) == 0.0:
            return low_live, high_live, k
        if math.isfinite(lower) and math.isfinite(upper):
            member_low = low_live + y_live * lower
            member_high = high_live + y_live * upper
            if float(np.max(member_high - member_low)) < threshold:
                return member_low, member_high, k


def topological_solve(
    model: SparseModel,
    partition: Partition,
    config: SolverConfig,
    on_iteration=None,
) -> SolveResult:
    """Certified solve, one strongly connected component at a time.

    Components are processed successors-first, so when a component's turn
    comes every state reachable from it already carries certified bounds.
    A singleton component that cannot revisit itself costs exactly one
    Bellman evaluation; other components run the coupled two-accumulator
    iteration until their widest certified per-state gap is below
    ``2 * epsilon``.  Iteration counts add up across components.  Optional
    initial bounds tighten the final interval but are not fed into the
    per-component runs.
    """
    config = replace(config, method=Method.SVI, topological=True).validated()
    short = _shortcut(model, partition, config)
    if short is not None:
        return short

    started = time.perf_counter()
    goal_value = 1.0 if config.objective is Objective.PROBABILITY else 0.0
    low = partition.goal * goal_value  # s0 states keep exactly 0
    high = low.copy()

    trace: list[TraceRow] | None = [] if config.record_trace else None
    total_iterations = 0
    for members in scc_order(model).components:
        inner = members[partition.maybe[members]]
        if inner.size == 0:
            continue
        s = int(inner[0])
        if len(members) == 1 and not any(
            np.any(model.entries_of(c)[0] == s) for c in model.choices_of(s)
        ):
            low[s], high[s] = _trivial_component_bounds(
                model, s, low, high, config.direction, config.objective
            )
            spent = 1
        else:
            system = _ComponentSystem(
                model, inner, low, high, config.objective, config.direction
            )
            budget = config.max_iterations - total_iterations
            low[inner], high[inner], spent = _solve_component(system, config, budget)
        total_iterations += spent
        if trace is not None:
            trace.append(
                TraceRow(
                    total_iterations, float(low[inner].min()), float(high[inner].max()),
                    neutral_decision(config.direction), math.nan,
                )
            )

    initial = model.initial_state
    lo = float(low[initial])
    hi = float(high[initial])
    if config.lower is not None:
        lo = max(lo, config.lower)
    if config.upper is not None:
        hi = min(hi, config.upper)
    elapsed = (time.perf_counter() - started) * 1000.0
    return _result((lo + hi) / 2.0, lo, hi, total_iterations, elapsed, config, trace, True)
