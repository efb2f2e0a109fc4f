"""Solver variants: Gauss-Seidel sweeps and the SCC-by-SCC topological solve.

The Gauss-Seidel sweeps update states in place, one at a time, so each
state immediately sees fresh values of the states processed before it in the
sweep.  The default sweep order lists strongly connected components
successors-first, which propagates information from the goal backwards in as
few sweeps as possible.  ``svi_solve``, ``vi_solve`` and ``ii_solve`` take
them as their step when ``gauss_seidel`` is set.

The topological solver processes one SCC at a time (again successors-first).
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
from dataclasses import dataclass, replace

import numpy as np

from .analysis import scc_order
from .errors import IterationLimit
from .model import Direction, Partition, SparseModel, validate_model
from .solvers import (
    Method,
    Objective,
    SolveResult,
    SolverConfig,
    TraceRow,
    _coupled_stepper,
    _fold_ratios,
    _Kernels,
    _pick,
    _shortcut,
    _state_expectations,
    _tighten_bounds,
    neutral_decision,
)

__all__ = [
    "StateOrdering",
    "gs_sweep",
    "gauss_seidel_sweep_values",
    "topological_solve",
]


@dataclass(frozen=True)
class StateOrdering:
    """A sweep order over the states (a permutation of ``0..n-1``)."""

    order: np.ndarray

    @classmethod
    def identity(cls, num_states: int) -> "StateOrdering":
        return cls(order=np.arange(num_states, dtype=np.int64))

    @classmethod
    def for_model(cls, model: SparseModel) -> "StateOrdering":
        """Successors-first order: SCCs in reverse topological order,
        states inside one component by ascending index."""
        components = scc_order(model).components
        return cls(order=np.concatenate(components) if components else np.empty(0, np.int64))


def _sweep_states(partition: Partition, ordering: StateOrdering) -> np.ndarray:
    order = ordering.order
    return order[partition.maybe[order]]


def gauss_seidel_sweep_values(
    model: SparseModel,
    partition: Partition,
    values: np.ndarray,
    direction: Direction = Direction.MAXIMIZE,
    objective: Objective = Objective.PROBABILITY,
    ordering: StateOrdering | None = None,
) -> np.ndarray:
    """One in-place optimal Bellman sweep (the Gauss-Seidel VI/II step)."""
    if ordering is None:
        ordering = StateOrdering.for_model(model)
    x = np.array(values, dtype=np.float64)
    maximize = direction is Direction.MAXIMIZE
    for s in _sweep_states(partition, ordering):
        best = None
        for choice in model.choices_of(int(s)):
            targets, probs = model.entries_of(choice)
            val = float(np.add.reduce(probs * x[targets]))
            if objective is Objective.REWARD:
                val += float(model.choice_reward[choice])
            if best is None or (val > best if maximize else val < best):
                best = val
        x[s] = best
    return x


def gs_sweep(
    model: SparseModel,
    partition: Partition,
    x: np.ndarray,
    y: np.ndarray,
    bound: float,
    decision: float,
    direction: Direction = Direction.MAXIMIZE,
    objective: Objective = Objective.PROBABILITY,
    ordering: StateOrdering | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One in-place coupled sweep; returns ``(x', y', scheduler, decision')``.

    States are visited in sweep order; each sees the values already refreshed
    this sweep.  ``scheduler`` records the local choice taken per state (the
    state's single choice for chains).
    """
    if ordering is None:
        ordering = StateOrdering.for_model(model)
    x = np.array(x, dtype=np.float64)
    y = np.array(y, dtype=np.float64)
    scheduler = np.zeros(model.num_states, dtype=np.int64)
    maximize = direction is Direction.MAXIMIZE
    for s in _sweep_states(partition, ordering):
        s = int(s)
        expectations = _state_expectations(model, x, y, s, objective)
        local = 0
        if not model.is_mc:
            local = _pick(expectations, bound, maximize)
            decision = _fold_ratios(expectations, local, decision, maximize)
        x[s], y[s] = expectations[local]
        scheduler[s] = local
    return x, y, scheduler, decision


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
        inner_of = {int(s): i for i, s in enumerate(members)}
        m = len(members)
        choices: list[list[dict[int, float]]] = []
        drive_reward: list[float] = []
        follow_reward: list[float] = []
        for s in members:
            group = []
            for c in model.choices_of(int(s)):
                targets, probs = model.entries_of(c)
                row: dict[int, float] = {}
                base = float(model.choice_reward[c]) if objective is Objective.REWARD else 0.0
                r_drive = r_follow = base
                for t, p in zip(targets.tolist(), probs.tolist()):
                    inner = inner_of.get(t)
                    if inner is None:
                        row[m] = row.get(m, 0.0) + p
                        r_drive += p * float(drive[t])
                        r_follow += p * float(follow[t])
                    else:
                        row[inner] = row.get(inner, 0.0) + p
                group.append(row)
                drive_reward.append(r_drive)
                follow_reward.append(r_follow)
            choices.append(group)
        choices.append([{m: 1.0}])  # the sink
        drive_reward.append(0.0)
        follow_reward.append(0.0)

        self.model = replace(validate_model(choices), choice_reward=np.asarray(drive_reward))
        goal = np.zeros(m + 1, dtype=bool)
        goal[m] = True
        self.partition = Partition(
            s0=np.zeros(m + 1, dtype=bool), goal=goal, maybe=~goal
        )
        self.follow_reward = np.asarray(follow_reward)


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
    model = system.model
    maximize = config.direction is Direction.MAXIMIZE
    kern = _Kernels(model, system.partition, Objective.REWARD, config.direction)
    step, ordering = _coupled_stepper(kern, config.gauss_seidel)
    inner = kern.maybe_idx

    x_drive = np.zeros(model.num_states)
    x_follow = np.zeros(model.num_states)
    y = kern.y_init.copy()
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
        x_drive, y, chosen, decision = step(x_drive, y, bound, decision)
        if ordering is None:
            cx = np.add.reduceat(x_follow[kern.targets] * kern.probs, kern.choice_cuts)
            x_follow = np.zeros(model.num_states)
            x_follow[inner] = (cx + system.follow_reward)[chosen[inner]]
        else:
            x_follow = x_follow.copy()
            for s in _sweep_states(system.partition, ordering):
                c = int(chosen[s])
                targets, probs = model.entries_of(c)
                x_follow[s] = float(system.follow_reward[c]) + float(
                    np.add.reduce(probs * x_follow[targets])
                )
        x_low, x_high = (x_follow, x_drive) if maximize else (x_drive, x_follow)
        lower, upper = _tighten_bounds(
            x_low, x_high, y, inner, lower, upper, decision, maximize
        )

        ym = y[inner]
        if float(ym.max()) == 0.0:
            return x_low[inner].copy(), x_high[inner].copy(), k
        if math.isfinite(lower) and math.isfinite(upper):
            member_low = x_low[inner] + ym * lower
            member_high = x_high[inner] + ym * upper
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
    n = model.num_states
    low = np.zeros(n)
    high = np.zeros(n)
    if config.objective is Objective.PROBABILITY:
        low[partition.goal] = 1.0
        high[partition.goal] = 1.0
    # s0 states keep exactly 0 in both vectors.

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
    return SolveResult(
        value=(lo + hi) / 2.0,
        lower=lo,
        upper=hi,
        iterations=total_iterations,
        time_ms=elapsed,
        method=Method.SVI,
        sound=True,
        trace=trace,
    )
