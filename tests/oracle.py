"""The exact reference solver of the test suite.

Chains are solved by one dense linear solve; MDPs by enumerating every
positional scheduler.  It runs none of the package's iteration code, so the
tests can hold every engine's certified interval against it.
"""

from __future__ import annotations

import itertools

import numpy as np

from soundreach import Direction, NotContracting, Objective, Partition, SolverError, SparseModel


class TooLargeForOracle(SolverError):
    """The exhaustive reference solver only handles very small instances."""


_ORACLE_MAX_STATES = 12
_ORACLE_MAX_SCHEDULERS = 4096


def _chain_values(
    model: SparseModel,
    picked: np.ndarray,
    goal: np.ndarray,
    objective: Objective,
) -> np.ndarray:
    """Exact per-state values of the chain of the ``picked`` choices, one
    per state."""
    rows = [model.entries_of(choice) for choice in picked.tolist()]
    n = model.num_states
    values = np.zeros(n)
    if objective is Objective.PROBABILITY:
        reachable = goal.copy()
        changed = True
        while changed:
            changed = False
            for s in range(n):
                if not reachable[s]:
                    targets, _ = rows[s]
                    if np.any(reachable[targets]):
                        reachable[s] = True
                        changed = True
        unknown = reachable & ~goal
        values[goal] = 1.0
    else:
        unknown = ~goal

    idx = np.flatnonzero(unknown)
    if idx.size == 0:
        return values
    pos = -np.ones(n, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    matrix = np.eye(idx.size)
    rhs = np.zeros(idx.size)
    for row_pos, s in enumerate(idx):
        targets, probs = rows[s]
        if objective is Objective.REWARD:
            rhs[row_pos] += float(model.choice_reward[picked[s]])
        for t, p in zip(targets.tolist(), probs.tolist()):
            if unknown[t]:
                matrix[row_pos, pos[t]] -= p
            elif goal[t] and objective is Objective.PROBABILITY:
                rhs[row_pos] += p
    try:
        solved = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        raise NotContracting(
            "the induced chain keeps probability mass away from the goal"
        ) from None
    values[idx] = solved
    return values


def oracle_solve(
    model: SparseModel,
    partition: Partition,
    objective: Objective = Objective.PROBABILITY,
    direction: Direction = Direction.MAXIMIZE,
) -> np.ndarray:
    """Exact per-state values by elimination and exhaustive enumeration.

    Chains are solved by one dense linear solve.  MDPs enumerate every
    positional scheduler (each induces a chain) and take the per-state
    optimum; a positional optimum always exists, so this equals the true
    value function.  Only tiny instances are admitted.
    """
    if model.num_states > _ORACLE_MAX_STATES:
        raise TooLargeForOracle(
            f"{model.num_states} states exceed the oracle limit of {_ORACLE_MAX_STATES}"
        )
    goal = partition.goal
    sizes = model.group_sizes()
    scheduler_count = int(np.prod(sizes.astype(np.float64)))
    if scheduler_count > _ORACLE_MAX_SCHEDULERS:
        raise TooLargeForOracle(
            f"{scheduler_count} positional schedulers exceed the oracle limit "
            f"of {_ORACLE_MAX_SCHEDULERS}"
        )

    best: np.ndarray | None = None
    for combo in itertools.product(*(range(int(k)) for k in sizes)):
        picked = model.row_group_start[:-1] + np.asarray(combo, dtype=np.int64)
        values = _chain_values(model, picked, goal, objective)
        if best is None:
            best = values
        elif direction is Direction.MAXIMIZE:
            best = np.maximum(best, values)
        else:
            best = np.minimum(best, values)
    assert best is not None
    return best
