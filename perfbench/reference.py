"""Reference values computed without soundreach.

Three methods, chosen by model size and shape:

* ``enumerate_values``: every positional scheduler induces a Markov chain,
  which one dense linear solve answers; the per-state optimum over all of
  them is the true value, since a positional optimum always exists.  For
  models with a handful of schedulers.
* ``policy_iteration``: exact sparse linear solves of the induced chain,
  improved until no state can strictly gain.  For models in which every
  scheduler reaches the goal or a sure-zero state almost surely (no end
  component among the undecided states), which the function checks.
* ``value_one``: a graph check that every choice of every state below the
  goal ``n - 1`` has ``s + 1`` as a successor.  From every state the goal is
  then at most ``n`` steps away with positive probability under every
  scheduler, so it is reached almost surely: every value is exactly 1.

The goal is treated as absorbing, as ``solve`` does.  Probabilities of
states that cannot reach the goal (maximum) or can avoid it forever
(minimum) are exactly 0.
"""

from __future__ import annotations

import itertools

import numpy as np


#: how often a row is divided by its sum before the program solves it: once
#: when the benchmark builds the model, once when ``load_model`` reads its
#: file back (``repr`` keeps every float exact in between)
RENORMALISATIONS = 2


def renormalised(probs):
    """A row as the program stores it: divided by its plain left-to-right
    sum, ``RENORMALISATIONS`` times, so that the reference solves the same
    numbers as the program."""
    for _ in range(RENORMALISATIONS):
        total = sum(probs)
        probs = [p / total for p in probs]
    return probs


class Csr:
    """Compressed rows of a ``families.Mdp``, built from its plain lists."""

    def __init__(self, mdp):
        self.n = mdp.num_states
        sizes = [len(group) for group in mdp.choices]
        self.group_ptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        flat = [choice for group in mdp.choices for choice in group]
        lengths = [len(t) for t, _ in flat]
        self.choice_ptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        self.target = np.asarray([t for ts, _ in flat for t in ts], dtype=np.int64)
        self.prob = np.asarray(
            [p for _, ps in flat for p in renormalised(ps)], dtype=np.float64
        )
        self.choice_state = np.repeat(np.arange(self.n), sizes)
        self.entry_choice = np.repeat(np.arange(len(flat)), lengths)
        self.reward = (
            np.asarray([r for group in mdp.rewards for r in group], dtype=np.float64)
            if mdp.rewards is not None
            else np.zeros(len(flat))
        )
        self.goal = np.zeros(self.n, dtype=bool)
        self.goal[mdp.goal] = True

    @property
    def num_choices(self) -> int:
        return len(self.choice_ptr) - 1


# ---------------------------------------------------------------------------
# graph checks
# ---------------------------------------------------------------------------


def cannot_reach(csr: Csr, target: np.ndarray) -> np.ndarray:
    """States with no path to ``target`` under any choices."""
    reach = target.copy()
    src = csr.choice_state[csr.entry_choice]
    while True:
        grown = reach.copy()
        grown[src[reach[csr.target]]] = True
        if np.array_equal(grown, reach):
            return ~reach
        reach = grown


def can_avoid(csr: Csr, target: np.ndarray) -> np.ndarray:
    """States outside ``target`` with a scheduler that avoids it forever.

    Greatest fixpoint: keep the states owning a choice whose successors all
    stay kept.  It is empty exactly when no end component lies outside
    ``target``.
    """
    keep = ~target
    while True:
        bad_entry = ~keep[csr.target]
        bad_choice = np.zeros(csr.num_choices, dtype=bool)
        bad_choice[csr.entry_choice[bad_entry]] = True
        good = np.zeros(csr.n, dtype=bool)
        good[csr.choice_state[~bad_choice]] = True
        new_keep = keep & good
        if np.array_equal(new_keep, keep):
            return keep
        keep = new_keep


def zero_states(csr: Csr, objective: str, direction: str) -> np.ndarray:
    """States whose value is exactly 0 (probabilities) or none (rewards)."""
    if objective == "reward":
        return np.zeros(csr.n, dtype=bool)
    if direction == "max":
        return cannot_reach(csr, csr.goal) & ~csr.goal
    return can_avoid(csr, csr.goal)


def value_one(mdp) -> bool:
    """True when every choice of every state below the goal ``n - 1`` moves
    to ``s + 1`` with positive probability (see the module docstring)."""
    n = mdp.num_states
    if list(mdp.goal) != [n - 1]:
        return False
    return all(s + 1 in targets for s in range(n - 1) for targets, _ in mdp.choices[s])


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def _induced(csr: Csr, chosen: np.ndarray):
    """Entries of the chain induced by global choice indices ``chosen``."""
    lo = csr.choice_ptr[chosen]
    hi = csr.choice_ptr[chosen + 1]
    counts = hi - lo
    rows = np.repeat(np.arange(len(chosen)), counts)
    starts = np.cumsum(counts) - counts
    idx = np.arange(counts.sum()) - np.repeat(starts - lo, counts)
    return rows, csr.target[idx], csr.prob[idx]


def refined_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``x = matrix @ x + rhs``, with one step of iterative refinement whose
    residual is taken in extended precision, so that the reference stays
    accurate where a value cancels out of terms much larger than itself."""
    block = np.eye(len(rhs)) - matrix
    x = np.linalg.solve(block, rhs)
    wide = np.longdouble
    wide_x = x.astype(wide)
    residual = rhs.astype(wide) + matrix.astype(wide) @ wide_x - wide_x
    return (wide_x + np.linalg.solve(block, residual.astype(np.float64))).astype(np.float64)


def enumerate_values(csr: Csr, objective: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-state minimum and maximum over every positional scheduler."""
    n = csr.n
    low = high = None
    ranges = [range(csr.group_ptr[s], csr.group_ptr[s + 1]) for s in range(n)]
    for combo in itertools.product(*ranges):
        chosen = np.asarray(combo, dtype=np.int64)
        rows, cols, probs = _induced(csr, chosen)
        matrix = np.zeros((n, n))
        np.add.at(matrix, (rows, cols), probs)
        matrix[csr.goal] = 0.0
        if objective == "prob":
            # states that reach the goal in this chain; the rest get 0
            reach = csr.goal.copy()
            while True:
                grown = reach | (matrix[:, reach].sum(axis=1) > 0)
                if np.array_equal(grown, reach):
                    break
                reach = grown
            live = reach & ~csr.goal
            rhs = matrix[np.ix_(live, csr.goal)].sum(axis=1)
        else:
            live = ~csr.goal
            rhs = csr.reward[chosen][live]
        values = np.zeros(n)
        values[csr.goal] = 1.0 if objective == "prob" else 0.0
        values[live] = refined_solve(matrix[np.ix_(live, live)], rhs)
        if low is None:
            low, high = values, values
        else:
            low, high = np.minimum(low, values), np.maximum(high, values)
    return low, high


def policy_iteration(csr: Csr, objective: str, direction: str) -> np.ndarray:
    """Per-state optimal values by policy iteration with exact solves."""
    from scipy.sparse import csr_matrix, identity
    from scipy.sparse.linalg import spsolve

    n = csr.n
    zero = zero_states(csr, objective, direction)
    decided = csr.goal | zero
    if can_avoid(csr, decided).any():
        raise ValueError("an end component lies among the undecided states")
    live = ~decided
    live_idx = np.flatnonzero(live)
    position = np.full(n, -1, dtype=np.int64)
    position[live_idx] = np.arange(len(live_idx))
    boundary = np.zeros(n)
    if objective == "prob":
        boundary[csr.goal] = 1.0

    maximize = direction == "max"
    chosen = csr.group_ptr[:-1].copy()
    for _ in range(10_000):
        rows, cols, probs = _induced(csr, chosen[live_idx])
        inside = live[cols]
        matrix = csr_matrix(
            (probs[inside], (rows[inside], position[cols[inside]])),
            shape=(len(live_idx), len(live_idx)),
        )
        rhs = np.bincount(rows, weights=probs * boundary[cols], minlength=len(live_idx))
        if objective == "reward":
            rhs = rhs + csr.reward[chosen[live_idx]]
        system = (identity(len(live_idx), format="csc") - matrix).tocsc()
        values = boundary.copy()
        values[live_idx] = spsolve(system, rhs)

        q = np.bincount(
            csr.entry_choice, weights=csr.prob * values[csr.target], minlength=csr.num_choices
        )
        if objective == "reward":
            q = q + csr.reward
        current = q[chosen[csr.choice_state]]
        gain = q - current if maximize else current - q
        slack = 1e-12 * np.maximum(np.abs(current), 1.0)
        improving = (gain > slack) & live[csr.choice_state]
        if not improving.any():
            return values
        # per state, switch to its most improving choice
        gain = np.where(improving, gain, -np.inf)
        best_gain = np.maximum.reduceat(gain, csr.group_ptr[:-1])
        switch = np.flatnonzero(np.isfinite(best_gain))
        for s in switch:
            lo, hi = csr.group_ptr[s], csr.group_ptr[s + 1]
            chosen[s] = lo + int(np.argmax(gain[lo:hi]))
    raise RuntimeError("policy iteration did not settle")


# ---------------------------------------------------------------------------
# the benchmark's reference process
# ---------------------------------------------------------------------------


def reference_values(query) -> dict:
    """Reference value at the initial state, the range of the values over
    all non-goal states (what valid start bounds must enclose), and the
    largest value magnitude over all states (which tells a value that
    cancels)."""
    mdp = query.model
    csr = Csr(mdp)
    if query.objective == "prob" and value_one(mdp):
        values = np.ones(csr.n)
    elif mdp.family == "tiny":
        low, high = enumerate_values(csr, query.objective)
        values = high if query.direction == "max" else low
    else:
        values = policy_iteration(csr, query.objective, query.direction)
    open_values = values[~csr.goal]
    return {
        "init": float(values[mdp.init]),
        "low": float(open_values.min()),
        "high": float(open_values.max()),
        "scale": float(np.abs(values).max()),
    }


def main(argv) -> int:
    """``reference.py <workload> <seed>``: print one JSON list with the
    reference of every query of the workload, in order."""
    import json

    from workloads import make_queries

    workload, seed = argv[1], int(argv[2])
    cache: dict = {}
    out = []
    for query in make_queries(workload, seed):
        key = (query.model.name, query.objective, query.direction)
        if key not in cache:
            cache[key] = reference_values(query)
        out.append(cache[key])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv))
