"""Shared fixtures: golden models, a seeded random-model generator, and an
independent k-step reference built by exhaustive path enumeration."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import soundreach as sr
from oracle import oracle_solve

# ---------------------------------------------------------------------------
# hand-built models
# ---------------------------------------------------------------------------


def slow_chain_model() -> sr.SparseModel:
    """Five-state chain that leaks tiny probability toward two sinks.

    From the start it takes two rare hops to reach the branch state, which
    then splits 0.3/0.1 between the winning and the losing sink and falls
    back to the start otherwise.  The hit probability is 0.75, but plain
    value iteration approaches it at a crawl (the retry loop keeps almost
    all mass circulating).
    """
    return sr.validate_model(
        [
            [{1: 0.01, 0: 0.99}],
            [{2: 0.01, 0: 0.99}],
            [{4: 0.3, 3: 0.1, 0: 0.6}],
            [{3: 1.0}],
            [{4: 1.0}],
        ],
        labels={"init": [0], "goal": [4], "lost": [3]},
    )


def branching_mdp_model() -> sr.SparseModel:
    """The slow chain plus a second choice at the start state.

    The extra choice jumps straight to the branch region (0.8 to the branch
    state, 0.2 to the losing sink), which is tempting early but worse in the
    long run; the optimal value stays 0.75.
    """
    return sr.validate_model(
        [
            [{1: 0.01, 0: 0.99}, {3: 0.2, 2: 0.8}],
            [{2: 0.01, 0: 0.99}],
            [{4: 0.3, 3: 0.1, 0: 0.6}],
            [{3: 1.0}],
            [{4: 1.0}],
        ],
        labels={"init": [0], "goal": [4], "lost": [3]},
    )


def two_route_mdp_model() -> sr.SparseModel:
    """Seven states, two routes from the start, goal reachable both ways.

    Route one (0.8/0.2) threads through two intermediate states with small
    chances of winning; route two (0.4/0.3/0.3) can retry the start state.
    The maximal hit probability is 0.5, attained by always retrying.
    """
    return sr.validate_model(
        [
            [{1: 0.8, 6: 0.2}, {0: 0.4, 3: 0.3, 5: 0.3}],
            [{2: 0.9, 4: 0.1}],
            [{4: 0.1, 6: 0.9}],
            [{3: 1.0}],
            [{4: 1.0}],
            [{5: 1.0}],
            [{6: 1.0}],
        ],
        labels={"init": [0], "goal": [3, 4]},
    )


@pytest.fixture
def slow_chain() -> sr.SparseModel:
    return slow_chain_model()


@pytest.fixture
def branching_mdp() -> sr.SparseModel:
    return branching_mdp_model()


@pytest.fixture
def two_route_mdp() -> sr.SparseModel:
    return two_route_mdp_model()


# ---------------------------------------------------------------------------
# random model generation
# ---------------------------------------------------------------------------

SCHEDULER_CAP = 256  # keep exhaustive enumeration cheap


def random_model(rng: np.random.Generator, force_mdp: bool | None = None):
    """One random model plus its goal mask.

    States: 2..10.  Choices per state: 1 for chains, 1..3 for MDPs, trimmed
    until the positional-scheduler count stays below ``SCHEDULER_CAP``.
    Each choice hits 1..3 distinct targets with a bias toward including a
    goal state, which keeps a healthy share of instances contracting.
    Rewards are drawn from [-2, 5] per choice.
    """
    n = int(rng.integers(2, 11))
    is_mdp = bool(rng.random() < 0.6) if force_mdp is None else force_mdp
    goal_count = int(rng.integers(1, max(2, n // 3) + 1))
    goal_states = rng.choice(n, size=min(goal_count, n - 1), replace=False)
    goal = np.zeros(n, dtype=bool)
    goal[goal_states] = True

    counts = rng.integers(1, 4, size=n) if is_mdp else np.ones(n, dtype=np.int64)
    while np.prod(counts.astype(float)) > SCHEDULER_CAP:
        busy = np.flatnonzero(counts > 1)
        counts[rng.choice(busy)] = 1

    choices = []
    for s in range(n):
        group = []
        for _ in range(int(counts[s])):
            k = int(rng.integers(1, min(3, n) + 1))
            targets = list(rng.choice(n, size=k, replace=False))
            if rng.random() < 0.5 and not goal[targets].any():
                targets[int(rng.integers(0, k))] = int(rng.choice(np.flatnonzero(goal)))
            targets = sorted(set(int(t) for t in targets))
            raw = rng.random(len(targets)) + 0.05
            raw /= raw.sum()
            group.append({t: float(p) for t, p in zip(targets, raw)})
        choices.append(group)

    rewards = [
        [float(rng.uniform(-2.0, 5.0)) for _ in range(int(counts[s]))] for s in range(n)
    ]
    non_goal = np.flatnonzero(~goal)
    initial = int(rng.choice(non_goal)) if rng.random() < 0.9 else int(rng.integers(0, n))
    model = sr.validate_model(
        choices,
        initial_state=initial,
        rewards=rewards,
        labels={"init": [initial], "goal": np.flatnonzero(goal)},
    )
    return model, goal


# ---------------------------------------------------------------------------
# independent k-step reference (exhaustive path enumeration)
# ---------------------------------------------------------------------------


def k_step_reference(
    model: sr.SparseModel,
    partition: sr.Partition,
    objective: sr.Objective,
    schedulers: dict,
    k: int,
):
    """Compute the k-step pair (x, y) by walking every length-k path.

    ``schedulers[j]`` gives the per-state local action used when ``j`` steps
    remain (ignored for chains).  A path stops on absorption: reaching goal
    contributes its mass (probability mode) or its collected reward (reward
    mode); reaching a sure-zero state contributes nothing; surviving all
    ``k`` steps inside the undecided set contributes to ``y`` (and, in
    reward mode, its collected reward still counts toward ``x``).
    """
    probabilistic = objective is sr.Objective.PROBABILITY
    n = model.num_states
    x = np.zeros(n)
    y = np.zeros(n)
    x[partition.goal] = 1.0 if probabilistic else 0.0
    for start in np.flatnonzero(partition.maybe):
        total_x = 0.0
        total_y = 0.0
        stack = [(int(start), k, 1.0, 0.0)]
        while stack:
            s, remaining, mass, collected = stack.pop()
            if partition.goal[s]:
                total_x += mass * (1.0 if probabilistic else collected)
                continue
            if partition.s0[s]:
                if not probabilistic:
                    total_x += mass * collected
                continue
            if remaining == 0:
                total_y += mass
                if not probabilistic:
                    total_x += mass * collected
                continue
            local = 0 if model.is_mc else int(schedulers[remaining][s])
            choice = int(model.row_group_start[s]) + local
            targets, probs = model.entries_of(choice)
            step_reward = 0.0 if probabilistic else float(model.choice_reward[choice])
            for t, p in zip(targets.tolist(), probs.tolist()):
                stack.append((t, remaining - 1, mass * p, collected + step_reward))
        x[start] = total_x
        y[start] = total_y
    return x, y


# ---------------------------------------------------------------------------
# the shared random suite (drives the property-based acceptance criteria)
# ---------------------------------------------------------------------------


@dataclass
class SuiteInstance:
    """One solved random instance with everything later checks need."""

    index: int
    model: sr.SparseModel          # the model the engines actually iterated on
    partition: sr.Partition
    objective: sr.Objective
    direction: sr.Direction
    oracle: np.ndarray             # exact per-state values on ``model``
    epsilon: float
    bounds: tuple[float, float] | None  # user bounds handed to ii / dominance svi
    results: dict = field(default_factory=dict)       # name -> SolveResult
    early_states: dict = field(default_factory=dict)  # k -> IterationState (k <= 6)
    decision_samples: list = field(default_factory=list)
    # the bounded run's certified (lower, upper) at the initial state after
    # each sweep, and its decision value after the last sweep
    bounded_intervals: list = field(default_factory=list)
    bounded_decision: float | None = None

    @property
    def initial(self) -> int:
        return self.model.initial_state


@dataclass
class SuiteData:
    instances: list
    seconds: float


class _Collector:
    """Hook that snapshots early iterations, the certified interval at the
    initial state, and decision-value situations."""

    def __init__(self, keep_decisions: bool, initial: int):
        self.early: dict[int, sr.IterationState] = {}
        self.samples: list = []
        self.intervals: list[tuple[float, float]] = []
        self.decision: float | None = None
        self.keep_decisions = keep_decisions
        self.initial = initial

    def __call__(self, state: sr.IterationState, previous: sr.IterationState):
        if state.k <= 6:
            self.early[state.k] = state
        x0 = float(state.x[self.initial])
        y0 = float(state.y[self.initial])
        self.intervals.append((x0 + y0 * state.lower, x0 + y0 * state.upper))
        self.decision = state.decision
        if (
            self.keep_decisions
            and len(self.samples) < 100
            and state.scheduler is not None
            and previous is not None
            and np.isfinite(previous.upper)
            and np.isfinite(previous.lower)
        ):
            # A sample is only useful when the certified stability range for
            # the recorded action choice is non-empty (see the acceptance
            # test for how the range is derived from the decision value).
            d = state.decision
            if np.isfinite(d) and not previous.lower <= d <= previous.upper:
                return
            self.samples.append(
                {
                    "x_prev": previous.x,
                    "y_prev": previous.y,
                    "decision": d,
                    "upper_prev": previous.upper,
                    "lower_prev": previous.lower,
                    "scheduler": state.scheduler,
                }
            )


def _prepare(model: sr.SparseModel, goal: np.ndarray, objective, direction):
    """Mirror the query pipeline on the absorbing copy, which ``solve``
    answers exactly as it answers ``model`` (it reads no goal row): partition,
    collapse if needed."""
    prepared = sr.make_absorbing(model, goal)
    if objective is sr.Objective.REWARD:
        partition = sr.reward_partition(prepared, goal)
        return prepared, partition
    partition = sr.reach_partition(prepared, goal, direction)
    if direction is sr.Direction.MAXIMIZE:
        quotient = sr.collapse_end_components(prepared, partition)
        return quotient.model, quotient.partition
    return prepared, partition


def _build_suite() -> SuiteData:
    started = time.perf_counter()
    rng = np.random.default_rng(20250815)
    epsilon = 1e-8
    instances: list[SuiteInstance] = []
    index = 0
    while len(instances) < 520:
        index += 1
        model, goal = random_model(rng)
        direction = (
            sr.Direction.MINIMIZE
            if (not model.is_mc and rng.random() < 0.35)
            else sr.Direction.MAXIMIZE
        )
        contracting = sr.check_contracting(sr.make_absorbing(model, goal), goal)
        objective = (
            sr.Objective.REWARD
            if (contracting and rng.random() < 0.4)
            else sr.Objective.PROBABILITY
        )
        solve_model, partition = _prepare(model, goal, objective, direction)
        oracle = oracle_solve(solve_model, partition, objective, direction)

        if objective is sr.Objective.PROBABILITY:
            bounds = (0.0, 1.0)
        else:
            spread = oracle[partition.maybe]
            low = float(np.floor(spread.min())) - 1.0 if spread.size else -1.0
            high = float(np.ceil(spread.max())) + 1.0 if spread.size else 1.0
            bounds = (low, high)

        inst = SuiteInstance(
            index=index,
            model=solve_model,
            partition=partition,
            objective=objective,
            direction=direction,
            oracle=oracle,
            epsilon=epsilon,
            bounds=bounds,
        )

        base = sr.SolverConfig(
            direction=direction, objective=objective, epsilon=epsilon, record_trace=True
        )
        collector = _Collector(keep_decisions=False, initial=solve_model.initial_state)
        inst.results["svi"] = sr.svi_solve(solve_model, partition, base, collector)
        inst.early_states = collector.early
        inst.results["topological"] = sr.topological_solve(
            solve_model, partition, sr.SolverConfig(
                direction=direction, objective=objective, epsilon=epsilon, topological=True,
            ),
        )
        inst.results["ii"] = sr.ii_solve(
            solve_model, partition, sr.SolverConfig(
                method=sr.Method.II, direction=direction, objective=objective,
                epsilon=epsilon, lower=bounds[0], upper=bounds[1], record_trace=True,
            ),
        )
        # Decision-value samples come from the bounded run: with finite
        # initial bounds the action selection uses the weighted score from
        # iteration one, so every recorded choice has a meaningful range of
        # bounds over which it must stay optimal.
        decision_collector = _Collector(
            keep_decisions=not solve_model.is_mc, initial=solve_model.initial_state
        )
        inst.results["svi_bounded"] = sr.svi_solve(
            solve_model, partition, sr.SolverConfig(
                direction=direction, objective=objective, epsilon=epsilon,
                lower=bounds[0], upper=bounds[1],
            ),
            decision_collector,
        )
        inst.decision_samples = decision_collector.samples
        inst.bounded_intervals = decision_collector.intervals
        inst.bounded_decision = decision_collector.decision
        instances.append(inst)
    return SuiteData(instances=instances, seconds=time.perf_counter() - started)


@pytest.fixture(scope="session")
def random_suite() -> SuiteData:
    return _build_suite()
