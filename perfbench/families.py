"""Seeded model families and the queries the benchmark asks of them.

A family builds a ``Mdp``: plain Python lists of ``(targets, probs)`` per
choice, independent of soundreach.  The benchmark turns each one into a
soundreach model (``validate_model``) and into model files (``write_model``),
and hands the same lists to its own reference solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Mdp:
    """One model: ``choices[s]`` lists ``(targets, probs)`` pairs of state ``s``.

    Targets within one choice are distinct and sorted; probabilities are
    positive and normalised.  ``rewards[s][c]`` is the reward of choice ``c``
    of state ``s`` (``None``: no reward file).
    """

    name: str
    choices: list
    init: int
    goal: list
    rewards: list | None = None
    family: str = ""

    @property
    def num_states(self) -> int:
        return len(self.choices)


@dataclass
class Query:
    """One question about one model, as ``soundreach check`` would ask it.

    ``lower``/``upper`` are start bounds (``None``: default settings);
    ``bounds_from_reference`` asks for start bounds derived from the
    reference values (see ``run.py``).  ``fault`` names a known program fault
    that makes this query fail; such a query carries its own
    ``max_iterations`` cap.  ``files`` maps ``tra``/``lab``/``trew`` to the
    model's files once they are written.
    """

    model: Mdp
    objective: str  # "prob" or "reward"
    direction: str  # "max" or "min"
    lower: float | None = None
    upper: float | None = None
    bounds_from_reference: bool = False
    topological: bool = False
    max_iterations: int = 1_000_000
    fault: str | None = None
    files: dict = field(default_factory=dict)

    def __post_init__(self):
        extra = " topo" if self.topological else ""
        self.label = f"{self.model.name} {self.direction} {self.objective}{extra}"


def _choice(targets, weights):
    """Merge duplicate targets and normalise their weights."""
    targets = np.asarray(targets, dtype=np.int64)
    merged, inverse = np.unique(targets, return_inverse=True)
    probs = np.bincount(inverse, weights=weights, minlength=len(merged))
    probs = probs / probs.sum()
    return merged.tolist(), probs.tolist()


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def random_mdp(name, n, rng, *, sink_share=0.0):
    """ROADMAP's random MDP: two choices per state, each moving to ``s+1``
    plus two uniform random targets with random normalised probabilities;
    the goal is state ``n - 1`` (whose own choices ``solve`` replaces by a
    self-loop).

    Every choice has ``s+1`` as a successor, so under every scheduler the goal
    is reached almost surely and every value is exactly 1.  With
    ``sink_share > 0`` each random target is replaced, with that chance, by
    an extra absorbing losing state ``n`` (the sink family).
    """
    sink = n
    choices = []
    for s in range(n):
        group = []
        for _ in range(2):
            randoms = rng.integers(0, n, size=2)
            if sink_share > 0:
                randoms = np.where(rng.random(2) < sink_share, sink, randoms)
            targets = [min(s + 1, n - 1), *randoms.tolist()]
            group.append(_choice(targets, rng.random(3)))
        choices.append(group)
    if sink_share > 0:
        choices.append([([sink], [1.0])])
    return Mdp(
        name=name,
        choices=choices,
        init=0,
        goal=[n - 1],
        family="sink" if sink_share > 0 else "value1",
    )


def with_rewards(mdp, rng):
    """Give every choice a reward drawn from ``[0.5, 2]``."""
    mdp.rewards = [rng.uniform(0.5, 2.0, size=len(group)).tolist() for group in mdp.choices]
    return mdp


def leaky_walk(name, n, leak, rng, *, num_choices=2):
    """A random walk on ``0..n-1`` that leaks to a goal or a sink.

    Each choice first loses ``leak``, split at random between the goal ``n``
    and the sink ``n + 1``, then steps right with a random probability in
    ``[0.35, 0.65]`` and left otherwise (state 0 stays put instead).
    Stepping right from ``n - 1`` reaches the goal.  The undecided mass thus
    shrinks by a factor ``1 - leak`` per step whatever the seed, which keeps
    the sweep count steady.  With one choice per state the model is a Markov
    chain.  The run starts in the middle of the line.
    """
    goal, sink = n, n + 1
    choices = []
    for s in range(n):
        group = []
        for _ in range(num_choices):
            to_goal = leak * rng.uniform(0.2, 0.8)
            right = (1.0 - leak) * rng.uniform(0.35, 0.65)
            left = 1.0 - leak - right
            targets = [goal, sink, s + 1 if s + 1 < n else goal, max(s - 1, 0)]
            weights = [to_goal, leak - to_goal, right, left]
            group.append(_choice(targets, np.asarray(weights)))
        choices.append(group)
    choices.append([([goal], [1.0])])
    choices.append([([sink], [1.0])])
    return Mdp(name=name, choices=choices, init=n // 2, goal=[goal], family="walk")


def cyclic_chain(name, components, size, rng):
    """A chain of ``components`` cycles of ``size`` states, two choices each.

    Inside a component each choice moves on along the cycle with probability
    about 0.9; the rest leaves to the next component's entry (or, from the
    last component, to the goal), except for up to a tenth of it that goes
    to the sink.  Every component is one nontrivial SCC, and the run starts
    in the first one.
    """
    num = components * size
    goal, sink = num, num + 1
    choices = []
    for comp in range(components):
        base = comp * size
        exit_state = base + size if comp + 1 < components else goal
        for i in range(size):
            s = base + i
            group = []
            for _ in range(2):
                stay = rng.uniform(0.85, 0.95)
                out = 1.0 - stay
                to_exit = out * rng.uniform(0.9, 1.0)
                targets = [base + (i + 1) % size, exit_state, sink]
                group.append(_choice(targets, np.asarray([stay, to_exit, out - to_exit])))
            choices.append(group)
    choices.append([([goal], [1.0])])
    choices.append([([sink], [1.0])])
    return Mdp(name=name, choices=choices, init=0, goal=[goal], family="cycles")


#: chance that a tiny model's choice without a goal target gets one.  The
#: test suite uses 0.5; at that rate a few near-absorbing loops per seed take
#: thousands of sweeps, and the pass's sweep count varies with the seed by
#: about 18% (coefficient of variation over six seeds) against 6% at 0.8.
GOAL_BIAS = 0.8
#: most positional schedulers of a tiny model, which the reference enumerates
SCHEDULER_CAP = 64
#: a tiny model's transition weights are drawn from ``[WEIGHT_FLOOR, 1 +
#: WEIGHT_FLOOR]``.  The test suite uses 0.05; at that floor a maximal-reward
#: scheduler can keep nearly all mass away from the goal, and one query of
#: seed 205 took 12,060 sweeps, so that a pass's sweeps ranged from 18,152 to
#: 33,735 over ten seeds.  At 0.5 they ranged from 15,810 to 17,362 over 20
#: seeds, and no query took more than 487.
WEIGHT_FLOOR = 0.5


def tiny_model(name, rng):
    """A random model of 2..10 states shaped like the test suite's
    ``random_model``: 1..3 choices per state (chains: 1), 1..3 distinct
    targets per choice, choice rewards drawn from ``[-2, 5]``, and at most
    ``SCHEDULER_CAP`` positional schedulers.  A choice without a goal target
    gets one with chance ``GOAL_BIAS``; weights get ``WEIGHT_FLOOR``.
    """
    n = int(rng.integers(2, 11))
    is_mdp = bool(rng.random() < 0.6)
    goal_count = int(rng.integers(1, max(2, n // 3) + 1))
    goal = sorted(int(g) for g in rng.choice(n, size=min(goal_count, n - 1), replace=False))
    counts = rng.integers(1, 4, size=n) if is_mdp else np.ones(n, dtype=np.int64)
    while np.prod(counts.astype(float)) > SCHEDULER_CAP:
        busy = np.flatnonzero(counts > 1)
        counts[rng.choice(busy)] = 1
    choices = []
    for s in range(n):
        group = []
        for _ in range(int(counts[s])):
            k = int(rng.integers(1, min(3, n) + 1))
            targets = [int(t) for t in rng.choice(n, size=k, replace=False)]
            if rng.random() < GOAL_BIAS and not set(targets) & set(goal):
                targets[int(rng.integers(0, k))] = int(rng.choice(goal))
            group.append(_choice(targets, rng.random(k) + WEIGHT_FLOOR))
        choices.append(group)
    rewards = [rng.uniform(-2.0, 5.0, size=int(counts[s])).tolist() for s in range(n)]
    non_goal = [s for s in range(n) if s not in goal]
    init = int(rng.choice(non_goal))
    return Mdp(name=name, choices=choices, init=init, goal=goal, rewards=rewards, family="tiny")
