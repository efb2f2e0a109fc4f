"""The component-by-component solver."""

import dataclasses
import math

import numpy as np
import pytest

import soundreach as sr
from conftest import random_model
from oracle import oracle_solve
from soundreach import variants


def prepared(model, direction=sr.Direction.MAXIMIZE, objective=sr.Objective.PROBABILITY):
    goal = model.label_mask("goal")
    absorbed = sr.make_absorbing(model, goal)
    if objective is sr.Objective.REWARD:
        return absorbed, sr.reward_partition(absorbed, goal)
    return absorbed, sr.reach_partition(absorbed, goal, direction)


@pytest.fixture
def per_component(monkeypatch):
    """Blocks of one component each: every component runs on its own, so
    the sweep counts and partial results below pin per-component mechanics."""
    monkeypatch.setattr(variants, "_BLOCK_ENTRIES", 1)


# ---------------------------------------------------------------------------
# component-by-component solving
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("per_component")
def test_topological_acyclic_is_exact():
    # a diamond with no cycles: every component is a single pass
    model = sr.validate_model(
        [
            [{1: 0.5, 2: 0.5}],
            [{3: 0.9, 4: 0.1}],
            [{3: 0.2, 4: 0.8}],
            [{3: 1.0}],
            [{4: 1.0}],
        ],
        labels={"init": [0], "goal": [3]},
    )
    model2, part = prepared(model)
    res = sr.topological_solve(
        model2, part, sr.SolverConfig(epsilon=1e-12, topological=True)
    )
    assert res.lower == res.upper == res.value
    assert res.value == pytest.approx(0.5 * 0.9 + 0.5 * 0.2, abs=1e-15)
    assert res.iterations == 3  # one evaluation per maybe state


def test_topological_single_component_matches_plain(slow_chain):
    model, part = prepared(slow_chain)
    cfg = sr.SolverConfig(epsilon=1e-6)
    plain = sr.svi_solve(model, part, cfg)
    topo = sr.topological_solve(
        model, part, sr.SolverConfig(epsilon=1e-6, topological=True)
    )
    assert (topo.value, topo.lower, topo.upper, topo.iterations) == (
        plain.value, plain.lower, plain.upper, plain.iterations
    )


def _outcome(model, goal, config):
    """A solve's numbers and trace, the partial ones of a capped run, or the
    error class."""
    try:
        res = sr.solve(model, goal, config)
    except sr.IterationLimit as limit:
        res = limit.partial
    except sr.SolverError as error:
        return type(error)
    return res.value, res.lower, res.upper, res.iterations, res.sound, res.trace


@pytest.mark.parametrize("direction", [sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE])
@pytest.mark.parametrize("objective", [sr.Objective.PROBABILITY, sr.Objective.REWARD])
def test_topological_one_block_is_the_flat_solve(direction, objective):
    # every random model holds fewer kept entries than a block, so the
    # topological run is one block: the flat solve, bit for bit
    rng = np.random.default_rng(4242)
    for _ in range(80):
        model, goal = random_model(rng)
        assert len(model.entry_target) < variants._BLOCK_ENTRIES
        config = sr.SolverConfig(
            direction=direction, objective=objective, epsilon=1e-8,
            max_iterations=3000, record_trace=True,
        )
        flat = _outcome(model, goal, config)
        topo = _outcome(model, goal, dataclasses.replace(config, topological=True))
        assert repr(topo) == repr(flat)


def _nth_random_model(seed, index):
    rng = np.random.default_rng(seed)
    for _ in range(index):
        random_model(rng)
    return random_model(rng)


@pytest.mark.usefixtures("per_component")
@pytest.mark.usefixtures("without_prob1")
def test_topological_order_ignores_sure_zero_rows():
    # instance 39: a sure-zero state's row leads back into the undecided
    # states, and ordering by it merged two components into one that took
    # 42 sweeps; ordered by the undecided rows alone they take 6
    model, goal = _nth_random_model(4242, 39)
    direction = sr.Direction.MINIMIZE
    config = sr.SolverConfig(direction=direction, epsilon=1e-8, topological=True)
    res = sr.solve(model, goal, config)
    assert res.iterations == 6 and res.sound
    absorbed = sr.make_absorbing(model, goal)
    oracle = oracle_solve(absorbed, sr.reach_partition(absorbed, goal, direction),
                          direction=direction)
    # y reaches 0, so the interval is one point, rounded as the oracle's is not
    assert res.lower - 1e-12 <= oracle[model.initial_state] <= res.upper + 1e-12


@pytest.mark.usefixtures("per_component")
@pytest.mark.parametrize("direction", [sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE])
@pytest.mark.parametrize("objective", [sr.Objective.PROBABILITY, sr.Objective.REWARD])
def test_solve_on_the_callers_model_is_the_absorbing_solve(direction, objective):
    # goal rows are never read: making the goal absorbing first changes no
    # number, bound, sweep count or trace row, flat or topological
    rng = np.random.default_rng(4242)
    for _ in range(320):
        model, goal = random_model(rng)
        absorbed = sr.make_absorbing(model, goal)
        for topological in (False, True):
            config = sr.SolverConfig(
                direction=direction, objective=objective, epsilon=1e-8,
                max_iterations=3000, topological=topological, record_trace=True,
            )
            assert repr(_outcome(model, goal, config)) == repr(_outcome(absorbed, goal, config))


def test_topological_two_route(two_route_mdp):
    model, part = prepared(two_route_mdp)
    res = sr.topological_solve(
        model, part, sr.SolverConfig(epsilon=1e-8, topological=True)
    )
    assert res.sound
    assert res.value == pytest.approx(0.5, abs=1e-8)
    assert res.lower <= 0.5 <= res.upper + 1e-12


def test_topological_reward():
    model = sr.validate_model(
        [[{0: 0.5, 1: 0.5}], [{1: 1.0}]],
        rewards=[[1.0], [0.0]],
        labels={"init": [0], "goal": [1]},
    )
    part = sr.reward_partition(model, model.label_mask("goal"))
    res = sr.topological_solve(
        model, part,
        sr.SolverConfig(
            objective=sr.Objective.REWARD, epsilon=1e-8, topological=True
        ),
    )
    assert res.value == pytest.approx(2.0, abs=1e-8)


def test_topological_user_bounds_clamp_final_interval(slow_chain):
    model, part = prepared(slow_chain)
    res = sr.topological_solve(
        model, part,
        sr.SolverConfig(epsilon=1e-2, topological=True, lower=0.74999, upper=0.75),
    )
    assert res.lower >= 0.74999
    assert res.upper <= 0.75


def test_topological_respects_iteration_budget(slow_chain):
    model, part = prepared(slow_chain)
    with pytest.raises(sr.IterationLimit):
        sr.topological_solve(
            model, part,
            sr.SolverConfig(epsilon=1e-6, topological=True, max_iterations=2),
        )


def test_topological_needs_svi_config():
    with pytest.raises(sr.ConfigError):
        sr.SolverConfig(method=sr.Method.VI, topological=True).validated()


def test_topological_matches_oracle_randomized(monkeypatch):
    # at the default threshold each small model is one block; at 1 every
    # component is its own block
    for block_entries in (variants._BLOCK_ENTRIES, 1):
        monkeypatch.setattr(variants, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(123)
        for _ in range(30):
            model, goal = random_model(rng)
            res = sr.solve(
                model, goal,
                sr.SolverConfig(epsilon=1e-8, topological=True),
            )
            absorbed = sr.make_absorbing(model, goal)
            part = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
            quotient = sr.collapse_end_components(absorbed, part)
            oracle = oracle_solve(quotient.model, quotient.partition)
            want = oracle[quotient.state_map[model.initial_state]]
            assert res.value == pytest.approx(want, abs=1e-8)
            assert res.lower - 1e-12 <= want <= res.upper + 1e-12


def acyclic_mdp(rng, states=8):
    """``states`` states with 2 choices each; every choice moves to the goal
    (state ``states``) and to 1-2 later states or the sink (``states + 1``),
    so every state but the sink is undecided in both directions."""
    choices = []
    for s in range(states):
        group = []
        for _ in range(2):
            later = rng.choice(np.append(np.arange(s + 1, states), states + 1), size=2)
            targets = sorted({states, *later.tolist()})
            weights = rng.random(len(targets)) + 0.1
            group.append(dict(zip(targets, (weights / weights.sum()).tolist())))
        choices.append(group)
    choices += [[{states: 1.0}], [{states + 1: 1.0}]]
    return sr.validate_model(choices, labels={"init": [0], "goal": [states]})


@pytest.mark.usefixtures("per_component")
@pytest.mark.parametrize("direction", [sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE])
def test_topological_acyclic_mdp_takes_one_sweep_per_state(direction):
    rng = np.random.default_rng(31)
    epsilon = 1e-10
    for _ in range(10):
        model, part = prepared(acyclic_mdp(rng), direction)
        res = sr.topological_solve(
            model, part,
            sr.SolverConfig(direction=direction, epsilon=epsilon, topological=True),
        )
        want = oracle_solve(model, part, direction=direction)[model.initial_state]
        assert np.count_nonzero(part.maybe) == 8
        # the components after the initial state's cannot be reached from it
        assert res.iterations == np.count_nonzero(reachable(model) & part.maybe)
        assert res.upper - res.lower < 2 * epsilon
        assert res.lower - 1e-12 <= want <= res.upper + 1e-12


def reachable(model):
    """The states reachable from the initial state."""
    seen = np.zeros(model.num_states, dtype=bool)
    frontier = [model.initial_state]
    while frontier:
        s = frontier.pop()
        if not seen[s]:
            seen[s] = True
            entries = slice(
                model.choice_start[model.row_group_start[s]],
                model.choice_start[model.row_group_start[s + 1]],
            )
            frontier.extend(model.entry_target[entries].tolist())
    return seen


def cycle_chain(cycles=6, size=3, seed=7):
    """``cycles`` cycles of ``size`` states, 2 choices each: each choice moves
    on along its cycle with probability 0.85-0.95 and otherwise leaves, mostly
    to the next cycle's first state (the goal after the last cycle), the
    rest to a sink."""
    rng = np.random.default_rng(seed)
    n = cycles * size
    goal, sink = n, n + 1
    choices = []
    for c in range(cycles):
        exit_state = (c + 1) * size if c + 1 < cycles else goal
        for i in range(size):
            group = []
            for _ in range(2):
                stay = rng.uniform(0.85, 0.95)
                leave = 1.0 - stay
                to_exit = leave * rng.uniform(0.9, 1.0)
                group.append(
                    {c * size + (i + 1) % size: stay, exit_state: to_exit, sink: leave - to_exit}
                )
            choices.append(group)
    choices += [[{goal: 1.0}], [{sink: 1.0}]]
    return sr.validate_model(choices, labels={"init": [0], "goal": [goal]})


@pytest.mark.usefixtures("per_component")
@pytest.mark.parametrize(
    "direction,sweeps", [(sr.Direction.MAXIMIZE, 704), (sr.Direction.MINIMIZE, 727)]
)
def test_topological_cycle_chain_sweeps(direction, sweeps):
    # the summed sweep counts pin the per-component stopping rule and start
    # bounds
    epsilon = 1e-6
    model = cycle_chain()
    topo = sr.solve(
        model, "goal", sr.SolverConfig(direction=direction, epsilon=epsilon, topological=True)
    )
    flat = sr.solve(model, "goal", sr.SolverConfig(direction=direction, epsilon=epsilon))
    assert topo.iterations == sweeps
    # each value is within epsilon of the true one, so of each other within 2 * epsilon
    assert abs(topo.value - flat.value) < 2 * epsilon
    assert max(topo.lower, flat.lower) <= min(topo.upper, flat.upper)


@pytest.mark.parametrize(
    "direction,sweeps", [(sr.Direction.MAXIMIZE, 229), (sr.Direction.MINIMIZE, 238)]
)
def test_topological_cycle_chain_block_sweeps(direction, sweeps):
    # the chain's 108 kept entries make one block, which is the flat solve
    epsilon = 1e-6
    model = cycle_chain()
    config = sr.SolverConfig(direction=direction, epsilon=epsilon, record_trace=True)
    topo = sr.solve(model, "goal", dataclasses.replace(config, topological=True))
    flat = sr.solve(model, "goal", config)
    assert topo.iterations == sweeps
    assert len(topo.trace) == sweeps  # one row per sweep
    assert topo.upper - topo.lower < 2 * epsilon
    assert (topo.value, topo.lower, topo.upper, topo.trace) == (
        flat.value, flat.lower, flat.upper, flat.trace
    )


def test_topological_large_components_are_their_own_blocks(monkeypatch):
    # 400 states of 2 choices and 3 entries each: every cycle holds 2,400
    # kept entries, at least the threshold, so blocking changes nothing
    model = cycle_chain(cycles=3, size=400, seed=11)
    config = sr.SolverConfig(epsilon=1e-8, topological=True, record_trace=True)
    blocked = sr.solve(model, "goal", config)
    monkeypatch.setattr(variants, "_BLOCK_ENTRIES", 1)
    single = sr.solve(model, "goal", config)
    assert len(blocked.trace) == blocked.iterations
    assert (blocked.value, blocked.lower, blocked.upper, blocked.iterations) == (
        single.value, single.lower, single.upper, single.iterations
    )
    assert blocked.trace == single.trace


def test_topological_refuses_a_hook(two_route_mdp):
    model, part = prepared(two_route_mdp)
    calls = []

    def hook(state, previous):
        calls.append(state.k)

    sr.svi_solve(model, part, sr.SolverConfig(), hook)
    assert len(calls) == 16
    calls.clear()
    config = sr.SolverConfig(topological=True)
    with pytest.raises(sr.ConfigError, match="hook"):
        sr.svi_solve(model, part, config, hook)
    with pytest.raises(sr.ConfigError, match="hook"):
        sr.solve(two_route_mdp, "goal", config, hook)
    assert calls == []


@pytest.mark.usefixtures("per_component")
def test_topological_iteration_limit_carries_a_partial_result(two_route_mdp):
    model, part = prepared(two_route_mdp)
    config = sr.SolverConfig(topological=True, max_iterations=1)
    with pytest.raises(sr.IterationLimit) as caught:
        sr.topological_solve(model, part, config)
    partial = caught.value.partial
    # state 2 took the one sweep; the initial state's component never ran, so
    # the partial is x + y * [-inf, inf] with x = 0 and y = 1, clipped
    assert (partial.iterations, partial.sound) == (1, False)
    assert (partial.lower, partial.upper, partial.value) == (0.0, 1.0, 0.0)

    with pytest.raises(sr.IterationLimit) as caught:
        sr.topological_solve(model, part, dataclasses.replace(config, lower=0.2, upper=0.9))
    assert (caught.value.partial.lower, caught.value.partial.upper) == (0.2, 0.9)

    # starting at state 2, whose component is done after that sweep; the
    # components after it cannot be reached from it
    res = sr.topological_solve(dataclasses.replace(model, initial_state=2), part, config)
    assert res.lower == res.upper == res.value == pytest.approx(0.1, abs=1e-15)
    assert (res.iterations, res.sound) == (1, True)


@pytest.mark.usefixtures("per_component")
def test_topological_reward_iteration_limit_starts_unbounded():
    model = sr.validate_model(
        [[{0: 0.5, 1: 0.5}], [{2: 0.5, 1: 0.5}], [{2: 1.0}]],
        rewards=[[1.0], [1.0], [0.0]],
        labels={"init": [0], "goal": [2]},
    )
    part = sr.reward_partition(model, model.label_mask("goal"))
    config = sr.SolverConfig(objective=sr.Objective.REWARD, topological=True)
    assert sr.topological_solve(model, part, config).iterations == 2
    with pytest.raises(sr.IterationLimit) as caught:
        sr.topological_solve(model, part, dataclasses.replace(config, max_iterations=1))
    partial = caught.value.partial
    # state 1 is done after one sweep (its self-loop ratio is exact), state 0 never ran
    assert (partial.iterations, partial.sound) == (1, False)
    assert (partial.lower, partial.upper) == (-np.inf, np.inf)
    assert not math.isnan(partial.value)
