"""The component-by-component solver."""

import dataclasses

import numpy as np
import pytest

import soundreach as sr
from conftest import random_model
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
    assert topo.iterations == plain.iterations
    assert topo.value == pytest.approx(plain.value, abs=1e-12)
    assert topo.lower == pytest.approx(plain.lower, abs=1e-12)
    assert topo.upper == pytest.approx(plain.upper, abs=1e-12)


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
            oracle = sr.oracle_solve(quotient.model, quotient.partition)
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
        want = sr.oracle_solve(model, part, direction=direction)[model.initial_state]
        assert np.count_nonzero(part.maybe) == 8
        assert res.iterations == 8
        assert res.upper - res.lower < 2 * epsilon
        assert res.lower - 1e-12 <= want <= res.upper + 1e-12


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
    "direction,sweeps", [(sr.Direction.MAXIMIZE, 804), (sr.Direction.MINIMIZE, 728)]
)
def test_topological_cycle_chain_sweeps(direction, sweeps):
    # the summed sweep counts pin the per-component stopping rule
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
    "direction,sweeps", [(sr.Direction.MAXIMIZE, 253), (sr.Direction.MINIMIZE, 238)]
)
def test_topological_cycle_chain_block_sweeps(direction, sweeps):
    # the chain's 108 kept entries make one block, which sweeps about as
    # often as the flat solve (229 and 238 sweeps)
    epsilon = 1e-6
    model = cycle_chain()
    config = sr.SolverConfig(direction=direction, epsilon=epsilon, topological=True)
    topo = sr.solve(model, "goal", dataclasses.replace(config, record_trace=True))
    flat = sr.solve(model, "goal", sr.SolverConfig(direction=direction, epsilon=epsilon))
    assert topo.iterations == sweeps
    assert len(topo.trace) == 1  # one row per block
    assert topo.upper - topo.lower < 2 * epsilon
    assert abs(topo.value - flat.value) < 2 * epsilon
    assert max(topo.lower, flat.lower) <= min(topo.upper, flat.upper)


def test_topological_large_components_are_their_own_blocks(monkeypatch):
    # 400 states of 2 choices and 3 entries each: every cycle holds 2,400
    # kept entries, at least the threshold, so blocking changes nothing
    model = cycle_chain(cycles=3, size=400, seed=11)
    config = sr.SolverConfig(epsilon=1e-8, topological=True, record_trace=True)
    blocked = sr.solve(model, "goal", config)
    monkeypatch.setattr(variants, "_BLOCK_ENTRIES", 1)
    single = sr.solve(model, "goal", config)
    assert len(blocked.trace) == 3
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
    # state 2 took the one sweep; the initial state's component never ran
    assert (partial.iterations, partial.sound) == (1, False)
    assert (partial.lower, partial.upper, partial.value) == (0.0, 1.0, 0.5)

    with pytest.raises(sr.IterationLimit) as caught:
        sr.topological_solve(model, part, dataclasses.replace(config, lower=0.2, upper=0.9))
    assert (caught.value.partial.lower, caught.value.partial.upper) == (0.2, 0.9)

    # starting at state 2, whose component is done after that sweep
    with pytest.raises(sr.IterationLimit) as caught:
        sr.topological_solve(dataclasses.replace(model, initial_state=2), part, config)
    partial = caught.value.partial
    assert partial.lower == partial.upper == partial.value == pytest.approx(0.1, abs=1e-15)
    assert not partial.sound


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
