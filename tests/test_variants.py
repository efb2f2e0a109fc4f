"""The component-by-component solver."""

import numpy as np
import pytest

import soundreach as sr
from conftest import random_model


def prepared(model, direction=sr.Direction.MAXIMIZE, objective=sr.Objective.PROBABILITY):
    goal = model.label_mask("goal")
    absorbed = sr.make_absorbing(model, goal)
    if objective is sr.Objective.REWARD:
        return absorbed, sr.reward_partition(absorbed, goal)
    return absorbed, sr.reach_partition(absorbed, goal, direction)


# ---------------------------------------------------------------------------
# component-by-component solving
# ---------------------------------------------------------------------------


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


def test_topological_matches_oracle_randomized():
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
