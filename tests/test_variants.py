"""Gauss-Seidel sweeps and the component-by-component solver."""

import numpy as np
import pytest

import soundreach as sr
from conftest import random_model

INF = float("inf")


def prepared(model, direction=sr.Direction.MAXIMIZE, objective=sr.Objective.PROBABILITY):
    goal = model.label_mask("goal")
    absorbed = sr.make_absorbing(model, goal)
    if objective is sr.Objective.REWARD:
        return absorbed, sr.reward_partition(absorbed, goal)
    return absorbed, sr.reach_partition(absorbed, goal, direction)


# ---------------------------------------------------------------------------
# state orderings
# ---------------------------------------------------------------------------


def test_identity_ordering():
    np.testing.assert_array_equal(sr.StateOrdering.identity(4).order, [0, 1, 2, 3])


def test_for_model_ordering_puts_successors_first(slow_chain):
    order = sr.StateOrdering.for_model(slow_chain).order
    assert sorted(order.tolist()) == [0, 1, 2, 3, 4]
    pos = {s: i for i, s in enumerate(order.tolist())}
    # the sinks feed nothing, so they come before the cycle that feeds them
    assert pos[3] < pos[0] and pos[4] < pos[0]


def test_for_model_ordering_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        model, _ = random_model(rng)
        order = sr.StateOrdering.for_model(model).order
        comp = sr.scc_order(model).component_of
        position = np.empty(model.num_states, dtype=np.int64)
        position[order] = np.arange(model.num_states)
        for choice in range(model.num_choices):
            s = int(model.choice_state()[choice])
            targets, _ = model.entries_of(choice)
            for t in targets.tolist():
                if comp[t] != comp[s]:
                    assert position[t] < position[s]


# ---------------------------------------------------------------------------
# Gauss-Seidel value sweeps
# ---------------------------------------------------------------------------


def test_sweep_values_uses_fresh_results(slow_chain):
    model, part = prepared(slow_chain)
    values = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    swept = sr.gauss_seidel_sweep_values(
        model, part, values, ordering=sr.StateOrdering.identity(5)
    )
    # ascending order: state 2 updates to 0.3 after 0 and 1 saw stale zeros
    np.testing.assert_allclose(swept, [0.0, 0.0, 0.3, 0.0, 1.0])
    swept2 = sr.gauss_seidel_sweep_values(
        model, part, swept, ordering=sr.StateOrdering.identity(5)
    )
    # now state 1 reads the fresh 0.3 of state 2 within the same sweep
    np.testing.assert_allclose(swept2[1], 0.003 + 0.99 * 0.0)
    np.testing.assert_allclose(swept2[2], 0.3 + 0.6 * 0.0)


def test_sweep_values_propagate_one_hop_per_sweep(slow_chain):
    model, part = prepared(slow_chain)
    ordering = sr.StateOrdering.for_model(model)
    v = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    v = sr.gauss_seidel_sweep_values(model, part, v, ordering=ordering)
    np.testing.assert_allclose(v, [0.0, 0.0, 0.3, 0.0, 1.0])
    v = sr.gauss_seidel_sweep_values(model, part, v, ordering=ordering)
    assert v[1] == pytest.approx(0.003)  # reads last sweep's 0.3
    v = sr.gauss_seidel_sweep_values(model, part, v, ordering=ordering)
    assert v[0] == pytest.approx(0.99 * 0.0 + 0.01 * 0.003, abs=1e-15)


def test_gs_sweep_returns_choices_and_decision(branching_mdp):
    model, part = prepared(branching_mdp)
    x = np.zeros(5)
    x[4] = 1.0
    y = np.zeros(5)
    y[part.maybe] = 1.0
    x2, y2, scheduler, decision = sr.gs_sweep(model, part, x, y, 1.0, -INF)
    assert x2.shape == (5,) and y2.shape == (5,)
    sizes = model.group_sizes()
    for s in np.flatnonzero(part.maybe):
        assert 0 <= scheduler[s] < sizes[s]
    assert decision == -INF or np.isfinite(decision)
    # mass is conserved state by state: decided plus undecided never exceeds 1
    assert np.all(x2[part.maybe] + y2[part.maybe] <= 1.0 + 1e-12)


# ---------------------------------------------------------------------------
# Gauss-Seidel certified runs
# ---------------------------------------------------------------------------


def test_gs_engine_golden_chain(slow_chain):
    model, part = prepared(slow_chain)
    res = sr.svi_solve(
        model, part, sr.SolverConfig(epsilon=1e-6, gauss_seidel=True)
    )
    assert res.sound
    assert res.value == pytest.approx(0.75, abs=1e-6)
    assert res.lower <= res.value <= res.upper + 1e-15


def test_gs_engine_two_route_min(two_route_mdp):
    model, part = prepared(two_route_mdp, sr.Direction.MINIMIZE)
    res = sr.svi_solve(
        model, part,
        sr.SolverConfig(
            direction=sr.Direction.MINIMIZE, epsilon=1e-8, gauss_seidel=True
        ),
    )
    assert res.value == pytest.approx(0.152, abs=1e-8)


def test_gs_engine_iteration_limit(slow_chain):
    model, part = prepared(slow_chain)
    with pytest.raises(sr.IterationLimit) as info:
        sr.svi_solve(
            model, part,
            sr.SolverConfig(epsilon=1e-12, gauss_seidel=True, max_iterations=1),
        )
    assert info.value.partial is not None
    assert info.value.partial.iterations == 1


@pytest.mark.parametrize(
    "name, direction",
    [
        ("slow_chain", sr.Direction.MAXIMIZE),
        ("branching_mdp", sr.Direction.MAXIMIZE),
        ("two_route_mdp", sr.Direction.MAXIMIZE),
        ("two_route_mdp", sr.Direction.MINIMIZE),
    ],
    ids=["slow_chain-max", "branching_mdp-max", "two_route_mdp-max", "two_route_mdp-min"],
)
def test_gs_engine_reports_every_sweep(request, name, direction):
    model, part = prepared(request.getfixturevalue(name), direction)
    seen = []
    res = sr.svi_solve(
        model, part,
        sr.SolverConfig(
            direction=direction, epsilon=1e-8, gauss_seidel=True, record_trace=True
        ),
        lambda state, previous: seen.append((state, previous)),
    )
    assert [state.k for state, _ in seen] == list(range(1, res.iterations + 1))
    assert len(res.trace) == res.iterations
    ordering = sr.StateOrdering.for_model(model)
    maybe = part.maybe_states
    sizes = model.group_sizes()
    for i, ((state, previous), row) in enumerate(zip(seen, res.trace)):
        assert previous.k == state.k - 1
        assert i == 0 or previous is seen[i - 1][0]
        assert (state.lower, state.upper, state.decision) == (
            row.lower, row.upper, row.decision,
        )
        assert state.y[model.initial_state] == row.y_init
        # the hook sees exactly one in-place sweep from the previous snapshot
        bound = previous.upper if direction is sr.Direction.MAXIMIZE else previous.lower
        x, y, scheduler, decision = sr.gs_sweep(
            model, part, previous.x, previous.y, bound, previous.decision,
            direction, ordering=ordering,
        )
        np.testing.assert_array_equal(state.x, x)
        np.testing.assert_array_equal(state.y, y)
        assert state.decision == decision
        if model.is_mc:
            assert state.scheduler is None
        else:
            np.testing.assert_array_equal(state.scheduler[maybe], scheduler[maybe])
            assert np.all(state.scheduler[maybe] < sizes[maybe])


def test_gs_engine_matches_oracle_randomized():
    rng = np.random.default_rng(77)
    for _ in range(30):
        model, goal = random_model(rng)
        res = sr.solve(
            model, goal, sr.SolverConfig(epsilon=1e-8, gauss_seidel=True)
        )
        absorbed = sr.make_absorbing(model, goal)
        part = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
        quotient = sr.collapse_end_components(absorbed, part)
        oracle = sr.oracle_solve(quotient.model, quotient.partition)
        want = oracle[quotient.state_map[model.initial_state]]
        assert res.value == pytest.approx(want, abs=1e-8)


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


@pytest.mark.parametrize("gauss_seidel", [False, True], ids=["synchronous", "gauss-seidel"])
def test_topological_matches_oracle_randomized(gauss_seidel):
    rng = np.random.default_rng(123)
    for _ in range(30):
        model, goal = random_model(rng)
        res = sr.solve(
            model, goal,
            sr.SolverConfig(epsilon=1e-8, topological=True, gauss_seidel=gauss_seidel),
        )
        absorbed = sr.make_absorbing(model, goal)
        part = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
        quotient = sr.collapse_end_components(absorbed, part)
        oracle = sr.oracle_solve(quotient.model, quotient.partition)
        want = oracle[quotient.state_map[model.initial_state]]
        assert res.value == pytest.approx(want, abs=1e-8)
        assert res.lower - 1e-12 <= want <= res.upper + 1e-12


def test_topological_gauss_seidel_combination(two_route_mdp):
    model, part = prepared(two_route_mdp)
    res = sr.topological_solve(
        model, part,
        sr.SolverConfig(epsilon=1e-8, topological=True, gauss_seidel=True),
    )
    assert res.value == pytest.approx(0.5, abs=1e-8)
