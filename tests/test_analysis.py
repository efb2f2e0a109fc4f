"""Graph preprocessing: sure-zero states, SCCs, end components, collapsing."""

import numpy as np
import pytest

import soundreach as sr
from conftest import random_model


def goal_mask(model, *states):
    mask = np.zeros(model.num_states, dtype=bool)
    mask[list(states)] = True
    return mask


# ---------------------------------------------------------------------------
# sure-zero state analysis
# ---------------------------------------------------------------------------


def test_prob0_max_two_route(two_route_mdp):
    zero = sr.prob0_max(two_route_mdp, goal_mask(two_route_mdp, 3, 4))
    np.testing.assert_array_equal(np.flatnonzero(zero), [5, 6])


def test_prob0_min_two_route(two_route_mdp):
    # both routes from the start can be forced through states that still
    # reach the goal, so only the two dead sinks have minimal value zero
    zero = sr.prob0_min(two_route_mdp, goal_mask(two_route_mdp, 3, 4))
    np.testing.assert_array_equal(np.flatnonzero(zero), [5, 6])


def test_prob0_min_can_dodge():
    # with one choice to the goal and one to a sink, a minimizing scheduler
    # avoids the goal entirely; a maximizing one reaches it surely
    m = sr.validate_model(
        [
            [{1: 1.0}, {2: 1.0}],
            [{1: 1.0}],
            [{2: 1.0}],
        ]
    )
    goal = goal_mask(m, 1)
    assert not sr.prob0_max(m, goal)[0]
    assert sr.prob0_min(m, goal)[0]


def test_prob0_agree_on_chains(slow_chain):
    goal = goal_mask(slow_chain, 4)
    np.testing.assert_array_equal(
        sr.prob0_max(slow_chain, goal), sr.prob0_min(slow_chain, goal)
    )
    np.testing.assert_array_equal(
        np.flatnonzero(sr.prob0_max(slow_chain, goal)), [3]
    )


def test_prob0_random_models_agree_with_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        model, goal = random_model(rng)
        absorbed = sr.make_absorbing(model, goal)
        for direction, fn in [
            (sr.Direction.MAXIMIZE, sr.prob0_max),
            (sr.Direction.MINIMIZE, sr.prob0_min),
        ]:
            partition = sr.reach_partition(absorbed, goal, direction)
            values = sr.oracle_solve(
                absorbed, partition, sr.Objective.PROBABILITY, direction
            )
            np.testing.assert_array_equal(fn(absorbed, goal), values == 0.0)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_reach_partition_direction_matters():
    m = sr.validate_model(
        [[{1: 1.0}, {2: 1.0}], [{1: 1.0}], [{2: 1.0}]]
    )
    goal = goal_mask(m, 1)
    p_max = sr.reach_partition(m, goal, sr.Direction.MAXIMIZE)
    p_min = sr.reach_partition(m, goal, sr.Direction.MINIMIZE)
    assert not p_max.s0[0] and p_min.s0[0]
    np.testing.assert_array_equal(p_max.goal, goal)
    np.testing.assert_array_equal(p_min.goal, goal)


def test_reward_partition_has_no_sure_zero_block(slow_chain):
    p = sr.reward_partition(slow_chain, goal_mask(slow_chain, 4))
    assert not p.s0.any()
    np.testing.assert_array_equal(p.maybe, ~p.goal)


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


def test_scc_order_slow_chain(slow_chain):
    order = sr.scc_order(slow_chain)
    comps = [sorted(c.tolist()) for c in order.components]
    assert [0, 1, 2] in comps
    assert [3] in comps and [4] in comps
    # sinks come before the component that feeds them
    assert comps.index([3]) < comps.index([0, 1, 2])
    assert comps.index([4]) < comps.index([0, 1, 2])
    for i, comp in enumerate(order.components):
        assert all(order.component_of[s] == i for s in comp)


def test_scc_order_is_successors_first():
    rng = np.random.default_rng(11)
    for _ in range(30):
        model, _ = random_model(rng)
        order = sr.scc_order(model)
        for choice in range(model.num_choices):
            s = int(model.choice_state()[choice])
            targets, _ = model.entries_of(choice)
            for t in targets:
                assert order.component_of[t] <= order.component_of[s]


def test_scc_order_covers_every_state():
    rng = np.random.default_rng(12)
    model, _ = random_model(rng)
    order = sr.scc_order(model)
    seen = np.concatenate([c for c in order.components])
    assert sorted(seen.tolist()) == list(range(model.num_states))


def test_scc_handles_long_cycle():
    # a single 60-state ring must come out as one component, without
    # recursion limits getting in the way
    n = 60
    m = sr.validate_model([[{(s + 1) % n: 1.0}] for s in range(n)])
    order = sr.scc_order(m)
    assert len(order.components) == 1
    assert len(order.components[0]) == n


# ---------------------------------------------------------------------------
# end components
# ---------------------------------------------------------------------------


def two_state_loop_with_exit():
    # states 0 and 1 can circulate forever; state 0 can also bail out to 2
    return sr.validate_model(
        [
            [{1: 1.0}, {2: 1.0}],
            [{0: 1.0}],
            [{2: 1.0}],
        ]
    )


def test_mec_decompose_finds_loop():
    m = two_state_loop_with_exit()
    dec = sr.mec_decompose(m)
    found = {tuple(sorted(mec.states.tolist())) for mec in dec.mecs}
    assert (0, 1) in found
    assert (2,) in found
    loop = dec.mecs[dec.mec_of[0]]
    # the bail-out choice of state 0 leaves the component, so it is dropped
    assert 1 not in loop.choices.tolist()
    assert dec.mec_of[0] == dec.mec_of[1] != dec.mec_of[2]


def test_mec_decompose_sinks_only(two_route_mdp):
    dec = sr.mec_decompose(two_route_mdp)
    found = {tuple(mec.states.tolist()) for mec in dec.mecs}
    assert found == {(3,), (4,), (5,), (6,)}
    assert all(dec.mec_of[s] == -1 for s in (0, 1, 2))


def test_mec_decompose_restricted():
    m = two_state_loop_with_exit()
    restrict = np.array([True, False, True])
    dec = sr.mec_decompose(m, restrict)
    found = {tuple(mec.states.tolist()) for mec in dec.mecs}
    assert found == {(2,)}  # the loop is cut once state 1 is out of bounds


def test_check_contracting(slow_chain):
    assert sr.check_contracting(slow_chain, goal_mask(slow_chain, 3, 4))
    # leaving the losing sink out keeps a loop alive outside the target
    assert not sr.check_contracting(slow_chain, goal_mask(slow_chain, 4))


# ---------------------------------------------------------------------------
# collapsing end components
# ---------------------------------------------------------------------------


def test_collapse_identity_when_contracting(two_route_mdp):
    goal = goal_mask(two_route_mdp, 3, 4)
    absorbed = sr.make_absorbing(two_route_mdp, goal)
    partition = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
    quotient = sr.collapse_end_components(absorbed, partition)
    assert quotient.is_identity
    assert quotient.model == absorbed


def test_collapse_merges_loop_and_preserves_values():
    # 0 <-> 1 circulate; 0 may exit to the goal 2, 1 may exit to the sink 3
    m = sr.validate_model(
        [
            [{1: 1.0}, {2: 0.5, 3: 0.5}],
            [{0: 1.0}, {3: 1.0}],
            [{2: 1.0}],
            [{3: 1.0}],
        ],
        labels={"init": [0], "goal": [2]},
    )
    goal = goal_mask(m, 2)
    partition = sr.reach_partition(m, goal, sr.Direction.MAXIMIZE)
    quotient = sr.collapse_end_components(m, partition)
    assert not quotient.is_identity
    assert quotient.state_map[0] == quotient.state_map[1]
    assert quotient.model.num_states == 3

    original = sr.oracle_solve(
        m, partition, sr.Objective.PROBABILITY, sr.Direction.MAXIMIZE
    )
    collapsed = sr.oracle_solve(
        quotient.model,
        quotient.partition,
        sr.Objective.PROBABILITY,
        sr.Direction.MAXIMIZE,
    )
    for s in range(m.num_states):
        assert collapsed[quotient.state_map[s]] == pytest.approx(original[s], abs=1e-12)


def test_collapse_sums_merged_targets_in_the_quotient():
    # 0 <-> 1 is an end component; state 2 enters it through both members
    m = sr.validate_model(
        [[{1: 1.0}, {3: 1.0}], [{0: 1.0}], [{0: 0.3, 1: 0.3, 3: 0.4}], [{3: 1.0}]]
    )
    goal = goal_mask(m, 3)
    absorbed = sr.make_absorbing(m, goal)
    partition = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
    quotient = sr.collapse_end_components(absorbed, partition)
    np.testing.assert_array_equal(quotient.state_map, [0, 0, 1, 2])
    (exit_choice,) = quotient.model.choices_of(0)  # the internal loop is dropped
    np.testing.assert_array_equal(quotient.model.entries_of(exit_choice)[0], [2])
    (choice,) = quotient.model.choices_of(1)
    targets, probs = quotient.model.entries_of(choice)
    assert targets.tolist() == [0, 2]
    assert probs.tolist() == [0.6, 0.4]


def test_collapse_component_without_exit_is_an_empty_row_group():
    m = sr.validate_model([[{1: 1.0}], [{0: 1.0}], [{2: 1.0}]])
    goal = goal_mask(m, 2)
    with pytest.raises(sr.EmptyRowGroup):
        sr.collapse_end_components(m, sr.reward_partition(m, goal))


def test_collapse_rejects_goal_inside_component():
    m = two_state_loop_with_exit()
    partition = sr.Partition(
        s0=np.array([False, False, False]),
        goal=np.array([False, True, False]),
        maybe=np.array([True, False, True]),
    )
    with pytest.raises(sr.MecContainsGoal):
        sr.collapse_end_components(m, partition)


def test_collapse_random_models_preserve_oracle():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(60):
        model, goal = random_model(rng)
        absorbed = sr.make_absorbing(model, goal)
        partition = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
        quotient = sr.collapse_end_components(absorbed, partition)
        if quotient.is_identity:
            continue
        checked += 1
        original = sr.oracle_solve(
            absorbed, partition, sr.Objective.PROBABILITY, sr.Direction.MAXIMIZE
        )
        collapsed = sr.oracle_solve(
            quotient.model,
            quotient.partition,
            sr.Objective.PROBABILITY,
            sr.Direction.MAXIMIZE,
        )
        np.testing.assert_allclose(
            collapsed[quotient.state_map], original, atol=1e-10
        )
    assert checked > 0  # the generator must exercise the non-trivial path
