"""Core iteration machinery: step operators, action selection, certified
bounds, the solver engines, and the brute-force oracle."""

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import soundreach as sr
from conftest import _prepare, random_model
from soundreach.solvers import _Kernels, neutral_decision

INF = float("inf")


def prepared(model, direction=sr.Direction.MAXIMIZE, objective=sr.Objective.PROBABILITY):
    goal = model.label_mask("goal")
    absorbed = sr.make_absorbing(model, goal)
    if objective is sr.Objective.REWARD:
        return absorbed, sr.reward_partition(absorbed, goal)
    return absorbed, sr.reach_partition(absorbed, goal, direction)


# ---------------------------------------------------------------------------
# one-step operators
# ---------------------------------------------------------------------------


def test_bellman_f_pins_and_propagates(slow_chain):
    model, part = prepared(slow_chain)
    x0 = np.zeros(5)
    x1 = sr.bellman_step_f(model, part, x0)
    np.testing.assert_allclose(x1, [0, 0, 0, 0, 1])
    x2 = sr.bellman_step_f(model, part, x1)
    # state 2 now sees the goal through its 0.3 edge; the sure-loser stays 0
    np.testing.assert_allclose(x2, [0, 0, 0.3, 0, 1])
    x3 = sr.bellman_step_f(model, part, x2)
    np.testing.assert_allclose(x3, [0, 0.003, 0.3, 0, 1])


def test_bellman_f_direction(branching_mdp):
    model, part = prepared(branching_mdp)
    x = np.array([0.0, 0.0, 0.3, 0.0, 1.0])
    up = sr.bellman_step_f(model, part, x)
    down = sr.bellman_step_f(model, part, x, sr.Direction.MINIMIZE)
    # state 0: keep-trying yields 0, jumping yields 0.24
    assert up[0] == pytest.approx(0.24)
    assert down[0] == pytest.approx(0.0)


def test_bellman_g_adds_reward():
    model = sr.validate_model(
        [[{0: 0.5, 1: 0.5}], [{1: 1.0}]],
        rewards=[[1.0], [0.0]],
        labels={"init": [0], "goal": [1]},
    )
    part = sr.reward_partition(model, model.label_mask("goal"))
    g0 = sr.bellman_step_g(model, part, np.zeros(2))
    np.testing.assert_allclose(g0, [1.0, 0.0])
    g1 = sr.bellman_step_g(model, part, g0)
    np.testing.assert_allclose(g1, [1.5, 0.0])


def test_bellman_h_shrinks_undecided_mass(slow_chain):
    model, part = prepared(slow_chain)
    y = np.zeros(5)
    y[part.maybe] = 1.0
    y1 = sr.bellman_step_h(model, part, y)
    np.testing.assert_allclose(y1, [1.0, 1.0, 0.6, 0.0, 0.0])
    y2 = sr.bellman_step_h(model, part, y1)
    np.testing.assert_allclose(y2, [1.0, 0.996, 0.6, 0.0, 0.0])


def test_bellman_h_needs_scheduler_on_mdp(branching_mdp):
    model, part = prepared(branching_mdp)
    y = np.zeros(5)
    y[part.maybe] = 1.0
    with pytest.raises(sr.ConfigError):
        sr.bellman_step_h(model, part, y)
    picked = sr.bellman_step_h(model, part, y, scheduler=np.array([1, 0, 0, 0, 0]))
    np.testing.assert_allclose(picked, [0.8, 1.0, 0.6, 0.0, 0.0])


def test_bellman_steps_with_nothing_undecided():
    # state 0 is a sure loser, state 1 the goal: the steps only pin values
    model = sr.validate_model(
        [[{0: 1.0}], [{1: 1.0}]],
        rewards=[[3.0], [0.0]],
        labels={"init": [0], "goal": [1]},
    )
    model, part = prepared(model)
    assert not part.maybe.any()
    x = np.array([0.3, 0.7])
    np.testing.assert_array_equal(sr.bellman_step_f(model, part, x), [0.0, 1.0])
    np.testing.assert_array_equal(sr.bellman_step_g(model, part, x), [0.0, 0.0])
    np.testing.assert_array_equal(sr.bellman_step_h(model, part, x), [0.0, 0.0])


def out_of_range_mdp():
    model = sr.validate_model(
        [[{1: 0.5, 2: 0.5}, {0: 0.5, 1: 0.5}], [{0: 0.9, 2: 0.1}], [{2: 1.0}]],
        labels={"init": [0], "goal": [2]},
    )
    return prepared(model)


def test_bellman_h_rejects_choices_a_state_lacks():
    model, part = out_of_range_mdp()
    y = np.array([1.0, 1.0, 0.0])
    np.testing.assert_array_equal(
        sr.bellman_step_h(model, part, y, scheduler=[1, 0, 0]), [1.0, 0.9, 0.0]
    )
    # state 0 has two choices, so choice 2 would read state 1's row
    for scheduler in ([2, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0]):
        with pytest.raises(sr.InvalidChoiceIndex):
            sr.bellman_step_h(model, part, y, scheduler=scheduler)


def test_one_state_views_reject_indices_out_of_range():
    model, part = out_of_range_mdp()
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1.0, 1.0, 0.0])
    # chosen (0, 1) against (0.5, 0.5): the lines cross at bound 1
    assert sr.decision_value(model, x, y, 0, 1) == 1.0
    for chosen in (2, -1):
        with pytest.raises(sr.InvalidChoiceIndex):
            sr.decision_value(model, x, y, 0, chosen)
    with pytest.raises(sr.InvalidChoiceIndex):
        sr.decision_value(model, x, y, 1, 1)
    for state in (3, -1):
        with pytest.raises(sr.InvalidChoiceIndex):
            sr.find_action(model, x, y, state, 1.0)
        with pytest.raises(sr.InvalidChoiceIndex):
            sr.decision_value(model, x, y, state, 0)


# ---------------------------------------------------------------------------
# action selection and the decision value
# ---------------------------------------------------------------------------


def test_find_action_weighs_bound(branching_mdp):
    model, part = prepared(branching_mdp)
    x = np.array([0.0, 0.0, 0.3, 0.0, 1.0])
    y = np.array([1.0, 1.0, 0.6, 0.0, 0.0])
    # low bound: undecided mass is worth little, the immediate jump wins;
    # high bound: keeping mass in play wins
    assert sr.find_action(model, x, y, 0, 0.0) == 1
    assert sr.find_action(model, x, y, 0, 1.0) == 0


def test_find_action_breaks_ties_low():
    model = sr.validate_model(
        [[{1: 0.5, 2: 0.5}, {1: 0.5, 2: 0.5}], [{1: 1.0}], [{2: 1.0}]],
        labels={"init": [0], "goal": [1]},
    )
    model, part = prepared(model)
    x = np.array([0.0, 1.0, 0.0])
    y = np.array([1.0, 0.0, 0.0])
    assert sr.find_action(model, x, y, 0, 0.7) == 0


# State 0 has two choices tied at the start bound, the lower-indexed one with
# more undecided mass, plus a third that is worse there but would overtake at
# a bound of 0.5.  State 1 stays undecided, 2 is a sure loser, 3 the goal.
TIE_CASES = {
    "max at upper 1": (
        sr.Direction.MAXIMIZE,
        1.0,
        [{0: 0.5, 3: 0.5}, {1: 0.2, 3: 0.8}, {2: 0.1, 3: 0.9}],
    ),
    "min at lower 0": (
        sr.Direction.MINIMIZE,
        0.0,
        [{0: 0.5, 3: 0.5}, {1: 0.2, 2: 0.3, 3: 0.5}, {2: 0.4, 3: 0.6}],
    ),
}


@pytest.mark.parametrize("case", sorted(TIE_CASES))
def test_score_ties_go_to_smaller_undecided_mass(case):
    direction, bound, group = TIE_CASES[case]
    model = sr.validate_model(
        [group, [{1: 0.5, 2: 0.25, 3: 0.25}], [{2: 1.0}], [{3: 1.0}]],
        labels={"init": [0], "goal": [3]},
    )
    model, part = prepared(model, direction)
    kern = _Kernels(model, part, sr.Objective.PROBABILITY, direction)
    assert kern.live[0] == 0  # state 0's choices are the kernel's first three
    cx, cy = kern.choice_x(kern.x_start), kern.choice_y(kern.y_start)
    scores = (cx + bound * cy)[:3]
    assert scores[0] == scores[1] and cy[0] > cy[1]  # an exact tie

    x, y = kern.to_model(kern.x_start), kern.to_model(kern.y_start)
    picked = sr.find_action(model, x, y, 0, bound, direction)
    chosen, decision = kern.coupled_step(
        kern.x_start.copy(), kern.y_start.copy(), bound, neutral_decision(direction)
    )
    assert picked == chosen[0] == 1
    # the tied choice adds no crossing point, so the decision value comes
    # from the third choice alone and leaves the start bound free to move
    assert decision == sr.decision_value(model, x, y, 0, picked, direction)
    assert decision == pytest.approx(0.5, abs=1e-15)
    assert 0.0 < decision < 1.0


def test_find_action_unbounded_prefers_survival(branching_mdp):
    model, part = prepared(branching_mdp)
    x = np.array([0.0, 0.0, 0.3, 0.0, 1.0])
    y = np.array([1.0, 1.0, 0.6, 0.0, 0.0])
    # with no finite bound the undecided mass dominates lexicographically:
    # retrying keeps weight 1.0 in play versus 0.48 for the jump.  The same
    # tilt applies when minimizing — there the implicit weight is -inf, so a
    # larger undecided share again wins the comparison
    assert sr.find_action(model, x, y, 0, INF) == 0
    assert sr.find_action(model, x, y, 0, -INF, sr.Direction.MINIMIZE) == 0


def test_find_action_unbounded_secondary_component():
    # equal y on both choices: the tie moves to the decided part x
    model = sr.validate_model(
        [
            [{1: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}],
            [{1: 1.0}],
            [{2: 1.0}],
            [{3: 1.0}],
        ],
        labels={"init": [0], "goal": [1]},
    )
    goal = model.label_mask("goal")
    model = sr.make_absorbing(model, goal)
    x = np.array([0.0, 1.0, 0.4, 0.0])
    y = np.array([1.0, 0.0, 0.0, 0.0])
    assert sr.find_action(model, x, y, 0, INF) == 0
    assert sr.find_action(model, x, y, 0, INF, sr.Direction.MINIMIZE) == 1


def test_find_action_reward_counts_immediate_gain():
    model = sr.validate_model(
        [[{1: 1.0}, {1: 1.0}], [{1: 1.0}]],
        rewards=[[0.0, 5.0], [0.0]],
        labels={"init": [0], "goal": [1]},
    )
    x = np.array([0.0, 0.0])
    y = np.array([0.0, 0.0])
    picked = sr.find_action(
        model, x, y, 0, 0.0, sr.Direction.MAXIMIZE, sr.Objective.REWARD
    )
    assert picked == 1
    picked_min = sr.find_action(
        model, x, y, 0, 0.0, sr.Direction.MINIMIZE, sr.Objective.REWARD
    )
    assert picked_min == 0


def test_decision_value_hand_computed(branching_mdp):
    model, part = prepared(branching_mdp)
    x = np.array([0.0, 0.0, 0.3, 0.0, 1.0])
    y = np.array([1.0, 1.0, 0.6, 0.0, 0.0])
    # chosen: retry (X=0, Y=1); alternative: jump (X=0.24, Y=0.48)
    # the alternative overtakes once the bound drops to 0.24/0.52
    d = sr.decision_value(model, x, y, 0, 0)
    assert d == pytest.approx(0.24 / 0.52, abs=1e-15)


def test_decision_value_no_eligible_alternative(branching_mdp):
    model, part = prepared(branching_mdp)
    x = np.array([0.0, 0.0, 0.3, 0.0, 1.0])
    y = np.array([1.0, 1.0, 0.6, 0.0, 0.0])
    # chosen: jump (lower y) -> the retry alternative has larger y, so no
    # smaller bound can make the chosen one look worse
    assert sr.decision_value(model, x, y, 0, 1) == -INF
    assert (
        sr.decision_value(model, x, y, 0, 1, sr.Direction.MINIMIZE) == INF
    )


def test_decision_value_neutral_on_single_choice(slow_chain):
    model, part = prepared(slow_chain)
    x = np.zeros(5)
    y = np.zeros(5)
    assert sr.decision_value(model, x, y, 0, 0) == -INF


def test_find_action_and_decision_value_follow_the_loop():
    # Replays every sweep of certified runs on random MDPs.  The hook sees
    # each sweep once, paired with the one before, and agrees with the trace.
    # At each undecided state, the public one-state functions applied to the
    # previous snapshot must name the choice the loop took, and the state's
    # decision value must be no looser than the one the loop folded.  A copy
    # of the rule that sums a row in another order breaks both by a rounding
    # step now and then.
    rng = np.random.default_rng(4242)
    visits = 0
    for _ in range(60):
        model, goal = random_model(rng, force_mdp=True)
        for direction in (sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE):
            model_d, part = _prepare(model, goal, sr.Objective.PROBABILITY, direction)
            if model_d.is_mc:  # the collapse left one choice per state
                continue
            maximize = direction is sr.Direction.MAXIMIZE
            for lower, upper in ((None, None), (0.0, 1.0)):
                seen = []
                config = sr.SolverConfig(
                    direction=direction, epsilon=1e-8, lower=lower, upper=upper,
                    max_iterations=1000, record_trace=True,
                )
                try:
                    result = sr.svi_solve(
                        model_d, part, config, lambda s, p: seen.append((s, p))
                    )
                except sr.IterationLimit as exc:
                    result = exc.partial
                assert len(result.trace) == len(seen) == result.iterations
                for (state, previous), row in zip(seen, result.trace):
                    assert state.k == row.k == previous.k + 1
                    assert (state.lower, state.upper, state.decision) == (
                        row.lower, row.upper, row.decision,
                    )
                    assert state.y[model_d.initial_state] == row.y_init
                for state, previous in seen:
                    bound = previous.upper if maximize else previous.lower
                    for s in part.maybe_states.tolist():
                        visits += 1
                        picked = sr.find_action(
                            model_d, previous.x, previous.y, s, bound, direction
                        )
                        assert picked == state.scheduler[s], (state.k, s)
                        d = sr.decision_value(
                            model_d, previous.x, previous.y, s, picked, direction
                        )
                        looser = d > state.decision if maximize else d < state.decision
                        assert not looser, (state.k, s, d, state.decision)
    assert visits > 1000


# ---------------------------------------------------------------------------
# column selection against per-state reductions
# ---------------------------------------------------------------------------

# References: the per-state ``reduceat`` selection, state optimum and
# decision-value fold the column loops replaced.  Picks, optima (signed
# zeros included) and decision values must come out identical.


def reference_argopt(kern, choice_vals, choice_y):
    cuts, sizes = kern.group_cuts, kern.group_sizes
    arange = np.arange(kern.num_choices)
    reduce = np.maximum if kern.maximize else np.minimum
    best = reduce.reduceat(choice_vals, cuts)
    tied = choice_vals == np.repeat(best, sizes)
    if np.count_nonzero(tied) > len(cuts):
        masked = np.where(tied, choice_y, np.inf)
        y_best = np.minimum.reduceat(masked, cuts)
        tied &= masked == np.repeat(y_best, sizes)
    return np.minimum.reduceat(np.where(tied, arange, kern.num_choices), cuts)


def reference_argopt_unbounded(kern, choice_x, choice_y):
    cuts, sizes = kern.group_cuts, kern.group_sizes
    arange = np.arange(kern.num_choices)
    y_best = np.maximum.reduceat(choice_y, cuts)
    y_tied = choice_y == np.repeat(y_best, sizes)
    if kern.maximize:
        masked = np.where(y_tied, choice_x, -np.inf)
        x_best = np.maximum.reduceat(masked, cuts)
    else:
        masked = np.where(y_tied, choice_x, np.inf)
        x_best = np.minimum.reduceat(masked, cuts)
    eligible = y_tied & (masked == np.repeat(x_best, sizes))
    return np.minimum.reduceat(np.where(eligible, arange, kern.num_choices), cuts)


def reference_state_opt(kern, choice_vals):
    reduce = np.maximum if kern.maximize else np.minimum
    return reduce.reduceat(choice_vals, kern.group_cuts)


def reference_fold(kern, cx, cy, chosen, decision):
    chosen_rep = chosen[np.repeat(np.arange(kern.m), kern.group_sizes)]
    y_delta = cy[chosen_rep] - cy
    eligible = (np.arange(kern.num_choices) != chosen_rep) & (y_delta > 0.0)
    if not np.any(eligible):
        return decision
    ratios = (cx[eligible] - cx[chosen_rep[eligible]]) / y_delta[eligible]
    if kern.maximize:
        return max(decision, float(ratios.max()))
    return min(decision, float(ratios.min()))


def assert_same_floats(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def sized_mdp(rng, sizes):
    """An MDP with ``sizes[s]`` choices at state ``s``, each to 1..3 targets
    with weights from a coarse grid, so that expectations tie exactly."""
    n = len(sizes)
    choices = []
    for size in sizes:
        group = []
        for _ in range(int(size)):
            targets = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)
            weights = rng.integers(1, 3, size=len(targets)).astype(float)
            group.append({int(t): w / weights.sum() for t, w in zip(targets, weights)})
        choices.append(group)
    rewards = [rng.choice([-0.0, 0.0, 0.5, 1.0], size=int(k)).tolist() for k in sizes]
    return sr.validate_model(choices, rewards=rewards, labels={"init": [0]})


def random_partition(rng, n):
    maybe = rng.random(n) < 0.8
    goal = ~maybe & (rng.random(n) < 0.5)
    return sr.Partition(s0=~maybe & ~goal, goal=goal, maybe=maybe)


def choice_vectors(rng, kern):
    """Pairs ``(cx, cy)``: the kernel's own expectations of coarse vectors,
    and raw draws with signed zeros and many exact ties."""
    n = len(kern.order)
    x = rng.choice([0.0, 0.5, 1.0], size=n)
    y = rng.choice([0.0, 0.5, 1.0], size=n)
    yield kern.choice_x(x), kern.choice_y(y)
    for _ in range(3):
        cx = rng.choice([-0.0, 0.0, 0.25, 1.0], size=kern.num_choices)
        yield cx, rng.choice([-0.0, 0.0, 0.5, 1.0], size=kern.num_choices)


def assert_kernels_match_references(kern, rng):
    neutral = -INF if kern.maximize else INF
    for cx, cy in choice_vectors(rng, kern):
        assert_same_floats(kern.state_opt(cx), reference_state_opt(kern, cx))
        for bound in (-1.0, 0.0, 0.5, 1.0, INF, -INF):
            chosen = kern.select(cx, cy, bound)
            if math.isinf(bound):
                expected = reference_argopt_unbounded(kern, cx, cy)
            else:
                expected = reference_argopt(kern, cx + bound * cy, cy)
            np.testing.assert_array_equal(chosen, expected)
            picks = (kern.group_cuts, chosen, kern.group_cuts + kern.group_sizes - 1)
            for picked in picks:
                for decision in (neutral, 0.25):
                    assert kern._fold_decision(cx, cy, picked, decision) == reference_fold(
                        kern, cx, cy, picked, decision
                    )


def test_column_selection_matches_per_state_reductions():
    rng = np.random.default_rng(606)
    states_with_columns = 0
    for _ in range(60):
        sizes = rng.integers(1, 7, size=int(rng.integers(1, 13)))
        model = sized_mdp(rng, sizes)
        partition = random_partition(rng, len(sizes))
        for objective in (sr.Objective.PROBABILITY, sr.Objective.REWARD):
            for direction in (sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE):
                kern = _Kernels(model, partition, objective, direction)
                states_with_columns += sum(len(states) for states, _ in kern.columns)
                assert_kernels_match_references(kern, rng)
    assert states_with_columns > 1000


def test_column_selection_on_uneven_degrees():
    rng = np.random.default_rng(707)
    # one state with 64 choices among states with 1 or 2
    sizes = np.append(64, rng.integers(1, 3, size=9))
    model = sized_mdp(rng, sizes)
    everything = np.ones(len(sizes), dtype=bool)
    nothing = np.zeros_like(everything)
    partition = sr.Partition(s0=nothing, goal=nothing, maybe=everything)
    for direction in (sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE):
        kern = _Kernels(model, partition, sr.Objective.REWARD, direction)
        assert len(kern.columns) == 63
        assert [len(states) for states, _ in kern.columns[1:]] == [1] * 62
        assert_kernels_match_references(kern, rng)
    # chains have no columns, and neither has a partition with no undecided state
    chain = sized_mdp(rng, np.ones(6, dtype=int))
    for model, partition in (
        (chain, random_partition(rng, 6)),
        (model, sr.Partition(s0=everything, goal=nothing, maybe=nothing)),
    ):
        kern = _Kernels(model, partition, sr.Objective.PROBABILITY, sr.Direction.MAXIMIZE)
        assert kern.columns == []
        assert_kernels_match_references(kern, rng)


def test_keyed_order_permutes_the_ascending_kernels():
    # A sort key only reorders the undecided states and their choices: every
    # per-choice sum keeps its entry order, so results match bit for bit.
    rng = np.random.default_rng(4242)
    keys = np.random.default_rng(5)
    for _ in range(320):
        model, _ = random_model(rng)
        n = model.num_states
        for objective in (sr.Objective.PROBABILITY, sr.Objective.REWARD):
            for direction in (sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE):
                absorbed, part = prepared(model, direction, objective)
                plain = _Kernels(absorbed, part, objective, direction)
                key = np.where(part.maybe, keys.permutation(n), n)
                keyed = _Kernels(absorbed, part, objective, direction, key)
                np.testing.assert_array_equal(keyed.live, np.argsort(key)[: keyed.m])
                states = plain.position[keyed.live]  # keyed position -> plain position
                choices = np.repeat(plain.group_cuts[states] - keyed.group_cuts, keyed.group_sizes)
                choices += np.arange(keyed.num_choices)  # keyed choice -> plain choice
                x, y = rng.random(n), rng.random(n) * part.maybe
                xp, yp = plain.to_kernel(x), plain.to_kernel(y)
                xk, yk = keyed.to_kernel(x), keyed.to_kernel(y)
                assert_same_floats(keyed.choice_x(xk), plain.choice_x(xp)[choices])
                assert_same_floats(keyed.choice_y(yk), plain.choice_y(yp)[choices])
                assert_same_floats(keyed.bellman(xk), plain.bellman(xp)[states])
                neutral = neutral_decision(direction)
                for bound in (0.0, 0.5, 1.0, INF):
                    xp2, yp2, xk2, yk2 = xp.copy(), yp.copy(), xk.copy(), yk.copy()
                    chosen_p, decision_p = plain.coupled_step(xp2, yp2, bound, neutral)
                    chosen_k, decision_k = keyed.coupled_step(xk2, yk2, bound, neutral)
                    np.testing.assert_array_equal(choices[chosen_k], chosen_p[states])
                    assert decision_k == decision_p
                    assert_same_floats(keyed.to_model(xk2), plain.to_model(xp2))
                    assert_same_floats(keyed.to_model(yk2), plain.to_model(yp2))


def test_many_choices_certify_against_the_oracle():
    rng = np.random.default_rng(808)
    sizes = [64, 2, 1, 2, 1]
    choices = [
        [
            {int(t): 1.0 / k for t in rng.choice(5, size=k, replace=False)}
            for k in rng.integers(1, 4, size=size)
        ]
        for size in sizes
    ]
    model = sr.validate_model(choices, labels={"init": [0], "goal": [4]})
    goal = model.label_mask("goal")
    for direction in (sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE):
        model_d, part = prepared(model, direction)
        exact = sr.oracle_solve(model_d, part, direction=direction)[0]
        result = sr.solve(model, goal, sr.SolverConfig(direction=direction, epsilon=1e-9))
        assert result.lower - 1e-12 <= exact <= result.upper + 1e-12


# ---------------------------------------------------------------------------
# certified global bounds
# ---------------------------------------------------------------------------


def test_update_global_bounds_blocked_while_mass_stuck(slow_chain):
    model, part = prepared(slow_chain)
    x = np.array([0.0, 0.0, 0.3, 0.0, 1.0])
    y = np.array([1.0, 1.0, 0.6, 0.0, 0.0])  # state 0 still fully undecided
    lo, up = sr.update_global_bounds(x, y, part, 0.0, 1.0, -INF)
    assert (lo, up) == (0.0, 1.0)


def test_update_global_bounds_ratio_window():
    model = sr.validate_model(
        [[{1: 0.5, 2: 0.25, 0: 0.25}], [{1: 1.0}], [{2: 1.0}]],
        labels={"init": [0], "goal": [1]},
    )
    model, part = prepared(model)
    x = np.array([0.5, 1.0, 0.0])
    y = np.array([0.25, 0.0, 0.0])
    lo, up = sr.update_global_bounds(x, y, part, 0.0, 1.0, -INF)
    # single maybe state: both ratios are x/(1-y) = 0.5/0.75
    assert lo == pytest.approx(2 / 3)
    assert up == pytest.approx(2 / 3)


def test_update_global_bounds_decision_holds_upper(branching_mdp):
    model, part = prepared(branching_mdp)
    x = np.array([0.2, 0.3, 0.5, 0.0, 1.0])
    y = np.array([0.5, 0.5, 0.25, 0.0, 0.0])
    plain_lo, plain_up = sr.update_global_bounds(x, y, part, 0.0, 1.0, -INF)
    held_lo, held_up = sr.update_global_bounds(x, y, part, 0.0, 1.0, 0.95)
    assert held_lo == plain_lo
    assert held_up == pytest.approx(0.95)  # the decision value props the upper bound
    assert plain_up < 0.95


def test_update_global_bounds_never_widens():
    model = sr.validate_model(
        [[{1: 0.5, 2: 0.25, 0: 0.25}], [{1: 1.0}], [{2: 1.0}]],
        labels={"init": [0], "goal": [1]},
    )
    model, part = prepared(model)
    x = np.array([0.5, 1.0, 0.0])
    y = np.array([0.25, 0.0, 0.0])
    lo, up = sr.update_global_bounds(x, y, part, 0.68, 0.66, -INF)
    assert lo == 0.68 and up == 0.66  # stale tighter bounds win


def test_update_global_bounds_min_mirror(two_route_mdp):
    model, part = prepared(two_route_mdp, sr.Direction.MINIMIZE)
    x = np.array([0.1, 0.19, 0.1, 1.0, 1.0, 0.0, 0.0])
    y = np.array([0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    lo, up = sr.update_global_bounds(
        x, y, part, 0.0, 1.0, 0.05, sr.Direction.MINIMIZE
    )
    # minimizing: the decision value can drag the lower bound down,
    # the upper bound comes from the largest ratio
    ratios = [0.1 / 0.6, 0.19, 0.1]
    assert up == pytest.approx(max(ratios))
    assert lo == pytest.approx(0.05)


# ---------------------------------------------------------------------------
# the sound engine
# ---------------------------------------------------------------------------


def test_svi_golden_chain(slow_chain):
    model, part = prepared(slow_chain)
    res = sr.svi_solve(model, part, sr.SolverConfig(epsilon=1e-6, record_trace=True))
    assert res.iterations == 3
    assert res.sound
    assert res.method is sr.Method.SVI
    assert res.value == pytest.approx(0.75, abs=1e-9)
    assert res.lower == pytest.approx(0.75, abs=1e-11)
    assert res.upper == pytest.approx(0.75, abs=1e-11)
    assert res.lower <= res.value <= res.upper + 1e-15
    # the two-hop feeder keeps full mass undecided for two rounds, so the
    # certified window only snaps shut at the third step
    assert res.trace[0].lower == -INF and res.trace[0].upper == INF
    assert res.trace[1].lower == -INF and res.trace[1].upper == INF
    assert res.trace[2].lower == pytest.approx(0.75, abs=1e-11)


def test_svi_exact_when_everything_decides():
    model = sr.validate_model(
        [[{1: 0.5, 2: 0.5}], [{1: 1.0}], [{2: 1.0}]],
        labels={"init": [0], "goal": [1]},
    )
    model2, part = prepared(model)
    res = sr.svi_solve(model2, part, sr.SolverConfig(epsilon=1e-10))
    assert res.iterations == 1
    assert res.value == 0.5
    assert res.lower == res.upper == 0.5


def test_svi_two_route_min(two_route_mdp):
    model, part = prepared(two_route_mdp, sr.Direction.MINIMIZE)
    res = sr.svi_solve(
        model, part,
        sr.SolverConfig(direction=sr.Direction.MINIMIZE, epsilon=1e-6),
    )
    assert res.value == pytest.approx(0.152, abs=1e-9)
    assert res.iterations == 3


def test_svi_reward_exact():
    model = sr.validate_model(
        [[{0: 0.5, 1: 0.5}], [{1: 1.0}]],
        rewards=[[1.0], [0.0]],
        labels={"init": [0], "goal": [1]},
    )
    part = sr.reward_partition(model, model.label_mask("goal"))
    res = sr.svi_solve(
        model, part, sr.SolverConfig(objective=sr.Objective.REWARD, epsilon=1e-6)
    )
    # expected visits of the self-loop state: 2, one unit of reward each
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.iterations == 1  # y hits zero immediately: single maybe state


def test_svi_iteration_limit_carries_partial(slow_chain):
    model, part = prepared(slow_chain)
    with pytest.raises(sr.IterationLimit) as info:
        sr.svi_solve(model, part, sr.SolverConfig(epsilon=1e-6, max_iterations=2))
    partial = info.value.partial
    assert partial is not None
    assert partial.iterations == 2
    assert not partial.sound


def test_svi_hook_sees_every_iteration(slow_chain):
    model, part = prepared(slow_chain)
    seen = []

    def hook(state, previous):
        seen.append((state.k, previous.k))
        assert state.scheduler is None  # chains carry no scheduler

    sr.svi_solve(model, part, sr.SolverConfig(epsilon=1e-6), hook)
    assert [k for k, _ in seen] == [1, 2, 3]
    # the first call pairs iteration 1 with the starting vectors (k = 0)
    assert [p for _, p in seen] == [0, 1, 2]


def test_svi_hook_snapshots_pin_the_decided_states():
    # On every sweep a snapshot holds the goal value at goal states, 0 at
    # sure-zero states, y = 0 at both and local choice 0 at both (MDPs).
    rng = np.random.default_rng(11)
    decided_choices = snapshots = 0
    for _ in range(80):
        model, goal = random_model(rng, force_mdp=True)
        for objective in (sr.Objective.PROBABILITY, sr.Objective.REWARD):
            for direction in (sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE):
                model_d, part = _prepare(model, goal, objective, direction)
                goal_value = 1.0 if objective is sr.Objective.PROBABILITY else 0.0
                decided = ~part.maybe
                seen = []
                config = sr.SolverConfig(
                    direction=direction, objective=objective, epsilon=1e-8,
                    lower=-100.0, upper=100.0, max_iterations=200,
                )
                try:
                    sr.svi_solve(model_d, part, config, lambda s, p: seen.append(s))
                except sr.IterationLimit:
                    pass
                snapshots += len(seen)
                if seen:
                    decided_choices += int(model_d.group_sizes()[decided].sum())
                for state in seen:
                    assert np.all(state.x[part.goal] == goal_value)
                    assert np.all(state.x[part.s0] == 0.0)
                    assert np.all(state.y[decided] == 0.0)
                    if state.scheduler is not None:
                        assert np.all(state.scheduler[decided] == 0)
    assert snapshots > 1000 and decided_choices > 100


def test_svi_trace_absent_by_default(slow_chain):
    model, part = prepared(slow_chain)
    res = sr.svi_solve(model, part, sr.SolverConfig(epsilon=1e-6))
    assert res.trace is None


# ---------------------------------------------------------------------------
# the classic engines
# ---------------------------------------------------------------------------


def test_vi_is_marked_unsound_and_undershoots(slow_chain):
    model, part = prepared(slow_chain)
    res = sr.vi_solve(model, part, sr.SolverConfig(method=sr.Method.VI, epsilon=1e-6))
    assert not res.sound
    # the slow feeder makes plain value iteration stop 2.5% short of 0.75
    assert 0.72 < res.value < 0.73
    assert res.iterations > 10_000


def test_ii_chain_converges_slowly(slow_chain):
    model, part = prepared(slow_chain)
    res = sr.ii_solve(model, part, sr.SolverConfig(method=sr.Method.II, epsilon=1e-6))
    assert res.sound
    assert res.value == pytest.approx(0.75, abs=1e-6)
    assert res.lower <= res.value <= res.upper
    assert res.iterations > 100_000  # pays one sweep per side of the window


def test_ii_requires_reward_bounds():
    model = sr.validate_model(
        [[{0: 0.5, 1: 0.5}], [{1: 1.0}]],
        rewards=[[1.0], [0.0]],
        labels={"init": [0], "goal": [1]},
    )
    part = sr.reward_partition(model, model.label_mask("goal"))
    with pytest.raises(sr.MissingRewardBounds):
        sr.ii_solve(
            model, part,
            sr.SolverConfig(method=sr.Method.II, objective=sr.Objective.REWARD),
        )
    res = sr.ii_solve(
        model, part,
        sr.SolverConfig(
            method=sr.Method.II, objective=sr.Objective.REWARD,
            epsilon=1e-6, lower=0.0, upper=10.0,
        ),
    )
    assert res.value == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the brute-force oracle
# ---------------------------------------------------------------------------


def test_oracle_chain_values(slow_chain):
    model, part = prepared(slow_chain)
    values = sr.oracle_solve(model, part)
    np.testing.assert_allclose(values, [0.75, 0.75, 0.75, 0.0, 1.0], atol=1e-12)


def test_oracle_two_route_both_directions(two_route_mdp):
    model, part = prepared(two_route_mdp)
    up = sr.oracle_solve(model, part)
    np.testing.assert_allclose(up, [0.5, 0.19, 0.1, 1, 1, 0, 0], atol=1e-12)
    model_min, part_min = prepared(two_route_mdp, sr.Direction.MINIMIZE)
    down = sr.oracle_solve(
        model_min, part_min, direction=sr.Direction.MINIMIZE
    )
    np.testing.assert_allclose(down, [0.152, 0.19, 0.1, 1, 1, 0, 0], atol=1e-12)


def test_oracle_against_direct_linear_solve():
    # independent cross-check: solve (I - P) v = b restricted to the maybe
    # block of a chain, assembled here from scratch
    rng = np.random.default_rng(5)
    for _ in range(20):
        model, goal = random_model(rng, force_mdp=False)
        absorbed = sr.make_absorbing(model, goal)
        part = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
        values = sr.oracle_solve(absorbed, part)

        maybe = np.flatnonzero(part.maybe)
        pos = {int(s): i for i, s in enumerate(maybe)}
        a = np.eye(len(maybe))
        b = np.zeros(len(maybe))
        for i, s in enumerate(maybe):
            targets, probs = absorbed.entries_of(int(absorbed.row_group_start[s]))
            for t, p in zip(targets.tolist(), probs.tolist()):
                if part.goal[t]:
                    b[i] += p
                elif t in pos:
                    a[i, pos[t]] -= p
        expected = np.linalg.solve(a, b)
        np.testing.assert_allclose(values[maybe], expected, atol=1e-9)
        np.testing.assert_allclose(values[part.goal], 1.0)
        np.testing.assert_allclose(values[part.s0], 0.0)


def test_oracle_size_limits():
    big = sr.validate_model(
        [[{min(s + 1, 12): 1.0}] for s in range(13)],
        labels={"init": [0], "goal": [12]},
    )
    model, part = prepared(big)
    with pytest.raises(sr.TooLargeForOracle):
        sr.oracle_solve(model, part)


def test_oracle_scheduler_limit():
    # nine non-goal states with 3 choices each: 3^9 positional schedulers
    model = sr.validate_model(
        [
            [{(s + 1) % 10: 1.0}, {s: 0.5, (s + 1) % 10: 0.5}, {9: 1.0}]
            for s in range(10)
        ],
        labels={"init": [0], "goal": [9]},
    )
    goal = model.label_mask("goal")
    absorbed = sr.make_absorbing(model, goal)
    part = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
    with pytest.raises(sr.TooLargeForOracle):
        sr.oracle_solve(absorbed, part)


def test_oracle_rejects_noncontracting_rewards(slow_chain):
    goal = np.zeros(5, dtype=bool)
    goal[4] = True  # state 3 keeps looping outside the goal
    absorbed = sr.make_absorbing(slow_chain, goal)
    part = sr.reward_partition(absorbed, goal)
    with pytest.raises(sr.NotContracting):
        sr.oracle_solve(absorbed, part, sr.Objective.REWARD)


# ---------------------------------------------------------------------------
# the full query pipeline
# ---------------------------------------------------------------------------


def test_solve_accepts_label_and_mask(slow_chain):
    cfg = sr.SolverConfig(epsilon=1e-6)
    by_label = sr.solve(slow_chain, "goal", cfg)
    mask = np.zeros(5, dtype=bool)
    mask[4] = True
    by_mask = sr.solve(slow_chain, mask, cfg)
    assert by_label.value == by_mask.value
    with pytest.raises(sr.UnknownLabelId, match="nonexistent"):
        sr.solve(slow_chain, "nonexistent", cfg)


def test_solve_shortcut_initial_in_goal():
    model = sr.validate_model(
        [[{0: 1.0}], [{0: 1.0}]],
        labels={"init": [0], "goal": [0]},
    )
    res = sr.solve(model, "goal", sr.SolverConfig())
    assert res.value == 1.0 and res.iterations == 0
    assert res.lower == res.upper == 1.0
    reward = sr.solve(
        model, "goal", sr.SolverConfig(objective=sr.Objective.REWARD)
    )
    assert reward.value == 0.0


def test_solve_shortcut_initial_sure_zero():
    model = sr.validate_model(
        [[{0: 1.0}], [{1: 1.0}]],
        labels={"init": [0], "goal": [1]},
    )
    res = sr.solve(model, "goal", sr.SolverConfig())
    assert res.value == 0.0 and res.iterations == 0


def test_solve_rejects_reward_on_escaping_model(slow_chain):
    # target only the winning sink: the losing sink loops forever, so total
    # reward up to the goal is not well defined
    mask = np.zeros(5, dtype=bool)
    mask[4] = True
    with pytest.raises(sr.RewardOnMec):
        sr.solve(
            slow_chain, mask, sr.SolverConfig(objective=sr.Objective.REWARD)
        )


def test_solve_min_routes_avoidance_into_sure_zero():
    # a state that can dodge the goal forever has minimal value 0; the
    # qualitative pass classifies it up front and the query short-circuits
    model = sr.validate_model(
        [
            [{1: 1.0}, {2: 1.0}],
            [{1: 1.0}],
            [{2: 1.0}],
        ],
        labels={"init": [0], "goal": [2]},
    )
    res = sr.solve(
        model, "goal",
        sr.SolverConfig(direction=sr.Direction.MINIMIZE, epsilon=1e-6),
    )
    assert res.value == 0.0
    assert res.iterations == 0
    assert res.sound


def test_solve_collapses_components_for_max():
    # 0 <-> 1 swap mass forever unless the exit fires; the collapsed model
    # still reports the exact value
    model = sr.validate_model(
        [
            [{1: 1.0}, {2: 0.5, 3: 0.5}],
            [{0: 1.0}],
            [{2: 1.0}],
            [{3: 1.0}],
        ],
        labels={"init": [0], "goal": [2]},
    )
    res = sr.solve(model, "goal", sr.SolverConfig(epsilon=1e-8))
    assert res.value == pytest.approx(0.5, abs=1e-8)
    assert res.sound


def test_solve_methods_agree(branching_mdp):
    svi = sr.solve(branching_mdp, "goal", sr.SolverConfig(epsilon=1e-8))
    ii = sr.solve(
        branching_mdp, "goal", sr.SolverConfig(method=sr.Method.II, epsilon=1e-8)
    )
    vi = sr.solve(
        branching_mdp, "goal", sr.SolverConfig(method=sr.Method.VI, epsilon=1e-8)
    )
    assert svi.value == pytest.approx(ii.value, abs=1e-7)
    assert svi.value == pytest.approx(0.75, abs=1e-8)
    assert vi.value < svi.value  # cut short, and knows it: vi.sound is False


def test_solve_time_covers_preprocessing(slow_chain):
    res = sr.solve(slow_chain, "goal", sr.SolverConfig(epsilon=1e-6))
    assert res.time_ms > 0.0


# ---------------------------------------------------------------------------
# start bounds of probability queries
# ---------------------------------------------------------------------------


def random_value_mdp(n, rng, sink_share=0.0):
    """Two choices per state, each to ``s+1`` plus two uniform random targets
    with random weights; goal ``n-1``, start 0.  With ``sink_share`` each
    random target becomes, with that chance, an absorbing losing state ``n``."""
    choices = []
    for s in range(n):
        group = []
        for _ in range(2):
            randoms = rng.integers(0, n, size=2)
            if sink_share > 0:
                randoms = np.where(rng.random(2) < sink_share, n, randoms)
            row = {}
            for t, w in zip([min(s + 1, n - 1), *randoms.tolist()], rng.random(3)):
                row[t] = row.get(t, 0.0) + w
            total = sum(row[t] for t in sorted(row))
            group.append({t: row[t] / total for t in sorted(row)})
        choices.append(group)
    if sink_share > 0:
        choices.append([{n: 1.0}])
    return sr.validate_model(choices, labels={"init": [0], "goal": [n - 1]})


def max_reach_by_policy_iteration(model, goal):
    """Maximal reachability probabilities of a model on which every choice
    resolution reaches the goal or a sure-zero state almost surely."""
    absorbed = sr.make_absorbing(model, goal)
    maybe = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE).maybe
    n = absorbed.num_states
    values = goal.astype(float)
    picks = absorbed.row_group_start[:-1].copy()
    while True:
        matrix = np.zeros((n, n))
        for s in np.flatnonzero(maybe):
            targets, probs = absorbed.entries_of(int(picks[s]))
            np.add.at(matrix[s], targets, probs)
        system = np.eye(maybe.sum()) - matrix[np.ix_(maybe, maybe)]
        values[maybe] = np.linalg.solve(system, matrix[np.ix_(maybe, goal)].sum(axis=1))
        improved = False
        for s in np.flatnonzero(maybe):
            for c in absorbed.choices_of(s):
                targets, probs = absorbed.entries_of(c)
                current = absorbed.entries_of(int(picks[s]))
                if probs @ values[targets] > current[1] @ values[current[0]] + 1e-12:
                    picks[s], improved = c, True
        if not improved:
            return values


@pytest.mark.parametrize(
    "n,seed,sink_share,cap", [(300, 0, 0.0, 1_000), (200, 7, 0.05, 3_000)], ids=["F1", "F2"]
)
def test_solve_certifies_the_fault_models(n, seed, sink_share, cap):
    # F1: every value is exactly 1.  F2: a sink takes part of the mass.
    # Started at [-inf, inf], the first sweeps would select choices at an
    # infinite bound, and the decision value would hold upper above 1.
    model = random_value_mdp(n, np.random.default_rng(seed), sink_share)
    goal = model.label_mask("goal")
    epsilon = 1e-6
    res = sr.solve(model, goal, sr.SolverConfig(epsilon=epsilon, max_iterations=cap))
    truth = max_reach_by_policy_iteration(model, goal)[model.initial_state]
    assert res.sound
    # the linear solves of the reference round too (F1: 1 + 2.4e-15)
    assert res.lower - 1e-12 <= truth <= res.upper + 1e-12, (res.lower, truth, res.upper)
    assert res.upper - res.lower < 2 * epsilon


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("topological", [False, True])
def test_decision_value_over_a_subnormal_mass_gap(topological):
    # State 0 certifies only after about 12,000 sweeps.  State 1's stay
    # mass halves each sweep, so from sweep 1,024 on its two choices differ
    # in y by a subnormal amount and their crossing point overflows.
    model = sr.validate_model(
        [
            [{0: 0.999, 2: 0.0005, 3: 0.0005}],
            [{1: 0.5, 2: 0.5}, {1: 0.25, 2: 0.25, 3: 0.5}],
            [{2: 1.0}],
            [{3: 1.0}],
        ],
        labels={"init": [0], "goal": [2]},
    )
    stay, goal, _ = map(Fraction, model.entries_of(0)[1].tolist())
    truth = goal / (1 - stay)  # 0.5 + 5.5e-14 after renormalization
    config = sr.SolverConfig(topological=topological)
    res = sr.solve(model, "goal", config)
    # lower is rounded to nearest and here lands one ulp above the truth
    assert res.sound and res.lower - math.ulp(0.5) <= truth <= res.upper
    assert abs(res.value - 0.5) <= config.epsilon
    assert res.upper - res.lower < 2 * config.epsilon


def test_svi_solve_itself_keeps_the_unbounded_start():
    model = random_value_mdp(300, np.random.default_rng(0))
    goal = model.label_mask("goal")
    model_p, part = _prepare(model, goal, sr.Objective.PROBABILITY, sr.Direction.MAXIMIZE)
    config = sr.SolverConfig(max_iterations=3, record_trace=True)
    with pytest.raises(sr.IterationLimit) as info:
        sr.svi_solve(model_p, part, config)
    first = info.value.partial.trace[0]
    assert (first.lower, first.upper) == (-INF, INF)


def test_solve_starts_probability_queries_inside_zero_one(branching_mdp):
    starts = []

    def hook(state, previous):
        if previous.k == 0:
            starts.append((previous.lower, previous.upper))

    for direction in (sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE):
        for lower, upper in ((None, None), (-0.5, 2.0)):
            config = sr.SolverConfig(direction=direction, lower=lower, upper=upper)
            sr.solve(branching_mdp, "goal", config, hook)
    assert starts == [(0.0, 1.0)] * 4
    sr.solve(branching_mdp, "goal", sr.SolverConfig(lower=0.25, upper=1.5), hook)
    assert starts[-1] == (0.25, 1.0)
    for bounds in ({"lower": 1.5}, {"upper": -0.5}):
        with pytest.raises(sr.ConfigError):
            sr.solve(branching_mdp, "goal", sr.SolverConfig(**bounds))


def test_solve_starts_reward_queries_on_the_sign_of_the_rewards():
    starts = []

    def hook(state, previous):
        if previous.k == 0:
            starts.append((previous.lower, previous.upper))

    def model(low, high):
        # the goal's own rewards have either sign: goal rows are not read
        return sr.validate_model(
            [[{0: 0.5, 1: 0.5}, {1: 1.0}], [{1: 1.0}, {0: 1.0}]],
            rewards=[[low, high], [-3.0, 3.0]],
            labels={"init": [0], "goal": [1]},
        )

    def config(**kwargs):
        return sr.SolverConfig(objective=sr.Objective.REWARD, **kwargs)

    for rewards, start in (((0.0, 2.0), (0.0, INF)), ((-2.0, 0.0), (-INF, 0.0)),
                           ((-1.0, 1.0), (-INF, INF))):
        for direction in sr.Direction:
            sr.solve(model(*rewards), "goal", config(direction=direction), hook)
        assert starts[-2:] == [start] * 2
    sr.solve(model(1.0, 2.0), "goal", config(lower=-5.0, upper=10.0), hook)
    assert starts[-1] == (0.0, 10.0)
    sr.solve(model(-2.0, -1.0), "goal", config(lower=-10.0, upper=5.0), hook)
    assert starts[-1] == (-10.0, 0.0)
    with pytest.raises(sr.ConfigError):
        sr.solve(model(1.0, 2.0), "goal", config(upper=-0.5))
    with pytest.raises(sr.ConfigError):
        sr.solve(model(-2.0, -1.0), "goal", config(lower=0.5))
    # interval iteration keeps the configuration's bounds as they are
    res = sr.solve(model(1.0, 2.0), "goal", config(method=sr.Method.II, lower=-5.0, upper=10.0))
    assert res.sound


FAMILIES = Path(__file__).resolve().parents[1] / "perfbench" / "families.py"


def roadmap_reward_mdp():
    """The 200-state random MDP of the benchmark's families, with rewards
    drawn from [0.5, 2]: every reward is positive."""
    spec = importlib.util.spec_from_file_location("perfbench_families", FAMILIES)
    families = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = families  # its dataclasses look their module up
    spec.loader.exec_module(families)
    mdp = families.random_mdp("reward", 200, np.random.default_rng(0))
    families.with_rewards(mdp, np.random.default_rng(1))
    return sr.validate_model(
        [[dict(zip(targets, probs)) for targets, probs in group] for group in mdp.choices],
        initial_state=mdp.init,
        rewards=mdp.rewards,
        labels={"init": [mdp.init], "goal": mdp.goal},
    )


def test_minimal_reward_certifies_from_the_sign_bound():
    # without a lower bound of 0 the run diverged: lower fell to -1.09e16 by
    # 20,000 sweeps without bounds, and to -323,447 from [-1e6, 1e6]
    model = roadmap_reward_mdp()

    def run(lower, upper):
        config = sr.SolverConfig(
            objective=sr.Objective.REWARD, direction=sr.Direction.MINIMIZE,
            lower=lower, upper=upper, max_iterations=20_000,
        )
        res = sr.solve(model, "goal", config)
        return res.value, res.lower, res.upper, res.iterations, res.sound

    want = run(0.0, 1e6)
    assert want[3] == 575 and want[4]
    assert want[1] <= 42.4278856 <= want[2]
    assert run(None, None) == want
    assert run(-1e6, 1e6) == want


@pytest.mark.parametrize("method", [sr.Method.SVI, sr.Method.II])
@pytest.mark.parametrize("bound", ["lower", "upper"])
def test_nan_start_bound_rejected(branching_mdp, method, bound):
    # solve() clips svi probability bounds into [0, 1], and the clip keeps a
    # NaN; the check must come first
    config = sr.SolverConfig(method=method, max_iterations=1000, **{bound: math.nan})
    with pytest.raises(sr.ConfigError):
        sr.solve(branching_mdp, "goal", config)
    with pytest.raises(sr.ConfigError):
        config.validated()


def test_min_partition_leaves_nothing_to_avoid_forever():
    # solve() runs no end-component check on minimizing probability queries:
    # s0 already holds every state that can avoid the goal forever, so no set
    # of undecided states can be kept forever either
    rng = np.random.default_rng(99)
    nonempty = 0
    for _ in range(1000):
        model, goal = random_model(rng)
        absorbed = sr.make_absorbing(model, goal)
        partition = sr.reach_partition(absorbed, goal, sr.Direction.MINIMIZE)
        assert not sr.prob0_min(absorbed, goal | partition.s0).any()
        nonempty += int(partition.s0.any())
    assert nonempty > 100


def test_probability_results_never_cross_or_leave_zero_one():
    # Rounding can carry lower past upper at 1: F1 from [0, 1] computes
    # [1.0000000000000007, 1.0000000000000002] before the clip.
    rng = np.random.default_rng(4242)
    for _ in range(320):
        model, goal = random_model(rng)
        for direction in (sr.Direction.MAXIMIZE, sr.Direction.MINIMIZE):
            for topological in (False, True):
                config = sr.SolverConfig(
                    direction=direction, topological=topological, epsilon=1e-8
                )
                res = sr.solve(model, goal, config)
                assert 0.0 <= res.lower <= res.value <= res.upper <= 1.0, res


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"epsilon": 0.0},
        {"epsilon": -1e-9},
        {"max_iterations": 0},
        {"lower": 1.0, "upper": 0.0},
        {"method": sr.Method.VI, "topological": True},
        {"method": sr.Method.II, "topological": True},
    ],
)
def test_bad_configs_rejected(kwargs):
    with pytest.raises(sr.ConfigError):
        sr.SolverConfig(**kwargs).validated()


def test_config_is_frozen():
    cfg = sr.SolverConfig()
    with pytest.raises(AttributeError):
        cfg.epsilon = 2.0


# ---------------------------------------------------------------------------
# randomized agreement
# ---------------------------------------------------------------------------


def test_random_models_sound_methods_match_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        model, goal = random_model(rng)
        res = sr.solve(model, goal, sr.SolverConfig(epsilon=1e-8))
        absorbed = sr.make_absorbing(model, goal)
        part = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
        quotient = sr.collapse_end_components(absorbed, part)
        oracle = sr.oracle_solve(quotient.model, quotient.partition)
        want = oracle[quotient.state_map[model.initial_state]]
        assert res.value == pytest.approx(want, abs=1e-8)
        assert res.lower - 1e-12 <= want <= res.upper + 1e-12
