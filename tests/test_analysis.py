"""Graph preprocessing: sure-zero states, SCCs, end components, collapsing."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import soundreach as sr
from conftest import random_model
from soundreach import analysis


def goal_mask(model, *states):
    mask = np.zeros(model.num_states, dtype=bool)
    mask[list(states)] = True
    return mask


def graph_model(rng, max_states=40):
    """A random MDP shaped for graph tests: 1-3 choices of 1-3 targets each,
    with self-loops and near targets common enough to form end components."""
    n = int(rng.integers(2, max_states + 1))
    choices = []
    for s in range(n):
        group = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 4))
            near = np.clip(s + rng.integers(-2, 3, size=k), 0, n - 1)
            targets = np.where(rng.random(k) < 0.7, near, rng.integers(0, n, size=k))
            targets = sorted(set(targets.tolist()))
            group.append({t: 1.0 / len(targets) for t in targets})
        choices.append(group)
    return sr.validate_model(choices)


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


def test_prob0_max_matches_plain_search():
    rng = np.random.default_rng(43)
    for _ in range(100):
        model = graph_model(rng)
        goal = rng.random(model.num_states) < 0.1
        predecessors = {t: set() for t in range(model.num_states)}
        for c, s in enumerate(model.choice_state().tolist()):
            for t in model.entries_of(c)[0].tolist():
                predecessors[t].add(s)
        can_reach = set(np.flatnonzero(goal).tolist())
        frontier = list(can_reach)
        while frontier:
            for s in predecessors[frontier.pop()] - can_reach:
                can_reach.add(s)
                frontier.append(s)
        expected = np.ones(model.num_states, dtype=bool)
        expected[list(can_reach)] = False
        np.testing.assert_array_equal(sr.prob0_max(model, goal), expected)


def reference_prob0_min(model, goal):
    """The whole-array greatest fixpoint the package used before its attractor
    search: one round per layer, each keeping the non-goal states with a
    choice whose successors all stay kept."""
    keep = ~np.asarray(goal, dtype=bool)
    while True:
        choice_ok = np.bitwise_and.reduceat(keep[model.entry_target], model.choice_start[:-1])
        new_keep = keep & np.bitwise_or.reduceat(choice_ok, model.row_group_start[:-1])
        if np.array_equal(new_keep, keep):
            return keep
        keep = new_keep


def test_prob0_min_matches_whole_array_fixpoint():
    rng = np.random.default_rng(44)
    kept = 0
    for i in range(300):
        model = graph_model(rng) if i % 3 else random_model(rng)[0]
        goal = rng.random(model.num_states) < rng.choice([0.05, 0.2, 0.5])
        want = reference_prob0_min(model, goal)
        np.testing.assert_array_equal(sr.prob0_min(model, goal), want)
        kept += int(want.any())
    assert 50 < kept < 290  # both outcomes are exercised


def test_prob0_min_deep_attractor():
    # A 100,000-state chain into the goal at its end: each chain state dies
    # only after its successor, so the attractor is 100,000 rounds deep.
    # The two states after the goal can keep circling (or jump into the chain).
    n = 100_000
    chain = [[{s + 1: 1.0}] for s in range(n - 1)]
    model = sr.validate_model([*chain, [{n - 1: 1.0}], [{n + 1: 1.0}, {0: 1.0}], [{n: 1.0}]])
    zero = sr.prob0_min(model, goal_mask(model, n - 1))
    np.testing.assert_array_equal(np.flatnonzero(zero), [n, n + 1])


SHORT_PARTITION = sr.Partition(
    s0=np.array([False, False]), goal=np.array([False, True]), maybe=np.array([True, False])
)


#: a mask of the wrong length, and state indices where truth values belong:
#: read as truth values, ``[2, 0, 0]`` would make state 0 the goal
BAD_MASKS = [([False, True], r"shape \(2,\) for 3 states"), ([2, 0, 0], r"int\d+ values")]


@pytest.mark.parametrize(
    "call, masks",
    [
        (lambda m, mask: sr.prob0_max(m, mask), BAD_MASKS),
        (lambda m, mask: sr.prob0_min(m, mask), BAD_MASKS),
        (lambda m, mask: sr.check_contracting(m, mask), BAD_MASKS),
        (lambda m, mask: sr.reach_partition(m, mask, sr.Direction.MAXIMIZE), BAD_MASKS),
        (lambda m, mask: sr.reach_partition(m, mask, sr.Direction.MINIMIZE), BAD_MASKS),
        (lambda m, mask: sr.reward_partition(m, mask), BAD_MASKS),
        (lambda m, mask: sr.mec_decompose(m, restrict=mask), BAD_MASKS),
        # a Partition refuses masks that are not boolean itself
        (lambda m, mask: sr.collapse_end_components(m, SHORT_PARTITION), BAD_MASKS[:1]),
        (lambda m, mask: sr.make_absorbing(m, mask), BAD_MASKS),
        (lambda m, mask: sr.scc_order(m, restrict=mask), BAD_MASKS),
        (lambda m, mask: sr.solve(m, mask, sr.SolverConfig()), BAD_MASKS),
    ],
    ids=[
        "prob0_max", "prob0_min", "check_contracting", "reach_partition_max",
        "reach_partition_min", "reward_partition", "mec_decompose", "collapse", "make_absorbing",
        "scc_order", "solve",
    ],
)
def test_state_mask_of_the_wrong_length_is_refused(call, masks):
    m = sr.validate_model([[{1: 1.0}], [{0: 0.5, 2: 0.5}], [{2: 1.0}]])
    for mask, message in masks:
        with pytest.raises(sr.DanglingTarget, match=message):
            call(m, mask)


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


def reference_tarjan(num_states, successors, alive):
    """The closure-based Tarjan the package used before its CSR walk."""
    index = np.full(num_states, -1, dtype=np.int64)
    low = np.zeros(num_states, dtype=np.int64)
    component_of = np.full(num_states, -1, dtype=np.int64)
    on_stack = np.zeros(num_states, dtype=bool)
    scc_stack = []
    components = []
    counter = 0
    for root in np.flatnonzero(alive):
        if index[root] != -1:
            continue
        work = [[int(root), None]]
        while work:
            frame = work[-1]
            v = frame[0]
            if frame[1] is None:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = True
                frame[1] = iter(successors(v))
            descended = False
            for w in frame[1]:
                w = int(w)
                if index[w] == -1:
                    work.append([w, None])
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                members = []
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = False
                    component_of[w] = len(components)
                    members.append(w)
                    if w == v:
                        break
                members.sort()
                components.append(np.asarray(members, dtype=np.int64))
    return components, component_of


def test_scc_order_matches_reference_tarjan():
    rng = np.random.default_rng(13)
    for _ in range(200):
        model = graph_model(rng) if rng.random() < 0.5 else random_model(rng)[0]
        cs, gs, targets = model.choice_start, model.row_group_start, model.entry_target
        components, component_of = reference_tarjan(
            model.num_states,
            lambda s: targets[cs[gs[s]] : cs[gs[s + 1]]],
            np.ones(model.num_states, dtype=bool),
        )
        order = sr.scc_order(model)
        np.testing.assert_array_equal(order.component_of, component_of)
        assert len(order.components) == len(components)
        for got, want in zip(order.components, components):
            np.testing.assert_array_equal(got, want)


def test_scc_order_long_chain_and_ring():
    # 100,000 states deep: no recursion, successors first, one ring component
    n = 100_000
    chain = sr.validate_model([[{min(s + 1, n - 1): 1.0}] for s in range(n)])
    order = sr.scc_order(chain)
    np.testing.assert_array_equal(order.component_of, np.arange(n)[::-1])
    assert len(order.components) == n
    ring = sr.validate_model([[{(s + 1) % n: 1.0}] for s in range(n)])
    order = sr.scc_order(ring)
    assert len(order.components) == 1
    np.testing.assert_array_equal(order.components[0], np.arange(n))


def test_scc_order_restricted_drops_the_rows_outside():
    # the cycle 0 -> 1 -> 2 -> 0 breaks once state 2's row is dropped
    cycle = sr.validate_model([[{1: 1.0}], [{2: 1.0}], [{0: 1.0}]])
    assert len(sr.scc_order(cycle).components) == 1
    order = sr.scc_order(cycle, restrict=[True, True, False])
    assert sorted(c.tolist() for c in order.components) == [[0], [1], [2]]
    np.testing.assert_array_equal(order.component_of, [2, 1, 0])


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


def reference_mec_decompose(model, restrict=None):
    """The decomposition the package used before its attractor fixpoint:
    one Tarjan pass per peeled layer of border-crossing choices."""
    n = model.num_states
    cs = model.choice_start
    gs = model.row_group_start
    targets = model.entry_target
    choice_state = model.choice_state()
    candidate = np.ones(n, dtype=bool) if restrict is None else np.asarray(restrict).copy()
    inside = candidate[targets]
    choice_alive = np.bitwise_and.reduceat(inside, cs[:-1]) & candidate[choice_state]
    state_alive = candidate & np.bitwise_or.reduceat(choice_alive, gs[:-1])
    choice_alive &= state_alive[choice_state]
    while True:
        def successors(s):
            out = []
            for c in range(int(gs[s]), int(gs[s + 1])):
                if choice_alive[c]:
                    out.extend(targets[cs[c] : cs[c + 1]].tolist())
            return out

        _, component_of = reference_tarjan(n, successors, state_alive)
        changed = False
        for c in np.flatnonzero(choice_alive):
            if np.any(component_of[targets[cs[c] : cs[c + 1]]] != component_of[choice_state[c]]):
                choice_alive[c] = False
                changed = True
        still = state_alive & np.bitwise_or.reduceat(choice_alive, gs[:-1])
        if np.any(still != state_alive):
            changed = True
            state_alive = still
            choice_alive &= state_alive[choice_state]
        if not changed:
            break
    mecs = []
    mec_of = np.full(n, -1, dtype=np.int64)
    seen = {}
    for s in np.flatnonzero(state_alive):
        seen.setdefault(int(component_of[s]), []).append(int(s))
    for comp_id in sorted(seen):
        members = np.asarray(seen[comp_id], dtype=np.int64)
        retained = [
            c for s in members for c in range(int(gs[s]), int(gs[s + 1])) if choice_alive[c]
        ]
        mec_of[members] = len(mecs)
        mecs.append((members, np.asarray(retained, dtype=np.int64)))
    return mecs, mec_of


def test_mec_decompose_matches_peeling_reference():
    rng = np.random.default_rng(14)
    found = 0
    for i in range(300):
        model = graph_model(rng) if i % 3 else random_model(rng)[0]
        restrict = None if i % 2 else rng.random(model.num_states) < 0.8
        want, want_of = reference_mec_decompose(model, restrict)
        got = sr.mec_decompose(model, restrict)
        np.testing.assert_array_equal(got.mec_of, want_of)
        assert len(got.mecs) == len(want)
        want_choice_mec = np.full(model.num_choices, -1)
        for index, (states, choices) in enumerate(want):
            np.testing.assert_array_equal(got.mecs[index].states, states)
            np.testing.assert_array_equal(got.mecs[index].choices, choices)
            want_choice_mec[choices] = index
        np.testing.assert_array_equal(got.choice_mec, want_choice_mec)
        found += len(want)
    assert found > 300  # the suite must exercise many components


def test_mec_decompose_needs_few_tarjan_passes(monkeypatch):
    # 1,000 states, 2 choices each, every choice to s+1 plus 2 random
    # targets, and state n-1 absorbing: no end component but that one.
    # Peeling one layer of states per Tarjan pass took 37 passes here.
    rng = np.random.default_rng(0)
    n = 1000
    choices = []
    for s in range(n - 1):
        group = []
        for _ in range(2):
            targets = sorted({s + 1, *rng.integers(0, n, size=2).tolist()})
            group.append({t: 1.0 / len(targets) for t in targets})
        choices.append(group)
    model = sr.validate_model([*choices, [{n - 1: 1.0}]])
    passes = []
    tarjan = analysis._tarjan
    monkeypatch.setattr(analysis, "_tarjan", lambda *args: passes.append(1) or tarjan(*args))
    decomposition = sr.mec_decompose(model)
    assert [mec.states.tolist() for mec in decomposition.mecs] == [[n - 1]]
    np.testing.assert_array_equal(np.flatnonzero(decomposition.mec_of >= 0), [n - 1])
    assert len(passes) <= 2
    # collapse searches the undecided states only, and the attractor alone
    # empties them: no Tarjan pass
    passes.clear()
    goal = goal_mask(model, n - 1)
    absorbed = sr.make_absorbing(model, goal)
    partition = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
    quotient = sr.collapse_end_components(absorbed, partition)
    assert not passes
    assert quotient.is_identity and quotient.model == absorbed


def test_check_contracting(slow_chain):
    assert sr.check_contracting(slow_chain, goal_mask(slow_chain, 3, 4))
    # leaving the losing sink out keeps a loop alive outside the target
    assert not sr.check_contracting(slow_chain, goal_mask(slow_chain, 4))


def test_check_contracting_needs_no_tarjan(monkeypatch):
    passes = []
    tarjan = analysis._tarjan
    monkeypatch.setattr(analysis, "_tarjan", lambda *args: passes.append(1) or tarjan(*args))
    rng = np.random.default_rng(15)
    answers = []
    for i in range(300):
        model = graph_model(rng) if i % 3 else random_model(rng)[0]
        target = rng.random(model.num_states) < rng.choice([0.1, 0.3, 0.6])
        answers.append(sr.check_contracting(model, target))
        assert not passes
        want = not sr.mec_decompose(model, restrict=~target).mecs
        passes.clear()
        assert answers[-1] == want
    assert 30 < sum(answers) < 270  # both answers are exercised


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


def test_collapse_numbers_late_component_without_numpy_ma():
    # np.unique without return_inverse imports numpy.ma (0.6 MB of memory)
    # on first use; the maximal-probability path must not, so this runs in
    # a fresh interpreter.  1 <-> 3 is an end component; 1 may exit to the
    # goal 2, 3 to the sink 4.
    code = """
import sys
import soundreach as sr
model = sr.validate_model(
    [[{1: 1.0}], [{3: 1.0}, {2: 1.0}], [{2: 1.0}], [{1: 1.0}, {4: 1.0}], [{4: 1.0}]],
    labels={"init": [0], "goal": [2]},
)
result = sr.solve(model, "goal", sr.SolverConfig())
partition = sr.reach_partition(model, model.label_mask("goal"), sr.Direction.MAXIMIZE)
state_map = sr.collapse_end_components(model, partition).state_map
print(result.value, "numpy.ma" in sys.modules, state_map.tolist())
"""
    package_root = str(Path(sr.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "1.0 False [0, 1, 2, 1, 3]"


def test_collapse_component_without_exit_is_an_empty_row_group():
    m = sr.validate_model([[{1: 1.0}], [{0: 1.0}], [{2: 1.0}]])
    goal = goal_mask(m, 2)
    with pytest.raises(sr.EmptyRowGroup):
        sr.collapse_end_components(m, sr.reward_partition(m, goal))


def test_collapse_that_drops_a_choice_is_not_identity():
    # state 0's self-loop is a one-state end component: its number stays,
    # but the loop is dropped (3 -> 2 choices)
    m = sr.validate_model([[{0: 1.0}, {1: 1.0}], [{1: 1.0}]])
    partition = sr.Partition(
        s0=np.array([False, False]),
        goal=np.array([False, True]),
        maybe=np.array([True, False]),
    )
    quotient = sr.collapse_end_components(m, partition)
    np.testing.assert_array_equal(quotient.state_map, [0, 1])
    assert quotient.model.num_choices == 2
    assert not quotient.is_identity


def test_collapse_searches_the_undecided_states_only():
    # 0 -> 1 -> 0 is an end component through the goal 1, which is not
    # absorbing here; only the undecided state 0 is searched, and its
    # self-loop is its end component
    m = sr.validate_model([[{0: 1.0}, {1: 1.0}], [{0: 1.0}]])
    partition = sr.Partition(
        s0=np.array([False, False]),
        goal=np.array([False, True]),
        maybe=np.array([True, False]),
    )
    quotient = sr.collapse_end_components(m, partition)
    np.testing.assert_array_equal(quotient.state_map, [0, 1])
    (exit_choice,) = quotient.model.choices_of(0)  # the self-loop is dropped
    assert quotient.model.entries_of(exit_choice)[0].tolist() == [1]
    (goal_choice,) = quotient.model.choices_of(1)
    targets, probs = quotient.model.entries_of(goal_choice)
    assert targets.tolist() == [0] and probs.tolist() == [1.0]
    assert quotient.partition == partition


def test_collapse_random_models_preserve_oracle():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(60):
        model, goal = random_model(rng)
        absorbed = sr.make_absorbing(model, goal)
        partition = sr.reach_partition(absorbed, goal, sr.Direction.MAXIMIZE)
        quotient = sr.collapse_end_components(absorbed, partition)
        if quotient.is_identity:
            assert quotient.model == absorbed
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
