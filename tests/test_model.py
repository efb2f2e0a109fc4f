"""Construction and validation of the sparse model container."""

import numpy as np
import pytest

import soundreach as sr


def test_chain_layout(slow_chain):
    m = slow_chain
    assert m.num_states == 5
    assert m.num_choices == 5
    assert m.is_mc
    assert m.initial_state == 0
    np.testing.assert_array_equal(m.group_sizes(), [1, 1, 1, 1, 1])
    targets, probs = m.entries_of(2)
    np.testing.assert_array_equal(targets, [0, 3, 4])
    np.testing.assert_allclose(probs, [0.6, 0.1, 0.3])


def test_mdp_layout(branching_mdp):
    m = branching_mdp
    assert not m.is_mc
    assert m.num_choices == 6
    assert list(m.choices_of(0)) == [0, 1]
    assert list(m.choices_of(1)) == [2]
    # choice_state maps every choice back to its owner
    np.testing.assert_array_equal(m.choice_state(), [0, 0, 1, 2, 3, 4])


def test_entries_are_target_sorted():
    m = sr.validate_model([[{2: 0.5, 0: 0.25, 1: 0.25}], [{1: 1.0}], [{2: 1.0}]])
    targets, _ = m.entries_of(0)
    assert list(targets) == [0, 1, 2]


def test_pairs_and_mappings_are_equivalent():
    via_dict = sr.validate_model([[{1: 0.5, 0: 0.5}], [{1: 1.0}]])
    via_pairs = sr.validate_model([[[(1, 0.5), (0, 0.5)]], [[(1, 1.0)]]])
    assert via_dict == via_pairs


def test_duplicate_targets_merge():
    # the same target listed twice collapses into one entry with summed mass
    m = sr.validate_model([[[(1, 0.25), (1, 0.25), (0, 0.5)]], [{1: 1.0}]])
    targets, probs = m.entries_of(0)
    np.testing.assert_array_equal(targets, [0, 1])
    np.testing.assert_allclose(probs, [0.5, 0.5])


def test_rows_renormalize():
    # a row that passes the tolerance check is rescaled by its actual sum,
    # shrinking the 1e-7 slack of the raw numbers down to float rounding
    m = sr.validate_model([[{0: 0.33333345, 1: 0.66666665}], [{1: 1.0}]])
    _, probs = m.entries_of(0)
    assert abs(probs.sum() - 1.0) <= 4e-16


def test_row_sum_error():
    with pytest.raises(sr.RowSumError):
        sr.validate_model([[{0: 0.5, 1: 0.4}], [{1: 1.0}]])


def test_negative_probability():
    with pytest.raises(sr.NegativeProbability):
        sr.validate_model([[{0: -0.5, 1: 1.5}], [{1: 1.0}]])


def test_zero_probability_rejected():
    with pytest.raises(sr.NegativeProbability):
        sr.validate_model([[{0: 0.0, 1: 1.0}], [{1: 1.0}]])


def test_empty_row_group():
    with pytest.raises(sr.EmptyRowGroup):
        sr.validate_model([[], [{1: 1.0}]])
    with pytest.raises(sr.EmptyRowGroup):
        sr.validate_model([])


def test_dangling_target():
    with pytest.raises(sr.DanglingTarget):
        sr.validate_model([[{7: 1.0}]])
    with pytest.raises(sr.DanglingTarget):
        sr.validate_model([[{0: 1.0}]], initial_state=3)


def test_label_masks():
    m = sr.validate_model(
        [[{1: 1.0}], [{1: 1.0}]],
        labels={"init": [0], "goal": np.array([False, True])},
    )
    np.testing.assert_array_equal(m.label_mask("goal"), [False, True])
    with pytest.raises(KeyError):
        m.label_mask("nope")
    with pytest.raises(sr.DanglingTarget):
        sr.validate_model([[{0: 1.0}]], labels={"bad": [5]})


def test_rewards_default_to_zero():
    m = sr.validate_model([[{1: 1.0}], [{1: 1.0}]], rewards=[[2.5]])
    np.testing.assert_allclose(m.choice_reward, [2.5, 0.0])


def test_model_equality_covers_labels():
    # equality is exact, labels included — it backs the file round-trip test
    a = sr.validate_model([[{1: 1.0}], [{1: 1.0}]], labels={"x": [0]})
    assert a == sr.validate_model([[{1: 1.0}], [{1: 1.0}]], labels={"x": [0]})
    assert a != sr.validate_model([[{1: 1.0}], [{1: 1.0}]], labels={"y": [1]})
    assert a != sr.validate_model([[{1: 1.0}], [{0: 1.0}]], labels={"x": [0]})


def test_make_absorbing(branching_mdp):
    mask = np.zeros(5, dtype=bool)
    mask[[3, 4]] = True
    absorbed = sr.make_absorbing(branching_mdp, mask)
    for s in (3, 4):
        (choice,) = absorbed.choices_of(s)
        targets, probs = absorbed.entries_of(choice)
        np.testing.assert_array_equal(targets, [s])
        np.testing.assert_allclose(probs, [1.0])
        assert absorbed.choice_reward[choice] == 0.0
    # untouched states keep their structure
    assert list(absorbed.choices_of(0)) == [0, 1]
    again = sr.make_absorbing(absorbed, mask)
    assert again == absorbed


def test_make_absorbing_copies_rows_bit_for_bit():
    # validation divides this row by its sum, 0.9999999999999999, and stores
    # [0.6000000000000001, 0.30000000000000004, 0.10000000000000002]; dividing
    # the stored row by its own sum again would move the last entry
    m = sr.validate_model([[{0: 0.6, 1: 0.3, 2: 0.1}], [{1: 1.0}], [{2: 1.0}]])
    assert m.entry_prob.tolist()[:3] == [
        0.6000000000000001, 0.30000000000000004, 0.10000000000000002
    ]
    empty = np.zeros(3, dtype=bool)
    once = sr.make_absorbing(m, empty)
    assert once == m
    assert sr.make_absorbing(once, empty) == once


def test_make_absorbing_clears_rewards():
    m = sr.validate_model([[{1: 1.0}], [{1: 1.0}]], rewards=[[1.0], [9.0]])
    mask = np.array([False, True])
    absorbed = sr.make_absorbing(m, mask)
    assert absorbed.choice_reward[list(absorbed.choices_of(1))[0]] == 0.0


def test_make_absorbing_bad_mask(slow_chain):
    with pytest.raises(sr.DanglingTarget):
        sr.make_absorbing(slow_chain, np.zeros(3, dtype=bool))


def test_induce_mc(branching_mdp):
    fixed = sr.induce_mc(branching_mdp, sr.Scheduler(np.array([1, 0, 0, 0, 0])))
    assert fixed.is_mc
    targets, probs = fixed.entries_of(0)
    np.testing.assert_array_equal(targets, [2, 3])
    np.testing.assert_allclose(probs, [0.8, 0.2])


def test_induce_mc_keeps_action_names():
    m = sr.validate_model(
        [[{1: 1.0}, {0: 1.0}], [{1: 1.0}]], choice_labels=["go", "stay", None]
    )
    assert sr.induce_mc(m, sr.Scheduler(np.array([1, 0]))).choice_labels == ("stay", None)
    assert sr.induce_mc(m, sr.Scheduler(np.array([0, 0]))).choice_labels == ("go", None)
    absorbed = sr.make_absorbing(m, np.array([True, False]))
    assert absorbed.choice_labels is None  # a self-loop has no name


def test_induce_mc_bad_scheduler(branching_mdp):
    with pytest.raises(sr.InvalidChoiceIndex):
        sr.induce_mc(branching_mdp, sr.Scheduler(np.array([0, 0, 0])))
    with pytest.raises(sr.InvalidChoiceIndex):
        sr.induce_mc(branching_mdp, sr.Scheduler(np.array([2, 0, 0, 0, 0])))


def test_partition_masks_must_partition():
    s0 = np.array([True, False])
    goal = np.array([False, True])
    maybe = np.array([False, False])
    p = sr.Partition(s0=s0, goal=goal, maybe=maybe)
    np.testing.assert_array_equal(p.maybe_states, [])
    with pytest.raises(ValueError):
        sr.Partition(s0=s0, goal=goal, maybe=np.array([True, False]))
    with pytest.raises(ValueError):
        sr.Partition(s0=s0, goal=goal, maybe=np.array([False]))


def test_direction_and_enum_parsing():
    assert sr.Direction.parse("max") is sr.Direction.MAXIMIZE
    assert sr.Direction.parse("min") is sr.Direction.MINIMIZE
    with pytest.raises(ValueError):
        sr.Direction.parse("sideways")
    assert sr.Objective.parse("prob") is sr.Objective.PROBABILITY
    assert sr.Objective.parse("reward") is sr.Objective.REWARD
    assert sr.Method.parse("svi") is sr.Method.SVI
