"""The benchmark's reference solvers agree with each other.

Run with ``python3 -m pytest perfbench/test_reference.py`` from the root of
the repository.  Policy iteration must match exhaustive scheduler
enumeration on every tiny model where it applies, and the value-1 graph
check must match enumeration on the value-1 family.
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import families  # noqa: E402
from reference import (  # noqa: E402
    Csr,
    can_avoid,
    enumerate_values,
    policy_iteration,
    renormalised,
    value_one,
    zero_states,
)

TOLERANCE = 1e-12


def _applicable(csr, objective, direction):
    decided = csr.goal | zero_states(csr, objective, direction)
    return not can_avoid(csr, decided).any()


@pytest.mark.parametrize("objective", ["prob", "reward"])
def test_policy_iteration_matches_enumeration(objective):
    rng = np.random.default_rng(2024)
    compared = 0
    for k in range(300):
        mdp = families.tiny_model(f"t{k}", rng)
        csr = Csr(mdp)
        if objective == "reward" and can_avoid(csr, csr.goal).any():
            continue  # some scheduler never reaches the goal: no finite reward
        low, high = enumerate_values(csr, objective)
        for direction, want in (("min", low), ("max", high)):
            if not _applicable(csr, objective, direction):
                with pytest.raises(ValueError):
                    policy_iteration(csr, objective, direction)
                continue
            got = policy_iteration(csr, objective, direction)
            scale = np.maximum(np.abs(want), 1.0)
            assert np.all(np.abs(got - want) <= TOLERANCE * scale), (k, direction)
            compared += 1
    assert compared > 100


def test_enumeration_finds_the_optimum_of_a_known_model():
    # state 0: choice a reaches the goal with 0.5 and the sink with 0.5,
    # choice b loops with 0.9 and reaches the goal with 0.1 (value 1)
    mdp = families.Mdp(
        name="known",
        choices=[
            [([1, 2], [0.5, 0.5]), ([0, 1], [0.9, 0.1])],
            [([1], [1.0])],
            [([2], [1.0])],
        ],
        init=0,
        goal=[1],
        rewards=[[1.0, 2.0], [0.0], [0.0]],
    )
    low, high = enumerate_values(Csr(mdp), "prob")
    assert low[0] == pytest.approx(0.5, abs=1e-15)
    assert high[0] == pytest.approx(1.0, abs=1e-15)
    assert list(zero_states(Csr(mdp), "prob", "max")) == [False, False, True]


def test_enumeration_is_accurate_where_a_value_cancels():
    # one scheduler: V0 = 1 + p V1 and V1 = -r + q V0, so V0 = (1 - p r) / (1 - p q)
    # cancels to about 6e-4 of its terms, near the share below which the
    # benchmark leaves reward queries out; rational arithmetic on the model's
    # floats gives the exact value
    r = 1.999
    mdp = families.Mdp(
        name="cancel",
        choices=[[([1, 2], [0.5, 0.5])], [([0, 2], [0.3, 0.7])], [([2], [1.0])]],
        init=0,
        goal=[2],
        rewards=[[1.0], [-r], [0.0]],
    )
    csr = Csr(mdp)
    p, q = Fraction(float(csr.prob[0])), Fraction(float(csr.prob[2]))
    exact = (1 - p * Fraction(r)) / (1 - p * q)
    low, _ = enumerate_values(csr, "reward")
    assert abs(Fraction(float(low[0])) - exact) <= Fraction(1e-14) * abs(exact)


def test_rows_are_renormalised_like_the_program_stores_them():
    row = [0.1, 0.2, 0.7000000000000001]
    once = [x / sum(row) for x in row]
    assert renormalised(row) == [x / sum(once) for x in once]


def test_value_one_check_matches_enumeration():
    for seed in range(5):
        mdp = families.random_mdp("v", 4, np.random.default_rng(seed))
        assert value_one(mdp)
        low, high = enumerate_values(Csr(mdp), "prob")
        assert np.allclose(low, 1.0, rtol=0, atol=1e-14)
        assert np.allclose(high, 1.0, rtol=0, atol=1e-14)
    sink = families.random_mdp("s", 4, np.random.default_rng(0), sink_share=0.5)
    assert not value_one(sink)
