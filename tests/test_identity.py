"""Every answer stays bit for bit what it was when the golden records were made.

The corpus is 80 ``random_model(default_rng(4242))`` instances and four
larger models: random MDPs of 400 states (with a losing sink) and 300
states (without), whose kernels sum in entry columns, and two rows of 60
cycles of 10 states (a chain with a losing sink, an MDP without), whose
topological solves run more than one block.  Each model is written by
``write_model`` and loaded back by ``load_model``, once through numpy's
reader and once token by token, and then answered by ``solve`` for both
directions, for probabilities, rewards without bounds and rewards in
``[-100, 100]``, by vi, ii, svi and topological svi (epsilon 1e-8, at most
3,000 sweeps).  A record holds the value and the interval as
``float.hex``, the sweep count, the ``sound`` flag and the error class; an
svi record (flat or topological) also holds a hash of its trace rows, each
row's lower and upper bound, decision value and ``y_init`` as
``float.hex``, which pins the values of every sweep, not only the last.

The golden records were made with numpy 2.4; another numpy may round a sum
differently, so the test skips there.  To write them again, run
``PYTHONPATH=src python tests/test_identity.py`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import soundreach as sr
from soundreach import explicit

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import random_model  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "identity_golden.json"
NUMPY = ".".join(np.__version__.split(".")[:2])


def _cycles(rng, components: int, size: int, choices: int, sink: bool) -> sr.SparseModel:
    """``components`` cycles of ``size`` states in a row, then the goal (and
    with ``sink`` a losing sink): each choice moves on along its cycle with probability about 0.9
    and otherwise leaves to the next cycle (the goal after the last), or
    with ``sink`` partly to the sink."""
    num = components * size
    goal = num
    rows, rewards = [], []
    for s in range(num):
        base = s - s % size
        exit_state = base + size if base + size < num else goal
        group = []
        for _ in range(choices):
            stay = rng.uniform(0.85, 0.95)
            to_exit = (1.0 - stay) * (rng.uniform(0.5, 1.0) if sink else 1.0)
            choice = {base + (s + 1) % size: stay, exit_state: to_exit}
            if sink:
                choice[num + 1] = 1.0 - stay - to_exit
            group.append(choice)
        rows.append(group)
        rewards.append(rng.uniform(0.5, 2.0, size=choices).tolist())
    rows.append([{goal: 1.0}])
    rows += [[{num + 1: 1.0}]] if sink else []
    rewards += [[0.0]] * (len(rows) - num)
    return sr.validate_model(
        rows, rewards=rewards, labels={"init": [0], "goal": [goal]}
    )


def _random_mdp(rng, n: int, sink_share: float) -> sr.SparseModel:
    """``n`` states of two choices, each to ``s + 1`` and two random
    targets, each of them with chance ``sink_share`` a losing sink (the
    state ``n``, there only then); the goal is ``n - 1``."""
    sink = n
    rows, rewards = [], []
    for s in range(n):
        group = []
        for _ in range(2):
            targets = [min(s + 1, n - 1), *rng.integers(0, n, size=2).tolist()]
            targets = [sink if rng.random() < sink_share else t for t in targets]
            weights = rng.random(3) + 0.05
            choice: dict = {}
            for t, w in zip(targets, (weights / weights.sum()).tolist()):
                choice[t] = choice.get(t, 0.0) + w
            group.append(choice)
        rows.append(group)
        rewards.append(rng.uniform(-1.0, 2.0, size=2).tolist())
    if sink_share:
        rows.append([{sink: 1.0}])
        rewards.append([0.0])
    return sr.validate_model(rows, rewards=rewards, labels={"init": [0], "goal": [n - 1]})


def corpus() -> list[sr.SparseModel]:
    rng = np.random.default_rng(4242)
    models = [random_model(rng)[0] for _ in range(80)]
    large = np.random.default_rng(4243)
    models.append(_random_mdp(large, 400, 0.1))
    models.append(_random_mdp(large, 300, 0.0))
    models.append(_cycles(large, 60, 10, 1, sink=True))
    models.append(_cycles(large, 60, 10, 2, sink=False))
    return models


QUERIES = [
    (direction, objective, bounds, method, topological)
    for direction in sr.Direction
    for objective, bounds in (
        (sr.Objective.PROBABILITY, (None, None)),
        (sr.Objective.REWARD, (None, None)),
        (sr.Objective.REWARD, (-100.0, 100.0)),
    )
    for method, topological in (
        (sr.Method.VI, False), (sr.Method.II, False), (sr.Method.SVI, False), (sr.Method.SVI, True),
    )
]


def trace_hash(trace) -> str:
    """`` trace=<hash>`` of an svi result's trace rows, else nothing."""
    if trace is None:
        return ""
    rows = (
        " ".join(float(v).hex() for v in (row.lower, row.upper, row.decision, row.y_init))
        for row in trace
    )
    return " trace=" + hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def records(folder: Path) -> list[str]:
    """One record per model and query, each model loaded from its files."""
    out = []
    for i, model in enumerate(corpus()):
        files = [folder / f"m{i}.{ext}" for ext in ("tra", "lab", "trew")]
        sr.write_model(model, *files)
        loaded = sr.load_model(files[0], files[1], None, files[2]).model
        for direction, objective, (lower, upper), method, topological in QUERIES:
            config = sr.SolverConfig(
                method=method, direction=direction, objective=objective, epsilon=1e-8,
                topological=topological, lower=lower, upper=upper, max_iterations=3000,
                record_trace=method is sr.Method.SVI,
            )
            key = f"{i} {direction.value} {objective.value} {lower} {method.value} {topological}"
            try:
                r = sr.solve(loaded, "goal", config)
            except (sr.SolverError, sr.ModelError) as error:
                out.append(f"{key}: {type(error).__name__}")
                continue
            numbers = " ".join(float(v).hex() for v in (r.value, r.lower, r.upper))
            out.append(f"{key}: {numbers} {r.iterations} {r.sound}{trace_hash(r.trace)}")
    return out


@pytest.mark.parametrize("numpy_reader", [True, False], ids=["numpy_reader", "token_reader"])
def test_answers_match_the_golden_records(tmp_path, monkeypatch, numpy_reader):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != NUMPY:
        pytest.skip(f"records made with numpy {golden['numpy']}, running {np.__version__}")
    if not numpy_reader:
        monkeypatch.setattr(explicit, "_LOADTXT", False)
    got = records(tmp_path)
    assert len(got) == len(golden["records"])
    for want, have in zip(golden["records"], got):
        assert have == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as folder:
        rows = records(Path(folder))
    GOLDEN.write_text(json.dumps({"numpy": NUMPY, "records": rows}, indent=0) + "\n")
    print(f"wrote {len(rows)} records to {GOLDEN}")
