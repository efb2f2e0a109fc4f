"""
Benchmarking the solvers against each other
============================================

The package ships a small benchmark harness: a manifest lists model
files and queries, ``bench_run`` executes every method over them into a
CSV, and ``compare_report`` digests the CSV into per-instance ratios.
This script generates a few random models, runs the full loop in a
temporary directory, and prints the report.
"""

import tempfile
from pathlib import Path

import numpy as np

import soundreach as sr
from soundreach.cli import bench_run, compare_report

rng = np.random.default_rng(7)


def random_mdp(n_states):
    """A connected random model with a reachable goal state and a losing
    sink that every choice can fall into, so no value is exactly 1 (those
    are decided before any sweep, which would leave nothing to compare)."""
    goal, sink = n_states - 1, n_states
    choices = []
    for s in range(n_states):
        rows = []
        for _ in range(int(rng.integers(1, 3))):
            support = rng.choice(n_states, size=min(3, n_states), replace=False)
            weights = 0.99 * rng.dirichlet(np.ones(len(support)))
            rows.append({int(t): float(w) for t, w in zip(support, weights)} | {sink: 0.01})
        choices.append(rows)
    choices.append([{sink: 1.0}])
    # a thin path to the goal keeps the query interesting
    choices[0][0][goal] = choices[0][0].get(goal, 0.0) + 0.05
    total = sum(choices[0][0].values())
    choices[0][0] = {t: p / total for t, p in choices[0][0].items()}
    return sr.validate_model(
        choices, labels={"init": [0], "goal": [goal]}
    )


with tempfile.TemporaryDirectory() as scratch:
    scratch = Path(scratch)

    # Write three instances and a manifest pointing at them.  Manifest
    # lines read: name tra lab goal-label objective direction.
    lines = []
    for i, n in enumerate((6, 8, 10)):
        model = random_mdp(n)
        sr.write_model(model, scratch / f"m{i}.tra", scratch / f"m{i}.lab")
        lines.append(f"inst{i} m{i}.tra m{i}.lab goal prob max")
    manifest = scratch / "suite.manifest"
    manifest.write_text("\n".join(lines) + "\n")

    # One CSV row per instance x method; interval iteration gets the
    # same trivial (0, 1) starting bounds the certified run would use.
    csv_path = bench_run(manifest, scratch / "results.csv",
                         methods="svi,ii", epsilon=1e-6)
    print(f"rows written to {csv_path.name}:")
    print(csv_path.read_text().splitlines()[0][:72] + "...")
    print()

    # The report shows, per instance, how many sweeps each method needed
    # and the ii/svi ratios, then geometric means and scatter columns
    # ready to paste into a plotting tool.
    print(compare_report(csv_path))
