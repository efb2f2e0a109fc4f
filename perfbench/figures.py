"""Reference figures for README.md, measured once and never gated.

Usage, from the root of a checkout::

    python3 perfbench/figures.py --seed 1

For every query of every workload it prints the certified iteration's
sweeps and solve time next to interval iteration's with the same start
bounds (probability queries without start bounds give interval iteration
the trivial ``[0, 1]``); flat against ``topological=True`` on the chain of
cyclic components; ``gauss_seidel=True`` within a sweep cap; and every
probability query that runs without start bounds (the two fault queries
among them) once more with start bounds ``[0, 1]``.
"""

import argparse
import dataclasses
import shutil
import sys
import time

import run

GS_CAP = 300  # Gauss-Seidel sweeps cost about 150 synchronous ones


def solve_once(sr, query, config, **overrides):
    """``(sweeps, seconds, finished)`` of one ``load_model`` + ``solve``."""
    config = dataclasses.replace(config, **overrides)
    started = time.perf_counter()
    [(_, _, _, sweeps, error)] = run.answer_pass(sr, [query], [config], sr.load_model, sr.solve)
    return sweeps, time.perf_counter() - started, error is None


def cell(outcome):
    sweeps, seconds, finished = outcome
    mark = "" if finished else " (cap)"
    return f"{sweeps}{mark} / {seconds:.3f} s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import soundreach as sr
    from workloads import WORKLOADS

    work = run.ROOT / ".perfbench" / "figures"
    try:
        print("| workload | query | svi | ii | gauss_seidel svi |")
        print("|---|---|---|---|---|")
        for workload in WORKLOADS:
            queries, _ = run.build(sr, workload, args.seed, work / workload)
            queries, refs = run.without_cancelling(
                queries, run.references(workload, args.seed)
            )
            run.start_bounds(queries, refs)
            configs = run.make_configs(sr, queries)
            totals = {"svi": [0, 0.0], "ii": [0, 0.0], "gs": [0, 0.0]}
            for q, config in zip(queries, configs):
                svi = solve_once(sr, q, config)
                ii = solve_once(
                    sr, q, config, method=sr.Method.II, topological=False, max_iterations=10**6,
                    lower=0.0 if q.lower is None and q.objective == "prob" else q.lower,
                    upper=1.0 if q.upper is None and q.objective == "prob" else q.upper,
                )
                gs = solve_once(sr, q, config, gauss_seidel=True, topological=False,
                                max_iterations=min(q.max_iterations, GS_CAP))
                if workload == "tiny_batch":
                    for key, outcome in (("svi", svi), ("ii", ii), ("gs", gs)):
                        totals[key][0] += outcome[0]
                        totals[key][1] += outcome[1]
                    continue
                print(f"| {workload} | {q.label} | {cell(svi)} | {cell(ii)} | {cell(gs)} |")
                if q.topological:
                    flat = solve_once(sr, q, config, topological=False)
                    print(f"| {workload} | {q.label} flat | {cell(flat)} | | |")
                if q.objective == "prob" and q.lower is None:
                    bounded = solve_once(sr, q, config, lower=0.0, upper=1.0)
                    print(f"| {workload} | {q.label} [0, 1] | {cell(bounded)} | | |")
            if workload == "tiny_batch":
                row = [f"{s} / {t:.3f} s" for s, t in totals.values()]
                print(f"| tiny_batch | all {len(queries)} queries | " + " | ".join(row) + " |")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
