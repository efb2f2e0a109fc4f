"""Benchmark: certified answers from model files, checked against references.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload file_mdps --seed 1 --seconds 30 --trace 0

One run builds the workload's models from the seed and writes them as
``.tra``/``.lab``/``.trew`` files, has a separate process compute reference
values without soundreach (``reference.py``), then answers every query from
its files (``load_model`` and ``solve``, as ``soundreach check`` does) in
whole passes until ``--seconds`` have passed.  Every answer of every pass is
checked against the reference.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).  See
README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

# before numpy is first imported, here and in every interpreter started
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: fewest samples behind the medians of setup_s and startup_s
MIN_SAMPLES = 7
IMPORTTIME_LAUNCHES = 5
#: rounding allowance of the correctness check, relative to the reference
ALLOWANCE = 1e-12
#: a reward value below this share of the largest value magnitude among the
#: model's states cancels out of much larger terms (see README.md)
CANCELLING = 1e-3
EPSILON = 1e-6  # SolverConfig's default precision


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def build(sr, workload, seed, work: Path):
    """Build each model through ``validate_model`` and write its files.

    Returns the queries and the CPU time this process spent in
    ``validate_model`` and ``write_model``; generating a model's lists is
    the benchmark's own work and is not counted.  Models come one at a time
    and are dropped once written, so set-up holds at most one of them
    besides the queries.
    """
    from workloads import make_queries

    work.mkdir(parents=True, exist_ok=True)
    queries = []
    written = {}
    spent = 0.0
    for q in make_queries(workload, seed):
        m = q.model
        if m.name not in written:
            choices = [[dict(zip(t, p)) for t, p in group] for group in m.choices]
            stem = work / m.name
            files = {"tra": f"{stem}.tra", "lab": f"{stem}.lab"}
            if m.rewards is not None:
                files["trew"] = f"{stem}.trew"
            started = time.process_time()
            model = sr.validate_model(
                choices,
                initial_state=m.init,
                rewards=m.rewards,
                labels={"init": [m.init], "goal": m.goal},
            )
            sr.write_model(model, files["tra"], files["lab"], files.get("trew"))
            spent += time.process_time() - started
            written[m.name] = files
        q.files = written[m.name]
        q.model = None
        queries.append(q)
    return queries, spent


def references(workload, seed):
    """Reference values from a separate process, which never imports
    soundreach and whose memory does not count toward this one's peak."""
    out = subprocess.run(
        [sys.executable, str(HERE / "reference.py"), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(out.stdout)


def without_cancelling(queries, refs):
    """The queries and references left once reward queries whose value
    cancels are dropped: their certified bounds can miss the value by
    rounding errors wider than the allowance."""
    kept = [
        (q, ref) for q, ref in zip(queries, refs)
        if q.objective != "reward" or abs(ref["init"]) >= CANCELLING * ref["scale"]
    ]
    return [q for q, _ in kept], [ref for _, ref in kept]


def start_bounds(queries, refs):
    """Valid start bounds for the queries that ask for them: the range of
    the reference values over all non-goal states, each end moved out by a
    tenth of its magnitude plus 1."""
    for q, ref in zip(queries, refs):
        if q.bounds_from_reference:
            lo, hi = ref["low"], ref["high"]
            q.lower = lo - 0.1 * abs(lo) - 1.0
            q.upper = hi + 0.1 * abs(hi) + 1.0


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------


def make_configs(sr, queries):
    return [
        sr.SolverConfig(
            direction=sr.Direction.parse(q.direction),
            objective=sr.Objective.parse(q.objective),
            lower=q.lower,
            upper=q.upper,
            topological=q.topological,
            max_iterations=q.max_iterations,
        )
        for q in queries
    ]


def answer_pass(sr, queries, configs, load_model, solve):
    """Answer every query once, from its files.  Returns one
    ``(value, lower, upper, iterations, error)`` tuple per query."""
    outcomes = []
    for q, config in zip(queries, configs):
        files = q.files
        try:
            bundle = load_model(files["tra"], files["lab"], None, files.get("trew"))
            r = solve(bundle.model, "goal", config)
            outcomes.append((r.value, r.lower, r.upper, r.iterations, None))
        except sr.IterationLimit as exc:
            sweeps = exc.partial.iterations if exc.partial is not None else config.max_iterations
            outcomes.append((None, None, None, sweeps, "cap"))
        except (sr.SolverError, sr.ModelError) as exc:
            outcomes.append((None, None, None, 0, type(exc).__name__))
    return outcomes


def run_passes(sr, queries, configs, seconds, between):
    """Untraced passes until ``seconds`` have passed, calling ``between()``
    after each; returns the pass times and every pass's outcomes."""
    times, results = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        results.append(answer_pass(sr, queries, configs, sr.load_model, sr.solve))
        times.append(time.perf_counter() - started)
        between()
        if time.perf_counter() >= deadline:
            return times, results


def traced_passes(sr, queries, configs, seconds):
    """Alternate untraced and traced passes until ``seconds`` have passed.

    Alternating keeps the two medians, whose difference is the tracing
    overhead, on the same host conditions.  Returns the untraced and traced
    pass times, every pass's outcomes, and each traced pass's layer figures.
    """
    from tracing import Tracer

    tracer = Tracer()
    load_model = tracer.wrap("explicit.load_model", sr.load_model)
    solve = tracer.wrap("solvers.solve", sr.solve)
    plain, traced, results, per_pass = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        results.append(answer_pass(sr, queries, configs, sr.load_model, sr.solve))
        plain.append(time.perf_counter() - started)
        tracer.install(sr)
        try:
            started = time.perf_counter()
            outcomes = answer_pass(sr, queries, configs, load_model, solve)
            traced.append(time.perf_counter() - started)
        finally:
            tracer.uninstall()
        results.append(outcomes)
        per_pass.append(layer_metrics(tracer, outcomes))
        tracer.clear()
        if time.perf_counter() >= deadline:
            return plain, traced, results, per_pass


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check(queries, refs, results):
    """Count failures and check every answer; returns ``(failed, correct)``.

    A failure of a query that is not a known fault makes the run incorrect.
    Also reports on standard error the worst distance by which a reference
    fell outside its certified interval, relative to the reference (0 when
    every interval holds its reference exactly)."""
    failed = 0
    correct = True
    worst = 0.0
    for outcomes in results:
        for q, ref, (value, lower, upper, _, error) in zip(queries, refs, outcomes):
            if error is not None:
                failed += 1
                if q.fault is None:
                    correct = False
                    print(f"unexpected failure: {q.label}: {error}", file=sys.stderr)
                continue
            want = ref["init"]
            miss = max(lower - want, want - upper, 0.0)
            if miss:
                worst = max(worst, miss / abs(want) if want else float("inf"))
            slack = ALLOWANCE * abs(want)
            ok = (
                miss <= slack
                and upper - lower < 2 * EPSILON
                and abs(value - want) <= EPSILON + slack
            )
            if not ok:
                correct = False
                print(
                    f"wrong answer: {q.label}: [{lower!r}, {upper!r}] value {value!r}, "
                    f"reference {want!r}",
                    file=sys.stderr,
                )
    print(f"worst_relative_miss={worst:.3g}", file=sys.stderr)
    return failed, correct


# ---------------------------------------------------------------------------
# fresh interpreters
# ---------------------------------------------------------------------------


def launch_seconds(code: str, expect: str = "") -> float:
    """Wall time of a fresh interpreter that runs ``code``, from process
    start to exit; ``expect`` must appear in its standard output."""
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_env(),
        capture_output=True, text=True, timeout=60,
    )
    seconds = time.perf_counter() - started
    if out.returncode != 0 or expect not in out.stdout:
        raise RuntimeError(f"{code!r} failed: {out.stderr.strip()}")
    return seconds


class Interleaved:
    """The samples of ``setup_s`` and ``startup_s``, taken between passes so
    that their medians see the same host as the passes do.

    ``step`` takes one of each: a fresh interpreter that imports soundreach
    (the import part of ``setup_s``), a rebuild of the workload's files (the
    build part), and a fresh interpreter that runs the console script that
    ``[project.scripts]`` declares, with ``--help`` (``startup_s``).

    A rebuild writes the same files again, in place, and counts the CPU time
    of ``validate_model`` and ``write_model`` rather than their wall time.
    Creating files, and waiting for the old contents' writeback before
    truncating them, cost the file system's time, not the program's: on
    ``tiny_batch`` writing the 3,000 files into a new directory took 0.2 s
    at one time and 1.5 to 1.9 s, nearly all of it kernel time, minutes
    later, and ``write_model``'s wall time on a rebuild was about twice its
    CPU time.
    """

    def __init__(self, sr, workload, seed, work):
        with open(ROOT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["soundreach"]
        module, func = target.split(":")
        self.script = (
            f"import sys; sys.argv = ['soundreach', '--help']; "
            f"from {module} import {func}; sys.exit({func}())"
        )
        self.rebuild = lambda: build(sr, workload, seed, work)[1]
        self.imports: list[float] = []
        self.builds: list[float] = []
        self.startups: list[float] = []

    def step(self):
        self.imports.append(launch_seconds("import soundreach"))
        self.builds.append(self.rebuild())
        self.startups.append(launch_seconds(self.script, expect="usage"))

    def medians(self) -> tuple[float, float]:
        """``(setup_s, startup_s)``, once there are ``MIN_SAMPLES`` of each."""
        while len(self.startups) < MIN_SAMPLES:
            self.step()
        setup_s = statistics.median(self.imports) + statistics.median(self.builds)
        return setup_s, statistics.median(self.startups)


def package_import_seconds():
    """Median over fresh interpreters of the summed self import time of
    soundreach's own modules, from ``-X importtime``."""
    totals = []
    for _ in range(IMPORTTIME_LAUNCHES):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import soundreach"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        micros = 0
        for line in out.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().split(".")[0] == "soundreach":
                micros += int(parts[0].split(":")[1])
        totals.append(micros / 1e6)
    return statistics.median(totals)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: span names start with the module that defines the function: its layer
LAYERS = ("explicit", "model", "analysis", "solvers", "variants")


def layer_metrics(tracer, outcomes) -> dict:
    """Per-layer figures of one traced pass."""
    selfs = tracer.self_times()

    def self_s(name):
        return selfs.get(name, (0.0, 0))[0]

    def calls(name):
        return selfs.get(name, (0.0, 0))[1]

    transition_sweeps = flat_svi_self = 0.0
    for row, own in zip(tracer.spans, tracer.span_selfs()):
        if row[0] == "solvers.svi_solve" and not row[4]["topological"]:
            transition_sweeps += row[4]["transitions"] * row[4]["iterations"]
            flat_svi_self += own
    loaded = sum(row[4]["bytes"] for row in tracer.spans if row[0] == "explicit.load_model")
    load_self = self_s("explicit.load_model")
    out = {
        "explicit.load_self_s": load_self,
        "explicit.parse_mb_per_s": loaded / 1e6 / load_self if load_self else 0.0,
        "model.validate_self_s": self_s("model.validate_model"),
        "model.validate_calls": calls("model.validate_model"),
        "model.make_absorbing_self_s": self_s("model.make_absorbing"),
        "analysis.mec_decompose_s": self_s("analysis.mec_decompose"),
        "analysis.mec_decompose_calls": calls("analysis.mec_decompose"),
        "analysis.collapse_self_s": self_s("analysis.collapse_end_components"),
        "analysis.prob0_s": self_s("analysis.prob0"),
        "analysis.scc_order_s": self_s("analysis.scc_order"),
        "variants.topological_self_s": self_s("variants.topological_solve"),
        "solvers.svi_self_s": self_s("solvers.svi_solve"),
        "solvers.ns_per_transition_sweep": (
            flat_svi_self * 1e9 / transition_sweeps if transition_sweeps else 0.0
        ),
        "solvers.capped_sweeps": sum(o[3] for o in outcomes if o[4] == "cap"),
        "solvers.solve_self_s": self_s("solvers.solve"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            total for name, (total, _) in selfs.items()
            if name.split(".")[0] == layer
        )
    return out


def declared_metrics() -> dict[str, str]:
    """``{metric name: unit}`` for every metric ``BENCHMARK.json`` declares."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _rounded(times):
    return [round(t, 3) for t in times]


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "soundreach" / "__init__.py").is_file():
        print(f"no soundreach package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import soundreach as sr

    if not Path(sr.__file__).resolve().is_relative_to(SRC):
        print(f"soundreach imported from {sr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        queries, _ = build(sr, args.workload, args.seed, work)
        rss_setup = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        queries, refs = without_cancelling(queries, references(args.workload, args.seed))
        start_bounds(queries, refs)
        configs = make_configs(sr, queries)

        if args.trace:
            plain_times, traced_times, results, per_pass = traced_passes(
                sr, queries, configs, args.seconds
            )
            values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
            values["cli.package_import_s"] = package_import_seconds()
            values["trace.overhead_s"] = (
                statistics.median(traced_times) - statistics.median(plain_times)
            )
        else:
            samples = Interleaved(sr, args.workload, args.seed, work)
            times, results = run_passes(sr, queries, configs, args.seconds, samples.step)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setup_s, startup_s = samples.medians()
            values = {
                "answer_s": statistics.median(times),
                "sweeps": statistics.median_low(
                    sum(o[3] for o in outcomes) for outcomes in results
                ),
                "setup_s": setup_s,
                "peak_rss_mb": peak,
                "startup_s": startup_s,
            }
            print(
                f"passes={len(times)} pass_s={_rounded(times)} "
                f"import_s={_rounded(samples.imports)} build_s={_rounded(samples.builds)} "
                f"startup_s={_rounded(samples.startups)} "
                f"rss_after_setup_mb={rss_setup:.1f} peak_mb={peak:.1f}",
                file=sys.stderr,
            )
        failed, correct = check(queries, refs, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    units = declared_metrics()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": len(results) * len(queries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
