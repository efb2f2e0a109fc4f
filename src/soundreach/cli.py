"""Command-line front end and benchmark harness.

Three subcommands:

``check``
    answers one query on one model and prints a single machine-parseable
    line: ``result=<r> bounds=[<lo>,<hi>] iterations=<k> time_ms=<t>``.
``bench``
    runs every instance of a manifest against a grid of methods and
    variants, collecting one CSV row per combination.
``compare``
    digests such a CSV into per-instance iteration/time ratios between
    interval iteration and the certified coupled iteration, plus
    scatter-ready columns.

Exit codes: 0 success, 2 for input problems (bad files, bad flags), 3 for
solver-side failures (non-convergence, violated preconditions).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, MalformedCsv, ModelError, SolverError
from .explicit import load_model
from .model import Direction, SparseModel, _ValueEnum
from .solvers import Method, Objective, SolveResult, SolverConfig, solve

__all__ = [
    "BenchRecord",
    "CSV_HEADER",
    "run_cli",
    "bench_run",
    "compare_report",
    "main",
]


def _fmt(value: float) -> str:
    return repr(float(value))


def _cell(value) -> str:
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


@dataclass
class BenchRecord:
    """One benchmark measurement; its fields but ``error`` are the CSV
    columns.  ``error`` is set instead of the numeric result columns when
    the run failed, and rides along as an extra trailing column."""

    model: str
    states: int
    choices: int
    transitions: int
    method: str
    topological: bool
    direction: str
    objective: str
    epsilon: float
    result: float | None = None
    lower: float | None = None
    upper: float | None = None
    iterations: int = -1
    time_ms: float | None = None
    error: str | None = None

    def to_row(self) -> list[str]:
        row = [_cell(getattr(self, name)) for name in CSV_HEADER]
        return row if self.error is None else row + [self.error]

    def fill(self, result: SolveResult) -> "BenchRecord":
        """Set the result columns from ``result``."""
        self.result, self.lower, self.upper = result.value, result.lower, result.upper
        self.iterations, self.time_ms = result.iterations, result.time_ms
        return self


CSV_HEADER = [f.name for f in fields(BenchRecord) if f.name != "error"]


class Variant(_ValueEnum):
    PLAIN = "plain"
    TOPOLOGICAL = "topological"


def _record(name: str, model: SparseModel | None, config: SolverConfig) -> BenchRecord:
    """The record of one query with empty result columns; a model that did
    not load counts 0 states, choices and transitions."""
    sizes = (0, 0, 0) if model is None else (
        model.num_states, model.num_choices, model.num_transitions
    )
    return BenchRecord(
        name, *sizes, config.method.value, config.topological,
        config.direction.value, config.objective.value, float(config.epsilon),
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soundreach",
        description="Certified reachability and expected-reward solving "
        "for explicit-state Markov models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="answer one query on one model")
    check.add_argument("--tra", required=True, help="transition file")
    check.add_argument("--lab", required=True, help="label file (must mark 'init')")
    check.add_argument("--srew", help="state reward file")
    check.add_argument("--trew", help="choice reward file")
    check.add_argument("--goal", required=True, help="label naming the goal states")
    check.add_argument(
        "--objective", choices=["prob", "reward"], default="prob",
        help="reachability probability or expected reward (default: prob)",
    )
    check.add_argument(
        "--direction", choices=["max", "min"], default="max",
        help="optimize choices up or down; ignored for chains (default: max)",
    )
    check.add_argument(
        "--method", choices=["vi", "ii", "svi"], default="svi",
        help="iteration scheme (default: svi)",
    )
    check.add_argument(
        "--topological", action="store_true", help="solve SCC by SCC (svi only)"
    )
    check.add_argument("--epsilon", type=float, default=1e-6, help="precision (default: 1e-6)")
    clipped = "; svi starts probabilities at [0, 1], rewards of one sign at 0, and clips into that"
    check.add_argument("--lower", type=float, help="initial lower bound" + clipped)
    check.add_argument("--upper", type=float, help="initial upper bound" + clipped)
    check.add_argument("--stats", metavar="CSVPATH", help="append one CSV record here")
    check.add_argument(
        "--trace", action="store_true", help="print per-iteration bound lines"
    )

    bench = sub.add_parser("bench", help="run a manifest of instances to CSV")
    bench.add_argument("manifest", help="instance list, one per line")
    bench.add_argument(
        "--out", default="bench_results.csv", help="output CSV path (default: bench_results.csv)"
    )
    bench.add_argument(
        "--methods", default="svi,ii",
        help="comma-separated subset of vi,ii,svi (default: svi,ii)",
    )
    bench.add_argument(
        "--variants", default="plain",
        help="comma-separated subset of plain,topological (default: plain)",
    )
    bench.add_argument("--epsilon", type=float, default=1e-6, help="precision (default: 1e-6)")

    compare = sub.add_parser("compare", help="summarize a benchmark CSV")
    compare.add_argument("csv", help="CSV written by the bench subcommand")
    return parser


def _config_from_args(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        method=Method.parse(args.method),
        direction=Direction.parse(args.direction),
        objective=Objective.parse(args.objective),
        epsilon=args.epsilon,
        topological=args.topological,
        lower=args.lower,
        upper=args.upper,
        record_trace=args.trace,
    )


def _run_check(args: argparse.Namespace) -> int:
    bundle = load_model(args.tra, args.lab, srew_path=args.srew, trew_path=args.trew)
    config = _config_from_args(args)
    if config.method is Method.VI:
        print(
            "warning: value iteration gives no guarantee on the result; "
            "the reported bounds are not sound",
            file=sys.stderr,
        )
    result = solve(bundle.model, args.goal, config)
    if args.trace and result.trace is not None:
        for row in result.trace:
            print(
                f"iter={row.k} lower={_fmt(row.lower)} upper={_fmt(row.upper)} "
                f"decision={_fmt(row.decision)} y_init={_fmt(row.y_init)}"
            )
    print(
        f"result={_fmt(result.value)} bounds=[{_fmt(result.lower)},{_fmt(result.upper)}] "
        f"iterations={result.iterations} time_ms={result.time_ms:.3f}"
    )
    if args.stats:
        record = _record(Path(args.tra).stem, bundle.model, config).fill(result)
        _append_record(Path(args.stats), record)
    return 0


def _append_record(path: Path, record: BenchRecord) -> None:
    """Append one row; a new or empty file gets the header first, and a file
    with any other header is left untouched."""
    header = None
    if path.exists():
        with path.open(newline="") as handle:
            header = next(csv.reader(handle), None)
        if header is not None and header != CSV_HEADER:
            raise MalformedCsv(f"{path}: unexpected header {header!r}")
    with path.open("a", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if header is None:
            writer.writerow(CSV_HEADER)
        writer.writerow(record.to_row())


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Instance:
    name: str
    tra: Path
    lab: Path
    goal: str
    objective: Objective
    direction: Direction
    srew: Path | None = None
    trew: Path | None = None
    lower: float | None = None
    upper: float | None = None


def _parse_manifest(path: Path) -> list[_Instance]:
    instances = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 6:
            raise ConfigError(
                f"manifest line needs at least 6 fields "
                f"(name tra lab goal objective direction): {line!r}"
            )
        name, tra, lab, goal, objective, direction = tokens[:6]
        extras: dict[str, str] = {}
        for token in tokens[6:]:
            if "=" not in token:
                raise ConfigError(f"manifest extra field must be key=value: {token!r}")
            key, value = token.split("=", 1)
            if key not in ("srew", "trew", "lower", "upper"):
                raise ConfigError(f"unknown manifest field {key!r} in {line!r}")
            extras[key] = value
        base = path.parent
        try:
            instances.append(
                _Instance(
                    name=name,
                    tra=base / tra,
                    lab=base / lab,
                    goal=goal,
                    objective=Objective.parse(objective),
                    direction=Direction.parse(direction),
                    srew=base / extras["srew"] if "srew" in extras else None,
                    trew=base / extras["trew"] if "trew" in extras else None,
                    lower=float(extras["lower"]) if "lower" in extras else None,
                    upper=float(extras["upper"]) if "upper" in extras else None,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"manifest line {line!r}: {exc}") from None
    return instances


def _parse_list(text: str, parse, what: str) -> list:
    """The distinct entries of a comma-separated list, in first-seen order."""
    picked = []
    for token in filter(None, map(str.strip, text.split(","))):
        try:
            item = parse(token)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if item not in picked:
            picked.append(item)
    if not picked:
        raise ConfigError(f"no {what} selected")
    return picked


def bench_run(
    manifest_path,
    out_path=None,
    *,
    methods: str = "svi,ii",
    variants: str = "plain",
    epsilon: float = 1e-6,
) -> Path:
    """Run every manifest instance against the method/variant grid.

    One CSV row per combination; failed runs keep their row with
    ``iterations=-1``, empty numeric columns, and the error name appended as
    an extra trailing column.  Combinations that make no sense (topological
    with a method other than svi) are skipped.  Returns the CSV path.
    """
    manifest_path = Path(manifest_path)
    out = Path(out_path) if out_path is not None else Path("bench_results.csv")
    instances = _parse_manifest(manifest_path)
    method_list = _parse_list(methods, Method.parse, "methods")
    variant_list = _parse_list(variants, Variant.parse, "variants")

    records = []
    for instance in instances:
        model, load_error = None, None
        try:
            model = load_model(
                instance.tra, instance.lab,
                srew_path=instance.srew, trew_path=instance.trew,
            ).model
        except (ModelError, OSError) as exc:
            load_error = type(exc).__name__
        for method in method_list:
            for variant in variant_list:
                if variant is Variant.TOPOLOGICAL and method is not Method.SVI:
                    continue
                config = SolverConfig(
                    method=method,
                    direction=instance.direction,
                    objective=instance.objective,
                    epsilon=epsilon,
                    topological=variant is Variant.TOPOLOGICAL,
                    lower=instance.lower,
                    upper=instance.upper,
                )
                record = _record(instance.name, model, config)
                record.error = load_error
                if model is not None:
                    try:
                        record.fill(solve(model, instance.goal, config))
                    except (ModelError, SolverError) as exc:
                        record.error = type(exc).__name__
                records.append(record)

    with out.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(record.to_row())
    return out


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _read_bench_csv(path: Path) -> list[dict]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise MalformedCsv(f"cannot read {path}: {exc}") from None
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedCsv(f"{path}: empty file") from None
    if header != CSV_HEADER:
        raise MalformedCsv(f"{path}: unexpected header {header!r}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) not in (len(CSV_HEADER), len(CSV_HEADER) + 1):
            raise MalformedCsv(f"{path}:{lineno}: wrong column count {len(row)}")
        entry = dict(zip(CSV_HEADER, row))
        entry["error"] = row[len(CSV_HEADER)] if len(row) > len(CSV_HEADER) else None
        try:
            entry["iterations"] = int(entry["iterations"])
            entry["time_ms"] = float(entry["time_ms"]) if entry["time_ms"] else None
            entry["result"] = float(entry["result"]) if entry["result"] else None
        except ValueError as exc:
            raise MalformedCsv(f"{path}:{lineno}: {exc}") from None
        rows.append(entry)
    return rows


def _geometric_mean(values: list[float]) -> float | None:
    usable = [v for v in values if v > 0.0]
    if not usable:
        return None
    return math.exp(sum(math.log(v) for v in usable) / len(usable))


def compare_report(csv_path) -> str:
    """Summarize a benchmark CSV: per-instance ii-over-svi ratios, their
    geometric means, and two scatter-ready column dumps (one line per
    instance where both methods succeeded, svi first)."""
    rows = _read_bench_csv(Path(csv_path))

    picked: dict[str, dict[str, dict]] = {}
    for row in rows:
        if row["error"] is not None or row["iterations"] < 0:
            continue
        if row["topological"] != "False":
            continue
        if row["method"] not in ("svi", "ii"):
            continue
        slot = picked.setdefault(row["model"], {})
        slot.setdefault(row["method"], row)

    lines: list[str] = [f"instances: {len(picked)}"]
    iteration_ratios: list[float] = []
    time_ratios: list[float] = []
    scatter_iterations: list[str] = []
    scatter_time: list[str] = []

    for name in sorted(picked):
        svi = picked[name].get("svi")
        ii = picked[name].get("ii")
        if svi is None or ii is None:
            lines.append(f"{name}: iterations_ratio=n/a time_ratio=n/a")
            continue
        if svi["iterations"] > 0:
            it_ratio = ii["iterations"] / svi["iterations"]
            iteration_ratios.append(it_ratio)
            it_text = f"{it_ratio:.6g}"
        else:
            it_text = "n/a"
        if svi["time_ms"] and ii["time_ms"] and svi["time_ms"] > 0.0:
            t_ratio = ii["time_ms"] / svi["time_ms"]
            time_ratios.append(t_ratio)
            t_text = f"{t_ratio:.6g}"
        else:
            t_text = "n/a"
        lines.append(
            f"{name}: svi_iterations={svi['iterations']} ii_iterations={ii['iterations']} "
            f"iterations_ratio={it_text} time_ratio={t_text}"
        )
        scatter_iterations.append(f"{svi['iterations']} {ii['iterations']}")
        scatter_time.append(f"{_fmt(svi['time_ms'])} {_fmt(ii['time_ms'])}")

    geo_it = _geometric_mean(iteration_ratios)
    geo_t = _geometric_mean(time_ratios)
    lines.append(
        "geometric_mean: "
        f"iterations_ratio={'n/a' if geo_it is None else f'{geo_it:.6g}'} "
        f"time_ratio={'n/a' if geo_t is None else f'{geo_t:.6g}'}"
    )
    lines.append("scatter iterations (svi ii)")
    lines.extend(scatter_iterations)
    lines.append("scatter time_ms (svi ii)")
    lines.extend(scatter_time)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_cli(argv=None) -> int:
    """Parse ``argv`` and run one subcommand; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "bench":
            out = bench_run(
                args.manifest,
                args.out,
                methods=args.methods,
                variants=args.variants,
                epsilon=args.epsilon,
            )
            print(f"wrote {out}")
            return 0
        if args.command == "compare":
            print(compare_report(args.csv))
            return 0
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(run_cli())
