"""Spans around soundreach's public functions, for the traced run.

``Tracer.install`` replaces each function named in ``SITES`` by a timing
wrapper in every module that calls it by name, so the calls that ``solve``
and ``load_model`` make inside the package are timed too.  Spans stay in
memory as ``[name, start, end, parent, info]`` rows; ``self_times`` turns
them into per-name totals of duration minus child spans.
"""

from __future__ import annotations

import functools
import os
import time

# (module, attribute, span name): the span name is "<defining module>.<function>"
SITES = [
    ("explicit", "validate_model", "model.validate_model"),
    ("model", "validate_model", "model.validate_model"),
    ("analysis", "validate_model", "model.validate_model"),
    ("variants", "validate_model", "model.validate_model"),
    ("solvers", "make_absorbing", "model.make_absorbing"),
    ("solvers", "check_contracting", "analysis.check_contracting"),
    ("solvers", "collapse_end_components", "analysis.collapse_end_components"),
    ("solvers", "reach_partition", "analysis.reach_partition"),
    ("solvers", "reward_partition", "analysis.reward_partition"),
    ("analysis", "mec_decompose", "analysis.mec_decompose"),
    ("analysis", "prob0_max", "analysis.prob0"),
    ("analysis", "prob0_min", "analysis.prob0"),
    ("variants", "scc_order", "analysis.scc_order"),
    ("solvers", "svi_solve", "solvers.svi_solve"),
    ("variants", "topological_solve", "variants.topological_solve"),
]


def _info(name, args, result, error):
    """What a span records besides its times."""
    if name == "solvers.svi_solve":
        partial = getattr(error, "partial", None)
        outcome = result if error is None else partial
        return {
            "transitions": args[0].num_transitions,
            "iterations": outcome.iterations if outcome is not None else 0,
            "topological": bool(args[2].topological),
        }
    if name == "explicit.load_model":
        return {"bytes": sum(os.path.getsize(p) for p in args if p is not None)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            row = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(row)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                row[2] = time.perf_counter()
                stack.pop()
                row[4] = _info(name, args, result, error)

        return timed

    def install(self, package):
        for module_name, attr, span in SITES:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(span, original))
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def clear(self):
        self.spans.clear()

    def span_selfs(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over the recorded spans."""
        out: dict[str, tuple[float, int]] = {}
        for row, own in zip(self.spans, self.span_selfs()):
            total, calls = out.get(row[0], (0.0, 0))
            out[row[0]] = (total + own, calls + 1)
        return out
