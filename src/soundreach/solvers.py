"""Numeric solvers for reachability probabilities and expected rewards.

Three iteration schemes are provided.  ``vi_solve`` is classic value
iteration with a difference-based stopping test; it is fast but its results
carry no guarantee.  ``ii_solve`` is interval iteration: twin value
iterations from below and above whose gap certifies the result.
``svi_solve`` iterates two coupled quantities per state — the k-step value
``x`` and the probability ``y`` of still being undecided after k steps —
and derives certified global bounds from the ratios ``x / (1 - y)``.  On
MDPs it additionally tracks a *decision value* that keeps the upper-bound
update honest when the preferred choice of a state could flip.

``vi_solve`` and ``ii_solve`` run one Bellman loop, and ``_result`` forms
every engine's interval.  Every loop sums its choices through the entry
columns of ``_Kernels``, bit for bit the sums of ``np.add.reduceat``, and
choice selection and the decision value exist only there.  ``solve``
wires graph preprocessing and an engine together for one query.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    check_contracting,
    collapse_end_components,
    reach_partition,
    reward_partition,
)
from .errors import ConfigError, IterationLimit, MissingRewardBounds, RewardOnMec
# make_absorbing stays imported: perfbench/tracing.py wraps it here.
from .model import (
    Direction, Partition, SparseModel, _ValueEnum, _ranges, _state_mask, make_absorbing,
)

__all__ = [
    "Objective",
    "Method",
    "SolverConfig",
    "SolveResult",
    "TraceRow",
    "IterationState",
    "neutral_decision",
    "svi_solve",
    "vi_solve",
    "ii_solve",
    "solve",
]


class Objective(_ValueEnum):
    PROBABILITY = "prob"
    REWARD = "reward"


class Method(_ValueEnum):
    VI = "vi"
    II = "ii"
    SVI = "svi"


@dataclass(frozen=True)
class SolverConfig:
    """Everything a solve run needs besides the model and the partition.

    ``lower``/``upper`` are optional scalar initial bounds valid for every
    undecided state.  ``solve`` starts svi queries in a range every value
    lies in (``[0, 1]``, or a sign range for rewards) intersected with
    these bounds; ``svi_solve`` itself starts a missing bound at infinity,
    the topological mode starts every block at these bounds, and interval
    iteration starts probabilities at 0 and 1.
    ``epsilon`` is the absolute precision: certified methods stop once the
    certified interval at the initial state is narrower than
    ``2 * epsilon`` and report its midpoint, so the result is within
    ``epsilon`` of the true value.
    """

    method: Method = Method.SVI
    direction: Direction = Direction.MAXIMIZE
    objective: Objective = Objective.PROBABILITY
    epsilon: float = 1e-6
    topological: bool = False
    lower: float | None = None
    upper: float | None = None
    max_iterations: int = 50_000_000
    record_trace: bool = False

    def validated(self) -> "SolverConfig":
        if not (self.epsilon > 0.0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        lower, upper = self.lower, self.upper
        if (lower is not None and math.isnan(lower)) or (upper is not None and math.isnan(upper)):
            raise ConfigError(f"initial bounds must not be NaN, got [{self.lower}, {self.upper}]")
        if lower is not None and upper is not None and lower > upper:
            raise ConfigError(
                f"initial lower bound {self.lower!r} exceeds upper bound {self.upper!r}"
            )
        if self.topological and self.method is not Method.SVI:
            raise ConfigError("the topological variant is only available for method svi")
        return self


@dataclass(frozen=True)
class TraceRow:
    """Per-iteration bound snapshot: ``y_init`` is y at the initial state."""

    k: int
    lower: float
    upper: float
    decision: float
    y_init: float


@dataclass
class IterationState:
    """Snapshot of one iteration, handed to ``on_iteration`` hooks.

    ``x`` and ``y`` are over the model's states in model order; ``scheduler``
    (``None`` unless a state outside the goal has a choice) is the local
    choice each undecided state took, and 0 at every goal and sure-zero
    state.
    """

    k: int
    x: np.ndarray
    y: np.ndarray
    lower: float
    upper: float
    decision: float
    scheduler: np.ndarray | None


@dataclass
class SolveResult:
    """Outcome of one solve: value, certified interval, and bookkeeping.

    For certified methods ``lower <= value <= upper`` with
    ``upper - lower < 2 * epsilon`` and ``value`` the interval midpoint.
    Plain value iteration reports ``lower == value == upper`` but sets
    ``sound`` to False: nothing certifies those numbers.
    """

    value: float
    lower: float
    upper: float
    iterations: int
    time_ms: float
    method: Method
    sound: bool
    trace: list | None = None


def neutral_decision(direction: Direction) -> float:
    """Decision value that constrains nothing (no alternative recorded yet)."""
    return -math.inf if direction is Direction.MAXIMIZE else math.inf


# ---------------------------------------------------------------------------
# vectorized iteration kernels
# ---------------------------------------------------------------------------


#: a kernel sums its choices in entry columns from this many kept choices
#: on; below, every choice goes to the ``reduceat`` tail.  Measured on
#: random, walk and cycle models of 3-4 entries per choice (numpy 2.4,
#: 2-core x86 host): per sweep the columns sum x and y faster from about
#: 40-60 choices on (4.3 against 4.6 us at 60, 6.0 against 10.0 us at 250),
#: and their set-up adds about 35 us to a kernel, which a kernel of 128
#: choices repays in about 10 sweeps.  Tiny models stay below it.
_COLUMN_CHOICES = 128
#: the most entries of a choice summed in entry columns: ``np.add.reduceat``
#: adds a choice's entries one by one up to 8 entries, and from 9 on in
#: pairwise blocks, which the columns do not reproduce
_COLUMN_ENTRIES = 8


class _Kernels:
    """The iteration kernels and the one layout of their vectors.

    Vectors are in *live-first* order: the ``m`` undecided states of the
    partition, then every other state, each part sorted stably by ``key``
    (ascending state order without one; ``order[i]`` is the state at
    position ``i``, ``position`` the inverse).  A ``key`` must be lower at
    every undecided state than at any decided one.  Only the undecided
    states' choices are kept; each choice's entries stay in model order
    with targets renumbered into live-first order, so every per-choice sum
    adds the products the whole model would add, in the same order (goal
    entries are not folded into a per-choice constant, which would reorder
    the sums and move results by an ulp).  Positions ``m:`` hold the fixed
    values of the decided states, as in ``x_start``/``y_start`` (the goal
    value at goal states, 0 at sure-zero states, ``y = 0`` at both), and
    no step writes them.

    Choices are in one *kernel order*, the order in which the per-choice
    sums (``choice_x``/``choice_y``) come out, and every choice index
    counts in it (``kept``, ``first``, ``columns``, ``choice_state``,
    ``rewards``, the picks of ``select``).  ``state_order`` maps each to
    its index in *state order* (``group_cuts``, ``group_sizes``), each
    undecided state's choices together, and is None where the two agree: a
    kernel of fewer than ``_COLUMN_CHOICES`` kept choices, whose set-up the
    columns would not repay, sums in state order with one ``reduceat``.
    A larger one puts its choices of more than ``_COLUMN_ENTRIES`` entries
    first, in a ``reduceat`` tail, and sums the others over *entry
    columns*, sorted by entry count, longest first, so that column ``j``
    holds the ``j``-th entry of the first ``c_j`` of them.  A sum gathers
    all products into one buffer and adds columns ``2, 3, ...`` into column
    1 and then column 1 into column 0, after the tail's sums: ``p0 + ((p1 +
    p2) + ...)``, the additions of ``reduceat`` in its order, so the sums
    are the same bit for bit.  On a 20,000-state random MDP (40,000
    choices of 3 entries) the columns sum x or y in about 0.2 ms against
    0.6 ms for one gather and ``reduceat``.

    A large kernel of a probability query also leaves out every entry of
    its column choices but the head that leads into a sure-zero state (a
    quarter of the leaky walk's).  Its product, +0.0, leaves a partial sum
    as it is unless that sum is -0.0, which takes -0.0 products, from a
    -0.0 value or a negative one that underflows: probability vectors hold
    +0.0 or more, but for interval iteration's below a negative start bound
    (``_ii_start_vectors`` turns -0.0 into +0.0).  Heads stay, as the next
    entry would start the sum and re-associate the rest, and so do longer
    choices, which ``reduceat`` adds in pairwise blocks.

    Choice selection (``select``) and the decision-value fold
    (``_fold_decision``) exist only here.  Selection and ``state_opt`` go
    over *choice columns*: ``columns[j - 1]`` holds the states with more
    than ``j`` choices and their ``j``-th choice.  So a step costs one
    group of numpy calls per column, ``D - 1`` groups for ``D`` the most
    choices of any undecided state: cheap for a few choices per state,
    slow for a state with hundreds (one state with 1,000 choices in a
    20,000-state model makes a coupled step about 5 times slower, 4.0
    against 0.8 ms).  Selection compares one complex key per choice, its
    tie-break in the imaginary part, so a column takes one comparison;
    remaining ties go to the lowest local choice.  The set-up, a fixed cost
    of every query, and the step's small reductions use the numpy calls
    with the least overhead per call.
    """

    def __init__(
        self,
        model: SparseModel,
        partition: Partition,
        objective: Objective,
        direction: Direction,
        key: np.ndarray | None = None,
    ):
        maybe = partition.maybe
        n = model.num_states
        self.order = (~maybe if key is None else key).argsort(kind="stable")
        self.m = m = int(np.count_nonzero(maybe))
        self.live = self.order[:m]
        self.position = np.empty(n, dtype=np.int64)
        self.position[self.order] = np.arange(n)

        groups = model.row_group_start
        # goal rows are never read, so choices there make no MDP
        self.is_mc = model.is_mc or not np.count_nonzero(model.group_sizes()[~partition.goal] > 1)
        self.model = model
        reward = objective is Objective.REWARD
        self._reward, self._zero = reward, None if reward else partition.s0
        first = groups[self.live]
        self._index(first, groups[self.live + 1] - first, 0)
        self.x_start = np.zeros(n) if reward else partition.goal[self.order].astype(np.float64)
        self.y_start = maybe[self.order].astype(np.float64)
        self.maximize = direction is Direction.MAXIMIZE

    def _index(self, first: np.ndarray, sizes: np.ndarray, lo: int) -> None:
        """Index the ``sizes`` choices of each state from model choice ``first``
        on, targets shifted by ``-lo``: the sums' layout, then kernel order."""
        self.group_sizes = sizes
        self.group_cuts = sizes.cumsum() - sizes
        kept = _ranges(first, sizes, self.group_cuts)
        self.num_choices, owner = len(kept), np.arange(len(sizes)).repeat(sizes)
        self.state_order = order = self._lay_out_sums(kept, lo)
        self.columns, j, states = [], 1, (sizes > 1).nonzero()[0]
        while states.size:
            self.columns.append((states, self.group_cuts[states] + j))
            j += 1
            states = states[sizes[states] > j]
        firsts = self.group_cuts
        if order is not None:
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            kept, owner, firsts = kept[order], owner[order], rank[firsts]
            self.columns = [(states, rank[cols]) for states, cols in self.columns]
        self.kept, self.choice_state, self.first = kept, owner, firsts
        if self.columns:
            self._held = firsts[self.columns[0][0]]
            self._flip = self._held ^ self.columns[0][1]
        self.rewards = self.model.choice_reward[kept] if self._reward else None
        key = np.empty(len(kept), np.complex128)
        self._key = key, key.real, key.imag

    def _lay_out_sums(self, kept: np.ndarray, lo: int) -> np.ndarray | None:
        """Lay out the sums of the model choices ``kept``: their entries and an
        x and a y buffer; returns ``state_order``, indices into ``kept``."""
        model = self.model
        firsts = model.choice_start[kept]
        lengths = model.choice_start[kept + 1] - firsts
        cuts = lengths.cumsum() - lengths
        entries = _ranges(firsts, lengths, cuts)
        targets = model.entry_target[entries]
        order, heights, t = None, [], len(kept)
        if t >= _COLUMN_CHOICES:
            if self._zero is not None and self._zero.any():
                # +0.0 products: into sure-zero states but for heads (see the class)
                drop = self._zero[targets]
                drop[cuts] = False
                if lengths.max() > _COLUMN_ENTRIES:
                    drop &= (lengths <= _COLUMN_ENTRIES).repeat(lengths)
                lengths = lengths - np.add.reduceat(drop, cuts)
                cuts = lengths.cumsum() - lengths
                rest = (~drop).nonzero()[0]
                entries, targets = entries[rest], targets[rest]
            # a stable counting sort: the tail, then the columns longest first
            rank = np.minimum(lengths, _COLUMN_ENTRIES + 1)
            order = (_COLUMN_ENTRIES + 1 - rank).astype(np.uint8).argsort(kind="stable")
            counts = np.bincount(rank, minlength=_COLUMN_ENTRIES + 2).tolist()
            t = counts[-1]
            # c_j, the number of column choices with more than j entries
            heights = [h for h in itertools.accumulate(counts[_COLUMN_ENTRIES:0:-1]) if h][::-1]
            tail, columns = order[:t], order[t:]
            picks = [cuts[columns[:h]] + j for j, h in enumerate(heights)]
            picks.append(_ranges(cuts[tail], lengths[tail]))
            picks = np.concatenate(picks)
            entries, targets = entries[picks], targets[picks]
            cuts = lengths[tail].cumsum() - lengths[tail]
        self.sum_targets = self.position[targets] - lo if lo else self.position[targets]
        self.sum_probs = model.entry_prob[entries]
        self.tail_cuts = cuts if t else None
        ends, size = list(itertools.accumulate(heights, initial=t)), t + len(entries)
        self._sums_x, self._sums_y = self._views(size, ends), self._views(size, ends)
        return order

    @staticmethod
    def _views(size: int, ends: list) -> tuple:
        """A new sums buffer's products, column additions, tail entries, tail
        sums and sums, for columns ending at ``ends[1:]`` (see the class)."""
        buffer, t = np.empty(size), ends[0]
        if len(ends) == 1:  # all in the tail
            return buffer[t:], [], buffer[t:], buffer[:t], buffer[:t]
        columns = [buffer[a:b] for a, b in zip(ends, ends[1:])]
        # columns 2, 3, ... add into column 1, and then column 1 into column 0
        adds = [(columns[1][: len(c)], c) for c in columns[2:]]
        if len(columns) > 1:
            adds.append((columns[0][: len(columns[1])], columns[1]))
        return buffer[t:], adds, buffer[ends[-1] :], buffer[:t], buffer[: ends[1]]

    def part(self, lo: int, hi: int) -> "_Kernels":
        """The kernels of the undecided states at positions ``lo:hi`` alone.

        They step the views ``v[lo:]`` of this kernel's vectors: targets are
        shifted by ``-lo``, so no kept choice of those states may target a
        position below ``lo``.  A part has no layout of its own (no
        ``order`` or start vectors); its choice indices count from its first
        choice.
        """
        part = object.__new__(_Kernels)
        part.m, part.is_mc, part.maximize = hi - lo, self.is_mc, self.maximize
        part.model, part.position = self.model, self.position
        part._reward, part._zero = self._reward, self._zero
        part._index(self.model.row_group_start[self.live[lo:hi]], self.group_sizes[lo:hi], lo)
        return part

    # -- the public edges -----------------------------------------------------

    def to_kernel(self, v) -> np.ndarray:
        """A model-order vector in live-first order."""
        return np.asarray(v, dtype=np.float64)[self.order]

    def to_model(self, v: np.ndarray) -> np.ndarray:
        """A live-first vector in model order (a new array)."""
        out = np.empty_like(v)
        out[self.order] = v
        return out

    def scheduler(self, chosen: np.ndarray) -> np.ndarray:
        """Local choice per state in model order, 0 at decided states."""
        local = np.zeros(len(self.order), dtype=np.int64)
        in_state_order = chosen if self.state_order is None else self.state_order[chosen]
        local[self.live] = in_state_order - self.group_cuts
        return local

    # -- per-choice expectations --------------------------------------------

    def choice_x(self, x: np.ndarray) -> np.ndarray:
        vals = self.choice_y(x, self._sums_x)
        if self.rewards is not None:
            vals += self.rewards
        return vals

    def choice_y(self, y: np.ndarray, views: tuple | None = None) -> np.ndarray:
        """Per kept choice: the sum of ``y[target] * prob`` over its entries
        (``choice_x`` adds the rewards), in a buffer the next call overwrites;
        ``choice_x`` passes its own buffer's ``views``."""
        products, adds, tail, tail_sums, sums = views or self._sums_y
        # the indices are valid: "clip" skips the default mode's buffering
        y.take(self.sum_targets, out=products, mode="clip")
        products *= self.sum_probs
        for total, column in adds:
            total += column
        if self.tail_cuts is not None:
            np.add.reduceat(tail, self.tail_cuts, out=tail_sums)
        return sums

    # -- per-state reductions -------------------------------------------------

    def state_opt(self, choice_vals: np.ndarray) -> np.ndarray:
        reduce = np.maximum if self.maximize else np.minimum
        best = choice_vals[self.first]
        for states, cols in self.columns:
            best[states] = reduce(best[states], choice_vals[cols])
        return best

    def _pick(self, key: np.ndarray, maximize: bool) -> np.ndarray:
        """Per state: the choice with the best complex ``key``, largest or
        smallest in numpy's lexicographic order (real parts first, exact
        ties to the imaginary parts), remaining ties to the lowest local
        choice.

        Starts at each state's first choice and takes a column's choice
        only where its key is strictly better.
        """
        pick = self.first
        for j, (states, cols) in enumerate(self.columns):
            every = len(states) == self.m  # then no gather or scatter
            held = (pick if every else pick[states]) if j else self._held
            new, old = key[cols], key[held]
            better = new > old if maximize else new < old
            # held ^ (held ^ cols) is cols: no branch (np.where's costs several
            # times this on random outcomes); column 1's flips are set up once
            moved = better * (held ^ cols if j else self._flip)
            moved ^= held
            if every:
                pick = moved
            else:
                if pick is self.first:
                    pick = pick.copy()
                pick[states] = moved
        return pick

    def select(self, cx: np.ndarray, cy: np.ndarray, bound: float) -> np.ndarray:
        """Per state: index of the choice the certified step takes.

        At a finite ``bound`` it is the best score ``cx + bound * cy``, exact
        ties to the smallest y-expectation in both directions: the bound
        only tightens, and that choice keeps the best score as it does, so
        no tied alternative pins the bound through its decision value.  At
        an infinite ``bound`` the y-expectation dominates: the largest one,
        ties to the best x-expectation in the query direction.  Remaining
        ties go to the lowest local choice.  Both orders are one complex
        key per choice, the tie-break in its imaginary part (negated where
        it runs against the real part).
        """
        key, real, imag = self._key
        if math.isinf(bound):
            real[:], imag[:] = cy, cx
            if not self.maximize:
                np.negative(imag, out=imag)
            return self._pick(key, True)
        np.multiply(cy, bound, out=real)
        real += cx
        if self.maximize:
            np.negative(cy, out=imag)
        else:
            imag[:] = cy
        return self._pick(key, self.maximize)

    # -- full iteration steps -------------------------------------------------

    def bellman(self, x: np.ndarray) -> np.ndarray:
        """One synchronous optimal step (the plain VI / II operator): the
        new values of the undecided states."""
        return self.state_opt(self.choice_x(x))

    def coupled_step(
        self, x: np.ndarray, y: np.ndarray, bound: float, decision: float
    ) -> tuple[np.ndarray, float]:
        """One iteration of the coupled (x, y) scheme, in place.

        Writes the new values of the undecided states into ``x[:m]`` and
        ``y[:m]`` and returns ``(chosen, decision')``: the choice that
        produced each undecided state's values, and ``decision`` with this
        iteration's decision values folded in.  A decision value may
        overflow to infinity (see ``_fold_decision``): callers that want no
        ``RuntimeWarning`` for it ignore overflow, as ``_certify`` does.
        """
        cx = self.choice_x(x)
        cy = self.choice_y(y)
        chosen = self.first if self.is_mc else self.select(cx, cy, bound)
        x_chosen = cx.take(chosen, out=x[: self.m], mode="clip")
        y_chosen = cy.take(chosen, out=y[: self.m], mode="clip")
        if self.is_mc:
            return chosen, decision
        return chosen, self._fold_decision(cx, cy, x_chosen, y_chosen, decision)

    def _fold_decision(
        self, cx: np.ndarray, cy: np.ndarray, x_chosen: np.ndarray, y_chosen: np.ndarray,
        decision: float,
    ) -> float:
        """``decision`` with the decision values of the choices ``cx``/``cy``
        folded in, where each state took the choice worth ``x_chosen`` and
        ``y_chosen``.

        An alternative whose y-expectation lies strictly below the chosen
        one's crosses it at the bound ``(x_alt - x_chosen) / (y_chosen -
        y_alt)``; maximizing queries keep the largest crossing point (the
        upper bound must never drop below it), minimizing ones the smallest
        (the lower bound must never climb above it).  An alternative tied
        at the current bound would cross exactly there and hold the bound
        in place for good, but ``select`` leaves no tied alternative with a
        smaller y-expectation, so exact ties never count.  Near-ties at
        rounding scale still can.
        """
        # a chosen choice, and so every choice of a one-choice state, has
        # y_delta == 0 and never counts
        y_delta = y_chosen[self.choice_state]
        y_delta -= cy
        eligible = (y_delta > 0.0).nonzero()[0]
        if not eligible.size:
            return decision
        # a subnormal y_delta can overflow a ratio to +-inf: the exact limit
        # of a crossing point beyond every double, so it stays (callers
        # ignore the overflow)
        ratios = cx[eligible]
        ratios -= x_chosen[self.choice_state[eligible]]
        ratios /= y_delta[eligible]
        if self.maximize:
            return max(decision, float(np.maximum.reduce(ratios)))
        return min(decision, float(np.minimum.reduce(ratios)))


# ---------------------------------------------------------------------------
# global bounds
# ---------------------------------------------------------------------------


def _tighten_bounds(
    x_low: np.ndarray,
    x_high: np.ndarray,
    y: np.ndarray,
    lower: float,
    upper: float,
    decision: float,
    maximize: bool,
) -> tuple[float, float]:
    """The global bounds tightened from the undecided states' values: two
    value accumulators sharing ``y``.

    ``lower`` rises to the smallest ratio ``x_low / (1 - y)`` and ``upper``
    falls to the largest ratio ``x_high / (1 - y)``; a one-block run passes
    the same vector twice, a run of more blocks its low and high
    accumulators.  Nothing moves while some ``y`` is 1 (its ratio is
    undefined).  The decision value clamps the bound on the optimizing side,
    so the recorded choices stay optimal for the new bound.
    """
    if y.size == 0 or np.maximum.reduce(y) >= 1.0:
        return lower, upper
    denominators = 1.0 - y
    ratios_low = x_low / denominators
    ratios_high = ratios_low if x_high is x_low else x_high / denominators
    low_candidate = float(np.minimum.reduce(ratios_low))
    high_candidate = float(np.maximum.reduce(ratios_high))
    if maximize:
        return max(lower, low_candidate), min(upper, max(decision, high_candidate))
    return max(lower, min(decision, low_candidate)), min(upper, high_candidate)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _shortcut(
    model: SparseModel, partition: Partition, config: SolverConfig
) -> SolveResult | None:
    """The result of a query whose initial state is decided, else None."""
    s = model.initial_state
    if partition.goal[s]:
        value = 1.0 if config.objective is Objective.PROBABILITY else 0.0
    elif partition.s0[s]:
        value = 0.0
    else:
        return None
    trace = [] if config.record_trace else None
    return _result(config, 0, time.perf_counter(), trace, True, value, value)


def _result(
    config: SolverConfig, iterations: int, started: float, trace, converged: bool,
    x_low: float, x_high: float, y: float = 0.0, lower: float = -math.inf, upper: float = math.inf,
) -> SolveResult:
    """Every engine's result, from the initial state's ``x_low``, ``x_high``
    and ``y`` and the global ``lower``/``upper`` bounds.

    The interval is ``x + y * [lower, upper]``, exactly ``[x_low, x_high]``
    once ``y`` is 0 (always for vi and ii), and the value its midpoint.
    Probability results are clipped into ``[0, 1]``, which holds every
    probability, so a rounding step past 1 cannot leave ``lower`` above
    ``upper`` there.  ``sound`` is ``converged``, and False for vi, whose
    stopping test certifies nothing.  A run that did not converge raises
    :class:`IterationLimit` carrying the result as its partial one.
    """
    x = x_low if x_low == x_high else (x_low + x_high) / 2.0
    if y == 0.0:
        value, lo, hi = x, x_low, x_high
    elif math.isfinite(lower) and math.isfinite(upper):
        value = x + y * (lower + upper) / 2.0
        lo, hi = x_low + y * lower, x_high + y * upper
    else:
        value, lo, hi = x, -math.inf, math.inf
    value, lo, hi = _clipped(config, value, lo, hi)
    elapsed = (time.perf_counter() - started) * 1000.0
    sound = converged and config.method is not Method.VI
    result = SolveResult(value, lo, hi, iterations, elapsed, config.method, sound, trace)
    if not converged:
        raise IterationLimit(
            f"no convergence within {config.max_iterations} iterations", partial=result
        )
    return result


def _clipped(config: SolverConfig, *values: float) -> tuple:
    """``values``, clipped into ``[0, 1]`` for a probability query."""
    if config.objective is Objective.PROBABILITY:
        return tuple(min(max(v, 0.0), 1.0) for v in values)
    return values


def svi_solve(
    model: SparseModel,
    partition: Partition,
    config: SolverConfig,
    on_iteration=None,
) -> SolveResult:
    """Certified solve via coupled value/stay-probability iteration.

    Stops once ``y[init] * (upper - lower) < 2 * epsilon`` — or exactly when
    ``y[init]`` hits zero, in which case ``x[init]`` is the exact answer —
    and returns the midpoint of the certified interval at the initial state.
    A bound the configuration leaves out starts at infinity, as in the
    paper; a probability result is clipped into ``[0, 1]``.  This is the
    one-block case of ``_certify``.  With ``config.topological`` it runs
    ``variants.topological_solve``, which takes no ``on_iteration`` hook:
    passing one raises ``ConfigError``.
    """
    if config.method is not Method.SVI:
        config = replace(config, method=Method.SVI)
    config = config.validated()
    if config.topological:
        if on_iteration is not None:
            raise ConfigError("the topological variant takes no on_iteration hook")
        from .variants import topological_solve

        return topological_solve(model, partition, config)

    short = _shortcut(model, partition, config)
    if short is not None:
        return short
    started = time.perf_counter()
    kern = _Kernels(model, partition, config.objective, config.direction)
    return _certify(model, kern, [(0, kern.m)], config, started, on_iteration)


def _certify(
    model: SparseModel,
    kern: _Kernels,
    blocks: list,
    config: SolverConfig,
    started: float,
    on_iteration=None,
) -> SolveResult:
    """The certified loop, run on ``blocks``: ``(lo, hi)`` ranges of
    undecided positions, successors first, each of whose transitions leaves
    it only for a later position.

    The loop holds on any set of undecided states whose exits carry fixed
    values, so every block runs it unchanged: from the configuration's start
    bounds, with its own bounds and decision value.  With more than one
    block there are *two* value accumulators sharing one stay-probability
    and one choice resolution.  A settled block holds its certified lower
    and upper bounds in them with ``y = 0``, so the accumulators differ only
    in what leaving a block is worth, and their certified intervals bracket
    the true values.  The one the query direction optimizes takes the loop's
    own step.  With one block every exit is a decided state with an exact
    value, and one accumulator serves.

    The block holding the initial state stops once ``y[init]`` is 0 or its
    interval ``x + y * [lower, upper]`` is narrower than ``2 * epsilon``;
    the blocks after it cannot be reached from it and are skipped.  Every
    other block stops once ``y`` is 0 on it or its widest per-state interval
    is narrower than ``2 * epsilon``, and settles to those intervals.  A
    block without cycles takes at most as many sweeps as one path through
    it has states.  The trace gets one row per sweep, its bounds clipped
    into ``[0, 1]`` for a probability query once both are finite, and
    ``on_iteration`` (for one block only) one unclipped snapshot.
    ``_result`` forms the result, also the partial one of
    :class:`IterationLimit`, from the initial state's values and its
    block's bounds: the start bounds until its block runs.
    """
    maximize = config.direction is Direction.MAXIMIZE
    initial = int(kern.position[model.initial_state])
    start_lower = config.lower if config.lower is not None else -math.inf
    start_upper = config.upper if config.upper is not None else math.inf
    neutral = neutral_decision(config.direction)
    x_low, y = kern.x_start.copy(), kern.y_start.copy()
    x_high = x_low if len(blocks) == 1 else kern.x_start.copy()
    x_drive, x_follow = (x_high, x_low) if maximize else (x_low, x_high)
    trace: list[TraceRow] | None = [] if config.record_trace else None
    previous = (
        IterationState(
            0, kern.to_model(x_low), kern.to_model(y), start_lower, start_upper, neutral, None
        )
        if on_iteration
        else None
    )
    threshold = 2.0 * config.epsilon
    k = 0
    # a decision value can overflow to infinity by design (see
    # _Kernels._fold_decision): one errstate for the loop, not one per sweep,
    # and the hook runs under the caller's own
    caller = np.geterr() if on_iteration is not None else None
    with np.errstate(over="ignore"):
        for lo, hi in blocks:
            part = kern if hi - lo == kern.m else kern.part(lo, hi)
            drive, follow, y_tail = x_drive[lo:], x_follow[lo:], y[lo:]
            low, y_part = x_low[lo:hi], y[lo:hi]
            high = low if x_high is x_low else x_high[lo:hi]
            holds_initial = lo <= initial < hi
            lower, upper, decision = start_lower, start_upper, neutral
            done = False
            while not done and k < config.max_iterations:
                k += 1
                bound = upper if maximize else lower
                chosen, decision = part.coupled_step(drive, y_tail, bound, decision)
                if x_follow is not x_drive:
                    follow[: hi - lo] = part.choice_x(follow)[chosen]
                lower, upper = _tighten_bounds(low, high, y_part, lower, upper, decision, maximize)
                y0 = float(y[initial])
                finite = math.isfinite(lower) and math.isfinite(upper)
                if trace is not None:
                    # clipped as the result is once both bounds are finite
                    row = _clipped(config, lower, upper) if finite else (lower, upper)
                    trace.append(TraceRow(k, *row, decision, y0))
                if on_iteration is not None:
                    state = IterationState(
                        k, kern.to_model(x_low), kern.to_model(y), lower, upper, decision,
                        None if kern.is_mc else kern.scheduler(chosen),
                    )
                    with np.errstate(**caller):
                        on_iteration(state, previous)
                    previous = state
                if holds_initial:
                    width = y0 * (upper - lower) if finite else math.inf
                    if x_high is not x_low:
                        width += float(x_high[initial] - x_low[initial])
                    done = y0 == 0.0 or width < threshold
                elif np.maximum.reduce(y_part) == 0.0:
                    done = True
                elif finite:
                    member_low = low + y_part * lower
                    member_high = high + y_part * upper
                    if np.maximum.reduce(member_high - member_low) < threshold:
                        low[:], high[:], y_part[:] = member_low, member_high, 0.0
                        done = True
            converged = done and holds_initial
            if not done or holds_initial:
                break

    if not holds_initial:
        lower, upper = start_lower, start_upper
    x0_low, x0_high, y0 = float(x_low[initial]), float(x_high[initial]), float(y[initial])
    return _result(config, k, started, trace, converged, x0_low, x0_high, y0, lower, upper)


def vi_solve(
    model: SparseModel, partition: Partition, config: SolverConfig
) -> SolveResult:
    """Plain value iteration, stopping when successive vectors differ < epsilon.

    The reported interval is collapsed onto the value and ``sound`` is False:
    the stopping test says nothing about the distance to the true answer.
    A probability result is clipped into ``[0, 1]``.  This is the
    one-vector case of ``_iterate``.
    """
    return _iterate(model, partition, replace(config, method=Method.VI))


def _ii_start_vectors(kern: _Kernels, config: SolverConfig) -> list[np.ndarray]:
    """Interval iteration's lower and upper start vectors, in kernel order.
    Start bounds that cross once a probability query's defaults 0 and 1
    fill in the missing one raise :class:`ConfigError`, as svi's do."""
    lower, upper = config.lower, config.upper
    if config.objective is Objective.REWARD and None in (lower, upper):
        side = "lower" if lower is None else "upper"
        raise MissingRewardBounds(f"interval iteration on rewards needs initial {side} bounds")
    # + 0.0 turns a start bound of -0.0 into +0.0, which _Kernels needs
    lower, upper = 0.0 if lower is None else lower + 0.0, 1.0 if upper is None else upper + 0.0
    if lower > upper:
        raise ConfigError(f"initial lower bound {lower!r} exceeds upper bound {upper!r}")
    starts = [kern.x_start.copy(), kern.x_start.copy()]
    starts[0][: kern.m], starts[1][: kern.m] = lower, upper
    return starts


def ii_solve(
    model: SparseModel, partition: Partition, config: SolverConfig
) -> SolveResult:
    """Interval iteration: twin Bellman iterations from below and above.

    Probability queries default to the trivial bounds 0 and 1; reward
    queries require scalar initial bounds in the configuration.  Stops when
    the widest per-state gap drops below ``2 * epsilon`` and reports the
    interval at the initial state, a probability one clipped into
    ``[0, 1]``.  This is the two-vector case of ``_iterate``.
    """
    return _iterate(model, partition, replace(config, method=Method.II))


def _iterate(model: SparseModel, partition: Partition, config: SolverConfig) -> SolveResult:
    """The Bellman loop of ``vi_solve`` and ``ii_solve``.

    Value iteration steps one vector, started at ``x_start``, and stops once
    a sweep moves no undecided value by ``epsilon`` or more.  Interval
    iteration steps the two vectors of ``_ii_start_vectors`` and stops once
    they are less than ``2 * epsilon`` apart at every state.  A trace row
    holds the lowest and highest vector at the initial state, clipped into
    ``[0, 1]`` for a probability query as the result is.
    """
    config = config.validated()
    short = _shortcut(model, partition, config)
    if short is not None:
        return short

    started = time.perf_counter()
    kern = _Kernels(model, partition, config.objective, config.direction)
    if config.method is Method.VI:
        vectors, threshold = [kern.x_start.copy()], config.epsilon
    else:
        vectors, threshold = _ii_start_vectors(kern, config), 2.0 * config.epsilon
    low, high = vectors[0], vectors[-1]
    initial = int(kern.position[model.initial_state])
    trace: list[TraceRow] | None = [] if config.record_trace else None
    neutral = neutral_decision(config.direction)
    k, converged = 0, False
    while not converged and k < config.max_iterations:
        k += 1
        steps = [kern.bellman(v) for v in vectors]
        # one vector: how far the sweep moved it; two: how far apart they are
        gap = steps[-1] - (steps[0] if high is not low else low[: kern.m])
        for v, step in zip(vectors, steps):
            v[: kern.m] = step
        if trace is not None:
            row = _clipped(config, float(low[initial]), float(high[initial]))
            trace.append(TraceRow(k, *row, neutral, math.nan))
        converged = float(np.abs(gap).max()) < threshold
    return _result(config, k, started, trace, converged, float(low[initial]), float(high[initial]))


# ---------------------------------------------------------------------------
# query orchestration
# ---------------------------------------------------------------------------


def solve(
    model: SparseModel,
    goal,
    config: SolverConfig,
    on_iteration=None,
) -> SolveResult:
    """Answer one reachability/reward query end to end.

    ``goal`` is a label name or a boolean mask.  The qualitative partition
    is computed on the caller's model, with no absorbing copy: it fixes the
    goal's value, and no search or engine reads a goal row.  Maximizing
    probability queries collapse end components so the certified methods
    face a unique fixpoint (minimizing ones face one already, see
    ``reach_partition``); reward queries reject models with an end
    component outside the goal.  svi starts in a range every value lies
    in: ``[0, 1]`` for probabilities; for rewards ``[0, inf)`` when no
    choice of a non-goal state has a negative reward, ``(-inf, 0]`` when
    none has a positive one.  A missing bound becomes the range's end, a
    given one is clipped into it, and one outside it raises
    ``ConfigError``.  A goal mask that is not boolean or has the wrong
    length raises ``DanglingTarget``, an unknown goal label
    ``UnknownLabelId``.  An ``on_iteration`` hook for vi, ii or the
    topological mode raises ``ConfigError`` before any preprocessing.  The
    reported time covers the preprocessing too.

    The collapse and its end-component search are skipped where every
    undecided state has one choice: an end component there is a closed set
    without the goal, which ``prob0_max`` has put in ``s0``, so the
    collapse would be the identity and skipping it changes no number.
    """
    config = config.validated()
    if on_iteration is not None and (config.method is not Method.SVI or config.topological):
        raise ConfigError("only the flat svi solve takes an on_iteration hook")
    started = time.perf_counter()
    goal_mask = model.label_mask(goal) if isinstance(goal, str) else _state_mask(model, goal)
    if config.method is Method.SVI:
        low, high = 0.0, 1.0
        if config.objective is Objective.REWARD:
            rewards = model.choice_reward[~goal_mask[model.choice_state()]]
            low = 0.0 if (rewards >= 0.0).all() else -math.inf
            high = 0.0 if (rewards <= 0.0).all() else math.inf
        config = replace(
            config,
            lower=max(low, -math.inf if config.lower is None else config.lower),
            upper=min(high, math.inf if config.upper is None else config.upper),
        ).validated()
    if config.objective is Objective.REWARD:
        if not check_contracting(model, goal_mask):
            raise RewardOnMec(
                "reward query on a model with an end component outside the goal"
            )
        partition = reward_partition(model, goal_mask)
    else:
        partition = reach_partition(model, goal_mask, config.direction)
        maybe = partition.maybe
        if config.direction is Direction.MAXIMIZE and not model.is_mc and (
            np.count_nonzero(maybe[model.choice_state()]) > np.count_nonzero(maybe)
        ):
            quotient = collapse_end_components(model, partition)
            model, partition = quotient.model, quotient.partition

    if config.method is Method.SVI:
        result = svi_solve(model, partition, config, on_iteration)
    elif config.method is Method.VI:
        result = vi_solve(model, partition, config)
    else:
        result = ii_solve(model, partition, config)
    result.time_ms = (time.perf_counter() - started) * 1000.0
    return result
