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

``find_action`` and ``decision_value`` expose the step's choice selection
and decision value for one state; they run the same kernels as the loop.
``oracle_solve`` is the exact reference: dense linear algebra for chains,
exhaustive positional-scheduler enumeration for (small) MDPs.  ``solve``
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
from .errors import (
    ConfigError,
    InvalidChoiceIndex,
    IterationLimit,
    MissingRewardBounds,
    NotContracting,
    RewardOnMec,
    TooLargeForOracle,
)
from .model import (
    Direction, Partition, SparseModel, _ValueEnum, _checked_choices, _ranges, make_absorbing,
)

__all__ = [
    "Objective",
    "Method",
    "SolverConfig",
    "SolveResult",
    "TraceRow",
    "IterationState",
    "bellman_step_f",
    "bellman_step_g",
    "bellman_step_h",
    "find_action",
    "decision_value",
    "update_global_bounds",
    "neutral_decision",
    "svi_solve",
    "vi_solve",
    "ii_solve",
    "oracle_solve",
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
    undecided state.  ``solve`` starts svi probability queries at ``[0, 1]``
    intersected with these bounds; ``svi_solve`` itself starts a missing
    bound at infinity, the topological mode starts every block at these
    bounds, and interval iteration starts probabilities at 0 and 1.
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
        if any(b is not None and math.isnan(b) for b in (self.lower, self.upper)):
            raise ConfigError(f"initial bounds must not be NaN, got [{self.lower}, {self.upper}]")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
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
    (MDPs only) is the local choice each undecided state took, and 0 at
    every goal and sure-zero state.
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


class _Kernels:
    """The iteration kernels and the one layout of their vectors.

    Vectors are in *live-first* order: the ``m`` undecided states of the
    partition, then every other state, each part sorted stably by ``key``
    (ascending state order without one; ``order[i]`` is the state at
    position ``i``, ``position`` the inverse).  A ``key`` must be lower at
    every undecided state than at any decided one.  Only the undecided
    states' choices are kept, in position order; each choice's entries stay
    in model order with targets renumbered into live-first order, so every
    per-choice sum adds the products the whole model would add, in the same
    order (goal entries are not folded into a per-choice constant, which
    would reorder the sums and move results by an ulp).  Positions
    ``m:`` hold the fixed values of the decided states, as in
    ``x_start``/``y_start`` (the goal value at goal states, 0 at sure-zero
    states, ``y = 0`` at both), and no step writes them.  Choice indices
    are indices into the kept choices.

    Choice selection (``select``) and the decision-value fold exist only
    here; ``find_action`` and ``decision_value`` run them for one state.
    Selection and ``state_opt`` go over *choice columns*: ``columns[j - 1]``
    holds the states with more than ``j`` choices and their ``j``-th
    choice.  So a step costs one group of numpy calls per column, ``D - 1``
    groups for ``D`` the most choices of any undecided state: cheap for a
    few choices per state, slow for a state with hundreds (one state with
    1,000 choices in a 20,000-state model makes a step about 3 times slower).
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
        self.order = np.argsort(~maybe if key is None else key, kind="stable")
        self.m = m = int(np.count_nonzero(maybe))
        self.live = self.order[:m]
        self.position = np.empty(n, dtype=np.int64)
        self.position[self.order] = np.arange(n)

        self.is_mc = model.is_mc
        groups, starts = model.row_group_start, model.choice_start
        first, end = groups[self.live], groups[self.live + 1]
        kept = _ranges(first, end - first)
        entries = _ranges(starts[first], starts[end] - starts[first])
        self.targets = self.position[model.entry_target[entries]]
        self.probs = model.entry_prob[entries]
        lengths = np.diff(starts)[kept]
        self.choice_cuts = lengths.cumsum() - lengths
        self.num_choices = len(lengths)
        self.rewards = model.choice_reward[kept] if objective is Objective.REWARD else None
        self._index_groups(end - first)

        goal_value = 1.0 if objective is Objective.PROBABILITY else 0.0
        self.x_start = partition.goal[self.order] * goal_value
        self.y_start = maybe[self.order] * 1.0
        self.maximize = direction is Direction.MAXIMIZE

    def _index_groups(self, sizes: np.ndarray) -> None:
        """The per-state choice indexing for states with ``sizes`` choices:
        group cuts, choice columns and each choice's state."""
        self.group_sizes = sizes
        self.group_cuts = sizes.cumsum() - sizes
        self.columns, j, states = [], 1, (sizes > 1).nonzero()[0]
        while states.size:
            self.columns.append((states, self.group_cuts[states] + j))
            j += 1
            states = states[sizes[states] > j]
        self.choice_state = np.repeat(np.arange(len(sizes)), sizes)

    def part(self, lo: int, hi: int) -> "_Kernels":
        """The kernels of the undecided states at positions ``lo:hi`` alone.

        They step the views ``v[lo:]`` of this kernel's vectors: targets are
        shifted by ``-lo``, so no kept choice of those states may target a
        position below ``lo``.  A part has no layout of its own (no
        ``order`` or start vectors); its choice indices count from its first
        choice.
        """
        c0 = int(self.group_cuts[lo])
        c1 = int(self.group_cuts[hi]) if hi < self.m else self.num_choices
        e0 = int(self.choice_cuts[c0])
        e1 = int(self.choice_cuts[c1]) if c1 < self.num_choices else len(self.targets)
        part = object.__new__(_Kernels)
        part.m, part.is_mc, part.maximize = hi - lo, self.is_mc, self.maximize
        part.targets = self.targets[e0:e1] - lo
        part.probs = self.probs[e0:e1]
        part.choice_cuts = self.choice_cuts[c0:c1] - e0
        part.num_choices = c1 - c0
        part.rewards = None if self.rewards is None else self.rewards[c0:c1]
        part._index_groups(self.group_sizes[lo:hi])
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
        local[self.live] = chosen - self.group_cuts
        return local

    def model_step(self, x) -> np.ndarray:
        """One Bellman step from a model-order vector, in model order."""
        out = self.to_model(self.x_start)
        out[self.live] = self.bellman(self.to_kernel(x))
        return out

    # -- per-choice expectations --------------------------------------------

    def choice_x(self, x: np.ndarray) -> np.ndarray:
        gathered = x[self.targets] * self.probs
        vals = np.add.reduceat(gathered, self.choice_cuts)
        if self.rewards is not None:
            vals = vals + self.rewards
        return vals

    def choice_y(self, y: np.ndarray) -> np.ndarray:
        gathered = y[self.targets] * self.probs
        return np.add.reduceat(gathered, self.choice_cuts)

    # -- per-state reductions -------------------------------------------------

    def state_opt(self, choice_vals: np.ndarray) -> np.ndarray:
        reduce = np.maximum if self.maximize else np.minimum
        best = choice_vals[self.group_cuts]
        for states, cols in self.columns:
            best[states] = reduce(best[states], choice_vals[cols])
        return best

    def _pick(self, primary, primary_max: bool, secondary, secondary_max: bool) -> np.ndarray:
        """Per state: the choice with the best ``primary`` value, exact ties
        to the best ``secondary`` value, remaining ties to the lowest index.

        Starts at each state's first choice and takes a column's choice
        only where it is strictly better; ``secondary`` is read only for a
        column with an exact tie.
        """
        pick = self.group_cuts.copy()
        for states, cols in self.columns:
            held = pick[states]
            new, old = primary[cols], primary[held]
            better = new > old if primary_max else new < old
            tie = new == old
            if tie.any():
                new, old = secondary[cols], secondary[held]
                better |= tie & (new > old if secondary_max else new < old)
            pick[states] = np.where(better, cols, held)
        return pick

    def select(self, cx: np.ndarray, cy: np.ndarray, bound: float) -> np.ndarray:
        """Per state: index of the choice the certified step takes, by the
        rule ``find_action`` documents: at a finite bound the best score
        ``cx + bound * cy`` with exact ties to the smallest y-expectation, at
        an infinite bound the largest y-expectation with ties to the best
        x-expectation, and remaining ties to the lowest choice index."""
        if math.isinf(bound):
            return self._pick(cy, True, cx, self.maximize)
        return self._pick(cx + bound * cy, self.maximize, cy, False)

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
        iteration's decision values folded in.
        """
        cx = self.choice_x(x)
        cy = self.choice_y(y)
        if self.is_mc:
            x[: self.m] = cx
            y[: self.m] = cy
            return self.group_cuts, decision
        chosen = self.select(cx, cy, bound)
        decision = self._fold_decision(cx, cy, chosen, decision)
        x[: self.m] = cx[chosen]
        y[: self.m] = cy[chosen]
        return chosen, decision

    def _fold_decision(
        self, cx: np.ndarray, cy: np.ndarray, chosen: np.ndarray, decision: float
    ) -> float:
        # a chosen choice, and so every choice of a one-choice state, has
        # y_delta == 0 and never counts
        held = chosen[self.choice_state]
        y_delta = cy[held] - cy
        eligible = (y_delta > 0.0).nonzero()[0]
        if not eligible.size:
            return decision
        # a subnormal y_delta can overflow a ratio to +-inf: the exact limit
        # of a crossing point beyond every double, so it stays
        with np.errstate(over="ignore"):
            ratios = (cx[eligible] - cx[held[eligible]]) / y_delta[eligible]
        if self.maximize:
            return max(decision, float(ratios.max()))
        return min(decision, float(ratios.min()))


# ---------------------------------------------------------------------------
# elementary operations: single steps and one-state views of the kernels
# ---------------------------------------------------------------------------


def bellman_step_f(
    model: SparseModel,
    partition: Partition,
    x: np.ndarray,
    direction: Direction = Direction.MAXIMIZE,
) -> np.ndarray:
    """One synchronous probability step: goal stays 1, sure-zero stays 0."""
    return _Kernels(model, partition, Objective.PROBABILITY, direction).model_step(x)


def bellman_step_g(
    model: SparseModel,
    partition: Partition,
    x: np.ndarray,
    direction: Direction = Direction.MAXIMIZE,
) -> np.ndarray:
    """One synchronous reward step: choice reward plus expected successor value."""
    return _Kernels(model, partition, Objective.REWARD, direction).model_step(x)


def bellman_step_h(
    model: SparseModel,
    partition: Partition,
    y: np.ndarray,
    scheduler: np.ndarray | None = None,
) -> np.ndarray:
    """One step of the stay-undecided probability.

    For chains the single choice per state is used; for MDPs ``scheduler``
    must give the local choice per state (the one picked for the x-update,
    so both quantities follow the same resolution); a scheduler of the
    wrong length or with a choice a state does not have raises
    :class:`InvalidChoiceIndex`.
    """
    kern = _Kernels(model, partition, Objective.PROBABILITY, Direction.MAXIMIZE)
    if model.is_mc:
        chosen = kern.group_cuts
    else:
        if scheduler is None:
            raise ConfigError("an MDP y-step needs the scheduler chosen for the x-step")
        chosen = kern.group_cuts + _checked_choices(model, scheduler)[kern.live]
    out = np.zeros(model.num_states)
    out[kern.live] = kern.choice_y(kern.to_kernel(y))[chosen]
    return out


def _one_state_kernels(
    model: SparseModel, state: int, objective: Objective, direction: Direction
) -> _Kernels:
    """Kernels whose only undecided state is ``state``: a vector passed
    through ``to_kernel`` keeps the caller's values at every other state."""
    if not 0 <= state < model.num_states:
        raise InvalidChoiceIndex(f"state {state} not in 0..{model.num_states - 1}")
    maybe = np.zeros(model.num_states, dtype=bool)
    maybe[state] = True
    partition = Partition(s0=~maybe, goal=np.zeros_like(maybe), maybe=maybe)
    return _Kernels(model, partition, objective, direction)


def find_action(
    model: SparseModel,
    x: np.ndarray,
    y: np.ndarray,
    state: int,
    bound: float,
    direction: Direction = Direction.MAXIMIZE,
    objective: Objective = Objective.PROBABILITY,
) -> int:
    """Pick the local choice optimizing ``E[x] + bound * E[y]`` at ``state``.

    With an infinite ``bound`` the y-expectation dominates: it is maximized,
    with the x-expectation as tie-breaker (optimized in the query
    direction).  With a finite ``bound`` exact score ties go to the choice
    with the smallest y-expectation, in both directions: the bound only
    tightens, and that choice keeps the best score as it does, so no tied
    alternative pins the bound through its decision value.  Remaining ties
    resolve to the lowest choice index.  A ``state`` out of range raises
    :class:`InvalidChoiceIndex`.
    """
    kern = _one_state_kernels(model, state, objective, direction)
    cx, cy = kern.choice_x(kern.to_kernel(x)), kern.choice_y(kern.to_kernel(y))
    return int(kern.select(cx, cy, bound)[0])


def decision_value(
    model: SparseModel,
    x: np.ndarray,
    y: np.ndarray,
    state: int,
    chosen: int,
    direction: Direction = Direction.MAXIMIZE,
    objective: Objective = Objective.PROBABILITY,
) -> float:
    """Bound on how far the global bound may move before ``chosen`` flips.

    For every alternative choice whose y-expectation lies strictly below the
    chosen one's, the crossing point of the two score lines is
    ``(E_alt[x] - E_chosen[x]) / (E_chosen[y] - E_alt[y])``.  Maximizing
    queries keep the largest crossing point (the upper bound must never drop
    below it); minimizing queries keep the smallest (the lower bound must
    never climb above it).  States without alternatives yield the neutral
    value.  A ``state`` out of range, or a ``chosen`` that is not one of its
    local choices, raises :class:`InvalidChoiceIndex`.

    An alternative tied with ``chosen`` at the current bound crosses it
    exactly there, so its ratio equals the bound and would hold the bound in
    place for good.  The selection rule of ``find_action`` (ties to the
    smallest y-expectation) leaves no tied alternative with a smaller
    y-expectation, so exact ties never contribute.  Near-ties at rounding
    scale still can.
    """
    kern = _one_state_kernels(model, state, objective, direction)
    cx, cy = kern.choice_x(kern.to_kernel(x)), kern.choice_y(kern.to_kernel(y))
    if not 0 <= chosen < kern.num_choices:
        raise InvalidChoiceIndex(
            f"state {state}: choice {chosen} not in 0..{kern.num_choices - 1}"
        )
    picked = np.array([chosen], dtype=np.int64)
    return kern._fold_decision(cx, cy, picked, neutral_decision(direction))


def update_global_bounds(
    x: np.ndarray,
    y: np.ndarray,
    partition: Partition,
    lower: float,
    upper: float,
    decision: float,
    direction: Direction = Direction.MAXIMIZE,
) -> tuple[float, float]:
    """Tighten the global bounds from the ratios ``x / (1 - y)``.

    The update only fires when every undecided state has ``y < 1`` (otherwise
    some ratio is undefined and the previous bounds are kept).  The decision
    value clamps the bound on the optimizing side so the recorded choices
    remain optimal for the new bound.
    """
    live = partition.maybe_states
    x_live = x[live]
    maximize = direction is Direction.MAXIMIZE
    return _tighten_bounds(x_live, x_live, y[live], lower, upper, decision, maximize)


def _tighten_bounds(
    x_low: np.ndarray,
    x_high: np.ndarray,
    y: np.ndarray,
    lower: float,
    upper: float,
    decision: float,
    maximize: bool,
) -> tuple[float, float]:
    """``update_global_bounds`` over the undecided states' values: two value
    accumulators sharing ``y``.

    ``lower`` rises to the smallest ratio ``x_low / (1 - y)`` and ``upper``
    falls to the largest ratio ``x_high / (1 - y)``; a one-block run passes
    the same vector twice, a run of more blocks its low and high accumulators.
    """
    if y.size == 0 or y.max() >= 1.0:
        return lower, upper
    denominators = 1.0 - y
    ratios_low = x_low / denominators
    ratios_high = ratios_low if x_high is x_low else x_high / denominators
    low_candidate = float(ratios_low.min())
    high_candidate = float(ratios_high.max())
    if maximize:
        return max(lower, low_candidate), min(upper, max(decision, high_candidate))
    return max(lower, min(decision, low_candidate)), min(upper, high_candidate)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _shortcut(
    model: SparseModel, partition: Partition, config: SolverConfig
) -> SolveResult | None:
    s = model.initial_state
    if partition.goal[s]:
        value = 1.0 if config.objective is Objective.PROBABILITY else 0.0
    elif partition.s0[s]:
        value = 0.0
    else:
        return None
    trace = [] if config.record_trace else None
    return _result(value, value, value, 0, 0.0, config, trace, config.method is not Method.VI)


def _result(
    value: float,
    lo: float,
    hi: float,
    iterations: int,
    elapsed_ms: float,
    config: SolverConfig,
    trace,
    sound: bool,
) -> SolveResult:
    """A certified engine's result; probability results are clipped into
    ``[0, 1]``, which holds every probability, so a rounding step past 1
    cannot leave ``lower`` above ``upper`` there."""
    if config.objective is Objective.PROBABILITY:
        value, lo, hi = (min(max(v, 0.0), 1.0) for v in (value, lo, hi))
    return SolveResult(value, lo, hi, iterations, elapsed_ms, config.method, sound, trace)


def _finished(result: SolveResult, converged: bool, config: SolverConfig) -> SolveResult:
    """``result``, or :class:`IterationLimit` carrying it as the partial
    result of a run that used up ``max_iterations``."""
    if not converged:
        raise IterationLimit(
            f"no convergence within {config.max_iterations} iterations", partial=result
        )
    return result


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
    config = replace(config, method=Method.SVI).validated()
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
    it has states.  The trace gets one row per sweep, and ``on_iteration``
    (for one block only) one snapshot.  The result,
    also the partial one of :class:`IterationLimit`, is the initial state's
    interval: the start bounds until its block runs.
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
            if trace is not None:
                trace.append(TraceRow(k, lower, upper, decision, y0))
            if on_iteration is not None:
                state = IterationState(
                    k, kern.to_model(x_low), kern.to_model(y), lower, upper, decision,
                    None if kern.is_mc else kern.scheduler(chosen),
                )
                on_iteration(state, previous)
                previous = state
            finite = math.isfinite(lower) and math.isfinite(upper)
            if holds_initial:
                width = y0 * (upper - lower) if finite else math.inf
                if x_high is not x_low:
                    width += float(x_high[initial] - x_low[initial])
                done = y0 == 0.0 or width < threshold
            elif y_part.max() == 0.0:
                done = True
            elif finite:
                member_low = low + y_part * lower
                member_high = high + y_part * upper
                if (member_high - member_low).max() < threshold:
                    low[:], high[:], y_part[:] = member_low, member_high, 0.0
                    done = True
        converged = done and holds_initial
        if not done or holds_initial:
            break

    elapsed = (time.perf_counter() - started) * 1000.0
    if not holds_initial:
        lower, upper = start_lower, start_upper
    # the interval x + y * [lower, upper] at the initial state, exactly x once y is 0
    x0_low, x0_high, y0 = float(x_low[initial]), float(x_high[initial]), float(y[initial])
    x0 = x0_low if x0_low == x0_high else (x0_low + x0_high) / 2.0
    if y0 == 0.0:
        value, lo, hi = x0, x0_low, x0_high
    elif math.isfinite(lower) and math.isfinite(upper):
        value = x0 + y0 * (lower + upper) / 2.0
        lo, hi = x0_low + y0 * lower, x0_high + y0 * upper
    else:
        value, lo, hi = x0, -math.inf, math.inf
    result = _result(value, lo, hi, k, elapsed, config, trace, converged)
    return _finished(result, converged, config)


def vi_solve(
    model: SparseModel, partition: Partition, config: SolverConfig
) -> SolveResult:
    """Plain value iteration, stopping when successive vectors differ < epsilon.

    The reported interval is collapsed onto the value and ``sound`` is False:
    the stopping test says nothing about the distance to the true answer.
    """
    config = replace(config, method=Method.VI).validated()
    short = _shortcut(model, partition, config)
    if short is not None:
        return short

    started = time.perf_counter()
    kern = _Kernels(model, partition, config.objective, config.direction)
    initial = int(kern.position[model.initial_state])
    x = kern.x_start.copy()
    x_live = x[: kern.m]
    trace: list[TraceRow] | None = [] if config.record_trace else None
    k = 0
    converged = False
    while not converged and k < config.max_iterations:
        k += 1
        x_new = kern.bellman(x)
        difference = float(np.abs(x_new - x_live).max())
        x_live[:] = x_new
        if trace is not None:
            current = float(x[initial])
            trace.append(
                TraceRow(k, current, current, neutral_decision(config.direction), math.nan)
            )
        converged = difference < config.epsilon

    elapsed = (time.perf_counter() - started) * 1000.0
    value = float(x[initial])
    result = SolveResult(value, value, value, k, elapsed, Method.VI, False, trace)
    return _finished(result, converged, config)


def _ii_start_vectors(kern: _Kernels, config: SolverConfig) -> list[np.ndarray]:
    """Interval iteration's lower and upper start vectors, in kernel order."""
    starts = []
    for side, scalar, default in (("lower", config.lower, 0.0), ("upper", config.upper, 1.0)):
        start = kern.x_start.copy()
        if scalar is not None:
            start[: kern.m] = scalar
        elif config.objective is Objective.PROBABILITY:
            start[: kern.m] = default
        else:
            raise MissingRewardBounds(
                f"interval iteration on rewards needs initial {side} bounds"
            )
        starts.append(start)
    return starts


def ii_solve(
    model: SparseModel, partition: Partition, config: SolverConfig
) -> SolveResult:
    """Interval iteration: twin Bellman iterations from below and above.

    Probability queries default to the trivial bounds 0 and 1; reward
    queries require scalar initial bounds in the configuration.  Stops when
    the widest per-state gap drops below ``2 * epsilon``.
    """
    config = replace(config, method=Method.II).validated()
    short = _shortcut(model, partition, config)
    if short is not None:
        return short

    started = time.perf_counter()
    kern = _Kernels(model, partition, config.objective, config.direction)
    low, high = _ii_start_vectors(kern, config)
    low_live, high_live = low[: kern.m], high[: kern.m]
    initial = int(kern.position[model.initial_state])
    trace: list[TraceRow] | None = [] if config.record_trace else None
    threshold = 2.0 * config.epsilon
    neutral = neutral_decision(config.direction)
    k = 0
    converged = False
    while not converged and k < config.max_iterations:
        k += 1
        low_live[:] = kern.bellman(low)
        high_live[:] = kern.bellman(high)
        if trace is not None:
            trace.append(
                TraceRow(k, float(low[initial]), float(high[initial]), neutral, math.nan)
            )
        converged = float(np.abs(high_live - low_live).max()) < threshold

    elapsed = (time.perf_counter() - started) * 1000.0
    lo = float(low[initial])
    hi = float(high[initial])
    result = SolveResult((lo + hi) / 2.0, lo, hi, k, elapsed, Method.II, converged, trace)
    return _finished(result, converged, config)


# ---------------------------------------------------------------------------
# exact reference solver
# ---------------------------------------------------------------------------

_ORACLE_MAX_STATES = 12
_ORACLE_MAX_SCHEDULERS = 4096


def _chain_rows(model: SparseModel, picks: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    rows = []
    for s in range(model.num_states):
        choice = int(model.row_group_start[s]) + int(picks[s])
        rows.append(model.entries_of(choice))
    return rows


def _chain_values(
    model: SparseModel,
    rows,
    picks: np.ndarray,
    goal: np.ndarray,
    objective: Objective,
) -> np.ndarray:
    """Exact per-state values of the chain picked by ``picks``."""
    n = model.num_states
    values = np.zeros(n)
    if objective is Objective.PROBABILITY:
        reachable = goal.copy()
        changed = True
        while changed:
            changed = False
            for s in range(n):
                if not reachable[s]:
                    targets, _ = rows[s]
                    if np.any(reachable[targets]):
                        reachable[s] = True
                        changed = True
        unknown = reachable & ~goal
        values[goal] = 1.0
    else:
        unknown = ~goal

    idx = np.flatnonzero(unknown)
    if idx.size == 0:
        return values
    pos = -np.ones(n, dtype=np.int64)
    pos[idx] = np.arange(idx.size)
    matrix = np.eye(idx.size)
    rhs = np.zeros(idx.size)
    for row_pos, s in enumerate(idx):
        targets, probs = rows[s]
        if objective is Objective.REWARD:
            choice = int(model.row_group_start[s]) + int(picks[s])
            rhs[row_pos] += float(model.choice_reward[choice])
        for t, p in zip(targets.tolist(), probs.tolist()):
            if unknown[t]:
                matrix[row_pos, pos[t]] -= p
            elif goal[t] and objective is Objective.PROBABILITY:
                rhs[row_pos] += p
    try:
        solved = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        raise NotContracting(
            "the induced chain keeps probability mass away from the goal"
        ) from None
    values[idx] = solved
    return values


def oracle_solve(
    model: SparseModel,
    partition: Partition,
    objective: Objective = Objective.PROBABILITY,
    direction: Direction = Direction.MAXIMIZE,
) -> np.ndarray:
    """Exact per-state values by elimination and exhaustive enumeration.

    Chains are solved by one dense linear solve.  MDPs enumerate every
    positional scheduler (each induces a chain) and take the per-state
    optimum; a positional optimum always exists, so this equals the true
    value function.  Only tiny instances are admitted.
    """
    if model.num_states > _ORACLE_MAX_STATES:
        raise TooLargeForOracle(
            f"{model.num_states} states exceed the oracle limit of {_ORACLE_MAX_STATES}"
        )
    goal = partition.goal
    sizes = model.group_sizes()
    scheduler_count = int(np.prod(sizes.astype(np.float64)))
    if scheduler_count > _ORACLE_MAX_SCHEDULERS:
        raise TooLargeForOracle(
            f"{scheduler_count} positional schedulers exceed the oracle limit "
            f"of {_ORACLE_MAX_SCHEDULERS}"
        )

    best: np.ndarray | None = None
    for combo in itertools.product(*(range(int(k)) for k in sizes)):
        picks = np.asarray(combo, dtype=np.int64)
        rows = _chain_rows(model, picks)
        values = _chain_values(model, rows, picks, goal, objective)
        if best is None:
            best = values
        elif direction is Direction.MAXIMIZE:
            best = np.maximum(best, values)
        else:
            best = np.minimum(best, values)
    assert best is not None
    return best


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

    ``goal`` is a label name or a boolean mask.  Goal states are made
    absorbing, the qualitative partition is computed, and — for maximizing
    probability queries — end components are collapsed so the certified
    methods face a unique fixpoint (minimizing ones face one already, see
    ``reach_partition``).  Reward queries insist that the goal is reached
    almost surely under every resolution of choices and reject models with
    end components outside the goal.  svi probability queries start at
    ``[0, 1]``: a missing bound becomes 0 or 1, a given one is clipped into
    ``[0, 1]``, and a NaN bound, a lower bound above 1 or an upper bound
    below 0 raises ``ConfigError``.  An unknown goal label raises
    ``UnknownLabelId``.  The reported time covers this preprocessing plus
    the iteration itself.
    """
    config = config.validated()
    if config.method is Method.SVI and config.objective is Objective.PROBABILITY:
        config = replace(
            config,
            lower=0.0 if config.lower is None else max(config.lower, 0.0),
            upper=1.0 if config.upper is None else min(config.upper, 1.0),
        ).validated()
    started = time.perf_counter()
    goal_mask = model.label_mask(goal) if isinstance(goal, str) else np.asarray(goal, dtype=bool)
    prepared = make_absorbing(model, goal_mask)

    if config.objective is Objective.REWARD:
        if not check_contracting(prepared, goal_mask):
            raise RewardOnMec(
                "reward query on a model with an end component outside the goal"
            )
        partition = reward_partition(prepared, goal_mask)
    else:
        partition = reach_partition(prepared, goal_mask, config.direction)
        if config.direction is Direction.MAXIMIZE:
            quotient = collapse_end_components(prepared, partition)
            prepared, partition = quotient.model, quotient.partition

    if config.method is Method.SVI:
        result = svi_solve(prepared, partition, config, on_iteration)
    elif config.method is Method.VI:
        result = vi_solve(prepared, partition, config)
    else:
        result = ii_solve(prepared, partition, config)
    result.time_ms = (time.perf_counter() - started) * 1000.0
    return result
