"""Sparse Markov chain / Markov decision process models.

A model is stored in compressed row form: states own contiguous *row groups*
of choices, choices own contiguous runs of transition entries.  A Markov
chain is simply a model in which every row group has exactly one choice.
All probabilities are float64 and every row is renormalized to sum to one
exactly once, bit for bit, in the one validation core ``_build_model``.  It
takes flat entry arrays in input order, which ``validate_model`` reads from
nested lists and ``explicit.load_model`` from files.  ``submodel`` builds
every derived model (``make_absorbing``, end-component quotients) by
copying rows that are already validated.  Both merge duplicate targets by
one rule, ``_merged``.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DanglingTarget,
    EmptyRowGroup,
    ModelError,
    NegativeProbability,
    RowSumError,
    UnknownLabelId,
)

__all__ = [
    "Direction",
    "SparseModel",
    "Partition",
    "validate_model",
    "make_absorbing",
    "submodel",
    "ROW_SUM_TOLERANCE",
]

#: Absolute tolerance for accepting a probability row before renormalization.
ROW_SUM_TOLERANCE = 1e-6


class _ValueEnum(enum.Enum):
    """An enum whose members are named in text by their values."""

    @classmethod
    def parse(cls, text: str):
        try:
            return cls(text)
        except ValueError:
            *rest, last = (repr(member.value) for member in cls)
            expected = f"{', '.join(rest)} or {last}"
            raise ValueError(
                f"unknown {cls.__name__.lower()} {text!r} (expected {expected})"
            ) from None


class Direction(_ValueEnum):
    """Optimization direction for MDP queries (ignored for Markov chains)."""

    MAXIMIZE = "max"
    MINIMIZE = "min"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Graph:
    """The arrays derived from a model's structure that the graph searches
    read, built once per model (``SparseModel.graph``) and read-only."""

    def __init__(self, model: SparseModel):
        cs, target = model.choice_start, model.entry_target
        self.entry_count = cs[1:] - cs[:-1]  # entries of each choice
        self.choice_state = np.arange(model.num_states).repeat(model.group_sizes())
        self.entry_choice = np.arange(model.num_choices).repeat(self.entry_count)
        self.entry_source = self.choice_state[self.entry_choice]
        # the predecessor CSR: entry indices grouped by target, in entry order
        self.into = target.argsort(kind="stable")
        self.in_count = np.bincount(target, minlength=model.num_states)
        self.into_start = np.concatenate(([0], self.in_count.cumsum()))
        for array in vars(self).values():
            array.flags.writeable = False

    def entries_into(self, states: np.ndarray) -> np.ndarray:
        """The indices of the entries into ``states``."""
        return self.into[_ranges(self.into_start[states], self.in_count[states])]


@dataclass(eq=False)
class SparseModel:
    """Compressed-row Markov model (chain or decision process).

    ``row_group_start[s] : row_group_start[s+1]`` are the choice indices of
    state ``s``; ``choice_start[c] : choice_start[c+1]`` are the entry indices
    of choice ``c``.  ``entry_target``/``entry_prob`` hold the transitions,
    sorted by target within each choice, with duplicate targets merged.
    ``choice_reward[c]`` is the reward earned when choice ``c`` is taken.
    """

    num_states: int
    initial_state: int
    row_group_start: np.ndarray
    choice_start: np.ndarray
    entry_target: np.ndarray
    entry_prob: np.ndarray
    choice_reward: np.ndarray
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    choice_labels: tuple | None = None

    # -- structural views ---------------------------------------------------

    @property
    def num_choices(self) -> int:
        return len(self.choice_start) - 1

    @property
    def num_transitions(self) -> int:
        return len(self.entry_target)

    @property
    def is_mc(self) -> bool:
        """True when every state has exactly one choice."""
        return self.num_choices == self.num_states

    def choices_of(self, state: int) -> range:
        return range(int(self.row_group_start[state]), int(self.row_group_start[state + 1]))

    def entries_of(self, choice: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = int(self.choice_start[choice]), int(self.choice_start[choice + 1])
        return self.entry_target[lo:hi], self.entry_prob[lo:hi]

    def group_sizes(self) -> np.ndarray:
        return self.row_group_start[1:] - self.row_group_start[:-1]

    @cached_property
    def graph(self) -> _Graph:
        """The derived graph arrays, built on first use."""
        return _Graph(self)

    def choice_state(self) -> np.ndarray:
        """Map each choice index to its owning state (read-only)."""
        return self.graph.choice_state

    def label_mask(self, name: str) -> np.ndarray:
        try:
            return self.labels[name]
        except KeyError:
            raise UnknownLabelId(f"model has no label {name!r}") from None

    # -- equality (used by round-trip tests) --------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseModel):
            return NotImplemented
        arrays = ("row_group_start", "choice_start", "entry_target", "entry_prob", "choice_reward")
        return (
            (self.num_states, self.initial_state, self.choice_labels)
            == (other.num_states, other.initial_state, other.choice_labels)
            and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays)
            and set(self.labels) == set(other.labels)
            and all(np.array_equal(self.labels[k], other.labels[k]) for k in self.labels)
        )

    def __repr__(self) -> str:  # keep reprs short; arrays get noisy
        kind = "mc" if self.is_mc else "mdp"
        return (
            f"SparseModel({kind}, states={self.num_states}, "
            f"choices={self.num_choices}, transitions={self.num_transitions})"
        )


@dataclass(frozen=True)
class Partition:
    """Disjoint split of the state space into sure-zero, goal, and undecided.

    ``s0``/``goal``/``maybe`` are boolean masks over the states, pairwise
    disjoint and covering every state; ``reach_partition`` puts each state of
    value exactly 0 in ``s0`` and of value exactly 1 in ``goal``.  The
    partition holds frozen copies, so the caller's arrays stay writable; the
    package's own partitions come from ``_of``, which checks and copies nothing.
    """

    s0: np.ndarray
    goal: np.ndarray
    maybe: np.ndarray

    def __post_init__(self):
        n = len(self.s0)
        if len(self.goal) != n or len(self.maybe) != n:
            raise ValueError("partition masks must have equal length")
        total = self.s0.astype(int) + self.goal.astype(int) + self.maybe.astype(int)
        if not np.all(total == 1):
            raise ValueError("partition masks must be disjoint and cover all states")
        for name in ("s0", "goal", "maybe"):
            arr = getattr(self, name)
            if arr.dtype != bool:
                raise ValueError(f"partition mask {name} must be boolean")
            object.__setattr__(self, name, _freeze(arr.copy()))

    @classmethod
    def _of(cls, s0: np.ndarray, goal: np.ndarray, maybe: np.ndarray) -> Partition:
        """A partition of masks that are disjoint and covering by
        construction, frozen in place: new arrays, or read-only ones."""
        partition = object.__new__(cls)
        for name, mask in (("s0", s0), ("goal", goal), ("maybe", maybe)):
            mask.flags.writeable = False
            object.__setattr__(partition, name, mask)
        return partition

    @property
    def maybe_states(self) -> np.ndarray:
        return np.flatnonzero(self.maybe)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        masks = ("s0", "goal", "maybe")
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in masks)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def validate_model(
    choices: Sequence,
    *,
    initial_state: int = 0,
    rewards: Sequence | None = None,
    labels: Mapping[str, Iterable[int]] | Mapping[str, np.ndarray] | None = None,
    choice_labels: Sequence | None = None,
) -> SparseModel:
    """Validate raw nested transition data and build a :class:`SparseModel`.

    ``choices[s]`` is the sequence of choices of state ``s``; each choice is
    either a mapping ``{target: probability}`` or an iterable of
    ``(target, probability)`` pairs.  ``rewards[s][c]`` optionally assigns a
    reward to choice ``c`` of state ``s`` (missing rewards default to 0).
    The input is read once into flat arrays for :func:`_build_model`, which
    checks them, merges duplicate targets and renormalizes the rows.
    """
    sizes, lengths, targets, probs, choice_rewards = [], [], [], [], []
    for s, group in enumerate(choices):
        group = list(group)
        sizes.append(len(group))
        for c, raw_choice in enumerate(group):
            before = len(targets)
            if isinstance(raw_choice, (dict, Mapping)):  # dict first: no ABC check
                targets.extend(raw_choice.keys())
                probs.extend(raw_choice.values())
            else:
                for target, prob in raw_choice:
                    targets.append(target)
                    probs.append(prob)
            lengths.append(len(targets) - before)
            try:
                choice_rewards.append(0.0 if rewards is None else rewards[s][c])
            except (IndexError, TypeError):
                choice_rewards.append(0.0)
    try:
        initial_state = operator.index(initial_state)
    except TypeError:
        raise DanglingTarget(f"initial state {initial_state!r} is not a state") from None
    lengths = np.array(lengths, dtype=np.int64)
    return _build_model(
        np.array(sizes, dtype=np.int64),
        lengths,
        np.arange(len(lengths)).repeat(lengths),
        _converted(targets, operator.index, np.int64, "target", sizes, lengths),
        _converted(probs, float, np.float64, "probability", sizes, lengths),
        _converted(choice_rewards, float, np.float64, "reward", sizes, [1] * len(lengths)),
        initial_state=initial_state,
        labels=labels,
        choice_labels=choice_labels,
    )


def _converted(values: list, to, dtype, what: str, sizes: list, lengths: list) -> np.ndarray:
    """``values`` as a ``dtype`` array, each converted once by ``to``; choice
    ``i`` owns ``lengths[i]`` values and state ``s`` owns ``sizes[s]`` choices.
    A value that does not convert raises :class:`DanglingTarget` (a target)
    or :class:`ModelError`, naming its state and choice."""
    try:
        return np.fromiter(map(to, values), dtype, len(values))
    except (TypeError, ValueError, OverflowError):
        pass
    for e, value in enumerate(values):  # the first offender
        try:
            dtype(to(value))
        except (TypeError, ValueError, OverflowError):
            break
    choice = int(np.searchsorted(np.cumsum(lengths), e, side="right"))
    state = int(np.searchsorted(np.cumsum(sizes), choice, side="right"))
    where = f"state {state} choice {choice - sum(sizes[:state])}"
    if to is operator.index:
        raise DanglingTarget(f"{where}: target {value!r} is not a state")
    raise ModelError(f"{where}: {what} {value!r} is not a number")


def _run_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum each run ``values[start : start + length]`` left to right.

    The runs are added one column at a time, longest runs first, so every
    sum rounds exactly as Python's ``sum`` over its run does (unlike
    ``np.add.reduceat``, which groups the additions differently).
    """
    ending = np.bincount(lengths).tolist()  # runs of each length
    if len(ending) <= 2:
        return values[starts]
    order = lengths.argsort()[::-1]
    heads = starts[order]
    total = values[heads]
    live = len(lengths) - ending[0] - ending[1]  # runs longer than k
    for k in range(1, len(ending) - 1):
        total[:live] += values[k:][heads[:live]]
        live -= ending[k + 1]
    out = np.empty_like(total)
    out[order] = total
    return out


def _merged(
    entry_choice: np.ndarray,
    entry_target: np.ndarray,
    entry_prob: np.ndarray,
    lengths: np.ndarray,
    num_states: int,
) -> tuple:
    """The one merge rule: entries sorted by ``(choice, target)``, duplicate
    targets summed left to right in entry order.

    Returns ``(targets, probs, lengths, first)``; ``lengths[c]`` counts
    choice ``c``'s entries (before the merge in the arguments) and
    ``first[i]`` is the entry where merged entry ``i`` first appears.
    Entries already sorted without duplicates come back as they are, with
    ``first`` None.
    """
    key = entry_choice * num_states + entry_target
    if not np.count_nonzero(key[1:] <= key[:-1]):
        return entry_target, entry_prob, lengths, None
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    merged = _run_sums(entry_prob[order], first, np.diff(first, append=len(key)))
    owner, targets = np.divmod(key[first], num_states)
    return targets, merged, np.bincount(owner, minlength=len(lengths)), order[first]


def _build_model(
    sizes: np.ndarray,
    lengths: np.ndarray,
    entry_choice: np.ndarray,
    entry_target: np.ndarray,
    entry_prob: np.ndarray,
    choice_reward: np.ndarray,
    *,
    initial_state: int,
    labels: Mapping | None = None,
    choice_labels: Sequence | None = None,
    targets_checked: bool = False,
) -> SparseModel:
    """Check flat transition data and build a :class:`SparseModel` from it.

    ``sizes[s]`` counts the choices of state ``s`` and ``lengths[c]`` the
    entries of choice ``c``; choices are numbered in row-group order, and
    entry ``e``, in input order, leads choice ``entry_choice[e]`` to
    ``entry_target[e]`` with ``entry_prob[e]``.  Checks, in order: a state
    and the initial state exist, every state has a choice
    (:class:`EmptyRowGroup`), targets exist (:class:`DanglingTarget`, unless
    ``targets_checked``, as ``_read_tra`` has), every raw probability is in
    ``(0, 1]`` (:class:`NegativeProbability`), every choice has an entry
    (:class:`EmptyRowGroup`), each merged row sums to 1 within
    ``ROW_SUM_TOLERANCE`` (:class:`RowSumError`), rewards are finite
    (:class:`ModelError`) and labels name existing states; each check
    reports its first offender.  Duplicate targets are summed in entry
    order; each row is summed in the order its targets first appear and
    divided by that sum.  This is the one place where rows are renormalized.
    """
    num_states = len(sizes)
    if num_states == 0:
        raise EmptyRowGroup("a model needs at least one state")
    if not (0 <= initial_state < num_states):
        raise DanglingTarget(f"initial state {initial_state} out of range 0..{num_states - 1}")
    if np.count_nonzero(sizes) < num_states:
        raise EmptyRowGroup(f"state {int(np.argmin(sizes))} has no choice")
    row_group_start = np.concatenate(([0], sizes.cumsum()))
    num_choices = int(row_group_start[-1])

    def where(choice) -> str:
        s = int(np.searchsorted(row_group_start, choice, side="right")) - 1
        return f"state {s} choice {int(choice) - int(row_group_start[s])}"

    if not targets_checked and (
        entry_target.min(initial=0) < 0 or entry_target.max(initial=0) >= num_states
    ):
        e = int(np.argmax((entry_target < 0) | (entry_target >= num_states)))
        raise DanglingTarget(f"{where(entry_choice[e])}: target {entry_target[e]} out of range")
    top = 1.0 + ROW_SUM_TOLERANCE
    # a NaN fails both comparisons, as it fails 0 < p <= top
    if not (entry_prob.min(initial=1.0) > 0.0 and entry_prob.max(initial=0.0) <= top):
        e = int(np.argmin((entry_prob > 0.0) & (entry_prob <= top)))
        raise NegativeProbability(
            f"{where(entry_choice[e])}: probability {float(entry_prob[e])!r} outside (0, 1]"
        )
    if np.count_nonzero(lengths) < num_choices:
        raise EmptyRowGroup(f"{where(np.argmin(lengths))} has no transition")

    targets, merged, lengths, first = _merged(
        entry_choice, entry_target, entry_prob, lengths, num_states
    )
    # each row is summed in the order its targets first appear
    in_order = merged if first is None else merged[np.lexsort((first, entry_choice[first]))]
    choice_start = np.concatenate(([0], lengths.cumsum()))
    row_sum = _run_sums(in_order, choice_start[:-1], lengths)
    off = np.abs(row_sum - 1.0)
    if off.max(initial=0.0) > ROW_SUM_TOLERANCE:
        c = int(np.argmax(off > ROW_SUM_TOLERANCE))
        raise RowSumError(f"{where(c)}: probabilities sum to {float(row_sum[c])!r}")
    finite = np.isfinite(choice_reward)
    if np.count_nonzero(finite) < num_choices:
        c = int(np.argmin(finite))
        raise ModelError(f"{where(c)}: reward {float(choice_reward[c])!r} is not finite")

    label_masks: dict[str, np.ndarray] = {}
    for name, states in (labels or {}).items():
        arr = np.asarray(list(states) if not isinstance(states, np.ndarray) else states)
        if arr.dtype == bool:
            if len(arr) != num_states:
                raise DanglingTarget(f"label {name!r}: mask length mismatch")
            mask = arr.copy()
        else:
            mask = np.zeros(num_states, dtype=bool)
            arr = _integers(arr, DanglingTarget, f"label {name!r}")
            if arr.size and (arr.min() < 0 or arr.max() >= num_states):
                raise DanglingTarget(f"label {name!r}: state index out of range")
            mask[arr] = True
        label_masks[name] = _freeze(mask)

    if choice_labels is not None:
        choice_labels = tuple(choice_labels)
        if len(choice_labels) != num_choices:
            raise DanglingTarget("choice label count does not match choice count")
        if all(label is None for label in choice_labels):
            choice_labels = None  # unnamed everywhere is the same as unnamed

    return SparseModel(
        num_states=num_states,
        initial_state=int(initial_state),
        row_group_start=_freeze(row_group_start),
        choice_start=_freeze(choice_start),
        entry_target=_freeze(targets),
        entry_prob=_freeze(merged / row_sum.repeat(lengths)),
        choice_reward=_freeze(choice_reward),
        labels=label_masks,
        choice_labels=choice_labels,
    )


def _ranges(starts: np.ndarray, lengths: np.ndarray, offsets=None) -> np.ndarray:
    """Concatenate ``arange(start, start + length)`` over the pairs;
    ``offsets``, when the caller has them, are ``lengths.cumsum() - lengths``."""
    if offsets is None:
        offsets = lengths.cumsum() - lengths
    total = int(offsets[-1] + lengths[-1]) if len(lengths) else 0
    return np.arange(total) + (starts - offsets).repeat(lengths)


def _integers(values, error: type, what: str) -> np.ndarray:
    """``values`` as int64 indices; values that are not integers raise
    ``error`` instead of being truncated."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise error(f"{what} holds {arr.dtype} values, not indices")
    return arr.astype(np.int64)


def _state_mask(model: SparseModel, mask) -> np.ndarray:
    """``mask`` as a boolean array with one entry per state of ``model``;
    any other dtype or shape raises :class:`DanglingTarget` (indices are
    not read as truth values)."""
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise DanglingTarget(f"a state mask of {mask.dtype} values, not booleans")
    if mask.shape != (model.num_states,):
        raise DanglingTarget(f"a state mask of shape {mask.shape} for {model.num_states} states")
    return mask


def _map_mask(mask: np.ndarray, state_map: np.ndarray, num_states: int) -> np.ndarray:
    out = np.zeros(num_states, dtype=bool)
    out[state_map[np.asarray(mask, dtype=bool)]] = True
    return out


def submodel(
    model: SparseModel,
    owner: np.ndarray,
    pick: np.ndarray,
    num_states: int,
    state_map: np.ndarray | None = None,
) -> SparseModel:
    """Build a model from the choices of the already-validated ``model``.

    New choice ``i`` belongs to state ``owner[i]`` (non-decreasing) and copies
    old choice ``pick[i]`` with its reward and action name; where
    ``pick[i] < 0`` it is a reward-free, unnamed self-loop of its owner.
    ``state_map`` (old state -> new state), when given, relabels targets,
    labels and the initial state, and ``_merged`` then sorts and merges the
    targets of each choice as ``_build_model`` does.  Rows are copied as
    they are and never renormalized, so picking every choice of ``model``
    returns a model equal to it bit for bit.  A new state that owns no
    choice raises :class:`EmptyRowGroup`.
    """
    sizes = np.bincount(owner, minlength=num_states)
    if not sizes.all():
        raise EmptyRowGroup(f"state {int(np.argmin(sizes))} has no choice")
    loop = pick < 0
    old = np.where(loop, 0, pick)
    cs = model.choice_start
    lengths = np.where(loop, 1, cs[old + 1] - cs[old])
    entries = _ranges(cs[old], lengths)
    targets = model.entry_target[entries]
    probs = model.entry_prob[entries]
    labels, initial_state = dict(model.labels), model.initial_state
    if state_map is not None:
        targets = state_map[targets]
        labels = {k: _map_mask(v, state_map, num_states) for k, v in labels.items()}
        initial_state = int(state_map[initial_state])
    heads = (lengths.cumsum() - lengths)[loop]
    targets[heads] = owner[loop]
    probs[heads] = 1.0
    if state_map is not None:
        choice = np.arange(len(pick)).repeat(lengths)
        targets, probs, lengths, _ = _merged(choice, targets, probs, lengths, num_states)
    choice_start = np.concatenate(([0], lengths.cumsum()))

    names = model.choice_labels
    if names is not None:
        names = tuple(None if c < 0 else names[c] for c in pick.tolist())
        names = None if all(name is None for name in names) else names
    return SparseModel(
        num_states=num_states,
        initial_state=initial_state,
        row_group_start=_freeze(np.concatenate(([0], sizes.cumsum()))),
        choice_start=_freeze(choice_start),
        entry_target=_freeze(targets),
        entry_prob=_freeze(probs),
        choice_reward=_freeze(np.where(loop, 0.0, model.choice_reward[old])),
        labels=labels,
        choice_labels=names,
    )


def make_absorbing(model: SparseModel, states: np.ndarray) -> SparseModel:
    """Return a copy in which every state in ``states`` only loops on itself.

    The marked states get a single unnamed choice with probability 1 back to
    themselves and reward 0; all other rows are copied bit for bit.  Applying
    the function twice gives the same model as applying it once.
    """
    mask = _state_mask(model, states)
    sizes = np.where(mask, 1, model.group_sizes())
    owner = np.arange(model.num_states).repeat(sizes)
    pick = _ranges(model.row_group_start[:-1], sizes)
    pick[mask[owner]] = -1
    return submodel(model, owner, pick, model.num_states)
