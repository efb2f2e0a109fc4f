"""Reading and writing models in explicit-state text formats.

Transition files (``.tra``) start with a header line of counts: two numbers
(``<states> <transitions>``) announce a Markov chain, three numbers
(``<states> <choices> <transitions>``) an MDP.  Chain bodies hold
``<from> <to> <prob>`` lines, MDP bodies ``<from> <choice> <to> <prob>``
optionally followed by an action name.  Label files (``.lab``) declare
``<id>="<name>"`` pairs on their first line and then list
``<state>: <id> ...`` assignments.  Reward files attach rewards per state
(``.srew``: ``<state> <reward>``) or per choice (``.trew``:
``<from> <choice> <reward>``).  Everywhere, ``#`` starts a comment and blank
lines are skipped.

One tokenizer, ``_table``, turns transition and reward lines into flat
arrays; ``load_model`` hands them to the model's validation core, which
merges duplicate lines and renormalizes rows.  The ``parse_*`` functions
are dict views over the same tokenizer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    DanglingTarget,
    EmptyRowGroup,
    HeaderMismatch,
    MissingInit,
    MultipleInitStates,
    NonContiguousChoices,
    ParseError,
    UnknownLabelId,
)
# validate_model stays imported: perfbench/tracing.py wraps it here.
from .model import SparseModel, _build_model, validate_model

__all__ = [
    "ModelBundle",
    "parse_mc_tra",
    "parse_mdp_tra",
    "parse_labels",
    "parse_rewards",
    "load_model",
    "write_model",
]


@dataclass(frozen=True)
class ModelBundle:
    """A validated model together with where it came from."""

    model: SparseModel
    kind: str  # "mc" or "mdp"
    tra_path: Path | None = None
    lab_path: Path | None = None
    srew_path: Path | None = None
    trew_path: Path | None = None


def _content_lines(text: str) -> list[str]:
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return [line for line in stripped if line]


def _token_rows(text: str) -> list[list[str]]:
    """The tokens of each line that ``_content_lines`` keeps."""
    split = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    return [tokens for tokens in split if tokens]


def _ints(tokens: list[str], line: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ParseError(f"expected integers in line {line!r}") from None


def _table(text, rows, fields, what, check):
    """Turn ``rows``, the tokens of the last content lines of ``text``, into
    integer columns (the rows of one array) and a float column, converted
    exactly as ``int()`` and ``float()`` do.  Also returns ``fail``, which
    callers call when an array check finds a fault: it walks the lines and
    raises the error of the first bad one, quoting it (a wrong field count,
    a bad number, or what ``check(numbers, line)`` raises).
    """

    def fail():
        lines = _content_lines(text)
        for line, tokens in zip(lines[len(lines) - len(rows):], rows):
            if len(tokens) not in fields:
                counts = " or ".join(map(str, fields))
                raise ParseError(f"{what} line needs {counts} fields: {line!r}")
            numbers = _ints(tokens[: fields[0] - 1], line)
            try:
                float(tokens[fields[0] - 1])
            except ValueError:
                value = "reward" if "reward" in what else "probability"
                raise ParseError(f"bad {value} in line {line!r}") from None
            check(numbers, line)
            if any(abs(k) >= 2**63 for k in numbers):
                raise DanglingTarget(f"index out of range in line {line!r}")
        raise ParseError(f"malformed {what} lines")

    width, n = fields[0], len(rows)
    try:
        if not set(map(len, rows)) <= set(fields):
            raise ValueError
        tokens = list(chain.from_iterable(row[:width] for row in rows))  # no names
        numbers = chain.from_iterable(tokens[k::width] for k in range(width - 1))
        ints = np.fromiter(map(int, numbers), np.int64, n * (width - 1)).reshape(width - 1, n)
        values = np.fromiter(map(float, tokens[width - 1 :: width]), np.float64, n)
    except (ValueError, OverflowError):
        fail()
    return ints, values, fail


class _Transitions(NamedTuple):
    """A transition file as flat arrays, entries in file order."""

    kind: str
    sizes: np.ndarray  # choices per state
    row_group_start: np.ndarray
    choice: np.ndarray  # choice of each entry, numbered in row-group order
    target: np.ndarray
    prob: np.ndarray
    actions: list | None  # action name per choice, when a line names one


def _read_tra(text: str, arity: int | None = None) -> _Transitions:
    """Tokenize a transition file whose header has ``arity`` (or either) counts.

    Line errors come first, in line order; then :class:`HeaderMismatch`
    for counts, and :class:`EmptyRowGroup` for more states than lines,
    before anything is allocated per state.  Duplicate lines are kept.
    """
    rows = _token_rows(text)
    if not rows:
        raise ParseError("transition file is empty")
    header, line = rows[0], " ".join(rows[0])
    if len(header) not in ((arity,) if arity else (2, 3)):
        expected = arity or "2 (chain) or 3 (MDP)"
        raise HeaderMismatch(f"header needs {expected} counts, got {len(header)}: {line!r}")
    counts = _ints(header, line)
    if min(counts) < 0:
        raise HeaderMismatch(f"negative count in header {line!r}")
    mdp, num_states, rows = len(counts) == 3, counts[0], rows[1:]

    def check(numbers, line):
        for end, state in (("source", numbers[0]), ("target", numbers[-1])):
            if not (0 <= state < num_states):
                raise DanglingTarget(f"{end} state {state} out of range in {line!r}")
        if mdp and numbers[1] < 0:
            raise NonContiguousChoices(f"negative choice index in {line!r}")

    what = "MDP transition" if mdp else "chain transition"
    ints, prob, fail = _table(text, rows, (4, 5) if mdp else (3,), what, check)
    src, local, dst = ints[0], ints[1], ints[-1]
    top = ints.max(axis=1, initial=0).tolist()
    if ints.min(initial=0) < 0 or top[0] >= num_states or top[-1] >= num_states:
        fail()
    if len(rows) != counts[-1]:
        raise HeaderMismatch(f"header declares {counts[-1]} transitions, file has {len(rows)}")
    if num_states > len(rows):
        raise EmptyRowGroup(
            f"header declares {num_states} states, but the file has only "
            f"{len(rows)} transition lines"
        )
    if not mdp:
        first = np.arange(num_states + 1)
        return _Transitions("mc", np.ones(num_states, np.int64), first, src, dst, prob, None)

    # Number each state's choices up to its largest index.  The indices are
    # 0..k-1 when every number is used; every choice needs a line, so more
    # numbers than lines (or an index that large) fail first.
    sizes = np.zeros(num_states, np.int64)
    if top[1] < len(rows):
        np.maximum.at(sizes, src, local + 1)
    row_group_start = np.zeros(num_states + 1, np.int64)
    sizes.cumsum(out=row_group_start[1:])
    total = int(row_group_start[-1])
    choice = row_group_start[src] + local
    if not (
        top[1] < len(rows)
        and total <= len(rows)
        and np.count_nonzero(np.bincount(choice, minlength=total)) == total
    ):
        previous = (-1, -1)
        for s, c in sorted(set(zip(src.tolist(), local.tolist()))):
            if c != (previous[1] + 1 if s == previous[0] else 0):
                used = sorted(set(local[src == s].tolist()))
                raise NonContiguousChoices(f"state {s} uses choice indices {used}")
            previous = (s, c)
    if total != counts[1]:
        raise HeaderMismatch(f"header declares {counts[1]} choices, file has {total}")
    actions = None
    if max(map(len, rows), default=0) == 5:
        actions = [None] * total
        for i in (i for i, tokens in enumerate(rows) if len(tokens) == 5):
            if actions[choice[i]] not in (None, rows[i][4]):
                raise ParseError(f"choice {local[i]} of state {src[i]} carries two action names")
            actions[choice[i]] = rows[i][4]
    return _Transitions("mdp", sizes, row_group_start, choice, dst, prob, actions)


def _merged_rows(tra: _Transitions) -> list[dict[int, float]]:
    """One ``{target: prob}`` dict per choice, duplicates summed in file order."""
    rows: list[dict[int, float]] = [{} for _ in range(int(tra.row_group_start[-1]))]
    for c, t, p in zip(tra.choice.tolist(), tra.target.tolist(), tra.prob.tolist()):
        rows[c][t] = rows[c].get(t, 0.0) + p
    return rows


def parse_mc_tra(text: str) -> list[dict[int, float]]:
    """Parse Markov chain transitions into one ``{target: prob}`` row per state."""
    return _merged_rows(_read_tra(text, 2))


def parse_mdp_tra(
    text: str,
) -> tuple[list[list[dict[int, float]]], list[str | None]]:
    """Parse MDP transitions into per-state choice lists plus action names.

    Returns ``(groups, choice_labels)`` where ``groups[s][c]`` maps targets to
    probabilities and ``choice_labels`` is flat in row-group order.
    """
    tra = _read_tra(text, 3)
    rows, start = _merged_rows(tra), tra.row_group_start.tolist()
    groups = [rows[lo:hi] for lo, hi in zip(start[:-1], start[1:])]
    return groups, tra.actions or [None] * len(rows)


_LABEL_DECL = re.compile(r'(\d+)="([^"]*)"')


def parse_labels(text: str, num_states: int) -> dict[str, np.ndarray]:
    """Parse a label file into boolean masks keyed by label name."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("label file is empty")
    declared: dict[int, str] = {}
    for match in _LABEL_DECL.finditer(lines[0]):
        declared[int(match.group(1))] = match.group(2)
    if not declared:
        raise ParseError(f"no label declarations in first line: {lines[0]!r}")

    masks = {name: np.zeros(num_states, dtype=bool) for name in declared.values()}
    for line in lines[1:]:
        if ":" not in line:
            raise ParseError(f"label assignment line needs a colon: {line!r}")
        state_part, ids_part = line.split(":", 1)
        state = _ints([state_part.strip()], line)[0]
        if not (0 <= state < num_states):
            raise DanglingTarget(f"state {state} out of range in label line {line!r}")
        for tok in ids_part.split():
            label_id = _ints([tok], line)[0]
            if label_id not in declared:
                raise UnknownLabelId(f"label id {label_id} not declared ({line!r})")
            masks[declared[label_id]][state] = True
    return masks


def _read_rewards(text: str, kind: str, check=lambda numbers, line: None):
    """Tokenize a reward file: its key columns, its rewards and ``fail``."""
    fields = (2,) if kind == "state" else (3,)
    return _table(text, _token_rows(text), fields, f"{kind} reward", check)


def parse_rewards(text: str, *, kind: str) -> dict:
    """Parse a reward file.

    ``kind="state"`` accepts ``<state> <reward>`` lines and returns
    ``{state: reward}``; ``kind="choice"`` accepts ``<from> <choice> <reward>``
    lines and returns ``{(state, choice): reward}``.  Repeated assignments to
    the same key accumulate.
    """
    if kind not in ("state", "choice"):
        raise ValueError(f"kind must be 'state' or 'choice', got {kind!r}")
    keys, values, _ = _read_rewards(text, kind)
    columns = [k.tolist() for k in keys]
    out: dict = {}
    for key, value in zip(columns[0] if kind == "state" else zip(*columns), values.tolist()):
        out[key] = out.get(key, 0.0) + value
    return out


def load_model(
    tra_path, lab_path, srew_path=None, trew_path=None
) -> ModelBundle:
    """Load and validate a model from explicit-state files.

    The transition header decides the kind: two counts mean a Markov chain,
    three an MDP.  The ``init`` label must mark exactly one state, which
    becomes the initial state.  State rewards and choice rewards are summed
    into a single per-choice reward.
    """
    tra_path = Path(tra_path)
    lab_path = Path(lab_path)
    tra = _read_tra(tra_path.read_text())
    num_states, num_choices = len(tra.sizes), int(tra.row_group_start[-1])

    labels = parse_labels(lab_path.read_text(), num_states)
    init_states = labels["init"].nonzero()[0] if "init" in labels else ()
    if not len(init_states):
        raise MissingInit(f"{lab_path}: no state carries the 'init' label")
    if len(init_states) != 1:
        raise MultipleInitStates(
            f"{lab_path}: 'init' marks states {init_states.tolist()}"
        )

    def known(numbers, line):
        s = numbers[0]
        if not (0 <= s < num_states):
            raise DanglingTarget(f"reward for unknown state {s} in {line!r}")
        if len(numbers) == 2 and not (0 <= numbers[1] < tra.sizes[s]):
            raise DanglingTarget(
                f"reward for choice {numbers[1]} of state {s}, which has "
                f"{tra.sizes[s]} choices: {line!r}"
            )

    # Each file sums its rewards in file order, from 0.0 (bincount adds its
    # weights one at a time, as Python does); a choice earns its state's sum
    # plus its own.
    reward = np.zeros(num_choices)
    if srew_path is not None:
        (states,), values, fail = _read_rewards(Path(srew_path).read_text(), "state", known)
        if states.min(initial=0) < 0 or states.max(initial=0) >= num_states:
            fail()
        reward = np.bincount(states, weights=values, minlength=num_states).repeat(tra.sizes)
    if trew_path is not None:
        keys, values, fail = _read_rewards(Path(trew_path).read_text(), "choice", known)
        owners, local = keys
        if keys.min(initial=0) < 0 or owners.max(initial=0) >= num_states or (
            local >= tra.sizes[owners]
        ).any():
            fail()
        own = np.bincount(tra.row_group_start[owners] + local, weights=values, minlength=num_choices)
        reward = reward + own if srew_path is not None else own

    model = _build_model(
        tra.sizes,
        tra.choice,
        tra.target,
        tra.prob,
        reward,
        initial_state=int(init_states[0]),
        labels=labels,
        choice_labels=tra.actions,
    )
    return ModelBundle(
        model=model,
        kind=tra.kind,
        tra_path=tra_path,
        lab_path=lab_path,
        srew_path=Path(srew_path) if srew_path else None,
        trew_path=Path(trew_path) if trew_path else None,
    )


def write_model(
    model: SparseModel,
    tra_path,
    lab_path,
    trew_path=None,
    *,
    kind: str | None = None,
) -> None:
    """Write a model back out in the explicit-state grammar.

    ``kind`` forces the transition format; by default chains (one choice per
    state, no action names) are written in chain format, everything else as
    an MDP.  All choice rewards (state rewards were folded in at load time)
    go to ``trew_path`` when given.  Probabilities are printed with ``repr``,
    so the file holds the exact float64 values; loading renormalizes each
    row again, which can move a probability by an ulp.

    Raises :class:`ValueError`, before any file is written, for what the
    format cannot carry back: an ``init`` label that is missing or does not
    mark exactly the initial state, a label name with ``"``, ``#`` or a
    line break, an action name that is empty or holds whitespace or ``#``,
    and action names in chain format.
    """
    names = model.choice_labels
    if kind is None:
        kind = "mc" if model.is_mc and names is None else "mdp"
    if kind not in ("mc", "mdp"):
        raise ValueError(f"kind must be 'mc' or 'mdp', got {kind!r}")
    if kind == "mc" and not model.is_mc:
        raise ValueError("cannot write a multi-choice model in chain format")
    if kind == "mc" and names is not None:
        raise ValueError("chain format cannot carry action names")
    init = model.labels.get("init")
    if init is None or np.count_nonzero(init) != 1 or not init[model.initial_state]:
        raise ValueError(
            f"the 'init' label must mark exactly the initial state {model.initial_state}"
        )
    for name in model.labels:
        if '"' in name or "#" in name or len(name.splitlines()) > 1:
            raise ValueError(f"label name {name!r} cannot be written")
    for name in names or ():
        if name is not None and ("#" in name or name.split() != [name]):
            raise ValueError(f"action name {name!r} cannot be written")

    first, starts = model.row_group_start.tolist(), model.choice_start.tolist()
    targets, probs = model.entry_target.tolist(), model.entry_prob.tolist()
    names = names or [None] * model.num_choices
    if kind == "mc":
        lines = [f"{model.num_states} {model.num_transitions}"]
    else:
        lines = [f"{model.num_states} {model.num_choices} {model.num_transitions}"]
    for s in range(model.num_states):
        for c in range(first[s], first[s + 1]):
            head = f"{s} " if kind == "mc" else f"{s} {c - first[s]} "
            tail = f" {names[c]}" if names[c] else ""
            lo, hi = starts[c], starts[c + 1]
            lines += [f"{head}{t} {p!r}{tail}" for t, p in zip(targets[lo:hi], probs[lo:hi])]
    Path(tra_path).write_text("\n".join(lines) + "\n")

    label_names = sorted(model.labels, key=lambda name: (name != "init", name))
    ids = [str(i) for i in range(len(label_names))]
    marks = np.array([model.labels[name] for name in label_names]).T.tolist()
    label_lines = [" ".join(f'{i}="{name}"' for i, name in zip(ids, label_names))]
    label_lines += [
        f"{s}: {' '.join(i for i, on in zip(ids, row) if on)}"
        for s, row in enumerate(marks)
        if any(row)
    ]
    Path(lab_path).write_text("\n".join(label_lines) + "\n")

    if trew_path is not None:
        rewards = model.choice_reward.tolist()
        reward_lines = [
            f"{s} {c - first[s]} {rewards[c]!r}"
            for s in range(model.num_states)
            for c in range(first[s], first[s + 1])
            if rewards[c] != 0.0
        ]
        Path(trew_path).write_text("\n".join(reward_lines) + "\n")
