"""Reading and writing the explicit-state text formats."""

import time
from pathlib import Path

import numpy as np
import pytest

import soundreach as sr
from conftest import random_model
from soundreach import parse_labels, parse_mc_tra, parse_mdp_tra, parse_rewards
from soundreach.explicit import _content_lines, _ints
from soundreach.model import ROW_SUM_TOLERANCE, SparseModel, _freeze

CHAIN_TRA = """\
3 4
0 1 0.5
0 2 0.5
1 1 1.0
2 2 1.0
"""

CHAIN_LAB = """\
0="init" 1="goal"
0: 0
2: 1
"""

MDP_TRA = """\
3 4 6
0 0 1 0.5
0 0 2 0.5
0 1 2 1.0 jump
1 0 1 1.0
2 0 0 0.3
2 0 2 0.7
"""


def test_parse_chain():
    rows = parse_mc_tra(CHAIN_TRA)
    assert rows == [{1: 0.5, 2: 0.5}, {1: 1.0}, {2: 1.0}]


def test_parse_mdp():
    groups, actions = parse_mdp_tra(MDP_TRA)
    assert groups[0] == [{1: 0.5, 2: 0.5}, {2: 1.0}]
    assert groups[1] == [{1: 1.0}]
    assert groups[2] == [{0: 0.3, 2: 0.7}]
    assert actions == [None, "jump", None, None]


def test_comments_and_blank_lines_skipped():
    rows = parse_mc_tra("# header next\n\n2 2\n0 1 1.0  # hop\n1 1 1.0\n")
    assert rows == [{1: 1.0}, {1: 1.0}]


def test_header_mismatch_on_wrong_counts():
    with pytest.raises(sr.HeaderMismatch):
        parse_mc_tra("3 5\n0 1 0.5\n0 2 0.5\n1 1 1.0\n2 2 1.0\n")
    with pytest.raises(sr.HeaderMismatch):
        parse_mdp_tra("3 9 6\n" + MDP_TRA.split("\n", 1)[1])


def test_chain_line_arity():
    with pytest.raises(sr.ParseError):
        parse_mc_tra("1 1\n0 0\n")


def test_bad_probability_token():
    with pytest.raises(sr.ParseError):
        parse_mc_tra("1 1\n0 0 banana\n")


def test_dangling_state_in_tra():
    with pytest.raises(sr.DanglingTarget):
        parse_mc_tra("2 2\n0 5 1.0\n1 1 1.0\n")


def test_noncontiguous_choice_indices():
    bad = """\
2 3 3
0 0 1 1.0
0 2 1 1.0
1 0 1 1.0
"""
    with pytest.raises(sr.NonContiguousChoices):
        parse_mdp_tra(bad)
    with pytest.raises(sr.NonContiguousChoices):
        parse_mdp_tra("1 1 1\n0 -1 0 1.0\n")


def test_parse_labels():
    masks = parse_labels(CHAIN_LAB, 3)
    np.testing.assert_array_equal(masks["init"], [True, False, False])
    np.testing.assert_array_equal(masks["goal"], [False, False, True])


def test_labels_unknown_id():
    with pytest.raises(sr.UnknownLabelId):
        parse_labels('0="init"\n0: 0 7\n', 2)


def test_labels_need_declarations():
    with pytest.raises(sr.ParseError):
        parse_labels("0: 0\n", 2)
    with pytest.raises(sr.ParseError):
        parse_labels("", 2)


def test_parse_rewards_kinds():
    assert parse_rewards("0 1.5\n2 -0.25\n", kind="state") == {0: 1.5, 2: -0.25}
    assert parse_rewards("0 1 2.0\n", kind="choice") == {(0, 1): 2.0}
    with pytest.raises(sr.ParseError):
        parse_rewards("0 x\n", kind="state")
    with pytest.raises(ValueError):
        parse_rewards("", kind="transition")


@pytest.fixture
def chain_files(tmp_path):
    tra = tmp_path / "chain.tra"
    lab = tmp_path / "chain.lab"
    tra.write_text(CHAIN_TRA)
    lab.write_text(CHAIN_LAB)
    return tra, lab


def test_load_chain(chain_files):
    bundle = sr.load_model(*chain_files)
    assert bundle.kind == "mc"
    assert bundle.model.is_mc
    assert bundle.model.initial_state == 0
    np.testing.assert_array_equal(bundle.model.label_mask("goal"), [False, False, True])


def test_load_mdp_with_rewards(tmp_path):
    tra = tmp_path / "m.tra"
    lab = tmp_path / "m.lab"
    srew = tmp_path / "m.srew"
    trew = tmp_path / "m.trew"
    tra.write_text(MDP_TRA)
    lab.write_text('0="init" 1="goal"\n0: 0\n1: 1\n')
    srew.write_text("0 1.0\n")
    trew.write_text("0 1 0.5\n2 0 3.0\n")
    bundle = sr.load_model(tra, lab, srew_path=srew, trew_path=trew)
    assert bundle.kind == "mdp"
    # state rewards spread over every choice of the state, choice rewards add
    np.testing.assert_allclose(bundle.model.choice_reward, [1.0, 1.5, 0.0, 3.0])
    assert bundle.model.choice_labels[1] == "jump"


def test_load_requires_one_init(tmp_path):
    tra = tmp_path / "c.tra"
    tra.write_text(CHAIN_TRA)
    lab = tmp_path / "c.lab"
    lab.write_text('0="init" 1="goal"\n2: 1\n')
    with pytest.raises(sr.MissingInit):
        sr.load_model(tra, lab)
    lab.write_text('0="init"\n0: 0\n1: 0\n')
    with pytest.raises(sr.MultipleInitStates):
        sr.load_model(tra, lab)


def test_load_rejects_four_field_header(tmp_path):
    tra = tmp_path / "c.tra"
    tra.write_text("1 1 1 1\n0 0 0 1.0\n")
    lab = tmp_path / "c.lab"
    lab.write_text('0="init"\n0: 0\n')
    with pytest.raises(sr.HeaderMismatch):
        sr.load_model(tra, lab)


def test_reward_for_unknown_choice(tmp_path):
    tra = tmp_path / "m.tra"
    lab = tmp_path / "m.lab"
    trew = tmp_path / "m.trew"
    tra.write_text(MDP_TRA)
    lab.write_text('0="init" 1="goal"\n0: 0\n1: 1\n')
    trew.write_text("1 4 1.0\n")
    with pytest.raises(sr.DanglingTarget):
        sr.load_model(tra, lab, trew_path=trew)


def test_round_trip_chain(tmp_path, slow_chain):
    tra = tmp_path / "out.tra"
    lab = tmp_path / "out.lab"
    sr.write_model(slow_chain, tra, lab)
    again = sr.load_model(tra, lab).model
    assert again == slow_chain


def test_round_trip_mdp_with_rewards(tmp_path):
    model, _ = random_model(np.random.default_rng(7), force_mdp=True)
    tra = tmp_path / "out.tra"
    lab = tmp_path / "out.lab"
    trew = tmp_path / "out.trew"
    sr.write_model(model, tra, lab, trew)
    again = sr.load_model(tra, lab, trew_path=trew).model
    assert again == model
    # float probabilities and rewards survive the text format bit for bit
    np.testing.assert_array_equal(again.entry_prob, model.entry_prob)
    np.testing.assert_array_equal(again.choice_reward, model.choice_reward)


def test_round_trip_forced_mdp_format(tmp_path, slow_chain):
    # a chain can be written in MDP syntax and comes back structurally equal
    tra = tmp_path / "out.tra"
    lab = tmp_path / "out.lab"
    sr.write_model(slow_chain, tra, lab, kind="mdp")
    bundle = sr.load_model(tra, lab)
    assert bundle.kind == "mdp"
    assert bundle.model.num_choices == slow_chain.num_choices
    np.testing.assert_array_equal(bundle.model.entry_prob, slow_chain.entry_prob)


# ---------------------------------------------------------------------------
# the dict-based parse, validate and write that the array path replaced,
# kept as references for the array path
# ---------------------------------------------------------------------------

def reference_validate(choices, *, initial_state=0, rewards=None, labels=None,
                       choice_labels=None):
    """``validate_model`` as a per-entry walk over merged ``{target: prob}`` dicts."""
    num_states = len(choices)
    if num_states == 0:
        raise sr.EmptyRowGroup("a model needs at least one state")
    if not (0 <= initial_state < num_states):
        raise sr.DanglingTarget(f"initial state {initial_state} out of range")
    row_group_start = np.zeros(num_states + 1, dtype=np.int64)
    choice_start, targets, probs, choice_rewards = [0], [], [], []
    for s, group in enumerate(choices):
        group = list(group)
        if not group:
            raise sr.EmptyRowGroup(f"state {s} has no choice")
        row_group_start[s + 1] = row_group_start[s] + len(group)
        for c, raw_choice in enumerate(group):
            merged = {}
            pairs = raw_choice.items() if isinstance(raw_choice, dict) else raw_choice
            for target, prob in pairs:
                target, prob = int(target), float(prob)
                if not (0 <= target < num_states):
                    raise sr.DanglingTarget(f"state {s} choice {c}: target {target}")
                if not (0.0 < prob <= 1.0 + ROW_SUM_TOLERANCE):
                    raise sr.NegativeProbability(f"state {s} choice {c}: {prob!r}")
                merged[target] = merged.get(target, 0.0) + prob
            if not merged:
                raise sr.EmptyRowGroup(f"state {s} choice {c} has no transition")
            row_sum = sum(merged.values())
            if abs(row_sum - 1.0) > ROW_SUM_TOLERANCE:
                raise sr.RowSumError(f"state {s} choice {c}: sum {row_sum!r}")
            for target in sorted(merged):
                targets.append(target)
                probs.append(merged[target] / row_sum)
            choice_start.append(len(targets))
            try:
                reward = 0.0 if rewards is None else float(rewards[s][c])
            except (IndexError, TypeError):
                reward = 0.0
            if not np.isfinite(reward):
                raise sr.ModelError(f"state {s} choice {c}: reward {reward!r}")
            choice_rewards.append(reward)
    label_masks = {}
    for name, states in (labels or {}).items():
        mask = np.zeros(num_states, dtype=bool)
        arr = np.asarray(list(states) if not isinstance(states, np.ndarray) else states)
        if arr.dtype == bool:
            mask |= arr
        elif arr.size:
            if arr.min() < 0 or arr.max() >= num_states:
                raise sr.DanglingTarget(f"label {name!r}: state index out of range")
            mask[arr.astype(np.int64)] = True
        label_masks[name] = _freeze(mask)
    if choice_labels is not None:
        choice_labels = tuple(choice_labels)
        if all(label is None for label in choice_labels):
            choice_labels = None
    return SparseModel(
        num_states=num_states,
        initial_state=int(initial_state),
        row_group_start=_freeze(row_group_start),
        choice_start=_freeze(np.asarray(choice_start, dtype=np.int64)),
        entry_target=_freeze(np.asarray(targets, dtype=np.int64)),
        entry_prob=_freeze(np.asarray(probs, dtype=np.float64)),
        choice_reward=_freeze(np.asarray(choice_rewards, dtype=np.float64)),
        labels=label_masks,
        choice_labels=choice_labels,
    )


def _reference_body(text, arity):
    lines = _content_lines(text)
    if not lines:
        raise sr.ParseError("transition file is empty")
    header = lines[0].split()
    if len(header) != arity:
        raise sr.HeaderMismatch(f"header needs {arity} counts: {lines[0]!r}")
    return _ints(header, lines[0]), lines[1:]


def _reference_line(line, num_states, fields):
    tokens = line.split()
    if len(tokens) not in fields:
        raise sr.ParseError(f"line needs {fields} fields: {line!r}")
    numbers = _ints(tokens[: fields[0] - 1], line)
    try:
        prob = float(tokens[fields[0] - 1])
    except ValueError:
        raise sr.ParseError(f"bad probability in line {line!r}") from None
    for state in (numbers[0], numbers[-1]):
        if not (0 <= state < num_states):
            raise sr.DanglingTarget(f"state {state} out of range in {line!r}")
    return numbers, prob, tokens


def reference_parse_mc_tra(text):
    (num_states, num_transitions), body = _reference_body(text, 2)
    rows = [dict() for _ in range(num_states)]
    for line in body:
        (src, dst), prob, _ = _reference_line(line, num_states, (3,))
        rows[src][dst] = rows[src].get(dst, 0.0) + prob
    if len(body) != num_transitions:
        raise sr.HeaderMismatch(f"header declares {num_transitions} transitions")
    return rows


def reference_parse_mdp_tra(text):
    (num_states, num_choices, num_transitions), body = _reference_body(text, 3)
    groups = [dict() for _ in range(num_states)]
    actions = [dict() for _ in range(num_states)]
    for line in body:
        (src, choice, dst), prob, tokens = _reference_line(line, num_states, (4, 5))
        if choice < 0:
            raise sr.NonContiguousChoices(f"negative choice index in {line!r}")
        row = groups[src].setdefault(choice, {})
        row[dst] = row.get(dst, 0.0) + prob
        if len(tokens) == 5:
            if actions[src].get(choice, tokens[4]) != tokens[4]:
                raise sr.ParseError(f"choice {choice} of state {src} has two names")
            actions[src][choice] = tokens[4]
    if len(body) != num_transitions:
        raise sr.HeaderMismatch(f"header declares {num_transitions} transitions")
    result, names = [], []
    for s, per_state in enumerate(groups):
        if sorted(per_state) != list(range(len(per_state))):
            raise sr.NonContiguousChoices(f"state {s} uses {sorted(per_state)}")
        result.append([per_state[c] for c in range(len(per_state))])
        names.extend(actions[s].get(c) for c in range(len(per_state)))
    if len(names) != num_choices:
        raise sr.HeaderMismatch(f"header declares {num_choices} choices")
    return result, names


def reference_parse_rewards(text, kind):
    expected = 2 if kind == "state" else 3
    out = {}
    for line in _content_lines(text):
        tokens = line.split()
        if len(tokens) != expected:
            raise sr.ParseError(f"{kind} reward line needs {expected} fields: {line!r}")
        try:
            value = float(tokens[-1])
        except ValueError:
            raise sr.ParseError(f"bad reward in line {line!r}") from None
        key = _ints(tokens[:-1], line)
        key = key[0] if kind == "state" else tuple(key)
        out[key] = out.get(key, 0.0) + value
    return out


def reference_load(tra_path, lab_path, srew_path=None, trew_path=None):
    """``load_model`` as dict parsers, a rebuild into nested lists and
    ``reference_validate``."""
    text = Path(tra_path).read_text()
    lines = _content_lines(text)
    arity = len(lines[0].split()) if lines else 0
    choice_labels = None
    if arity == 2:
        groups = [[row] for row in reference_parse_mc_tra(text)]
    elif arity == 3:
        groups, choice_labels = reference_parse_mdp_tra(text)
    elif not lines:
        raise sr.ParseError("transition file is empty")
    else:
        raise sr.HeaderMismatch(f"header has {arity} fields")
    num_states = len(groups)
    labels = parse_labels(Path(lab_path).read_text(), num_states)
    if "init" not in labels or not labels["init"].any():
        raise sr.MissingInit("no state carries the 'init' label")
    init_states = np.flatnonzero(labels["init"])
    if len(init_states) != 1:
        raise sr.MultipleInitStates(f"'init' marks states {init_states.tolist()}")
    state_rewards, choice_rewards = {}, {}
    if srew_path is not None:
        state_rewards = reference_parse_rewards(Path(srew_path).read_text(), "state")
    if trew_path is not None:
        choice_rewards = reference_parse_rewards(Path(trew_path).read_text(), "choice")
    for state in state_rewards:
        if not (0 <= state < num_states):
            raise sr.DanglingTarget(f"state reward for unknown state {state}")
    for state, choice in choice_rewards:
        if not (0 <= state < num_states) or not (0 <= choice < len(groups[state])):
            raise sr.DanglingTarget(f"choice reward for state {state} choice {choice}")
    rewards = [
        [state_rewards.get(s, 0.0) + choice_rewards.get((s, c), 0.0) for c in range(len(g))]
        for s, g in enumerate(groups)
    ]
    return reference_validate(
        groups,
        initial_state=int(init_states[0]),
        rewards=rewards,
        labels=labels,
        choice_labels=choice_labels if arity == 3 else None,
    )


def reference_write(model, tra_path, lab_path, trew_path=None, *, kind=None):
    """``write_model`` as a per-state, per-choice walk with ``entries_of``."""
    if kind is None:
        kind = "mc" if model.is_mc and model.choice_labels is None else "mdp"
    lines = []
    if kind == "mc":
        lines.append(f"{model.num_states} {model.num_transitions}")
        for s in range(model.num_states):
            targets, probs = model.entries_of(int(model.row_group_start[s]))
            for t, p in zip(targets.tolist(), probs.tolist()):
                lines.append(f"{s} {t} {p!r}")
    else:
        lines.append(f"{model.num_states} {model.num_choices} {model.num_transitions}")
        for s in range(model.num_states):
            for local, c in enumerate(model.choices_of(s)):
                targets, probs = model.entries_of(c)
                action = None if model.choice_labels is None else model.choice_labels[c]
                suffix = f" {action}" if action else ""
                for t, p in zip(targets.tolist(), probs.tolist()):
                    lines.append(f"{s} {local} {t} {p!r}{suffix}")
    Path(tra_path).write_text("\n".join(lines) + "\n")
    names = sorted(model.labels, key=lambda name: (name != "init", name))
    label_lines = [" ".join(f'{i}="{name}"' for i, name in enumerate(names))]
    for s in range(model.num_states):
        ids = [str(i) for i, name in enumerate(names) if model.labels[name][s]]
        if ids:
            label_lines.append(f"{s}: {' '.join(ids)}")
    Path(lab_path).write_text("\n".join(label_lines) + "\n")
    if trew_path is not None:
        reward_lines = []
        for s in range(model.num_states):
            for local, c in enumerate(model.choices_of(s)):
                r = float(model.choice_reward[c])
                if r != 0.0:
                    reward_lines.append(f"{s} {local} {r!r}")
        Path(trew_path).write_text("\n".join(reward_lines) + "\n")


def assert_identical(got, want):
    """Every array bit for bit (dtype included), labels, action names and
    the initial state."""
    assert got.num_states == want.num_states
    assert got.initial_state == want.initial_state
    assert got.choice_labels == want.choice_labels
    for name in ("row_group_start", "choice_start", "entry_target", "entry_prob",
                 "choice_reward"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert list(got.labels) == list(want.labels)
    for name in want.labels:
        assert got.labels[name].tobytes() == want.labels[name].tobytes(), name


def named_model(rng):
    """A random model whose choices carry action names, some unnamed."""
    model, _ = random_model(rng, force_mdp=True)
    names = [None if rng.random() < 0.3 else f"a{int(rng.integers(0, 5))}"
             for _ in range(model.num_choices)]
    return sr.validate_model(
        [[{int(t): float(p) for t, p in zip(*model.entries_of(c))}
          for c in model.choices_of(s)] for s in range(model.num_states)],
        initial_state=model.initial_state,
        rewards=[[float(model.choice_reward[c]) for c in model.choices_of(s)]
                 for s in range(model.num_states)],
        labels=dict(model.labels),
        choice_labels=names,
    )


def test_load_and_write_match_references_on_random_models(tmp_path):
    rng = np.random.default_rng(1010)
    for i in range(150):
        model = named_model(rng) if i % 5 == 0 else random_model(rng)[0]
        kinds = [None, "mdp"] if model.is_mc and model.choice_labels is None else [None]
        for kind in kinds:
            ours = [tmp_path / f"ours.{ext}" for ext in ("tra", "lab", "trew")]
            theirs = [tmp_path / f"ref.{ext}" for ext in ("tra", "lab", "trew")]
            sr.write_model(model, *ours, kind=kind)
            reference_write(model, *theirs, kind=kind)
            for a, b in zip(ours, theirs):
                assert a.read_bytes() == b.read_bytes(), (i, a.name)
            loaded = sr.load_model(ours[0], ours[1], trew_path=ours[2]).model
            assert_identical(loaded, reference_load(ours[0], ours[1], trew_path=ours[2]))
            text = ours[0].read_text()
            if kind is None and model.is_mc and model.choice_labels is None:
                assert parse_mc_tra(text) == reference_parse_mc_tra(text)
            else:
                assert parse_mdp_tra(text) == reference_parse_mdp_tra(text)


def test_load_matches_reference_on_shuffled_duplicated_lines(tmp_path):
    # lines out of order, duplicates split in two, and state rewards: the
    # array path merges and sums in the same order as the dict parsers
    rng = np.random.default_rng(2020)
    tra, lab, srew, trew = (tmp_path / f"m.{ext}" for ext in ("tra", "lab", "srew", "trew"))
    for _ in range(100):
        model, _ = random_model(rng)
        sr.write_model(model, tra, lab, trew, kind="mdp")
        header, *body = tra.read_text().splitlines()
        split = []
        for line in body:
            s, c, t, p = line.split()
            if rng.random() < 0.3:
                half = float(p) * float(rng.random())
                split += [f"{s} {c} {t} {half!r}", f"{s} {c} {t} {float(p) - half!r}"]
            else:
                split.append(line)
        rng.shuffle(split)
        counts = header.split()
        tra.write_text(f"{counts[0]} {counts[1]} {len(split)}\n" + "\n".join(split) + "\n")
        srew.write_text("".join(f"{s} {rng.uniform(-1, 1)!r}\n"
                                for s in rng.integers(0, model.num_states, 4)))
        files = dict(srew_path=srew, trew_path=trew)
        try:
            want = reference_load(tra, lab, **files)
        except sr.ModelError as exc:  # a split part can round to zero
            with pytest.raises(type(exc)):
                sr.load_model(tra, lab, **files)
            continue
        assert_identical(sr.load_model(tra, lab, **files).model, want)
        text = tra.read_text()
        assert parse_mdp_tra(text) == reference_parse_mdp_tra(text)
        for kind, path in (("state", srew), ("choice", trew)):
            text = path.read_text()
            assert parse_rewards(text, kind=kind) == reference_parse_rewards(text, kind)


def random_nested(rng):
    """Nested input with unsorted dict keys, duplicate pairs and short or
    missing reward rows."""
    n = int(rng.integers(1, 8))
    choices, rewards = [], []
    for _ in range(n):
        group = []
        for _ in range(int(rng.integers(1, 4))):
            targets = rng.integers(0, n, int(rng.integers(1, 5))).tolist()
            raw = rng.random(len(targets)) + 0.01
            raw = (raw / raw.sum()).tolist()
            if rng.random() < 0.5:
                group.append(list(zip(targets, raw)))  # pairs, duplicates kept
            else:
                merged = {}
                for t, p in zip(targets, raw):
                    merged[t] = merged.get(t, 0.0) + p
                group.append(merged)  # keys in first-appearance order
        choices.append(group)
        rewards.append(rng.uniform(-3, 3, int(rng.integers(0, 4))).tolist())
    if rng.random() < 0.2:
        rewards.pop()
    labels = {"init": [0], "goal": rng.integers(0, n, 2)}
    return choices, rewards, labels


def test_validate_matches_reference_on_nested_input():
    rng = np.random.default_rng(3030)
    for _ in range(400):
        choices, rewards, labels = random_nested(rng)
        kwargs = dict(rewards=rewards, labels=labels)
        try:
            want = reference_validate(choices, **kwargs)
        except sr.ModelError as exc:
            with pytest.raises(type(exc)):
                sr.validate_model(choices, **kwargs)
            continue
        assert_identical(sr.validate_model(choices, **kwargs), want)


CORPUS_TRA = """\
3 4 6
0 0 1 0.5
0 0 2 0.5
0 1 2 1.0 jump
1 0 1 1.0
2 0 0 0.3
2 0 2 0.7
"""
CORPUS_LAB = '0="init" 1="goal"\n0: 0\n1: 1\n'
CORPUS_TREW = "0 1 0.5\n2 0 3.0\n"

# one fault each: (name, file, old text, new text)
SINGLE_FAULTS = [
    ("bad token", "tra", "1 0 1 1.0", "1 0 x 1.0"),
    ("bad probability token", "tra", "2 0 0 0.3", "2 0 0 0.3.1"),
    ("short line", "tra", "1 0 1 1.0", "1 0 1"),
    ("source out of range", "tra", "1 0 1 1.0", "3 0 1 1.0"),
    ("target out of range", "tra", "1 0 1 1.0", "1 0 3 1.0"),
    ("negative target", "tra", "1 0 1 1.0", "1 0 -1 1.0"),
    ("negative choice", "tra", "0 1 2 1.0 jump", "0 -1 2 1.0 jump"),
    ("skipped choice", "tra", "0 1 2 1.0 jump", "0 2 2 1.0 jump"),
    ("two action names", "tra", "0 0 1 0.5\n0 0 2 0.5", "0 0 1 0.5 walk\n0 0 2 0.5 run"),
    ("wrong transition count", "tra", "3 4 6", "3 4 7"),
    ("wrong choice count", "tra", "3 4 6", "3 5 6"),
    ("wrong state count", "tra", "3 4 6", "4 4 6"),
    ("header arity", "tra", "3 4 6", "3 4 6 1"),
    ("zero probability", "tra", "1 0 1 1.0", "1 0 1 0.0"),
    ("NaN probability", "tra", "1 0 1 1.0", "1 0 1 nan"),
    ("negative probability", "tra", "2 0 0 0.3", "2 0 0 -0.3"),
    ("row sum off by 1e-3", "tra", "2 0 0 0.3", "2 0 0 0.301"),
    ("unknown reward state", "trew", "2 0 3.0", "5 0 3.0"),
    ("unknown reward choice", "trew", "2 0 3.0", "2 1 3.0"),
    ("NaN reward", "trew", "2 0 3.0", "2 0 nan"),
    ("bad reward token", "trew", "2 0 3.0", "2 0 three"),
    ("missing init", "lab", "0: 0\n", ""),
    ("doubled init", "lab", "0: 0\n", "0: 0\n2: 0\n"),
    ("unknown label id", "lab", "1: 1", "1: 7"),
]


def corpus_files(tmp_path, fault=None):
    texts = {"tra": CORPUS_TRA, "lab": CORPUS_LAB, "trew": CORPUS_TREW}
    if fault is not None:
        _, which, old, new = fault
        assert old in texts[which]
        texts[which] = texts[which].replace(old, new, 1)
    paths = {}
    for ext, text in texts.items():
        paths[ext] = tmp_path / f"c.{ext}"
        paths[ext].write_text(text)
    return paths["tra"], paths["lab"], None, paths["trew"]


@pytest.mark.parametrize("fault", SINGLE_FAULTS, ids=[f[0] for f in SINGLE_FAULTS])
def test_single_fault_raises_the_reference_class(tmp_path, fault):
    files = corpus_files(tmp_path, fault)
    with pytest.raises(sr.ModelError) as want:
        reference_load(*files)
    with pytest.raises(type(want.value)):
        sr.load_model(*files)


def test_unfaulted_corpus_matches_reference(tmp_path):
    files = corpus_files(tmp_path)
    assert_identical(sr.load_model(*files).model, reference_load(*files))


def test_duplicate_lines_are_checked_raw_then_merged(tmp_path):
    # Two lines 0.6 + 0.6: each raw entry is a probability, their merged
    # row sums to 1.2.  The dict parsers merged before the probability
    # check and raised NegativeProbability.
    tra, lab = tmp_path / "d.tra", tmp_path / "d.lab"
    lab.write_text('0="init"\n0: 0\n')
    tra.write_text("2 3\n0 1 0.6\n0 1 0.6\n1 1 1.0\n")
    with pytest.raises(sr.NegativeProbability):
        reference_load(tra, lab)
    with pytest.raises(sr.RowSumError):
        sr.load_model(tra, lab)
    with pytest.raises(sr.RowSumError):
        sr.validate_model([[[(1, 0.6), (1, 0.6)]], [{1: 1.0}]])
    # A zero line beside a full one: the merged row is fine, the raw entry
    # is not.  The dict parsers merged it away and loaded the file.
    tra.write_text("2 3\n0 1 0.0\n0 1 1.0\n1 1 1.0\n")
    reference_load(tra, lab)
    with pytest.raises(sr.NegativeProbability):
        sr.load_model(tra, lab)
    with pytest.raises(sr.NegativeProbability):
        sr.validate_model([[[(1, 0.0), (1, 1.0)]], [{1: 1.0}]])


@pytest.mark.parametrize("token", ["+1", "0_1", "１", "01"])
def test_edge_integer_tokens_convert_as_int(token):
    text = f"2 2\n0 {token} 1.0\n1 1 1.0\n"
    assert parse_mc_tra(text) == reference_parse_mc_tra(text)
    assert int(token) in parse_mc_tra(text)[0]


@pytest.mark.parametrize("token", ["+1.0", "1_0e-1", "１", "1e-400", "infinity", "-0.0"])
def test_edge_float_tokens_convert_as_float(tmp_path, token):
    text = f"1 1\n0 0 {token}\n"
    assert parse_mc_tra(text) == reference_parse_mc_tra(text)
    assert parse_rewards(f"0 {token}\n", kind="state") == {0: float(token)}
    tra, lab, srew = tmp_path / "e.tra", tmp_path / "e.lab", tmp_path / "e.srew"
    tra.write_text("1 1\n0 0 1.0\n")
    lab.write_text('0="init"\n0: 0\n')
    srew.write_text(f"0 {token}\n")
    try:
        want = reference_load(tra, lab, srew)
    except sr.ModelError as exc:
        with pytest.raises(type(exc)):
            sr.load_model(tra, lab, srew)
    else:
        assert_identical(sr.load_model(tra, lab, srew).model, want)


@pytest.mark.parametrize("text", ["1000000000000 1\n0 0 1.0\n",
                                  "1000000000000 1 1\n0 0 0 1.0\n"])
def test_oversized_state_count_fails_at_once(tmp_path, text):
    tra, lab = tmp_path / "big.tra", tmp_path / "big.lab"
    tra.write_text(text)
    lab.write_text('0="init"\n0: 0\n')
    started = time.perf_counter()
    with pytest.raises(sr.EmptyRowGroup, match="1000000000000.*1 transition line"):
        sr.load_model(tra, lab)
    with pytest.raises(sr.EmptyRowGroup):
        (parse_mc_tra if text.count(" ") == 3 else parse_mdp_tra)(text)
    assert time.perf_counter() - started < 0.1


@pytest.mark.parametrize("header", ["-1 1", "1 -1", "-1 1 1", "1 -1 1"])
def test_negative_header_count(header):
    parse = parse_mc_tra if header.count(" ") == 1 else parse_mdp_tra
    with pytest.raises(sr.HeaderMismatch):
        parse(f"{header}\n0 0 1.0\n" if parse is parse_mc_tra else f"{header}\n0 0 0 1.0\n")


# ---------------------------------------------------------------------------
# what write_model refuses
# ---------------------------------------------------------------------------


def tiny_chain(**overrides):
    spec = dict(labels={"init": [0]}, initial_state=0)
    spec.update(overrides)
    return sr.validate_model([[{1: 1.0}], [{0: 1.0}]], **spec)


@pytest.mark.parametrize("model", [
    tiny_chain(labels={"goal": [1]}),                    # no init label
    tiny_chain(initial_state=1),                         # init marks state 0
    tiny_chain(labels={"init": [0, 1]}, initial_state=0),  # init marks two
], ids=["missing init", "init elsewhere", "init doubled"])
def test_write_refuses_init_label_other_than_initial_state(tmp_path, model):
    with pytest.raises(ValueError, match="init"):
        sr.write_model(model, tmp_path / "m.tra", tmp_path / "m.lab")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["go left", "", "#x", "tab\there"])
def test_write_refuses_unreadable_action_names(tmp_path, name):
    model = sr.validate_model([[{0: 1.0}, {1: 1.0}], [{1: 1.0}]],
                              labels={"init": [0]}, choice_labels=[name, "ok", None])
    with pytest.raises(ValueError, match="action name"):
        sr.write_model(model, tmp_path / "m.tra", tmp_path / "m.lab")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ['say "hi"', "#goal"])
def test_write_refuses_unreadable_label_names(tmp_path, name):
    with pytest.raises(ValueError, match="label name"):
        sr.write_model(tiny_chain(labels={"init": [0], name: [1]}),
                       tmp_path / "m.tra", tmp_path / "m.lab")
    assert not list(tmp_path.iterdir())


def test_named_chain_is_written_as_mdp(tmp_path):
    model = tiny_chain(choice_labels=["go", None])
    with pytest.raises(ValueError, match="action names"):
        sr.write_model(model, tmp_path / "m.tra", tmp_path / "m.lab", kind="mc")
    assert not list(tmp_path.iterdir())
    sr.write_model(model, tmp_path / "m.tra", tmp_path / "m.lab")
    bundle = sr.load_model(tmp_path / "m.tra", tmp_path / "m.lab")
    assert bundle.kind == "mdp"
    assert_identical(bundle.model, model)
