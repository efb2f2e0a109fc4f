"""Graph-level preprocessing: qualitative reachability, SCCs, end components.

Everything here works on the directed graph underlying a model.  The
functions feed the numeric solvers, in the order ``solve`` runs them:
``prob0_max``/``prob0_min`` find the states of reachability value exactly
0, ``prob1_max``/``prob1_min`` those of value exactly 1, and the collapse
(``mec_decompose``, ``collapse_end_components``) establishes the
unique-fixpoint precondition of the certified solvers.  ``check_contracting``
asks whether ``prob0_min`` is empty; ``scc_order`` drives the topological solver.

The searches run over CSR arrays.  ``_unreached`` (``prob0_max``,
``prob1_min``) and ``_Attractor`` (``prob0_min``), the one backward and the
one greatest-fixpoint search, go breadth-first over the model's one
predecessor CSR (``SparseModel.graph``), each round gathering the entries
into a whole frontier at once; ``prob1_max`` alternates the two, and
``mec_decompose`` alternates ``_Attractor`` with passes of ``_tarjan``, which
walks a state-level successor CSR as Python lists and also serves
``scc_order``.  Collapse reuses one decomposition of the undecided states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# validate_model stays imported: perfbench/tracing.py wraps it here.
from .model import (
    Direction, Partition, SparseModel, _map_mask, _state_mask, submodel, validate_model,
)

__all__ = [
    "SccOrder",
    "Mec",
    "MecDecomposition",
    "QuotientMap",
    "prob0_max",
    "prob0_min",
    "prob1_max",
    "prob1_min",
    "scc_order",
    "mec_decompose",
    "collapse_end_components",
    "check_contracting",
    "reach_partition",
    "reward_partition",
]


# ---------------------------------------------------------------------------
# qualitative reachability
# ---------------------------------------------------------------------------


def _distinct(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``values`` with repeats dropped, using ``slots`` (indexed by value) as
    working space: of the positions written to one slot, exactly one survives.

    Unlike ``np.unique`` it needs no sort, and it does not import
    ``numpy.ma`` (0.6 MB of memory), which ``np.unique`` does on first use.
    """
    positions = np.arange(len(values))
    slots[values] = positions
    return values[slots[values] == positions]


def _unreached(model: SparseModel, seed: np.ndarray, pending: np.ndarray, alive=None) -> np.ndarray:
    """``pending``, cleared in place of each state with a path into ``seed``
    through ``pending`` states along ``alive`` choices (any, without them):
    the one backward search, each round gathering the entries into its frontier."""
    graph = model.graph
    frontier = seed.nonzero()[0]
    slots = np.empty(model.num_states, dtype=np.int64)
    while len(frontier):
        entries = graph.entries_into(frontier)
        if alive is not None:
            entries = entries[alive[graph.entry_choice[entries]]]
        sources = graph.entry_source[entries]
        frontier = _distinct(sources[pending[sources]], slots)
        pending[frontier] = False
    return pending


def prob0_max(model: SparseModel, goal: np.ndarray) -> np.ndarray:
    """States from which no resolution of choices can ever reach ``goal``:
    all but those with a path into the goal."""
    goal = _state_mask(model, goal)
    return _unreached(model, goal, ~goal)


class _Attractor:
    """The one greatest-fixpoint search, over the model's ``graph`` arrays.

    ``component_of`` labels the candidate states (-1 for the others), whose
    choices start alive (those of ``owners`` if given).  ``run`` drops every
    alive choice that can leave its component, then the attractor of what
    fell, round by round: the states left without a choice (component -1) and
    the alive choices that can enter them, touching only the entries into the
    states that just fell: linear time.
    """

    def __init__(self, model: SparseModel, candidates: np.ndarray, owners=None):
        n, graph = model.num_states, model.graph
        self.model, self.graph = model, graph
        self.component_of = candidates.astype(np.int64) - 1
        self.choice_alive = (candidates if owners is None else owners)[graph.choice_state]
        self.choices_left = np.bincount(graph.choice_state[self.choice_alive], minlength=n)
        self.state_slots = np.empty(n, dtype=np.int64)
        self.choice_slots = np.empty(model.num_choices, dtype=np.int64)

    def run(self) -> bool:
        """Drop what can leave its component and its attractor; True iff any fell."""
        component_of, choice_alive, graph = self.component_of, self.choice_alive, self.graph
        inside = component_of[self.model.entry_target] == component_of[graph.entry_source]
        stays = np.logical_and.reduceat(inside, self.model.choice_start[:-1])
        fall = (choice_alive & ~stays).nonzero()[0]
        dropped = len(fall) > 0
        while len(fall):
            choice_alive[fall] = False
            owners = graph.choice_state[fall]
            np.subtract.at(self.choices_left, owners, 1)
            dead = _distinct(owners[self.choices_left[owners] == 0], self.state_slots)
            component_of[dead] = -1
            into = graph.entry_choice[graph.entries_into(dead)]
            fall = _distinct(into[choice_alive[into]], self.choice_slots)
        return dropped


def prob0_min(model: SparseModel, goal: np.ndarray) -> np.ndarray:
    """States where some resolution of choices avoids ``goal`` forever: the
    greatest set of non-goal states that each own a choice whose successors
    all stay inside the set, found by one attractor run from ``~goal``.
    """
    attractor = _Attractor(model, ~_state_mask(model, goal))
    attractor.run()
    return attractor.component_of >= 0


def prob1_max(model: SparseModel, goal: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """Prob1E (Baier & Katoen, Alg. 45): the states, goal included, from which
    some resolution of choices reaches ``goal`` almost surely, given ``s0 =
    prob0_max``.  From ``U = ~s0``, ``_Attractor`` drops the choices that can
    leave ``U`` and the states left without one, then a search from the goal
    along the rest drops the states it misses, until a search drops nothing."""
    attractor = _Attractor(model, ~s0, ~(s0 | goal))  # goal rows are never read
    while True:
        attractor.run()
        keep = attractor.component_of >= 0
        lost = _unreached(model, goal, keep & ~goal, attractor.choice_alive)
        if not lost.any():
            return keep
        attractor.component_of[lost] = -1
        attractor.choice_alive &= ~lost[attractor.graph.choice_state]


def prob1_min(model: SparseModel, goal: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """Prob1A (Baier & Katoen, Alg. 46): the states, goal included, from which
    every resolution of choices reaches ``goal`` almost surely, given ``s0 =
    prob0_min``: those without a path outside the goal into ``s0``."""
    return _unreached(model, s0, ~(s0 | goal)) | goal


def check_contracting(model: SparseModel, target: np.ndarray) -> bool:
    """True iff every resolution of choices reaches ``target`` almost surely,
    that is, iff no end component lives entirely outside ``target``.  Such
    a component is a set that ``prob0_min`` keeps, and every non-empty set
    it keeps contains one, so no decomposition is needed.
    """
    return not prob0_min(model, target).any()


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SccOrder:
    """SCCs listed in reverse topological order (successors come first)."""

    components: list
    component_of: np.ndarray


def _tarjan(num_states: int, sources: np.ndarray, targets: np.ndarray, roots) -> np.ndarray:
    """Iterative Tarjan over the edges ``sources[i] -> targets[i]``.

    The edges must be sorted by source.  They become a state-level CSR
    (``ptr`` from a ``bincount``, ``adj`` the targets), walked as Python
    lists in one pass: a path stack plus a read position per node replaces
    recursion, so deep chains do not hit the interpreter recursion limit.
    The search starts from each of ``roots`` in turn and visits only what
    they reach.  Returns ``component_of``: each visited node's component,
    numbered in completion order (reverse topological order), -1 elsewhere.
    """
    ptr = [0, *np.cumsum(np.bincount(sources, minlength=num_states)).tolist()]
    adj = targets.tolist()
    pos = ptr[:-1]
    index = [-1] * num_states
    low = [0] * num_states
    component_of = [-1] * num_states
    stack: list[int] = []
    visited = count = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            i, end = pos[v], ptr[v + 1]
            while i < end:
                w = adj[i]
                i += 1
                if index[w] < 0:
                    pos[v] = i
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append(w)
                    break
                if component_of[w] < 0 and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component_of[w] = count
                        if w == v:
                            break
                    count += 1
    return np.asarray(component_of, dtype=np.int64)


def _groups(labels: np.ndarray) -> list:
    """The indices carrying each label ``0, 1, ...``, ascending; -1 is no group."""
    members = np.flatnonzero(labels >= 0)
    members = members[np.argsort(labels[members], kind="stable")]
    ends = np.cumsum(np.bincount(labels[members])).tolist()
    return [members[lo:hi] for lo, hi in zip([0, *ends], ends)]


def scc_order(model: SparseModel, restrict: np.ndarray | None = None) -> SccOrder:
    """Decompose the state graph into SCCs, successors-first.

    For every transition ``s -> s'`` in the model,
    ``component_of[s'] <= component_of[s]``: a component never precedes one
    of its successors in the returned list.  With ``restrict`` the rows of
    the states outside it are dropped first, so each of those states is a
    component of its own and joins no cycle.
    """
    n = model.num_states
    sources = np.repeat(np.arange(n), np.diff(model.choice_start[model.row_group_start]))
    kept = slice(None) if restrict is None else _state_mask(model, restrict)[sources]
    component_of = _tarjan(n, sources[kept], model.entry_target[kept], range(n))
    return SccOrder(components=_groups(component_of), component_of=component_of)


# ---------------------------------------------------------------------------
# maximal end components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mec:
    """One maximal end component: member states plus retained choices."""

    states: np.ndarray
    choices: np.ndarray  # global choice indices whose successors stay inside


@dataclass(frozen=True)
class MecDecomposition:
    """All MECs, and the same decision per state and per choice."""

    mecs: list
    mec_of: np.ndarray  # state -> MEC index, -1 when in none
    choice_mec: np.ndarray  # choice -> index of the MEC retaining it, -1 when none


def mec_decompose(model: SparseModel, restrict: np.ndarray | None = None) -> MecDecomposition:
    """Find all maximal end components, optionally inside ``restrict``.

    A set of states with one retained choice each forms an end component if
    the retained choices never leave the set and the set is strongly
    connected through them.  This is the classic algorithm (de Alfaro 1997;
    Baier & Katoen, Alg. 47).  Start from ``restrict`` as one component and
    run ``_Attractor``, which drops every choice that can leave its
    component and everything that then falls.  Split the components with a
    Tarjan pass over the retained choices, and repeat until a run drops
    nothing (or the first run leaves no candidate, and no MEC).  MECs come
    in the completion order of the last pass, each with its states and
    retained choices ascending; ``mec_of`` and ``choice_mec`` label the same
    states and choices with their MEC's index.
    """
    n, graph = model.num_states, model.graph
    alive = np.ones(n, dtype=bool) if restrict is None else _state_mask(model, restrict)
    attractor = _Attractor(model, alive)
    attractor.run()
    if not np.count_nonzero(attractor.component_of >= 0):
        none = np.full(model.num_choices, -1, dtype=np.int64)
        return MecDecomposition(mecs=[], mec_of=attractor.component_of, choice_mec=none)
    while (alive := attractor.component_of >= 0).any():
        kept = np.repeat(attractor.choice_alive, graph.entry_count)
        sources, targets = graph.entry_source[kept], model.entry_target[kept]
        attractor.component_of = _tarjan(n, sources, targets, np.flatnonzero(alive).tolist())
        if not attractor.run():
            break

    component_of, choice_alive = attractor.component_of, attractor.choice_alive
    choice_mec = np.where(choice_alive, component_of[graph.choice_state], -1)
    mecs = list(map(Mec, _groups(component_of), _groups(choice_mec)))
    return MecDecomposition(mecs=mecs, mec_of=component_of, choice_mec=choice_mec)


# ---------------------------------------------------------------------------
# end-component quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMap:
    """Result of collapsing end components: quotient model plus state map."""

    model: SparseModel
    state_map: np.ndarray  # original state -> quotient state
    partition: Partition
    source_choices: int  # choice count of the collapsed model

    @property
    def is_identity(self) -> bool:
        """Whether the collapse changed nothing: every state kept its number
        and no choice was dropped."""
        return (
            self.model.num_states == len(self.state_map)
            and self.model.num_choices == self.source_choices
            and bool(np.all(self.state_map == np.arange(len(self.state_map))))
        )


def collapse_end_components(model: SparseModel, partition: Partition) -> QuotientMap:
    """Collapse each maximal end component inside ``partition.maybe``.

    Each MEC of ``mec_decompose(model, restrict=partition.maybe)`` becomes
    one quotient state, numbered by its lowest member, whose choices are the
    member choices the MEC does not retain, those with a successor outside
    it.  Their probabilities are redirected through the state map (mass
    staying inside becomes a self-loop), their rewards are preserved.  Goal
    and sure-zero states are not searched and stay as they are.  Without
    any MEC the input model is returned as an identity quotient.  ``solve``
    does not call it where every undecided state of a ``reach_partition``
    has one choice, which leaves no MEC there (see ``solve``).
    """
    decomposition = mec_decompose(model, restrict=partition.maybe)
    if not decomposition.mecs:
        identity = np.arange(model.num_states, dtype=np.int64)
        return QuotientMap(model, identity, partition, model.num_choices)
    mec_of = decomposition.mec_of
    members = np.flatnonzero(mec_of >= 0)

    # Quotient states are numbered by their lowest member: a running count of
    # the states that are their own lowest member.
    lowest = np.full(int(mec_of.max()) + 1, model.num_states)
    np.minimum.at(lowest, mec_of[members], members)
    first = np.arange(model.num_states)
    first[members] = lowest[mec_of[members]]
    state_map = np.cumsum(first == np.arange(model.num_states))[first] - 1
    num_quotient = int(state_map.max()) + 1

    kept = np.flatnonzero(decomposition.choice_mec < 0)
    owner = state_map[model.graph.choice_state[kept]]
    order = np.argsort(owner, kind="stable")
    quotient = submodel(model, owner[order], kept[order], num_quotient, state_map)
    new_partition = Partition._of(
        _map_mask(partition.s0, state_map, num_quotient),
        _map_mask(partition.goal, state_map, num_quotient),
        _map_mask(partition.maybe, state_map, num_quotient),
    )
    return QuotientMap(quotient, state_map, new_partition, model.num_choices)


# ---------------------------------------------------------------------------
# partitions for the solvers
# ---------------------------------------------------------------------------


def reach_partition(model: SparseModel, goal: np.ndarray, direction: Direction) -> Partition:
    """Partition for a reachability-probability query, by graph searches alone:
    ``s0`` holds the states of value 0 (``prob0_max``/``prob0_min``), ``goal``
    the goal and the states of value 1 (``prob1_max``/``prob1_min``), and
    ``maybe`` the rest.  Goal rows are never read: a goal state counts as
    absorbing whatever its choices.  Where every state outside the goal has
    one choice, both directions agree and take ``prob0_max`` and
    ``prob1_min``.  For ``MINIMIZE`` no set of ``maybe`` states can be kept
    forever (``s0`` is the greatest that can): no end-component check.
    """
    goal = _state_mask(model, goal)
    maximize = direction is Direction.MAXIMIZE
    chain = np.count_nonzero(~goal[model.graph.choice_state]) == np.count_nonzero(~goal)
    s0 = (prob0_max if maximize or chain else prob0_min)(model, goal)  # never a goal state
    one = (prob1_max if maximize and not chain else prob1_min)(model, goal, s0)
    return Partition._of(s0, one, ~(s0 | one))


def reward_partition(model: SparseModel, goal: np.ndarray) -> Partition:
    """Partition for an expected-reward query: everything outside goal is open."""
    goal = _state_mask(model, goal)
    kept = goal.copy() if goal.flags.writeable else goal
    return Partition._of(np.zeros(model.num_states, dtype=bool), kept, ~goal)
