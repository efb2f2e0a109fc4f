"""Graph-level preprocessing: qualitative reachability, SCCs, end components.

Everything here works on the directed graph underlying a model.  The
functions feed the numeric solvers: ``prob0_max``/``prob0_min`` identify
states whose reachability value is exactly zero, ``scc_order`` drives
Gauss-Seidel orderings and the topological solver, and the end-component
machinery (``mec_decompose``, ``collapse_end_components``,
``check_contracting``) establishes the unique-fixpoint precondition that the
certified solvers require.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MecContainsGoal
# validate_model stays imported: perfbench/tracing.py wraps it here.
from .model import Direction, Partition, SparseModel, _map_mask, submodel, validate_model

__all__ = [
    "SccOrder",
    "Mec",
    "MecDecomposition",
    "QuotientMap",
    "prob0_max",
    "prob0_min",
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


def prob0_max(model: SparseModel, goal: np.ndarray) -> np.ndarray:
    """States from which no resolution of choices can ever reach ``goal``.

    Computed as the complement of backward graph reachability from the goal
    along arbitrary transitions.
    """
    goal = np.asarray(goal, dtype=bool)
    entry_source = np.repeat(model.choice_state(), np.diff(model.choice_start))
    can_reach = goal.copy()
    frontier = np.flatnonzero(goal)
    # Predecessor lists, built once.
    order = np.argsort(model.entry_target, kind="stable")
    sorted_targets = model.entry_target[order]
    sorted_sources = entry_source[order]
    starts = np.searchsorted(sorted_targets, np.arange(model.num_states))
    ends = np.searchsorted(sorted_targets, np.arange(model.num_states), side="right")
    while len(frontier):
        next_frontier = []
        for t in frontier:
            for s in sorted_sources[starts[t] : ends[t]]:
                if not can_reach[s]:
                    can_reach[s] = True
                    next_frontier.append(s)
        frontier = np.asarray(next_frontier, dtype=np.int64)
    return ~can_reach


def prob0_min(model: SparseModel, goal: np.ndarray) -> np.ndarray:
    """States where some resolution of choices avoids ``goal`` forever.

    Greatest fixpoint: repeatedly keep the non-goal states that own at least
    one choice whose successors all stay inside the kept set.
    """
    goal = np.asarray(goal, dtype=bool)
    cs = model.choice_start
    gs = model.row_group_start
    keep = ~goal
    while True:
        entry_ok = keep[model.entry_target]
        choice_ok = np.bitwise_and.reduceat(entry_ok, cs[:-1])
        state_ok = np.bitwise_or.reduceat(choice_ok, gs[:-1])
        new_keep = keep & state_ok
        if np.array_equal(new_keep, keep):
            return keep
        keep = new_keep


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SccOrder:
    """SCCs listed in reverse topological order (successors come first)."""

    components: list
    component_of: np.ndarray


def _tarjan(num_states: int, successors, alive: np.ndarray):
    """Iterative Tarjan over the nodes where ``alive`` holds.

    ``successors(s)`` yields the (alive) successor states of ``s``.
    Components are emitted in completion order, which is reverse topological
    order.  The recursion is unrolled onto an explicit stack so deep chains
    do not hit the interpreter recursion limit.
    """
    index = np.full(num_states, -1, dtype=np.int64)
    low = np.zeros(num_states, dtype=np.int64)
    component_of = np.full(num_states, -1, dtype=np.int64)
    on_stack = np.zeros(num_states, dtype=bool)
    scc_stack: list[int] = []
    components: list[np.ndarray] = []
    counter = 0

    for root in np.flatnonzero(alive):
        if index[root] != -1:
            continue
        work: list[list] = [[int(root), None]]
        while work:
            frame = work[-1]
            v = frame[0]
            if frame[1] is None:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = True
                frame[1] = iter(successors(v))
            descended = False
            for w in frame[1]:
                w = int(w)
                if index[w] == -1:
                    work.append([w, None])
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                members = []
                while True:
                    w = scc_stack.pop()
                    on_stack[w] = False
                    component_of[w] = len(components)
                    members.append(w)
                    if w == v:
                        break
                members.sort()
                components.append(np.asarray(members, dtype=np.int64))
    return components, component_of


def scc_order(model: SparseModel) -> SccOrder:
    """Decompose the state graph into SCCs, successors-first.

    For every transition ``s -> s'`` in the model,
    ``component_of[s'] <= component_of[s]``: a component never precedes one
    of its successors in the returned list.
    """
    cs = model.choice_start
    gs = model.row_group_start
    targets = model.entry_target

    def successors(s: int):
        return targets[cs[gs[s]] : cs[gs[s + 1]]]

    alive = np.ones(model.num_states, dtype=bool)
    components, component_of = _tarjan(model.num_states, successors, alive)
    return SccOrder(components=components, component_of=component_of)


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
    mecs: list
    mec_of: np.ndarray  # state -> MEC index, -1 when in none


def mec_decompose(model: SparseModel, restrict: np.ndarray | None = None) -> MecDecomposition:
    """Find all maximal end components, optionally inside ``restrict``.

    A set of states with one retained choice each forms an end component if
    the retained choices never leave the set and the set is strongly
    connected through them.  Choices leaving ``restrict`` are dropped up
    front.  The decomposition iterates SCC refinement: drop choices that
    cross component borders, drop states left without choices, repeat until
    stable.
    """
    n = model.num_states
    cs = model.choice_start
    gs = model.row_group_start
    targets = model.entry_target
    choice_state = model.choice_state()

    if restrict is None:
        candidate = np.ones(n, dtype=bool)
    else:
        candidate = np.asarray(restrict, dtype=bool).copy()

    inside = candidate[targets]
    choice_alive = np.bitwise_and.reduceat(inside, cs[:-1]) & candidate[choice_state]
    state_alive = candidate & np.bitwise_or.reduceat(choice_alive, gs[:-1])
    choice_alive &= state_alive[choice_state]

    while True:
        def successors(s: int):
            out = []
            for c in range(int(gs[s]), int(gs[s + 1])):
                if choice_alive[c]:
                    out.extend(targets[cs[c] : cs[c + 1]].tolist())
            return out

        components, component_of = _tarjan(n, successors, state_alive)

        changed = False
        for c in np.flatnonzero(choice_alive):
            s = choice_state[c]
            tgt = targets[cs[c] : cs[c + 1]]
            if np.any(component_of[tgt] != component_of[s]):
                choice_alive[c] = False
                changed = True
        still = state_alive & np.bitwise_or.reduceat(choice_alive, gs[:-1])
        if np.any(still != state_alive):
            changed = True
            state_alive = still
            choice_alive &= state_alive[choice_state]
        if not changed:
            break

    mecs: list[Mec] = []
    mec_of = np.full(n, -1, dtype=np.int64)
    seen: dict[int, list[int]] = {}
    for s in np.flatnonzero(state_alive):
        seen.setdefault(int(component_of[s]), []).append(int(s))
    for comp_id in sorted(seen):
        members = np.asarray(seen[comp_id], dtype=np.int64)
        retained = [
            c
            for s in members
            for c in range(int(gs[s]), int(gs[s + 1]))
            if choice_alive[c]
        ]
        mec_of[members] = len(mecs)
        mecs.append(Mec(states=members, choices=np.asarray(retained, dtype=np.int64)))
    return MecDecomposition(mecs=mecs, mec_of=mec_of)


def check_contracting(model: SparseModel, target: np.ndarray) -> bool:
    """True iff every resolution of choices reaches ``target`` almost surely.

    Equivalent to: no end component lives entirely outside ``target``.
    """
    target = np.asarray(target, dtype=bool)
    return not mec_decompose(model, restrict=~target).mecs


# ---------------------------------------------------------------------------
# end-component quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientMap:
    """Result of collapsing end components: quotient model plus state map."""

    model: SparseModel
    state_map: np.ndarray  # original state -> quotient state
    partition: Partition

    @property
    def is_identity(self) -> bool:
        return self.model.num_states == len(self.state_map) and bool(
            np.all(self.state_map == np.arange(len(self.state_map)))
        )


def collapse_end_components(model: SparseModel, partition: Partition) -> QuotientMap:
    """Collapse each maximal end component inside ``partition.maybe``.

    Every MEC becomes a single quotient state whose choices are the member
    choices with at least one successor outside the MEC; their probabilities
    are redirected through the state map (mass staying inside becomes a
    self-loop) and their rewards are preserved.  Goal and sure-zero states
    are untouched.  Without any MEC the input model is returned as an
    identity quotient.
    """
    decomposition = mec_decompose(model, restrict=partition.maybe | partition.goal)
    collapsible = []
    for mec in decomposition.mecs:
        if np.any(partition.goal[mec.states]):
            if np.any(partition.maybe[mec.states]):
                raise MecContainsGoal(
                    "an end component overlaps the goal set; "
                    "goal states must be absorbing"
                )
            continue  # an absorbing goal loop stays as it is
        collapsible.append(mec)
    if not collapsible:
        identity = np.arange(model.num_states, dtype=np.int64)
        return QuotientMap(model=model, state_map=identity, partition=partition)

    # Quotient states are numbered by their first member.
    mec_of = np.full(model.num_states, -1, dtype=np.int64)
    first = np.arange(model.num_states)
    for index, mec in enumerate(collapsible):
        mec_of[mec.states] = index
        first[mec.states] = mec.states.min()
    _, state_map = np.unique(first, return_inverse=True)
    num_quotient = int(state_map.max()) + 1

    # Drop the member choices whose successors all stay in their MEC.
    choice_state = model.choice_state()
    choice_mec = mec_of[choice_state]
    stays = mec_of[model.entry_target] == np.repeat(choice_mec, np.diff(model.choice_start))
    internal = np.logical_and.reduceat(stays, model.choice_start[:-1]) & (choice_mec != -1)
    kept = np.flatnonzero(~internal)
    owner = state_map[choice_state[kept]]
    order = np.argsort(owner, kind="stable")
    quotient = submodel(model, owner[order], kept[order], num_quotient, state_map)
    new_partition = Partition(
        s0=_map_mask(partition.s0, state_map, num_quotient),
        goal=_map_mask(partition.goal, state_map, num_quotient),
        maybe=_map_mask(partition.maybe, state_map, num_quotient),
    )
    return QuotientMap(model=quotient, state_map=state_map, partition=new_partition)


# ---------------------------------------------------------------------------
# partitions for the solvers
# ---------------------------------------------------------------------------


def reach_partition(model: SparseModel, goal: np.ndarray, direction: Direction) -> Partition:
    """Partition for a reachability-probability query on an absorbing goal."""
    goal = np.asarray(goal, dtype=bool)
    if direction is Direction.MAXIMIZE:
        s0 = prob0_max(model, goal)
    else:
        s0 = prob0_min(model, goal)
    s0 = s0 & ~goal
    return Partition(s0=s0, goal=goal.copy(), maybe=~(s0 | goal))


def reward_partition(model: SparseModel, goal: np.ndarray) -> Partition:
    """Partition for an expected-reward query: everything outside goal is open."""
    goal = np.asarray(goal, dtype=bool)
    return Partition(
        s0=np.zeros(model.num_states, dtype=bool),
        goal=goal.copy(),
        maybe=~goal,
    )
