"""Trajectories, explicit transition systems, and attractor enumeration.

The synchronous rule makes the state space a functional graph: every state
has exactly one successor, so the attractors are exactly the cycles.
`_free_strides` lays out the clamp-consistent space, a code digit per free
vertex, and refuses it over the state limit or past 3^32 states; only then
is the numpy code kernel in `srg._kernel` imported, which steps the codes
and finds the states on cycles.  `_cycle_codes`, with some vertices pinned
or none, walks those in ascending code order (`srg._kernel._cycles`), so
each attractor starts at its least state and the list comes out sorted, as
codes: `srg attractors` and the phenotype oracle render them in bulk
(`srg._kernel._cycle_text`); `enumerate_attractors` and the library's
oracle decode them (`_attractors`).
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .core import (
    DEFAULT_STATE_LIMIT, RegulatoryGraph, TernaryState, _state_values, apply_clamps, step,
)
from .errors import StateSpaceLimitError, StepBudgetError


class Trajectory(NamedTuple):
    """A simulated run split at the first recurrence: transient, then cycle."""

    transient: tuple
    cycle: tuple

    @property
    def states(self):
        return self.transient + self.cycle

    @property
    def period(self) -> int:
        return len(self.cycle)

    def attractor(self) -> "Attractor":
        return Attractor.from_cycle(self.cycle)


class Attractor(NamedTuple):
    """A cycle of the step function, stored in successor order.

    The tuple starts at the canonically least state, so equal cycles compare
    and hash equal no matter how they were discovered.
    """

    states: tuple

    @classmethod
    def from_cycle(cls, cycle: Iterable[TernaryState]) -> "Attractor":
        states = tuple(cycle)
        if not states:
            raise ValueError("an attractor needs at least one state")
        k = states.index(min(states))
        return cls(states[k:] + states[:k])

    @property
    def period(self) -> int:
        return len(self.states)

    def __contains__(self, state) -> bool:
        return tuple(state) in self.states


class TransitionSystem:
    """The successor map of every clamp-consistent state, stepped as it is read.

    Code k is the k-th state in canonical order.  `build_sts` lays the space
    out and refuses it; the successor codes are computed only while
    `successor_blocks()` is iterated, so no array of them spans the space.
    """

    def __init__(self, graph: RegulatoryGraph, strides):
        self.graph = graph
        self.strides = strides

    def successor_blocks(self):
        """The successor codes of 3^9 consecutive codes at a time, in code
        order, in one reused buffer: read or copy each before the next."""
        from ._kernel import _successor_slabs

        return _successor_slabs(self.graph, self.strides)

    def __len__(self) -> int:
        return 3 ** len(self.strides)


def simulate(graph: RegulatoryGraph, start, max_steps=None) -> Trajectory:
    """Iterate the step function from `start` until the first recurrence.

    Clamps are applied to `start` before the first step.  Raises
    StepBudgetError when no state repeats within `max_steps` applications;
    the default budget of 3**n can never be exhausted.
    """
    if max_steps is None:
        max_steps = 3 ** graph.n
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    current = apply_clamps(graph, start)
    seen = {current: 0}  # each state's index in the run: insertion order is the run's order
    for _ in range(max_steps):
        current = step(graph, current)
        if current in seen:
            states = tuple(seen)
            return Trajectory(transient=states[:seen[current]], cycle=states[seen[current]:])
        seen[current] = len(seen)
    raise StepBudgetError(
        f"no cycle within {max_steps} steps from {next(iter(seen))!r}; raise max_steps"
    )


def _free_strides(graph, state_limit):
    """(free vertex, code stride) pairs, first free vertex most significant.

    Refuses a `state_limit` below 1, a space over it, and with MemoryError
    one past 3^32, whose int64 codes would take 14.8 PB.
    """
    if state_limit < 1:
        raise ValueError("state_limit must be positive")
    free = [i for i in range(graph.n) if i not in graph.clamps]
    size = 3 ** len(free)
    if size > state_limit:
        raise StateSpaceLimitError(len(free), size, state_limit)
    if size > 3 ** 32:
        raise MemoryError(f"{size} state codes are more than any machine can hold")
    return [(i, 3 ** (len(free) - 1 - j)) for j, i in enumerate(free)]


def _checked_state(graph, state) -> TernaryState:
    st = _state_values(graph, state)
    for i, value in graph.clamps.items():
        if st[i] != value:
            raise ValueError(f"state {st!r} violates the clamp on {graph.vertices[i]}")
    return st


def _cycle_codes(graph: RegulatoryGraph, state_limit=DEFAULT_STATE_LIMIT, pins=None):
    """(pinned, strides, codes, ends): the attractors of `graph` where `pins`,
    a mapping of vertices to -1 or 1, hold, as codes of `pinned`, `graph`
    with the pins clamped; `state_limit` counts those states.

    Cycle j holds codes[ends[j - 1]:ends[j]] (from 0 for j = 0), in
    successor order from its least code, and the cycles come in ascending
    order of that code, which is the order of `enumerate_attractors`.  A pin
    on a vertex clamped the other way gives `(graph, [], [], [])`: no walk.
    """
    pinned = graph.with_clamps(pins or {})
    if any(pinned.clamps[i] != v for i, v in graph.clamps.items()):
        return graph, [], [], []
    strides = _free_strides(pinned, state_limit)
    from ._kernel import _cycles

    return pinned, strides, *_cycles(graph, pinned, strides)


def enumerate_attractors(graph: RegulatoryGraph, state_limit=DEFAULT_STATE_LIMIT):
    """Every attractor of the clamp-consistent state space.

    Returns a list sorted by each attractor's least state; refuses with
    StateSpaceLimitError when 3^(free vertices) exceeds `state_limit`, and
    with MemoryError past 3^32 states, which no array of codes can hold.
    Only the image mask spans the space, one byte a state; the cycles come
    from `_cycle_codes`, the walk the `attractors` command renders from.
    """
    return _attractors(*_cycle_codes(graph, state_limit))


def _attractors(graph, strides, codes, ends):
    """The cycles of a `_cycle_codes` walk of `graph` as `Attractor`s; no numpy for none."""
    if not len(ends):
        return []
    from ._kernel import _decode

    states = list(map(TernaryState, _decode(graph, strides, codes).tolist()))
    return [Attractor(tuple(states[a:b])) for a, b in itertools.pairwise([0, *ends])]


def build_sts(graph: RegulatoryGraph, state_limit=DEFAULT_STATE_LIMIT) -> TransitionSystem:
    """The full transition system, its space laid out and refused here and
    its successor codes stepped block by block as they are read."""
    return TransitionSystem(graph, _free_strides(graph, state_limit))


def _normalized_state_set(graph, states):
    pool = {_checked_state(graph, s) for s in states}
    if not pool:
        raise ValueError("the state set must be non-empty")
    return pool


def is_trap_set(graph: RegulatoryGraph, states) -> bool:
    """True when the state set is closed under the step function."""
    pool = _normalized_state_set(graph, states)
    return all(step(graph, s) in pool for s in pool)


def is_attractor(graph: RegulatoryGraph, states) -> bool:
    """True when the states form exactly one cycle of the step function.

    Under a deterministic step this is the same as being a minimal
    non-empty trap set.
    """
    pool = _normalized_state_set(graph, states)
    if not is_trap_set(graph, pool):
        return False
    # A closed pool of k states repeats within k steps from any of them.
    return simulate(graph, min(pool), max_steps=len(pool)).period == len(pool)
