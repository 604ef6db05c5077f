"""Trajectories, attractor enumeration, trap sets, transition systems."""

import random
import tracemalloc

import numpy as np
import pytest

from srg import (
    Attractor,
    RegulatoryGraph,
    StateSpaceLimitError,
    StepBudgetError,
    TernaryState,
    build_sts,
    enumerate_attractors,
    enumerate_states,
    is_attractor,
    is_trap_set,
    simulate,
    step,
    update_vertex,
)
from srg._kernel import _code_dtype, _peel, _successor_codes
from srg.dynamics import _BLOCK_STATES, _free_strides

from helpers import (
    brute_force_attractors,
    clamp_consistent_states,
    many_clamped_chain,
    random_graph,
)

# Frozen from the brute-force oracle (simulate from each of the 27 states).
FIG1A_ATTRACTORS = [
    ((-1, -1, -1),),
    ((-1, 0, -1),),
    ((-1, 1, -1),),
    ((0, 0, -1),),
    ((0, 0, 0),),
    ((0, 0, 1),),
    ((0, 1, 0),),
    ((0, 1, 1),),
]
FIG1B_ATTRACTORS = [
    ((-1, -1, -1),),
    ((-1, -1, 0),),
    ((-1, -1, 1),),
    ((0, 0, -1),),
    ((0, 0, 0),),
    ((0, 0, 1),),
    ((0, 1, 0),),
    ((0, 1, 1),),
    ((1, 1, -1),),
]
# Frozen from the oracle over the 3^6 clamp-consistent states.
MAPK_ATTRACTOR_COUNT = 35

S1 = TernaryState((-1, -1, -1, 1, -1, -1, -1))
S2 = TernaryState((-1, -1, -1, -1, -1, 1, -1))
S3 = TernaryState((-1, 1, 1, 1, 1, -1, 1))

# Mutual activation with both self-inhibitions oscillates with period 2.
OSCILLATOR = RegulatoryGraph(
    ["A", "B"], [("A", "B"), ("B", "A")], [("A", "A"), ("B", "B")]
)


class TestSimulate:
    def test_three_step_trajectory(self, fig1b):
        trajectory = simulate(fig1b, (1, -1, 1))
        assert trajectory.transient == ((1, -1, 1), (-1, 1, 1))
        assert trajectory.cycle == ((0, 1, 1),)
        assert trajectory.period == 1
        assert trajectory.states == ((1, -1, 1), (-1, 1, 1), (0, 1, 1))

    def test_fixed_point_has_empty_transient(self, mapk):
        trajectory = simulate(mapk, S2)
        assert trajectory.transient == ()
        assert trajectory.cycle == (S2,)

    def test_edgeless_graph_is_all_fixed_points(self):
        graph = RegulatoryGraph(["X", "Y"])
        for state in clamp_consistent_states(graph):
            trajectory = simulate(graph, state)
            assert trajectory.transient == () and trajectory.cycle == (state,)

    def test_clamps_applied_before_first_step(self, mapk):
        trajectory = simulate(mapk, (1, -1, -1, 1, -1, -1, -1))
        assert trajectory.states[0] == S1

    def test_period_two_cycle(self):
        trajectory = simulate(OSCILLATOR, (-1, 1))
        assert trajectory.cycle == ((-1, 1), (1, -1))

    def test_budget_exceeded(self, fig1b):
        with pytest.raises(StepBudgetError):
            simulate(fig1b, (1, -1, 1), max_steps=1)
        # the full-space budget always suffices
        simulate(fig1b, (1, -1, 1), max_steps=27)

    def test_bad_budget(self, fig1b):
        with pytest.raises(ValueError):
            simulate(fig1b, (1, -1, 1), max_steps=0)

    def test_no_repeats_across_transient_and_cycle(self):
        rng = random.Random(3)
        for _ in range(60):
            graph = random_graph(rng, density=0.4)
            state = [rng.choice((-1, 0, 1)) for _ in range(graph.n)]
            trajectory = simulate(graph, state)
            states = trajectory.states
            assert len(set(states)) == len(states)
            # the listed successor structure really is the step function
            for a, b in zip(states, states[1:]):
                assert step(graph, a) == b
            assert step(graph, trajectory.cycle[-1]) == trajectory.cycle[0]


class TestEnumerateAttractors:
    def test_fig1a_frozen(self, fig1a):
        got = [tuple(tuple(s) for s in a.states) for a in enumerate_attractors(fig1a)]
        assert got == FIG1A_ATTRACTORS

    def test_fig1b_frozen(self, fig1b):
        got = [tuple(tuple(s) for s in a.states) for a in enumerate_attractors(fig1b)]
        assert got == FIG1B_ATTRACTORS

    def test_mapk_contains_quoted_fixed_points(self, mapk):
        attractors = enumerate_attractors(mapk)
        assert len(attractors) == MAPK_ATTRACTOR_COUNT
        states = {a.states for a in attractors}
        for s in (S1, S2, S3):
            assert (s,) in states

    def test_single_vertex_graphs(self):
        graph = RegulatoryGraph(["X"])
        assert [a.states for a in enumerate_attractors(graph)] == [
            ((-1,),), ((0,),), ((1,),)
        ]
        clamped = RegulatoryGraph(["X"], clamps={"X": 1})
        assert [a.states for a in enumerate_attractors(clamped)] == [((1,),)]

    def test_oscillator_cycle_reported_once(self):
        attractors = enumerate_attractors(OSCILLATOR)
        cycles = [a for a in attractors if a.period == 2]
        assert len(cycles) == 1
        assert cycles[0].states == ((-1, 1), (1, -1))

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            graph = random_graph(
                rng,
                n=rng.randint(2, 7),
                density=rng.choice((0.1, 0.3, 0.5)),
                clamp_chance=rng.choice((0.0, 0.25)),
            )
            assert enumerate_attractors(graph) == brute_force_attractors(graph)

    def test_simulate_lands_in_an_enumerated_attractor(self):
        rng = random.Random(19)
        for _ in range(8):
            graph = random_graph(rng, n=4, density=0.4)
            attractors = set(enumerate_attractors(graph))
            for state in clamp_consistent_states(graph):
                assert simulate(graph, state).attractor() in attractors

    def test_trap_set_soundness(self):
        rng = random.Random(23)
        for _ in range(15):
            graph = random_graph(rng, n=rng.randint(2, 4), density=0.4)
            for attractor in enumerate_attractors(graph):
                assert is_trap_set(graph, attractor.states)
                assert is_attractor(graph, attractor.states)

    def test_period_bound_and_fixed_points(self):
        rng = random.Random(31)
        for _ in range(15):
            graph = random_graph(rng, n=4, density=0.5)
            attractors = enumerate_attractors(graph)
            space = 3 ** sum(1 for i in range(graph.n) if i not in graph.clamps)
            assert all(a.period <= space for a in attractors)
            fixed = {s for s in clamp_consistent_states(graph) if step(graph, s) == s}
            singletons = {a.states[0] for a in attractors if a.period == 1}
            assert singletons == fixed

    def test_limit_refusal(self, mapk):
        with pytest.raises(StateSpaceLimitError) as err:
            enumerate_attractors(mapk, state_limit=100)
        assert err.value.size == 729
        assert err.value.free_vertices == 6
        assert "729" in str(err.value)


def kernel_corpus():
    """60 small random graphs, a third each at clamp chance 0, 0.25 and 0.6."""
    rng = random.Random(101)
    return [
        random_graph(rng, n=rng.randint(1, 7), density=rng.choice((0.1, 0.3, 0.5)),
                     clamp_chance=clamp_chance)
        for clamp_chance in (0.0, 0.25, 0.6)
        for _ in range(20)
    ]


def edge_case_graphs():
    """Graphs with no free vertex, one vertex, only clamped regulators, or
    more vertices than numpy allows axes."""
    graphs = [
        RegulatoryGraph(["A", "B"], [("A", "B")], [("B", "A")], {"A": 1, "B": -1}),
        RegulatoryGraph(["X"], [("X", "X")]),
        RegulatoryGraph(["X"], [], [("X", "X")]),
    ]
    # C's regulators are all clamped, so its flags are scalars, not columns.
    for a in (-1, 1):
        graphs.append(RegulatoryGraph(["A", "C"], [], [("A", "C")], {"A": a}))
        for b in (-1, 1):
            graphs.append(RegulatoryGraph(
                ["A", "B", "C", "D"], [("A", "C"), ("C", "D")], [("B", "C"), ("D", "D")],
                {"A": a, "B": b},
            ))
    graphs.append(many_clamped_chain())
    return graphs


def chain(n):
    names = [f"v{i}" for i in range(n)]
    return RegulatoryGraph(names, list(zip(names, names[1:])))


def hub(n):
    """A chain whose middle vertex every vertex regulates, half of them by
    inhibition: its move reads all n vertices."""
    names = [f"v{i}" for i in range(n)]
    middle = names[n // 2]
    links = [(u, v) for u, v in zip(names, names[1:]) if v != middle]
    return RegulatoryGraph(
        names,
        links + [(u, middle) for u in names[::2]],
        [(u, middle) for u in names[1::2]],
    )


def chain_fixed_points(graph):
    """Fixed points of an activation chain, built vertex by vertex.

    A vertex of a chain reads only itself and its predecessor, so a prefix
    extends by the values the scalar rule keeps; -1 pads the unread tail.
    """
    prefixes = [()]
    for i in range(graph.n):
        prefixes = [
            p + (v,) for p in prefixes for v in (-1, 0, 1)
            if update_vertex(graph, p + (v,) + (-1,) * (graph.n - i - 1), i) == v
        ]
    return [Attractor((TernaryState(p),)) for p in prefixes]


class TestKernel:
    def test_successor_codes_match_scalar_step(self):
        for graph in kernel_corpus() + edge_case_graphs():
            states = list(clamp_consistent_states(graph))
            succ = build_sts(graph).successor
            assert len(succ) == len(states)
            for state, k in zip(states, succ.tolist()):
                assert states[k] == step(graph, state)

    def test_successor_codes_match_scalar_step_across_blocks(self):
        # 10 free vertices: v0 is the leading digit of three 3^9-state
        # blocks, and the clamps sit at the block split and in the tail.
        graph = random_graph(random.Random(5), n=12, density=0.3)
        graph = graph.with_clamps({"v1": 1, "v8": -1})
        states = list(clamp_consistent_states(graph))
        succ = build_sts(graph).successor
        assert len(succ) == len(states) == 3 * _BLOCK_STATES
        for state, k in zip(states, succ.tolist()):
            assert states[k] == step(graph, state)

    def test_attractors_match_oracle(self):
        for graph in kernel_corpus() + edge_case_graphs():
            assert enumerate_attractors(graph) == brute_force_attractors(graph)

    def test_fully_clamped_graph_has_one_state(self):
        graph = edge_case_graphs()[0]
        assert len(build_sts(graph)) == 1
        assert [a.states for a in enumerate_attractors(graph)] == [((1, -1),)]

    def test_activation_chain_peels_one_round_per_transient_step(self):
        # Feed-forward, so every attractor is a fixed point; the longest
        # transient carries v0 = 1 down all 13 edges.
        graph = chain(14)
        _, rounds = _peel(build_sts(graph).successor)
        assert rounds == 13
        assert enumerate_attractors(graph) == chain_fixed_points(graph)

    def test_cycle_finding_memory_is_bounded_by_the_successor_array(self):
        """Beside the successors, finding the cycles of 3^12 states holds
        under 4 bytes per state: no in-degree counts over the space."""
        for graph in (random_graph(random.Random(16), n=12, density=0.16), chain(12)):
            succ = build_sts(graph).successor
            tracemalloc.start()
            try:
                _peel(succ)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * len(succ)

    def test_successor_memory_is_bounded_with_wide_vertices(self):
        """At 3^12 the successor codes take at most 5 bytes a state, 4 of
        them the codes: a move that reads more than nine free vertices runs
        in slices, not over the whole space."""
        graphs = (
            random_graph(random.Random(12), n=12, density=1.0),
            hub(12),
            hub(14).with_clamps({"v3": 1, "v10": -1}),
        )
        for graph in graphs:
            tracemalloc.start()
            try:
                succ = _successor_codes(graph, _free_strides(graph, 3 ** 12))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(succ) == 3 ** 12
            assert peak <= 5 * len(succ)

    def test_chain_oracle_agrees_with_brute_force(self):
        graph = chain(6)
        assert chain_fixed_points(graph) == brute_force_attractors(graph)

    def test_free_strides_skip_clamps_and_refuse_before_any_array(self):
        graph = chain(5).with_clamps({"v1": 1, "v3": -1})
        assert _free_strides(graph, 27) == [(0, 9), (2, 3), (4, 1)]
        with pytest.raises(StateSpaceLimitError):
            _free_strides(graph, 26)
        # The state limit is checked first; past 3^32 no limit admits the space.
        with pytest.raises(StateSpaceLimitError):
            _free_strides(chain(40), 3 ** 14)
        with pytest.raises(MemoryError):
            _free_strides(chain(33), 3 ** 45)
        assert _free_strides(chain(32), 3 ** 45)[0] == (0, 3 ** 31)

    def test_code_dtype(self):
        assert _code_dtype(3 ** 19) is np.int32
        assert _code_dtype(3 ** 20) is np.int64


class TestStateEnumeration:
    def test_canonical_order(self, fig1a):
        states = enumerate_states(fig1a)
        assert len(states) == 27
        assert states == sorted(states)
        assert states[0] == (-1, -1, -1) and states[-1] == (1, 1, 1)

    def test_clamped_vertices_are_pinned(self, mapk):
        states = enumerate_states(mapk)
        assert len(states) == 729
        assert all(s[0] == -1 for s in states)

    def test_matches_reference_walk(self, fig1a, fig1b, mapk):
        for graph in [fig1a, fig1b, mapk] + kernel_corpus() + edge_case_graphs():
            states = list(clamp_consistent_states(graph))
            assert enumerate_states(graph) == states
            sts = build_sts(graph)
            assert sts.states == tuple(states)
            for state in states:
                assert sts.successor_of(state) == step(graph, state)


class TestTransitionSystem:
    def test_contains_quoted_transitions(self, fig1a, fig1b):
        sts = build_sts(fig1a)
        assert sts.successor_of((-1, 1, 1)) == (0, 1, 1)
        sts_b = build_sts(fig1b)
        assert sts_b.successor_of((1, -1, -1)) == (1, 1, -1)

    def test_single_clamped_vertex(self):
        graph = RegulatoryGraph(["X"], clamps={"X": 1})
        sts = build_sts(graph)
        assert len(sts) == 1
        assert list(sts.transitions()) == [((1,), (1,))]

    def test_successor_map_matches_scalar_step(self, fig1b):
        sts = build_sts(fig1b)
        for s, t in sts.transitions():
            assert step(fig1b, s) == t

    def test_limit_refusal(self, fig1a):
        with pytest.raises(StateSpaceLimitError):
            build_sts(fig1a, state_limit=26)


class TestTrapSets:
    def test_fixed_point_is_trap(self, fig1b):
        assert is_trap_set(fig1b, [(0, 1, 1)])

    def test_escaping_state_is_not_trap(self, fig1b):
        assert not is_trap_set(fig1b, [(-1, 1, 1)])

    def test_full_space_is_trap(self, fig1a):
        assert is_trap_set(fig1a, enumerate_states(fig1a))

    def test_attractor_checks(self, fig1a, fig1b):
        assert is_attractor(fig1a, [(0, 1, 1)])
        # closed, but contains a smaller trap set
        assert is_trap_set(fig1b, [(0, 1, 1), (-1, 1, 1)])
        assert not is_attractor(fig1b, [(0, 1, 1), (-1, 1, 1)])
        clamped = RegulatoryGraph(["X"], clamps={"X": 1})
        assert is_attractor(clamped, [(1,)])

    def test_two_cycles_union_is_not_an_attractor(self):
        graph = RegulatoryGraph(["X"])
        assert is_trap_set(graph, [(-1,), (1,)])
        assert not is_attractor(graph, [(-1,), (1,)])

    def test_empty_set_rejected(self, fig1a):
        with pytest.raises(ValueError):
            is_trap_set(fig1a, [])

    def test_clamp_inconsistent_state_rejected(self, mapk):
        with pytest.raises(ValueError, match="clamp"):
            is_trap_set(mapk, [(1, -1, -1, 1, -1, -1, -1)])


class TestAttractorValue:
    def test_rotation_to_least_state(self):
        a = Attractor.from_cycle([TernaryState((1, -1)), TernaryState((-1, 1))])
        b = Attractor.from_cycle([TernaryState((-1, 1)), TernaryState((1, -1))])
        assert a == b
        assert a.states[0] == (-1, 1)
        assert (1, -1) in a and (0, 0) not in a

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            Attractor.from_cycle([])
