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
    is_attractor,
    is_trap_set,
    simulate,
    step,
    update_vertex,
)
from srg._kernel import _BLOCK_STATES, _TAIL_DIGITS, _code_dtype, _peel
from srg.dynamics import _cycle_codes, _free_strides
from srg.netio import parse_state, transition_lines

from helpers import (
    brute_force_attractors,
    chain,
    clamp_consistent_states,
    edge_case_graphs,
    hub,
    random_graph,
    reference_sts,
    scalar_successor_table,
    scalar_walk,
    successor_codes,
    table_attractors,
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
        for graph, _, successors in scalar_successor_table():
            assert successor_codes(graph).tolist() == successors

    def test_successor_codes_match_scalar_step_across_blocks(self):
        # 10 free vertices: v0 is the leading digit of three 3^9-state
        # blocks, and the clamps sit at the block split and in the tail.
        graph = random_graph(random.Random(5), n=12, density=0.3)
        graph = graph.with_clamps({"v1": 1, "v8": -1})
        states = list(clamp_consistent_states(graph))
        succ = successor_codes(graph)
        assert len(succ) == len(states) == 3 * _BLOCK_STATES
        for state, k in zip(states, succ.tolist()):
            assert states[k] == step(graph, state)

    def test_slab_layers_match_scalar_step(self):
        """12 free vertices, so three leading digits (v0, v2, v3; v1 is
        clamped) and three layers of moves.  Layer 0 holds moves that read
        no leading digit (v4, v5) or only v0 (v0, v6); v7 reads v0 and v2,
        v8 reads v0 and v3, v9 reads v2 and v3, so a move summed with the
        first digit it reads, or a layer not summed again when its own
        digit changes, gives wrong successors."""
        names = [f"v{i}" for i in range(13)]
        activation = [("v1", "v0"), ("v0", "v2"), ("v5", "v3"), ("v1", "v4"), ("v4", "v5"),
                      ("v0", "v6"), ("v0", "v7"), ("v3", "v8"), ("v2", "v9"), ("v3", "v9"),
                      ("v9", "v10"), ("v10", "v10"), ("v8", "v11"), ("v11", "v12"),
                      ("v6", "v12")]
        inhibition = [("v12", "v0"), ("v3", "v3"), ("v5", "v4"), ("v2", "v7"), ("v0", "v8"),
                      ("v7", "v11")]
        graph = RegulatoryGraph(names, activation, inhibition, {"v1": 1})
        strides = _free_strides(graph, 3 ** 12)
        lead = [i for i, _ in strides[:-_TAIL_DIGITS]]
        assert lead == [0, 2, 3]
        reads = [{i, *graph.activation_in[i], *graph.inhibition_in[i]} & set(lead)
                 for i, _ in strides]
        assert {max((lead.index(u) for u in r), default=0) for r in reads} == {0, 1, 2}
        assert set() in reads and {0} in reads

        def state_of(code):
            values = dict(graph.clamps)
            for i, stride in strides:
                values[i] = code // stride % 3 - 1
            return TernaryState([values[i] for i in range(graph.n)])

        def code_of(state):
            return sum((state[i] + 1) * stride for i, stride in strides)

        rng = random.Random(19)
        for s, slab in enumerate(build_sts(graph).successor_blocks()):
            assert len(slab) == _BLOCK_STATES
            for k in [0, _BLOCK_STATES - 1] + rng.sample(range(_BLOCK_STATES), 30):
                code = s * _BLOCK_STATES + k
                assert int(slab[k]) == code_of(step(graph, state_of(code))), code
        assert s == 3 ** len(lead) - 1

    def test_attractors_match_oracle(self):
        for graph, states, successors in scalar_successor_table():
            assert enumerate_attractors(graph) == table_attractors(states, successors)

    def test_slab_graphs_reach_past_one_slab(self):
        slab_graphs = edge_case_graphs()[-4:]
        assert [len(_free_strides(g, 3 ** 10)) for g in slab_graphs] == [10] * 4
        assert any(a.period == 2 for a in enumerate_attractors(slab_graphs[-1]))

    def test_fully_clamped_graph_has_one_state(self):
        graph = edge_case_graphs()[0]
        assert len(build_sts(graph)) == 1
        assert [a.states for a in enumerate_attractors(graph)] == [((1, -1),)]

    def test_activation_chain_peels_one_round_per_transient_step(self):
        # Feed-forward, so every attractor is a fixed point; the longest
        # transient carries v0 = 1 down all 13 edges.
        graph = chain(14)
        _, rounds = _peel(successor_codes(graph))
        assert rounds == 13
        assert enumerate_attractors(graph) == chain_fixed_points(graph)

    def test_cycle_finding_memory_is_bounded_by_the_successor_array(self):
        """Beside the successors, finding the cycles of 3^12 states holds
        under 4 bytes per state: no in-degree counts over the space."""
        for graph in (random_graph(random.Random(16), n=12, density=0.16), chain(12)):
            succ = successor_codes(graph)
            tracemalloc.start()
            try:
                _peel(succ)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * len(succ)

    def test_enumeration_memory_is_under_two_bytes_a_state(self):
        """Enumerating 3^12 states holds one byte a state for the image mask
        and arrays over the image, not a successor code for every state."""
        graph = random_graph(random.Random(16), n=12, density=0.16)
        tracemalloc.start()
        try:
            enumerate_attractors(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 3 ** 12

    def test_successor_memory_is_bounded_with_wide_vertices(self):
        """Streaming the successor blocks holds under 1 MiB from 3^12 to
        3^16: the columns of the moves and one slab buffer per leading
        digit, even where a move reads more than nine free vertices and so
        runs in slices."""
        graphs = [random_graph(random.Random(12), n=n, density=1.0) for n in (12, 14)]
        graphs += [hub(12), hub(14), hub(14).with_clamps({"v3": 1, "v10": -1}), hub(16)]
        for graph in graphs:
            sts = build_sts(graph, state_limit=3 ** 16)
            tracemalloc.start()
            try:
                blocks = sum(1 for _ in sts.successor_blocks())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert blocks * _BLOCK_STATES == len(sts) >= 3 ** 12
            assert peak < 2 ** 20

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

    def test_cycle_walk_takes_4_bytes_a_code_below_2_31_states(self, monkeypatch):
        """Below 2^31 states the walk keeps 4-byte codes, cycle ends, visit
        order and cycle indices, and indexes with the order as it is: on the
        10-vertex self-activation map, every state a fixed point, it peaks
        at 22.3 bytes a state, under 24, and keeps under 10.  With 8-byte
        order and ends it read 29.1 and 12, with 8-byte cycle indices 25.1,
        and with the order cast to intp by `take` 29.1.  Codes of the int64
        type give 8-byte ends with the same values."""
        names = [f"v{i}" for i in range(10)]
        graph = RegulatoryGraph(names, [(v, v) for v in names])
        tracemalloc.start()
        try:
            _, _, codes, ends = _cycle_codes(graph)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (codes.itemsize, ends.itemsize, len(ends)) == (4, 4, 3 ** 10)
        assert peak < 24 * 3 ** 10 and kept < 10 * 3 ** 10
        monkeypatch.setattr("srg._kernel._code_dtype", lambda size: np.int64)
        _, _, wide, wide_ends = _cycle_codes(graph)
        assert (wide.itemsize, wide_ends.itemsize) == (8, 8)
        assert (wide.tolist(), wide_ends.tolist()) == (codes.tolist(), ends.tolist())


def sts_states(graph):
    """The states that `sts` labels, in the order it lists them."""
    lines = "".join(transition_lines(build_sts(graph), dot=False)).splitlines()
    return [parse_state(line.split(" -> ")[0], graph) for line in lines]


class TestStateEnumeration:
    def test_canonical_order(self, fig1a):
        states = sts_states(fig1a)
        assert len(states) == 27
        assert states == sorted(states)
        assert states[0] == (-1, -1, -1) and states[-1] == (1, 1, 1)

    def test_clamped_vertices_are_pinned(self, mapk):
        states = sts_states(mapk)
        assert len(states) == len(build_sts(mapk)) == 729
        assert all(s[0] == -1 for s in states)

    def test_matches_reference_walk(self, fig1a, fig1b, mapk):
        walks = [(graph, *scalar_walk(graph)) for graph in (fig1a, fig1b, mapk)]
        for graph, states, successors in walks + scalar_successor_table():
            assert sts_states(graph) == states
            assert successor_codes(graph).tolist() == successors


class TestTransitionSystem:
    def test_contains_quoted_transitions(self, fig1a, fig1b):
        text = "".join(transition_lines(build_sts(fig1a), dot=False))
        assert "(-1,1,1) -> (0,1,1)\n" in text
        text_b = "".join(transition_lines(build_sts(fig1b), dot=False))
        assert "(1,-1,-1) -> (1,1,-1)\n" in text_b

    def test_single_clamped_vertex(self):
        graph = RegulatoryGraph(["X"], clamps={"X": 1})
        sts = build_sts(graph)
        assert len(sts) == 1
        assert [block.tolist() for block in sts.successor_blocks()] == [[0]]
        assert "".join(transition_lines(sts, dot=False)) == "(1) -> (1)\n"

    def test_successor_map_matches_scalar_step(self, fig1b):
        text = "".join(transition_lines(build_sts(fig1b), dot=False))
        assert text == reference_sts(*scalar_walk(fig1b), dot=False)

    def test_limit_refusal(self, fig1a):
        with pytest.raises(StateSpaceLimitError):
            build_sts(fig1a, state_limit=26)


class TestTrapSets:
    def test_fixed_point_is_trap(self, fig1b):
        assert is_trap_set(fig1b, [(0, 1, 1)])

    def test_escaping_state_is_not_trap(self, fig1b):
        assert not is_trap_set(fig1b, [(-1, 1, 1)])

    def test_full_space_is_trap(self, fig1a):
        assert is_trap_set(fig1a, clamp_consistent_states(fig1a))

    def test_attractor_checks(self, fig1a, fig1b):
        assert is_attractor(fig1a, [(0, 1, 1)])
        # the step leaves it
        assert not is_attractor(fig1b, [(-1, 1, 1)])
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
