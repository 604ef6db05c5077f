"""Single-step semantics: regulator sets, the unanimous rule, clamps."""

import itertools
import random

import pytest

from srg import (
    RegulatoryGraph,
    TernaryState,
    UnknownVertexError,
    apply_clamps,
    regulators,
    regulators_reflexive,
    step,
    update_vertex,
)

from helpers import random_graph, random_state

A1 = TernaryState((-1, 1, 1))
A2 = TernaryState((0, 1, 1))


def rule_value(graph, state, v):
    """The three-case update rule spelled out through the regulator sets."""
    if 1 in regulators_reflexive(graph, state, v, "+") and not regulators(graph, state, v, "-"):
        return 1
    if 1 in regulators_reflexive(graph, state, v, "-") and not regulators(graph, state, v, "+"):
        return -1
    return 0


class TestRegulatorSets:
    def test_worked_example_first_state(self, fig1a):
        assert regulators(fig1a, A1, "A", "+") == {1}
        assert regulators(fig1a, A1, "A", "-") == {1}
        assert regulators_reflexive(fig1a, A1, "A", "+") == {1}
        assert regulators_reflexive(fig1a, A1, "A", "-") == {1}

        assert not regulators(fig1a, A1, "B", "+")
        assert not regulators(fig1a, A1, "B", "-")
        assert regulators_reflexive(fig1a, A1, "B", "+") == {1}
        assert not regulators_reflexive(fig1a, A1, "B", "-")

        # C has no incoming edges at all
        assert not regulators(fig1a, A1, "C", "+")
        assert not regulators(fig1a, A1, "C", "-")
        assert regulators_reflexive(fig1a, A1, "C", "+") == {1}

    def test_worked_example_ambiguous_state(self, fig1a):
        assert regulators_reflexive(fig1a, A2, "A", "+") == {0, 1}
        assert regulators_reflexive(fig1a, A2, "A", "-") == {0, 1}
        assert regulators(fig1a, A2, "B", "+") == {0}
        assert not regulators(fig1a, A2, "B", "-")
        assert regulators_reflexive(fig1a, A2, "B", "+") == {0, 1}

    def test_edgeless_graph_has_empty_regulator_sets(self):
        graph = RegulatoryGraph(["X", "Y"])
        for state in itertools.product((-1, 0, 1), repeat=2):
            for v in ("X", "Y"):
                for sign in ("+", "-"):
                    assert not regulators(graph, state, v, sign)

    def test_reflexive_sets_of_isolated_ambiguous_vertex(self):
        graph = RegulatoryGraph(["X"])
        assert regulators_reflexive(graph, (0,), "X", "+") == {0}
        assert regulators_reflexive(graph, (0,), "X", "-") == {0}

    def test_inactive_vertex_feeds_its_own_inhibition_side(self):
        graph = RegulatoryGraph(["X"])
        assert regulators_reflexive(graph, (-1,), "X", "-") == {1}
        assert not regulators_reflexive(graph, (-1,), "X", "+")

    def test_bad_sign_rejected(self, fig1a):
        with pytest.raises(ValueError):
            regulators(fig1a, A1, "A", "plus")

    def test_unknown_vertex_rejected(self, fig1a):
        with pytest.raises(UnknownVertexError):
            regulators(fig1a, A1, "Q", "+")
        with pytest.raises(UnknownVertexError):
            update_vertex(fig1a, A1, 17)


class TestUpdateVertex:
    def test_conflicting_regulation_goes_ambiguous(self, fig1a):
        assert update_vertex(fig1a, A1, "A") == 0

    def test_active_inhibitor_wins_when_unopposed(self, fig1b):
        assert update_vertex(fig1b, (1, -1, 1), "A") == -1

    @pytest.mark.parametrize("value", [-1, 0, 1])
    def test_isolated_vertex_is_inert(self, value):
        graph = RegulatoryGraph(["X"])
        assert update_vertex(graph, (value,), "X") == value

    def test_matches_regset_formula_on_random_inputs(self):
        rng = random.Random(101)
        for _ in range(400):
            graph = random_graph(rng, density=rng.choice((0.1, 0.3, 0.6)))
            state = random_state(rng, graph)
            v = rng.randrange(graph.n)
            assert update_vertex(graph, state, v) == rule_value(graph, state, v)


class TestStep:
    def test_worked_example_fixed_point(self, fig1a):
        assert step(fig1a, A1) == A2
        assert step(fig1a, A2) == A2

    def test_second_variant_trajectories(self, fig1b):
        assert step(fig1b, (-1, 1, -1)) == (1, 1, -1)
        assert step(fig1b, (1, 1, -1)) == (1, 1, -1)
        assert step(fig1b, (1, -1, -1)) == (1, 1, -1)
        assert step(fig1b, (-1, -1, 1)) == (-1, -1, 1)
        assert step(fig1b, (1, -1, 1)) == (-1, 1, 1)

    def test_clamped_network_fixed_point(self, mapk):
        s1 = (-1, -1, -1, 1, -1, -1, -1)
        assert step(mapk, s1) == s1

    def test_returns_ternary_state(self, fig1a):
        out = step(fig1a, [-1, 1, 1])
        assert isinstance(out, TernaryState)

    def test_determinism(self, mapk):
        state = (-1, 0, 1, 0, -1, 1, 0)
        assert step(mapk, state) == step(mapk, tuple(state))

    def test_wrong_arity_rejected(self, fig1a):
        with pytest.raises(ValueError):
            step(fig1a, (-1, 1))

    def test_bad_value_rejected(self, fig1a):
        with pytest.raises(ValueError):
            step(fig1a, (-1, 2, 1))


class TestClamps:
    def test_apply_clamps_overwrites(self, mapk):
        state = (1, -1, -1, 1, -1, -1, -1)
        clamped = apply_clamps(mapk, state)
        assert clamped[0] == -1
        assert clamped[1:] == state[1:]

    def test_apply_clamps_identity_without_clamps(self, fig1a):
        state = TernaryState((0, 1, -1))
        assert apply_clamps(fig1a, state) == state

    def test_extra_clamp_via_with_clamps(self, mapk):
        mutated = mapk.with_clamps({"PI3K": 1})
        state = (-1, -1, 0, 1, 1, -1, 1)
        assert apply_clamps(mutated, state)[2] == 1

    def test_with_clamps_can_remove(self, mapk):
        assert mapk.with_clamps({"RTK": None}).clamps == {}
        assert mapk.without_clamps().clamps == {}
        assert mapk.without_clamps().activation_edges == mapk.activation_edges

    def test_clamp_idempotent_and_step_respects_clamps(self):
        rng = random.Random(55)
        for _ in range(100):
            graph = random_graph(rng, density=0.3, clamp_chance=0.3)
            raw = [rng.choice((-1, 0, 1)) for _ in range(graph.n)]
            once = apply_clamps(graph, raw)
            assert apply_clamps(graph, once) == once
            after = step(graph, raw)
            for i, value in graph.clamps.items():
                assert after[i] == value

    def test_update_vertex_ignores_clamp(self, mapk):
        # the raw rule value; step() is what applies the override
        state = (1, 1, -1, -1, -1, -1, -1)
        assert update_vertex(mapk, state, "RTK") == 1
        assert step(mapk, state)[0] == -1


class TestInertiaProperty:
    def test_no_potential_regulators_means_no_change(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(3000):
            graph = random_graph(rng, density=rng.choice((0.05, 0.15, 0.3)))
            state = random_state(rng, graph)
            v = rng.randrange(graph.n)
            if v in graph.clamps:
                continue
            if regulators(graph, state, v, "+") or regulators(graph, state, v, "-"):
                continue
            checked += 1
            assert step(graph, state)[v] == state[v]
        assert checked > 500


def ambiguity_expected(graph, state, v):
    plus = regulators(graph, state, v, "+")
    minus = regulators(graph, state, v, "-")
    refl_plus = regulators_reflexive(graph, state, v, "+")
    refl_minus = regulators_reflexive(graph, state, v, "-")
    return (
        (bool(plus) and bool(minus))
        or (refl_plus == {0} and not minus)
        or (refl_minus == {0} and not plus)
    )


class TestAmbiguityCharacterization:
    def test_exhaustive_two_vertex_graphs(self):
        pairs = [(u, v) for u in range(2) for v in range(2)]
        for combo in itertools.product((None, "+", "-"), repeat=4):
            activation = [p for p, s in zip(pairs, combo) if s == "+"]
            inhibition = [p for p, s in zip(pairs, combo) if s == "-"]
            graph = RegulatoryGraph(["A", "B"], activation, inhibition)
            for values in itertools.product((-1, 0, 1), repeat=2):
                state = TernaryState(values)
                nxt = step(graph, state)
                for v in range(2):
                    if regulators(graph, state, v, "+") or regulators(graph, state, v, "-"):
                        assert (nxt[v] == 0) == ambiguity_expected(graph, state, v)

    def test_random_sampling(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(3000):
            graph = random_graph(rng, density=rng.choice((0.2, 0.4, 0.7)))
            state = random_state(rng, graph)
            v = rng.randrange(graph.n)
            if v in graph.clamps:
                continue
            if not (regulators(graph, state, v, "+") or regulators(graph, state, v, "-")):
                continue
            checked += 1
            assert (step(graph, state)[v] == 0) == ambiguity_expected(graph, state, v)
        assert checked > 500


class TestCaseProperties:
    """Per-case behavior of the rule, sampled at random."""

    def test_cases(self):
        rng = random.Random(29)
        for _ in range(4000):
            graph = random_graph(rng, density=rng.choice((0.1, 0.3, 0.5)))
            state = random_state(rng, graph)
            v = rng.randrange(graph.n)
            if v in graph.clamps:
                continue
            plus = regulators(graph, state, v, "+")
            minus = regulators(graph, state, v, "-")
            nxt = step(graph, state)[v]
            cur = state[v]
            if cur == 1 and not minus:
                assert nxt == 1
            if cur == -1 and not plus:
                assert nxt == -1
            if cur == 0 and 1 not in plus and 1 not in minus:
                assert nxt == 0
            if 1 in plus and not minus:
                assert nxt == 1
            if 1 in minus and not plus:
                assert nxt == -1
            if plus and minus:
                assert nxt == 0


class TestGraphConstruction:
    def test_partition_enforced(self):
        with pytest.raises(ValueError, match="both activating and inhibiting"):
            RegulatoryGraph(["A", "B"], [("A", "B")], [("A", "B")])

    def test_self_loops_allowed(self):
        graph = RegulatoryGraph(["A"], [("A", "A")])
        assert step(graph, (1,)) == (1,)
        # active self-inhibition forces the vertex down
        graph = RegulatoryGraph(["A"], [], [("A", "A")])
        assert step(graph, (1,)) == (-1,)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RegulatoryGraph(["A", "A"])

    @pytest.mark.parametrize("name", ["a b", "1x", 'x"y', ""])
    def test_names_the_text_formats_cannot_carry_rejected(self, name):
        with pytest.raises(ValueError, match="vertex name"):
            RegulatoryGraph([name, "c"], [(name, "c")])

    @pytest.mark.parametrize("edge", [("A", "B", "A"), ("A",), 5])
    def test_edge_that_is_not_a_pair_rejected(self, edge):
        with pytest.raises(ValueError, match="pairs"):
            RegulatoryGraph(["A", "B"], [edge])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            RegulatoryGraph([])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(UnknownVertexError):
            RegulatoryGraph(["A"], [("A", "B")])

    def test_bad_clamp_value_rejected(self):
        with pytest.raises(ValueError, match="clamp value"):
            RegulatoryGraph(["A"], clamps={"A": 0})

    def test_non_integral_clamp_value_rejected(self):
        for value in (1.9, -1.2, "1"):
            with pytest.raises(ValueError, match="clamp value"):
                RegulatoryGraph(["A"], clamps={"A": value})
        assert RegulatoryGraph(["A"], clamps={"A": 1.0}).clamps == {0: 1}

    def test_index_name_round_trip(self, mapk):
        assert mapk.index_of("FOXO3") == 5
        assert mapk.index_of(5) == 5
        assert mapk.name_of(5) == "FOXO3"
        assert mapk.clamp_value("RTK") == -1
        assert mapk.clamp_value("RAS") is None
        assert mapk.is_clamped("RTK") and not mapk.is_clamped("AKT")

    def test_edges_listing(self, fig1a):
        assert fig1a.edges() == [("A", "+", "B"), ("B", "-", "A"), ("C", "+", "A")]

    def test_equality(self, fig1a):
        clone = RegulatoryGraph(["A", "B", "C"], [("A", "B"), ("C", "A")], [("B", "A")])
        assert clone == fig1a
        assert clone != fig1a.with_clamps({"A": 1})
        # a value that is not a graph is unequal, not an error
        assert (fig1a == "fig1a") is False

    def test_repr_counts_edges_and_clamps(self, mapk):
        assert repr(mapk) == "RegulatoryGraph(7 vertices, 7 activating, 2 inhibiting, 1 clamped)"


class TestTernaryState:
    def test_repr_matches_tuple_notation(self):
        assert repr(TernaryState((-1, 1, 1))) == "(-1,1,1)"
        assert repr(TernaryState((1,))) == "(1)"

    def test_ordering_is_canonical(self):
        states = [TernaryState(v) for v in itertools.product((-1, 0, 1), repeat=2)]
        assert sorted(states) == states

    def test_from_mapping(self, fig1a):
        state = TernaryState.from_mapping(fig1a, {"A": -1, "B": 1, "C": 1})
        assert state == A1
        with pytest.raises(ValueError, match="does not assign"):
            TernaryState.from_mapping(fig1a, {"A": -1, "B": 1})
        with pytest.raises(UnknownVertexError):
            TernaryState.from_mapping(fig1a, {"A": -1, "B": 1, "C": 1, "Q": 0})

    def test_value_validation(self):
        with pytest.raises(ValueError):
            TernaryState((2, 0))

    def test_non_integral_values_rejected(self):
        for bad in ((0.5, 0), (-1.7, 0), ("1", 0)):
            with pytest.raises(ValueError, match="ternary values"):
                TernaryState(bad)
        state = TernaryState((1.0, -1.0, 0.0))
        assert state == (1, -1, 0) and all(type(v) is int for v in state)
