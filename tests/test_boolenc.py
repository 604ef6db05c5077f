"""The two-bit Boolean re-encoding and its commuting-square checks."""

import random
import tracemalloc

import pytest

from srg import (
    BitRule,
    BooleanNetwork,
    BooleanState,
    InvalidCodeError,
    RegulatoryGraph,
    TernaryState,
    bit_names,
    bn_step,
    check_simulation_equivalence,
    decode_state,
    encode_network,
    encode_state,
    step,
    to_boolnet,
)

from helpers import clamp_consistent_states, random_graph, scalar_equivalence


def rule_by_target(network, target):
    return next(r for r in network.rules if r.target == target)


class TestEncodeNetwork:
    def test_edgeless_vertex_gets_identity_rules(self):
        network = encode_network(RegulatoryGraph(["V"]))
        assert rule_by_target(network, "V_on").formula() == "V_on"
        assert rule_by_target(network, "V_off").formula() == "V_off"

    def test_conflicted_vertex_rules(self, fig1a):
        network = encode_network(fig1a)
        assert rule_by_target(network, "A_on").formula() == "(A_on | C_on) & B_off"
        assert rule_by_target(network, "A_off").formula() == "(A_off | B_on) & C_off"

    def test_single_activator_schema(self):
        graph = RegulatoryGraph(["v", "u"], [("u", "v")])
        network = encode_network(graph)
        assert rule_by_target(network, "v_on").formula() == "v_on | u_on"
        assert rule_by_target(network, "v_off").formula() == "v_off & u_off"

    def test_two_bits_per_vertex(self, mapk):
        network = encode_network(mapk)
        assert len(network.variables) == 2 * mapk.n
        assert network.variables[:2] == ("RTK_on", "RTK_off")
        assert bit_names("AKT") == ("AKT_on", "AKT_off")

    def test_clamps_compile_to_constants(self, mapk):
        network = encode_network(mapk)
        assert rule_by_target(network, "RTK_on").formula() == "0"
        assert rule_by_target(network, "RTK_off").formula() == "1"


class TestStateCodes:
    def test_code_table(self):
        assert encode_state((-1, 1, 0)) == (0, 1, 1, 0, 0, 0)

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            state = TernaryState(rng.choice((-1, 0, 1)) for _ in range(rng.randint(1, 9)))
            assert decode_state(encode_state(state)) == state

    def test_invalid_code_rejected(self):
        with pytest.raises(InvalidCodeError, match=r"\(1, 1\)"):
            decode_state((1, 1))
        with pytest.raises(InvalidCodeError):
            decode_state((1, 0, 1, 1))

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError):
            decode_state((1, 0, 1))

    def test_bit_validation(self):
        with pytest.raises(ValueError):
            BooleanState((0, 2))

    def test_non_integral_bits_rejected(self):
        for bad in ((0.5, 1), (1, 1.9), ("1", 0)):
            with pytest.raises(ValueError, match="bits must be"):
                BooleanState(bad)
        bits = BooleanState((1.0, 0.0))
        assert bits == (1, 0) and all(type(b) is int for b in bits)


class TestBnStep:
    def test_replays_quoted_transition(self, fig1a):
        network = encode_network(fig1a)
        assert bn_step(network, encode_state((-1, 1, 1))) == encode_state((0, 1, 1))

    def test_second_variant_transition(self, fig1b):
        network = encode_network(fig1b)
        assert bn_step(network, encode_state((1, -1, 1))) == encode_state((-1, 1, 1))

    def test_edgeless_network_is_identity(self):
        network = encode_network(RegulatoryGraph(["X", "Y"]))
        for values in [(-1, -1), (0, 1), (1, 0)]:
            bits = encode_state(values)
            assert bn_step(network, bits) == bits

    def test_arity_checked(self, fig1a):
        with pytest.raises(ValueError):
            bn_step(encode_network(fig1a), (0, 1))


class TestCommutingSquare:
    def test_exhaustive_toy_networks(self, fig1a, fig1b):
        for graph in (fig1a, fig1b):
            report = check_simulation_equivalence(graph)
            assert report.ok
            assert report.states_checked == 27
            assert report.invalid_codes == 0
            assert report.counterexample is None

    def test_exhaustive_clamped_network(self, mapk):
        report = check_simulation_equivalence(mapk)
        assert report.ok and report.states_checked == 729
        assert report.invalid_codes == 0

    def test_random_graph_sampling(self):
        rng = random.Random(47)
        for _ in range(8):
            graph = random_graph(rng, n=8, density=0.3, clamp_chance=0.2)
            report = check_simulation_equivalence(graph, samples=1000, seed=rng.randrange(10**6))
            assert report.ok and report.states_checked == 1000
            assert report.invalid_codes == 0

    def test_square_commutes_statewise(self, fig1b):
        network = encode_network(fig1b)
        for state in clamp_consistent_states(fig1b):
            assert decode_state(bn_step(network, encode_state(state))) == step(fig1b, state)

    def test_valid_code_subspace_matches_state_count(self, fig1a):
        network = encode_network(fig1a)
        images = {bn_step(network, encode_state(s)) for s in clamp_consistent_states(fig1a)}
        codes = {encode_state(s) for s in clamp_consistent_states(fig1a)}
        assert len(codes) == 27
        assert images <= codes

    def test_checker_reports_a_tampered_rule(self, fig1a, monkeypatch):
        """Wiring a wrong rule in must surface as a counterexample, not pass."""
        import srg.boolenc as boolenc

        real = boolenc.encode_network

        def broken_encoder(graph):
            network = real(graph)
            rules = tuple(
                r if r.target != "A_on" else BitRule("A_on", ("A_on",), ())
                for r in network.rules
            )
            return BooleanNetwork(network.vertex_names, network.variables, rules)

        monkeypatch.setattr(boolenc, "encode_network", broken_encoder)
        report = boolenc.check_simulation_equivalence(fig1a)
        assert not report.ok
        state, expected, got = report.counterexample
        assert encode_state(expected) != got
        assert step(fig1a, state) == expected

    def test_checker_counts_invalid_codes(self, fig1a, monkeypatch):
        """A rule pair that emits (1, 1) fails at the first state and counts it."""
        import srg.boolenc as boolenc

        real = boolenc.encode_network

        def broken_encoder(graph):
            network = real(graph)
            rules = tuple(
                BitRule(r.target, constant=True) if r.target in ("A_on", "A_off") else r
                for r in network.rules
            )
            return BooleanNetwork(network.vertex_names, network.variables, rules)

        monkeypatch.setattr(boolenc, "encode_network", broken_encoder)
        report = boolenc.check_simulation_equivalence(fig1a)
        assert not report.ok
        assert report.states_checked == 1
        assert report.invalid_codes == 1

    def test_exhaustive_check_streams_its_states(self, monkeypatch):
        """A failure at the first state is found before the rest of 3^12 exist."""
        import srg.boolenc as boolenc

        real = boolenc.encode_network

        def broken_encoder(graph):
            network = real(graph)
            rules = tuple(
                BitRule(r.target, constant=True) if r.target in ("v0_on", "v0_off") else r
                for r in network.rules
            )
            return BooleanNetwork(network.vertex_names, network.variables, rules)

        monkeypatch.setattr(boolenc, "encode_network", broken_encoder)
        graph = random_graph(random.Random(12), n=12, density=0.3)
        tracemalloc.start()
        try:
            report = boolenc.check_simulation_equivalence(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.ok
        assert report.states_checked == 1
        assert peak < 2 * 2 ** 20

    def test_counterexample_past_the_first_block(self, monkeypatch):
        """The count of a failure in a later block includes the blocks before it."""
        import srg.boolenc as boolenc

        base = random_graph(random.Random(10), n=10, density=0.3)
        # v0 has no regulators, so v0_on stays set exactly where v0 = 1:
        # from code 2 * 3^9 on, the first code of the third block of 3^9.
        edges = [(src, sign, dst) for src, sign, dst in base.edges() if dst != "v0"]
        graph = RegulatoryGraph(
            base.vertices,
            [(src, dst) for src, sign, dst in edges if sign == "+"],
            [(src, dst) for src, sign, dst in edges if sign == "-"],
        )
        real = encode_network(graph)
        rules = tuple(
            BitRule("v0_on", constant=False) if r.target == "v0_on" else r for r in real.rules
        )
        network = BooleanNetwork(real.vertex_names, real.variables, rules)
        monkeypatch.setattr(boolenc, "encode_network", lambda g: network)
        report = boolenc.check_simulation_equivalence(graph)
        assert report.states_checked == 2 * 3 ** 9 + 1
        assert report == scalar_equivalence(graph, network, clamp_consistent_states(graph))

    def test_exhaustive_check_memory_is_bounded_by_the_block(self):
        """A passing check of 3^12 states never holds columns over the whole space."""
        graph = random_graph(random.Random(12), n=12, density=0.3)
        tracemalloc.start()
        try:
            report = check_simulation_equivalence(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.states_checked == 3 ** 12
        assert peak < 4 * 2 ** 20

    def test_check_of_a_space_past_any_array_reads_only_local_shapes(self, monkeypatch):
        """3^30 states, more than any array of codes: each vertex's rules read
        at most two free vertices, so the check runs in small local shapes."""
        import srg._kernel  # noqa: F401  (numpy loads before the trace starts)
        import srg.boolenc as boolenc

        names = [f"v{i}" for i in range(30)]
        chain = RegulatoryGraph(names, list(zip(names, names[1:])))
        real = encode_network(chain)
        rules = tuple(
            BitRule("v0_on", constant=False) if r.target == "v0_on" else r for r in real.rules
        )
        tampered = BooleanNetwork(real.vertex_names, real.variables, rules)
        tracemalloc.start()
        try:
            passing = check_simulation_equivalence(chain, state_limit=3 ** 30)
            monkeypatch.setattr(boolenc, "encode_network", lambda g: tampered)
            failing = boolenc.check_simulation_equivalence(chain, state_limit=3 ** 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert passing.ok and passing.states_checked == 3 ** 30
        # v0_on must be set exactly where v0 = 1: from code 2 * 3^29 on.
        assert failing.states_checked == 2 * 3 ** 29 + 1
        assert failing.counterexample[0] == (1,) + (-1,) * 29
        assert peak < 2 ** 20

    def test_sample_count_validated(self, fig1a):
        with pytest.raises(ValueError):
            check_simulation_equivalence(fig1a, samples=0)


class TestBoolNetExport:
    def test_layout(self, fig1a):
        text = to_boolnet(encode_network(fig1a))
        lines = text.strip().splitlines()
        assert lines[0] == "targets, factors"
        assert len(lines) == 1 + 2 * fig1a.n
        assert "A_on, (A_on | C_on) & B_off" in lines

    def test_clamped_constants_exported(self, mapk):
        text = to_boolnet(encode_network(mapk))
        assert "RTK_on, 0" in text
        assert "RTK_off, 1" in text

    def test_deterministic(self, mapk):
        network = encode_network(mapk)
        assert to_boolnet(network) == to_boolnet(encode_network(mapk))
