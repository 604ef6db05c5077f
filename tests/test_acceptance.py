"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line; run with
`pytest tests/test_acceptance.py -v -s` to see them as they happen.
"""

import random
import time
from contextlib import contextmanager

import pytest

from srg import (
    Phenotype,
    RegulatoryGraph,
    TernaryState,
    attractors_with_phenotype,
    check_simulation_equivalence,
    decide_phenotype,
    enumerate_attractors,
    is_attractor,
    load_example,
    phenotype_witness,
    regulators,
    regulators_reflexive,
    simulate,
    step,
)

from helpers import random_graph, random_phenotype, random_state

S1 = TernaryState((-1, -1, -1, 1, -1, -1, -1))
S2 = TernaryState((-1, -1, -1, -1, -1, 1, -1))
S3 = TernaryState((-1, 1, 1, 1, 1, -1, 1))
S4 = TernaryState((-1, -1, 1, 1, 1, -1, 1))


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {label}")
        raise
    print(f"criterion {number:2d}: PASS - {label}")


@pytest.fixture(scope="module")
def agreement_corpus():
    """Shared corpus for criteria 5 and 6: 500 graphs x 5 phenotypes."""
    rng = random.Random(20240811)
    densities = (0.08, 0.16, 0.25, 0.35, 0.5)
    cases = []
    started = time.perf_counter()
    for k in range(500):
        graph = random_graph(rng, n=rng.randint(2, 7), density=densities[k % 5])
        for _ in range(5):
            phenotype = random_phenotype(rng, graph)
            decided = decide_phenotype(graph, phenotype).admissible
            oracle_nonempty = bool(attractors_with_phenotype(graph, phenotype))
            witness = phenotype_witness(graph, phenotype)
            phenotype_held = True
            if witness.admissible:
                required = {graph.index_of(n): v for n, v in phenotype.items()}
                phenotype_held = all(
                    all(s[i] == v for i, v in required.items())
                    for s in witness.attractor.states
                )
            cases.append((decided, oracle_nonempty, witness.admissible, phenotype_held))
    elapsed = time.perf_counter() - started
    return cases, elapsed


def test_criterion_1_first_variant_golden_transitions():
    graph = load_example("fig1a")
    step(graph, (-1, 1, 1))  # warm code paths before timing
    with criterion(1, "fig1a golden transitions, exact, < 1 ms"):
        started = time.perf_counter()
        reached = step(graph, (-1, 1, 1))
        fixed = step(graph, (0, 1, 1))
        elapsed = time.perf_counter() - started
        assert reached == (0, 1, 1)
        assert fixed == (0, 1, 1)
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"


def test_criterion_2_second_variant_trajectories():
    graph = load_example("fig1b")
    with criterion(2, "fig1b quoted trajectories replay exactly"):
        chains = [
            ((-1, 1, -1), [(1, 1, -1), (1, 1, -1)]),
            ((1, -1, -1), [(1, 1, -1)]),
            ((-1, -1, 1), [(-1, -1, 1)]),
            ((1, -1, 1), [(-1, 1, 1), (0, 1, 1), (0, 1, 1)]),
        ]
        for start, chain in chains:
            state = TernaryState(start)
            for expected in chain:
                state = step(graph, state)
                assert state == expected
        trajectory = simulate(graph, (1, -1, 1))
        assert trajectory.transient == ((1, -1, 1), (-1, 1, 1))
        assert trajectory.cycle == ((0, 1, 1),)


def test_criterion_3_signaling_network_fixed_points_and_knockout():
    base = load_example("mapk")
    pi3k_on = base.with_clamps({"PI3K": 1})
    pi3k_off = base.with_clamps({"PI3K": -1})
    expected_runs = [
        ((-1, -1, -1, -1, 1, 1, -1),
         ((-1, -1, -1, -1, 1, 1, -1), (-1, -1, -1, 1, 1, 1, 1)),
         ((-1, -1, -1, 1, 1, -1, 1),)),
        ((-1, -1, -1, -1, -1, 1, -1), (), ((-1, -1, -1, -1, -1, 1, -1),)),
        ((-1, -1, -1, 1, -1, 1, -1), ((-1, -1, -1, 1, -1, 1, -1),), (S1,)),
    ]
    # warm pass, then the timed pass
    for _ in range(2):
        started = time.perf_counter()
        checks = []
        for s in (S1, S2, S3):
            checks.append(step(base, s) == s and is_attractor(base, [s]))
        checks.append(step(pi3k_on, S4) == S4)
        runs = [simulate(pi3k_off, start) for start, _, _ in expected_runs]
        elapsed = time.perf_counter() - started
    with criterion(3, "mapk fixed points and PI3K-off trajectories, < 10 ms"):
        assert all(checks)
        for trajectory, (_, transient, cycle) in zip(runs, expected_runs):
            assert trajectory.transient == transient
            assert trajectory.cycle == cycle
        assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms"


def test_criterion_4_phenotype_attractor_existence():
    graph = load_example("mapk")
    with criterion(4, "mapk phenotype attractors: three patterns exist, (1,1) does not"):
        for foxo3, akt, fixed_point in [(-1, -1, S1), (1, -1, S2), (-1, 1, S3)]:
            matches = attractors_with_phenotype(graph, Phenotype({"FOXO3": foxo3, "AKT": akt}))
            assert matches, (foxo3, akt)
            assert any(a.states == (fixed_point,) for a in matches)
        assert attractors_with_phenotype(graph, Phenotype({"FOXO3": 1, "AKT": 1})) == []


def test_criterion_5_decision_matches_oracle(agreement_corpus):
    cases, elapsed = agreement_corpus
    with criterion(5, "paths decision == oracle non-emptiness on 2500 random cases"):
        assert len(cases) == 2500
        disagreements = [c for c in cases if c[0] != c[1]]
        assert disagreements == []
        assert elapsed <= 120, f"corpus took {elapsed:.1f} s"


def test_criterion_6_witness_agreement(agreement_corpus):
    cases, _ = agreement_corpus
    with criterion(6, "witness exists iff admissible, and carries the phenotype"):
        assert all(witness_ok == decided for decided, _, witness_ok, _ in cases)
        assert all(held for _, _, _, held in cases)


def test_criterion_7_inertia_and_ambiguity_property_suites():
    rng = random.Random(1789)
    densities = (0.05, 0.15, 0.3, 0.5, 0.7)
    total = inertia_hits = ambiguity_hits = 0
    with criterion(7, "inertia and ambiguity characterization over 1e5 triples"):
        for k in range(2500):
            graph = random_graph(rng, n=rng.randint(2, 8), density=densities[k % 5])
            for _ in range(8):
                state = random_state(rng, graph)
                nxt = step(graph, state)
                for _ in range(5):
                    v = rng.randrange(graph.n)
                    if v in graph.clamps:
                        continue
                    total += 1
                    plus = regulators(graph, state, v, "+")
                    minus = regulators(graph, state, v, "-")
                    if not plus and not minus:
                        inertia_hits += 1
                        assert nxt[v] == state[v]
                    else:
                        ambiguity_hits += 1
                        expect_zero = (
                            (bool(plus) and bool(minus))
                            or (regulators_reflexive(graph, state, v, "+") == {0}
                                and not minus)
                            or (regulators_reflexive(graph, state, v, "-") == {0}
                                and not plus)
                        )
                        assert (nxt[v] == 0) == expect_zero
        assert total >= 100_000, total
        assert inertia_hits >= 10_000 and ambiguity_hits >= 10_000


def test_criterion_8_boolean_encoding_bisimulation():
    rng = random.Random(911)
    with criterion(8, "Boolean encoding commutes; the (1,1) code never appears"):
        for name in ("fig1a", "fig1b", "mapk"):
            report = check_simulation_equivalence(load_example(name))
            assert report.ok and report.invalid_codes == 0
        sampled = 0
        while sampled < 10_000:
            graph = random_graph(rng, n=rng.randint(8, 10), density=0.3)
            report = check_simulation_equivalence(graph, samples=1000, seed=rng.randrange(10**6))
            assert report.ok and report.invalid_codes == 0
            sampled += report.states_checked
        assert sampled >= 10_000


def test_criterion_9_divergence_regression():
    graph = RegulatoryGraph(["w", "u", "v"], [("w", "u")], [("u", "v")])
    phenotype = Phenotype({"w": 1, "v": 1})
    with criterion(9, "predecessor-only reading admits what the path reading rejects"):
        assert decide_phenotype(graph, phenotype, mode="literal").admissible
        paths = decide_phenotype(graph, phenotype, mode="paths")
        assert not paths.admissible
        assert attractors_with_phenotype(graph, phenotype) == []


def test_criterion_10_enumeration_performance():
    rng = random.Random(42)
    n = 12
    activation, inhibition = [], []
    for u in range(n):
        for v in range(n):
            r = rng.random()
            if r < 0.08:
                activation.append((u, v))
            elif r < 0.16:
                inhibition.append((u, v))
    graph = RegulatoryGraph([f"v{i}" for i in range(n)], activation, inhibition)
    with criterion(10, "3^12 state enumeration within 10 s"):
        started = time.perf_counter()
        attractors = enumerate_attractors(graph)
        elapsed = time.perf_counter() - started
        assert attractors
        assert all(a.period >= 1 for a in attractors)
        assert elapsed <= 10, f"took {elapsed:.1f} s"
