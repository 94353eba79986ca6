import pytest

from substreetution.engine import ABBA, THUE_MORSE, fixed_point_prefix
from substreetution.errors import MalformedGraph, NonConstantLevel, NotClosed
from substreetution.jacaranda import jacaranda_prefix
from substreetution.systems import (
    abba_digit,
    abba_nonminimal_witness,
    build_orbit_graph,
    invariant_edges_expected,
    nomeasure_tree,
    parse_orbit_graph,
    tm_project,
)
from substreetution.trees import Patch


def thue_morse_word(n: int) -> str:
    """Reference recurrence: t(0)=0, t(2k)=t(k), t(2k+1)=1-t(k)."""
    bits = [0]
    while len(bits) < n:
        bits += [1 - b for b in bits]
    return "".join(str(b) for b in bits[:n])


class TestSequenceLift:
    def test_depth0(self):
        assert tm_project(Patch.leaf(0)) == "0"

    def test_matches_recurrence(self):
        p = fixed_point_prefix(THUE_MORSE, 0, 15)
        assert tm_project(p) == thue_morse_word(16)
        q = fixed_point_prefix(THUE_MORSE, 1, 15)
        assert tm_project(q) == "".join("10"[c == "1"] for c in thue_morse_word(16))

    def test_rejects_mixed_levels(self):
        with pytest.raises(NonConstantLevel):
            tm_project(jacaranda_prefix(3))


class TestDigitLaw:
    def test_examples(self):
        assert abba_digit(0, "ba") == 1
        assert abba_digit(0, "") == 0
        assert abba_digit(1, "bb") == 1

    def test_matches_iteration(self):
        prefix = fixed_point_prefix(ABBA, 0, 8)
        for m in range(9):
            row = prefix.line(m)
            for i, c in enumerate(row):
                site = "".join("b" if (i >> k) & 1 else "a" for k in reversed(range(m)))
                assert int(c) == abba_digit(0, site)

    def test_witness(self):
        assert abba_nonminimal_witness(10)
        assert abba_nonminimal_witness(1)

    def test_shift_relations(self):
        p0 = fixed_point_prefix(ABBA, 0, 9)
        p1 = fixed_point_prefix(ABBA, 1, 9)
        assert p0.subtree("a") == p0.truncate(8)
        assert p0.subtree("b") == p1.truncate(8)
        assert p1.subtree("b") == p0.truncate(8)


class TestLineDoubling:
    def test_root0(self):
        assert nomeasure_tree(0, 3).levels == ("0", "01", "0001", "01010110")

    def test_root1(self):
        assert nomeasure_tree(1, 1).levels == ("1", "10")
        assert nomeasure_tree(1, 2).levels == ("1", "10", "1110")

    def test_depth0(self):
        assert nomeasure_tree(0, 0).levels == ("0",)

    def test_even_level_children_identities(self):
        p = nomeasure_tree(0, 10)
        assert p.subtree("aa").truncate(6) == nomeasure_tree(0, 6)
        assert p.subtree("bb").truncate(6) == nomeasure_tree(1, 6)


class TestOrbitGraphs:
    def test_six_states_stable(self):
        seed = nomeasure_tree(0, 14)
        for d in range(4, 9):
            g = build_orbit_graph(seed, d)
            assert len(g.states) == 6
            assert g.periodic
            assert invariant_edges_expected(g)
            assert g.warning is None

    def test_all_zero_loops(self):
        zero = Patch(tuple("0" * (1 << l) for l in range(8)))
        g = build_orbit_graph(zero, 3)
        assert g.states == ("s0",)
        assert g.a_edges["s0"] == g.b_edges["s0"] == "s0"
        assert g.periodic

    def test_fixed_tree_not_closed(self):
        with pytest.raises(NotClosed):
            build_orbit_graph(jacaranda_prefix(14), 4)

    def test_reachability(self):
        g = build_orbit_graph(nomeasure_tree(0, 12), 6)
        reached = {g.states[0]}
        frontier = [g.states[0]]
        while frontier:
            s = frontier.pop()
            for t in (g.a_edges[s], g.b_edges[s]):
                if t not in reached:
                    reached.add(t)
                    frontier.append(t)
        assert reached == set(g.states)

    def test_serialize_parse_roundtrip(self):
        g = build_orbit_graph(nomeasure_tree(0, 12), 6)
        parsed = parse_orbit_graph(g.serialize())
        assert parsed.states == g.states
        assert parsed.a_edges == g.a_edges
        assert parsed.b_edges == g.b_edges

    def test_parse_rejects_partial(self):
        with pytest.raises(MalformedGraph):
            parse_orbit_graph("state s0\nedge s0 a s0\n")
        with pytest.raises(MalformedGraph, match="declared twice"):
            parse_orbit_graph("state s0\nstate s0\nedge s0 a s0\nedge s0 b s0\n")
        with pytest.raises(MalformedGraph, match="two a-edges"):
            parse_orbit_graph("state s0\nedge s0 a s0\nedge s0 a s0\nedge s0 b s0\n")
        with pytest.raises(MalformedGraph, match="bad graph line"):
            parse_orbit_graph("state s0\nedge s0 ab s0\nedge s0 a s0\nedge s0 b s0\n")
