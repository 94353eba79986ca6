import itertools
import random

import pytest

from substreetution.engine import ABBA, THUE_MORSE, Substreetution, fixed_point_prefix
from substreetution.errors import BadPatchFormat, MalformedGraph, NonConstantLevel, NotClosed
from substreetution.jacaranda import jacaranda_prefix
from substreetution.measures import invariant_measure
from substreetution.systems import (
    NOMEASURE_GRAPH,
    OrbitGraph,
    abba_digit,
    build_orbit_graph,
    nomeasure_tree,
    parse_orbit_graph,
    tm_project,
)
from substreetution.trees import Patch, random_patch


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

    def test_shift_relations(self):
        p0 = fixed_point_prefix(ABBA, 0, 9)
        p1 = fixed_point_prefix(ABBA, 1, 9)
        assert p0.subtree("a") == p0.truncate(8)
        assert p0.subtree("b") == p1.truncate(8)
        assert p1.subtree("b") == p0.truncate(8)


def nomeasure_by_chars(root, depth):
    """Oracle: odd lines rewrite digit by digit, even lines pair by pair."""
    t1 = {"0": "01", "1": "10"}
    t2 = {"01": "0001", "10": "1110"}
    rows = [str(root)]
    for l in range(1, depth + 1):
        prev = rows[-1]
        if l % 2:
            rows.append("".join(t1[c] for c in prev))
        else:
            rows.append("".join(t2[prev[i : i + 2]] for i in range(0, len(prev), 2)))
    return tuple(rows)


def nomeasure_by_translate(root, depth):
    """Oracle: odd lines by a 1-to-2 translate, even lines by a 1-to-4 translate of every other digit."""
    t1 = str.maketrans({"0": "01", "1": "10"})
    t2 = str.maketrans({"0": "0001", "1": "1110"})
    rows = [str(root)]
    for l in range(1, depth + 1):
        rows.append(rows[-1].translate(t1) if l % 2 else rows[-1][::2].translate(t2))
    return tuple(rows)


class TestLineDoubling:
    def test_root0(self):
        assert nomeasure_tree(0, 3).levels == ("0", "01", "0001", "01010110")

    def test_root1(self):
        assert nomeasure_tree(1, 1).levels == ("1", "10")
        assert nomeasure_tree(1, 2).levels == ("1", "10", "1110")

    def test_depth0(self):
        assert nomeasure_tree(0, 0).levels == ("0",)

    def test_matches_per_character_rewriting(self):
        for root in (0, 1):
            for depth in range(19):
                assert nomeasure_tree(root, depth).levels == nomeasure_by_chars(root, depth)

    def test_matches_translate_rewriting(self):
        for root in (0, 1):
            for depth in range(15):
                assert nomeasure_tree(root, depth).levels == nomeasure_by_translate(root, depth)

    def test_root_not_a_color_raises(self):
        for depth in (0, 1, 4):
            with pytest.raises(BadPatchFormat):
                nomeasure_tree(2, depth)

    def test_even_level_children_identities(self):
        p = nomeasure_tree(0, 10)
        assert p.subtree("aa").truncate(6) == nomeasure_tree(0, 6)
        assert p.subtree("bb").truncate(6) == nomeasure_tree(1, 6)


def closure_by_sites(seed, d):
    """Oracle: the closure at depth d read off every site and its two children."""
    if seed.depth < d + 1:
        raise NotClosed("seed too shallow")
    table = seed.subtree_ids(d)
    bottom = seed.depth - d
    first, edges = {}, {}
    for m in range(bottom + 1):
        for i, cid in enumerate(table[m]):
            first.setdefault(cid, (m, i))
            if m < bottom:
                kids = (table[m + 1][2 * i], table[m + 1][2 * i + 1])
                if edges.setdefault(cid, kids) != kids:
                    raise NotClosed("merges trees with different children")
    if len(first) > 64 or len(edges) < len(first):
        raise NotClosed("too many states, or states only at the frontier")
    return first, edges


def graph_by_sites(seed, depth):
    """Oracle: the deepest of the closures at depth..depth+2 that succeed in a row."""
    results = []
    for d in (depth, depth + 1, depth + 2):
        try:
            results.append((d, closure_by_sites(seed, d)))
        except NotClosed:
            if d == depth:
                raise
            break
    counts = {d: len(first) for d, (first, _) in results}
    warning = None
    if len(set(counts.values())) > 1:
        warning = f"state counts vary with identification depth: {counts}"
    assert warning is None  # so build_orbit_graph stops at depth
    first, edges = results[-1][1]
    names = {cid: f"s{k}" for k, cid in enumerate(sorted(first, key=first.get))}
    return OrbitGraph(
        tuple(names.values()),
        {names[cid]: names[edges[cid][0]] for cid in first},
        {names[cid]: names[edges[cid][1]] for cid in first},
    )


def lifted_patch(depth, rng):
    """A random depth-4 patch continued to `depth` by giving each node two
    children of its own color: few distinct subtrees, so closures often succeed."""
    base = random_patch(4, rng)
    rows = list(base.levels)
    while len(rows) <= depth:
        rows.append("".join(c * 2 for c in rows[-1]))
    return Patch(tuple(rows))


def sweep_seeds():
    rng = random.Random(11)
    seeds = [nomeasure_tree(r, d) for r in (0, 1) for d in (3, 8, 12)]
    seeds += [jacaranda_prefix(12), Patch(tuple("0" * (1 << l) for l in range(9)))]
    for x, y, u, v in itertools.product((0, 1), repeat=4):
        grammar = "".join(rng.choice("AB") for _ in range(4))
        seeds.append(fixed_point_prefix(Substreetution((0, x, y), (1, u, v), grammar), 0, 10))
    seeds += [lifted_patch(9, rng) for _ in range(6)] + [random_patch(8, rng) for _ in range(4)]
    return seeds


class TestClosureOracle:
    def test_matches_per_site_closure(self):
        closed = failed = 0
        for seed in sweep_seeds():
            for d in range(2, min(seed.depth, 9) + 1):
                try:
                    want = graph_by_sites(seed, d)
                except NotClosed:
                    with pytest.raises(NotClosed):
                        build_orbit_graph(seed, d)
                    failed += 1
                    continue
                got = build_orbit_graph(seed, d)
                assert got.serialize() == want.serialize()
                closed += 1
        assert closed > 50 and failed > 50  # both outcomes are exercised


class TestOrbitGraphs:
    def test_six_states_stable(self):
        for root in (0, 1):
            seed = nomeasure_tree(root, 14)
            for d in range(2, 9):
                assert build_orbit_graph(seed, d) == NOMEASURE_GRAPH

    def test_all_zero_loops(self):
        zero = Patch(tuple("0" * (1 << l) for l in range(8)))
        g = build_orbit_graph(zero, 3)
        assert g == OrbitGraph(("s0",), {"s0": "s0"}, {"s0": "s0"})

    def test_fixed_tree_not_closed(self):
        with pytest.raises(NotClosed):
            build_orbit_graph(jacaranda_prefix(14), 4)

    def test_edges_read_only(self):
        a, b = {"s0": "s0"}, {"s0": "s0"}
        g = OrbitGraph(("s0",), a, b)
        with pytest.raises(TypeError):
            g.a_edges["s0"] = "s9"
        with pytest.raises(TypeError):
            g.b_edges["s9"] = "s0"
        a["s0"] = "s9"  # the graph holds its own copy
        assert g.a_edges == {"s0": "s0"}
        assert invariant_measure(g).feasible

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
        with pytest.raises(MalformedGraph, match="repeated state s0 is declared twice"):
            parse_orbit_graph("state s0\nstate s0\nedge s0 a s0\nedge s0 b s0\n")
        with pytest.raises(MalformedGraph, match="two a-edges"):
            parse_orbit_graph("state s0\nedge s0 a s0\nedge s0 a s0\nedge s0 b s0\n")
        with pytest.raises(MalformedGraph, match="bad graph line"):
            parse_orbit_graph("state s0\nedge s0 ab s0\nedge s0 a s0\nedge s0 b s0\n")
