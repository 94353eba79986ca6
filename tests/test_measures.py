import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substreetution.errors import MalformedGraph
from substreetution.measures import invariant_measure
from substreetution.systems import OrbitGraph, build_orbit_graph, nomeasure_tree


def graph(states, a_edges, b_edges):
    return OrbitGraph(tuple(states), a_edges, b_edges)


def maps(n):
    """A map of range(n) to itself, drawn as a permutation or as any function."""
    return st.one_of(
        st.permutations(range(n)),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    )


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 10))
    a, b = draw(maps(n)), draw(maps(n))
    names = [f"s{i}" for i in range(n)]
    return graph(
        names,
        {x: names[a[i]] for i, x in enumerate(names)},
        {x: names[b[i]] for i, x in enumerate(names)},
    )


def pushed(mu, edges):
    out = dict.fromkeys(mu, 0)
    for x, mass in mu.items():
        out[edges[x]] += mass
    return out


def periodic(edges, x, n):
    y = x
    for _ in range(n):
        y = edges[y]
        if y == x:
            return True
    return False


def classes(g):
    """Classes of "same a-cycle or same b-cycle", by a plain closure."""
    n = len(g.states)
    links = {x: set() for x in g.states}
    for edges in (g.a_edges, g.b_edges):
        for x in g.states:
            if periodic(edges, x, n):
                links[x].add(edges[x])
                links[edges[x]].add(x)
    out = []
    for x in g.states:
        if any(x in c for c in out):
            continue
        seen, todo = {x}, [x]
        while todo:
            for y in links[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
        out.append(seen)
    return out


ESCAPE = re.compile(r"state (\S+) is not ([ab])-periodic")


@pytest.fixture(scope="module")
def six_state():
    return build_orbit_graph(nomeasure_tree(0, 12), 6)


class TestFeasibleGraphs:
    def test_self_loop(self):
        g = graph(["s0"], {"s0": "s0"}, {"s0": "s0"})
        res = invariant_measure(g)
        assert res.feasible and res.assignment == {"s0": Fraction(1)}

    def test_two_state_swap(self):
        g = graph(
            ["s0", "s1"],
            {"s0": "s1", "s1": "s0"},
            {"s0": "s1", "s1": "s0"},
        )
        res = invariant_measure(g)
        assert res.feasible
        assert res.assignment == {"s0": Fraction(1, 2), "s1": Fraction(1, 2)}

    def test_witness_reverifies(self):
        g = graph(
            ["x", "y"],
            {"x": "y", "y": "x"},
            {"x": "x", "y": "y"},
        )
        res = invariant_measure(g)
        assert res.feasible
        assert res.assignment == {"x": Fraction(1, 2), "y": Fraction(1, 2)}

    def test_source_state_forced_to_zero(self):
        # no incoming a-edge pins a state's mass at zero; the rest can balance
        g = graph(
            ["src", "sink"],
            {"src": "sink", "sink": "sink"},
            {"src": "sink", "sink": "sink"},
        )
        res = invariant_measure(g)
        assert res.feasible
        assert res.assignment["src"] == 0
        assert res.assignment["sink"] == 1

    def test_escape(self):
        # y is a fixed point of a but b sends it away for good
        g = graph(["x", "y"], {"x": "x", "y": "y"}, {"x": "x", "y": "x"})
        res = invariant_measure(g)
        assert res.feasible and res.assignment == {"x": 1, "y": 0}

    def test_witness_is_uniform_on_earliest_class(self):
        # {p, q} is an a-cycle fixed by b and {r} is fixed by both: two
        # admissible classes; t escapes into p under both letters
        a = {"t": "p", "p": "q", "q": "p", "r": "r"}
        b = {"t": "p", "p": "p", "q": "q", "r": "r"}
        res = invariant_measure(graph(["t", "p", "q", "r"], a, b))
        assert res.assignment == {"t": 0, "p": Fraction(1, 2), "q": Fraction(1, 2), "r": 0}
        res = invariant_measure(graph(["t", "r", "p", "q"], a, b))
        assert res.assignment == {"t": 0, "r": 1, "p": 0, "q": 0}


class TestInfeasibleGraphs:
    def test_line_doubled_orbit(self, six_state):
        assert invariant_measure(six_state).status == "infeasible"

    def test_source_states_forced_to_zero(self, six_state):
        # a state with no incoming a-edge can only carry mass zero; here that
        # cascades to everything, contradicting total mass one
        incoming_a = set(six_state.a_edges.values())
        assert any(s not in incoming_a for s in six_state.states)
        res = invariant_measure(six_state)
        assert res.status == "infeasible"
        named = [ESCAPE.fullmatch(line).groups() for line in res.certificate]
        found = classes(six_state)
        assert len(named) == len(found)
        for (state, letter), members in zip(named, found):
            assert state in members
            assert not periodic(getattr(six_state, f"{letter}_edges"), state, 6)
        assert res.certificate == ("state s1 is not b-periodic",)

    def test_drift(self):
        # a drifts x to y, b drifts y back to x: each state escapes one map
        g = graph(["x", "y"], {"x": "y", "y": "y"}, {"x": "x", "y": "x"})
        res = invariant_measure(g)
        assert res.status == "infeasible" and res.assignment is None
        assert res.certificate == ("state x is not a-periodic", "state y is not b-periodic")

    def test_stable_under_relabeling(self, six_state):
        order = sorted(six_state.states, reverse=True)
        rename = {s: f"t{i}" for i, s in enumerate(order)}
        g = graph(
            [rename[s] for s in six_state.states],
            {rename[s]: rename[t] for s, t in six_state.a_edges.items()},
            {rename[s]: rename[t] for s, t in six_state.b_edges.items()},
        )
        assert invariant_measure(g).status == "infeasible"

    def test_stable_under_letter_swap(self, six_state):
        g = graph(six_state.states, dict(six_state.b_edges), dict(six_state.a_edges))
        assert invariant_measure(g).status == "infeasible"

    def test_serialize(self, six_state):
        assert invariant_measure(six_state).serialize() == "infeasible\n"


class TestProperties:
    @settings(deadline=None)
    @given(g=random_graphs())
    def test_witness_balances(self, g):
        res = invariant_measure(g)
        if res.feasible:
            mu = res.assignment
            assert all(m >= 0 for m in mu.values()) and sum(mu.values()) == 1
            assert pushed(mu, g.a_edges) == mu
            assert pushed(mu, g.b_edges) == mu

    @settings(deadline=None)
    @given(g=random_graphs())
    def test_certificate_names_escaping_states(self, g):
        res = invariant_measure(g)
        if not res.feasible:
            found = classes(g)
            assert len(res.certificate) == len(found)
            for line, members in zip(res.certificate, found):
                state, letter = ESCAPE.fullmatch(line).groups()
                edges = g.a_edges if letter == "a" else g.b_edges
                assert state in members
                assert not periodic(edges, state, len(g.states))

    @settings(deadline=None)
    @given(g=random_graphs(), data=st.data())
    def test_verdict_ignores_names_and_letters(self, g, data):
        order = data.draw(st.permutations(g.states))
        rename = {s: f"t{i}" for i, s in enumerate(order)}
        relabeled = graph(
            [rename[s] for s in order],
            {rename[s]: rename[t] for s, t in g.a_edges.items()},
            {rename[s]: rename[t] for s, t in g.b_edges.items()},
        )
        swapped = graph(g.states, dict(g.b_edges), dict(g.a_edges))
        status = invariant_measure(g).status
        assert invariant_measure(relabeled).status == status
        assert invariant_measure(swapped).status == status


class TestValidation:
    def test_missing_edge(self):
        with pytest.raises(MalformedGraph, match="s1 has no a-edge"):
            graph(["s0", "s1"], {"s0": "s1"}, {"s0": "s0", "s1": "s1"})

    def test_edge_leaves_state_set(self):
        with pytest.raises(MalformedGraph, match="leaves the state set"):
            graph(["s0"], {"s0": "s0"}, {"s0": "s9"})

    def test_repeated_state(self):
        with pytest.raises(MalformedGraph, match="repeated state"):
            graph(["s0", "s0"], {"s0": "s0"}, {"s0": "s0"})
