"""The three auxiliary systems: sequence lift, additive digit law, line doubling.

These exercise the engine from the outside: a fixed tree that projects to a
classical binary sequence, a system with a closed-form digit rule whose
branch b a^n never meets color 0, and a periodic tree built by line
rewriting rather than substitution.

Orbit graphs close a tree under both shifts.  Their states are the depth-d
subtree classes of a seed patch and their edges are read off its id tables
at the first site of each depth-(d+1) class.  An `OrbitGraph` checks its
states and edges once, when it is built; `measures` takes it as checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedGraph, NonConstantLevel, NotClosed, Shallow
from .trees import Patch, first_sites


def tm_project(p: Patch) -> str:
    """Collapse a level-constant tree to its per-generation color word."""
    out = []
    for l, row in enumerate(p.levels):
        if row.count(row[0]) != len(row):
            raise NonConstantLevel(f"generation {l} mixes colors: {row[:16]}...")
        out.append(row[0])
    return "".join(out)


def abba_digit(root: int, word: str) -> int:
    """Digit law of the ABBA fixed trees: root plus the number of b's, mod 2."""
    return (root + word.count("b")) % 2


def abba_nonminimal_witness(n_max: int, prefix: Patch | None = None) -> bool:
    """The b a^n digits are all 1, by formula and on a generated prefix.

    So the branch b a^n of the root-0 ABBA tree never meets color 0.  This
    is a fact about one branch and does not decide minimality of the orbit
    closure: under the digit law every subtree is the tree of its root color.
    """
    from .engine import ABBA, fixed_point_prefix

    if prefix is None:
        prefix = fixed_point_prefix(ABBA, 0, n_max + 1)
    if prefix.depth < n_max + 1:
        raise Shallow(f"need a prefix of depth {n_max + 1}")
    for n in range(1, n_max + 1):
        site = "b" + "a" * n
        if abba_digit(0, site) != 1 or prefix.get(site) != 1:
            return False
    return True


# -- the line-doubling periodic tree -------------------------------------------

_T1 = {"0": "01", "1": "10"}
_T2 = {"01": "0001", "10": "1110"}


def nomeasure_tree(root: int, depth: int) -> Patch:
    """Tree whose even lines come from pair rewriting and odd lines digitwise."""
    rows = [str(int(root))]
    for l in range(1, depth + 1):
        prev = rows[-1]
        if l % 2:
            rows.append("".join(_T1[c] for c in prev))
        else:
            rows.append(
                "".join(_T2[prev[i : i + 2]] for i in range(0, len(prev), 2))
            )
    return Patch(tuple(rows))


# -- orbit graphs ---------------------------------------------------------------


@dataclass(frozen=True)
class OrbitGraph:
    """Finite a/b-edge graph over depth-truncated tree states.

    Checked once, when built: the states are distinct and each has one
    a-edge and one b-edge into the state set.
    """

    states: tuple[str, ...]
    a_edges: dict
    b_edges: dict
    warning: str | None = None

    def __post_init__(self):
        if not self.states:
            raise MalformedGraph("graph has no states")
        known = set()
        for s in self.states:
            if s in known:
                raise MalformedGraph(f"repeated state {s} is declared twice")
            known.add(s)
        for s in self.states:
            for edges, c in ((self.a_edges, "a"), (self.b_edges, "b")):
                if s not in edges:
                    raise MalformedGraph(f"state {s} has no {c}-edge")
                if edges[s] not in known:
                    raise MalformedGraph(f"edge {s} -{c}-> {edges[s]} leaves the state set")

    @property
    def periodic(self) -> bool:
        incoming = set(self.a_edges.values()) | set(self.b_edges.values())
        return all(s in incoming for s in self.states)

    def serialize(self) -> str:
        lines = [f"state {s}" for s in self.states]
        lines += [f"edge {s} a {self.a_edges[s]}" for s in self.states]
        lines += [f"edge {s} b {self.b_edges[s]}" for s in self.states]
        return "\n".join(lines) + "\n"


def parse_orbit_graph(text: str) -> OrbitGraph:
    states = []
    a_edges = {}
    b_edges = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "state" and len(parts) == 2:
            states.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4 and parts[2] in ("a", "b"):
            edges = a_edges if parts[2] == "a" else b_edges
            if parts[1] in edges:
                raise MalformedGraph(f"state {parts[1]} has two {parts[2]}-edges")
            edges[parts[1]] = parts[3]
        else:
            raise MalformedGraph(f"bad graph line {raw!r}")
    return OrbitGraph(tuple(states), a_edges, b_edges)


# More distinct states than this and the closure is treated as not closed.
_MAX_STATES = 64


def _closure_at_depth(seed: Patch, d: int):
    """State classes and edge maps at one identification depth.

    States are the depth-d subtree classes, at their first sites.  A
    depth-(d+1) class fixes its truncation's depth-d children, so one site
    per depth-(d+1) class gives every edge.  The closure fails when a class
    gets two different child pairs (the identification depth merges trees it
    should not) or when a class only ever appears at the bottom, where its
    children cannot be resolved.
    """
    if seed.depth < d + 1:
        raise NotClosed(f"seed depth {seed.depth} cannot resolve depth-{d} states")
    first = first_sites(seed, d)
    if len(first) > _MAX_STATES:
        raise NotClosed(f"more than {_MAX_STATES} states; treating as not closed")
    ids = seed.subtree_ids(d)
    edges = {}
    for m, i in first_sites(seed, d + 1).values():
        kids = (ids[m + 1][2 * i], ids[m + 1][2 * i + 1])
        if edges.setdefault(ids[m][i], kids) != kids:
            raise NotClosed(f"identification depth {d} merges trees with different children")
    if len(edges) < len(first):
        raise NotClosed(
            f"{len(first) - len(edges)} state(s) appear only at the truncation frontier"
        )
    return first, edges


def invariant_edges_expected(g: OrbitGraph) -> bool:
    """Does the graph have the 6-state shape of the line-doubled tree's orbit?

    Seed state s: a-child is a both-ways return state, b-child leads to the
    mirrored seed, whose own children behave symmetrically.
    """
    s = g.states[0]
    a, b = g.a_edges, g.b_edges
    looper0, cross0 = a[s], b[s]
    if a[looper0] != s or b[looper0] != s:
        return False
    if a[cross0] != s:
        return False
    mirror = b[cross0]
    looper1, cross1 = a[mirror], b[mirror]
    if a[looper1] != mirror or b[looper1] != mirror:
        return False
    if a[cross1] != mirror or b[cross1] != s:
        return False
    return len({s, mirror, looper0, cross0, looper1, cross1}) == 6


def build_orbit_graph(seed: Patch, depth: int) -> OrbitGraph:
    """Close the seed under both shifts with depth-`depth` state identity.

    Then tries identification depths depth+1 and depth+2 until one does not
    close; the deepest closure wins, with a warning if the counts disagree.
    """
    if depth < 2:
        raise MalformedGraph("identification depth must be at least 2")
    first, edges = _closure_at_depth(seed, depth)
    counts = {depth: len(first)}
    for d in (depth + 1, depth + 2):
        try:
            first, edges = _closure_at_depth(seed, d)
        except NotClosed:
            break
        counts[d] = len(first)
    warning = None
    if len(set(counts.values())) > 1:
        warning = f"state counts vary with identification depth: {counts}"
    names = {cid: f"s{k}" for k, cid in enumerate(first)}  # in site order
    return OrbitGraph(
        tuple(names.values()),
        {names[cid]: names[edges[cid][0]] for cid in first},
        {names[cid]: names[edges[cid][1]] for cid in first},
        warning,
    )
