"""The three auxiliary systems: sequence lift, additive digit law, line doubling.

These exercise the engine from the outside: a fixed tree that projects to a
classical binary sequence, a system with a closed-form digit rule whose
branch b a^n never meets color 0, and a periodic tree built by line
rewriting rather than substitution.

Orbit graphs close a tree under both shifts.  Their states are the depth-d
subtree classes of a seed patch and their edges are read off its node table,
from the key of each depth-(d+1) class.  An `OrbitGraph` checks its states
and edges once, when it is built; `measures` takes it as checked.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import MalformedGraph, NonConstantLevel, NotClosed
from .trees import Patch, _record, classes, truncations


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


# -- the line-doubling periodic tree -------------------------------------------

# a digit's flip, on the bytes of a line
_FLIP = bytes.maketrans(b"01", b"10")


def nomeasure_tree(root: int, depth: int) -> Patch:
    """Tree whose even lines come from pair rewriting and odd lines digitwise.

    An odd line follows each digit of the line above with its flip; an even
    line rewrites each "01"/"10" pair of the line above, which its first
    digit d names, to d d d and the flip of d.  Each line is built by slice
    assignment into a bytearray.
    """
    rows = [str(int(root)).encode()]
    for l in range(1, depth + 1):
        prev, row = rows[-1], bytearray(2 * len(rows[-1]))
        if l % 2:
            row[0::2], row[1::2] = prev, prev.translate(_FLIP)
        else:
            firsts = prev[::2]
            row[0::4] = row[1::4] = row[2::4] = firsts
            row[3::4] = firsts.translate(_FLIP)
        rows.append(row)
    return Patch(tuple(row.decode() for row in rows))


# -- orbit graphs ---------------------------------------------------------------


@_record
class OrbitGraph:
    """Finite a/b-edge graph over depth-truncated tree states.

    Checked once, when built: the states are distinct and each has one
    a-edge and one b-edge into the state set.  The edge maps are kept as
    read-only copies, so the check keeps holding.
    """

    states: tuple[str, ...]
    a_edges: MappingProxyType
    b_edges: MappingProxyType

    def __post_init__(self):
        object.__setattr__(self, "a_edges", MappingProxyType(dict(self.a_edges)))
        object.__setattr__(self, "b_edges", MappingProxyType(dict(self.b_edges)))
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


# The orbit graph of the line-doubled tree from either root, at every
# identification depth from 2 to 14.  s0 is the seed and s3 its mirror, the
# tree of the other root.  Each has a looper (s1, s4) as its a-child and a
# cross state (s2, s5) as its b-child.  A looper sends both letters back to
# its parent; a cross state sends a back to its parent and b across to the
# other one of seed and mirror.
NOMEASURE_GRAPH = OrbitGraph(
    tuple(f"s{k}" for k in range(6)),
    {"s0": "s1", "s1": "s0", "s2": "s0", "s3": "s4", "s4": "s3", "s5": "s3"},
    {"s0": "s2", "s1": "s0", "s2": "s3", "s3": "s5", "s4": "s3", "s5": "s0"},
)


def build_orbit_graph(seed: Patch, depth: int) -> OrbitGraph:
    """Close the seed under both shifts with depth-`depth` state identity.

    States are the depth-`depth` subtree classes, named in site order.  A
    class one level deeper has its children in its node key and is over the
    state its truncation names, so the keys give every edge.  The closure
    fails when a state gets two different child pairs (the identification
    depth merges trees it should not) or when a state only ever appears at
    the bottom, where its children cannot be resolved.

    A deeper identification depth that also closes gives the same graph:
    two depth-(d+1) classes over one depth-d class would give it two child
    pairs, so the classes match one to one, in the same site order.
    """
    if depth < 2:
        raise MalformedGraph("identification depth must be at least 2")
    if seed.depth < depth + 1:
        raise NotClosed(f"seed depth {seed.depth} cannot resolve depth-{depth} states")
    names = {cid: f"s{k}" for k, cid in enumerate(classes(seed, depth))}
    up, edges = truncations(seed, depth + 1), {}
    for pid, (_, a, b) in classes(seed, depth + 1).items():
        kids = names[a], names[b]
        if edges.setdefault(names[up[pid]], kids) != kids:
            raise NotClosed(f"identification depth {depth} merges trees with different children")
    if len(edges) < len(names):
        missing = len(names) - len(edges)
        raise NotClosed(f"{missing} state(s) appear only at the truncation frontier")
    states = tuple(names.values())
    return OrbitGraph(states, {s: edges[s][0] for s in states}, {s: edges[s][1] for s in states})
