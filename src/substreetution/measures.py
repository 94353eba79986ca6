"""Exact decision of invariant-probability existence on an orbit graph.

A probability mu with a_*mu = mu and b_*mu = mu exists iff some class of the
relation "same a-cycle or same b-cycle" lies inside Per(a) and Per(b).

Proof.  For a map f of n states, f^n sends every state onto a cycle, so
mu = f^n_*mu lives on Per(f); there f is a bijection and f_*mu = mu reads
mu(f(x)) = mu(x), so mu is constant on each cycle.  Hence mu is constant on
each class and zero off Per(a) and Per(b): a class carrying mass lies inside
both.  Conversely a and b each permute such a class, so the uniform measure
on it is invariant.  The decision is a union-find over the cycles of the two
maps; an infeasible result names, for each class, a state that escapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .systems import OrbitGraph


@dataclass(frozen=True)
class MeasureResult:
    status: str  # "feasible" | "infeasible"
    assignment: dict | None
    certificate: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def serialize(self) -> str:
        if not self.feasible:
            return "infeasible\n"
        lines = ["feasible"]
        lines += [f"mu {s} {val}" for s, val in self.assignment.items()]
        return "\n".join(lines) + "\n"


def _periodic(states, edges) -> set:
    """Per(f) for the map `edges`: each walk runs to the first state already
    seen; if this walk saw it first, the walk has closed a cycle there."""
    walk, per = {}, set()
    for start in states:
        x = start
        while x not in walk:
            walk[x] = start
            x = edges[x]
        if walk[x] == start:
            while x not in per:
                per.add(x)
                x = edges[x]
    return per


def invariant_measure(g: OrbitGraph) -> MeasureResult:
    """Decide the balance system exactly; feasible results carry a witness."""
    states = g.states
    maps = {"a": g.a_edges, "b": g.b_edges}
    per = {c: _periodic(states, f) for c, f in maps.items()}

    root = {s: s for s in states}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for c, f in maps.items():
        for x in per[c]:
            root[find(x)] = find(f[x])
    classes = {}
    for s in states:
        classes.setdefault(find(s), []).append(s)

    escapes = []
    for members in classes.values():
        escape = next(((s, c) for s in members for c in "ab" if s not in per[c]), None)
        if escape is None:
            assignment = dict.fromkeys(states, Fraction(0))
            assignment.update(dict.fromkeys(members, Fraction(1, len(members))))
            _verify(g, assignment)
            return MeasureResult("feasible", assignment, ())
        escapes.append(f"state {escape[0]} is not {escape[1]}-periodic")
    return MeasureResult("infeasible", None, tuple(escapes))


def _verify(g: OrbitGraph, mu: dict) -> None:
    total = sum(mu.values())
    if total != 1:
        raise AssertionError(f"witness mass {total} != 1")
    for s, val in mu.items():
        if val < 0:
            raise AssertionError(f"negative mass on {s}")
    for edges in (g.a_edges, g.b_edges):
        pushed = dict.fromkeys(g.states, 0)
        for y in g.states:
            pushed[edges[y]] += mu[y]
        for x in g.states:
            if pushed[x] != mu[x]:
                raise AssertionError(f"balance fails at {x}")
