"""Exact decision of invariant-probability existence on an orbit graph.

A probability mu with a_*mu = mu and b_*mu = mu exists iff some nonempty set
S of states lies inside both a(S) and b(S).

Proof.  Let S be the support of mu.  A state x outside a(S) has all its
a-preimages off S, so mu(x) = mu(a^-1(x)) = 0: S lies in a(S), and likewise
in b(S).  On a finite S that forces a(S) = S = b(S), so a and b are
bijections of S and permute each a/b-orbit inside it.  Conversely the uniform
measure on such an orbit is invariant.  Unions of such sets are such sets, so
there is a greatest one, K.  One pruning pass finds it: a state goes when no
kept state maps onto it by a or by b.  K survives the pass, as it maps onto
itself, and what is left maps onto itself, so it is K.  Counting the kept
preimages of each state per letter makes the pass linear.  An infeasible
result is the removal trail, in the order removed; a feasible one carries the
uniform measure on the orbit of the first kept state.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .systems import OrbitGraph
from .trees import _record


@_record
class MeasureResult:
    feasible: bool
    assignment: dict | None
    certificate: tuple[str, ...]

    def serialize(self) -> str:
        if not self.feasible:
            return "infeasible\n"
        lines = ["feasible"]
        lines += [f"mu {s} {val}" for s, val in self.assignment.items()]
        return "\n".join(lines) + "\n"


def invariant_measure(g: OrbitGraph) -> MeasureResult:
    """Decide the balance system exactly; feasible results carry a witness."""
    maps = {"a": g.a_edges, "b": g.b_edges}
    # per letter, how many kept states that letter maps onto each state
    onto = {c: Counter(f.values()) for c, f in maps.items()}
    kept = set(g.states)
    trail = []
    todo = [(s, c) for s in g.states for c in "ab" if not onto[c][s]]
    for s, c in todo:  # the list grows while it is read, so it is a queue
        if s not in kept:
            continue
        kept.remove(s)
        trail.append(f"state {s} is not the {c}-child of any kept state")
        for d, f in maps.items():
            onto[d][f[s]] -= 1
            if not onto[d][f[s]]:
                todo.append((f[s], d))
    if not kept:
        return MeasureResult(False, None, tuple(trail))

    first = next(s for s in g.states if s in kept)
    orbit, frontier = {first}, [first]
    while frontier:
        s = frontier.pop()
        for f in maps.values():
            if f[s] not in orbit:
                orbit.add(f[s])
                frontier.append(f[s])
    assignment = dict.fromkeys(g.states, Fraction(0))
    assignment.update(dict.fromkeys(orbit, Fraction(1, len(orbit))))
    _verify(g, assignment)
    return MeasureResult(True, assignment, ())


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
