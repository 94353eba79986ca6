"""Structural analysis of the BBAB fixed trees: types and rigidity.

Everything in this module is specific to the system 0 -> 0(1,0),
1 -> 1(1,0) with grammar BBAB and its two fixed trees (root 0 and root 1),
which differ exactly at the root.
"""

from __future__ import annotations

from functools import lru_cache

from .engine import BBAB, apply_pow, fixed_point_prefix, unsub
from .errors import Inconsistent, NonPositive, Shallow, TypeUndetermined
from .trees import Patch, _record
from .words import doubling_block, line_formula


@lru_cache(maxsize=8)
def jacaranda_prefix(depth: int) -> Patch:
    return fixed_point_prefix(BBAB, 0, depth)


# -- dyadic type detection ----------------------------------------------------


@_record
class TypeReport:
    """What the visible lines say about a tree's dyadic class.

    Truncations underdetermine the class, so this reports candidate sets and
    only fills `determined` when exactly one candidate has witnessing lines
    in view.  Matching a fixed-tree prefix is flagged as consistency, never
    as a determination: no finite patch certifies the limit trees.
    """

    parity: str  # "odd" | "even" | "undetermined"
    candidates: frozenset[int]
    determined: int | None
    inf_consistent: bool
    depth: int

    def serialize(self) -> str:
        cand = ",".join(str(u) for u in sorted(self.candidates))
        det = "inf-consistent" if self.inf_consistent else self.determined
        det = "none" if det is None else det
        return f"parity={self.parity} u={{{cand}}} determined={det} depth={self.depth}"


def _in_block_line(row: str, z: int) -> bool:
    """Is `row` an aligned window of a line repeating the level-z doubling block?"""
    block = doubling_block(z)
    if len(row) >= len(block):  # whole copies: one comparison
        return row == block * (len(row) // len(block))
    return row in {block[j : j + len(row)] for j in range(0, len(block), len(row))}


def detect_type(p: Patch) -> TypeReport:
    if p.depth < 2:
        raise Shallow("type detection needs depth >= 2")
    even_ok = all(_in_block_line(p.levels[l], 0) for l in range(1, p.depth + 1, 2))
    # class 2^u repeats the level-u block on lines 2^(u+1) N; an odd tree is
    # class u = 0, and only an even-fitting tree can have a class u >= 1
    candidates = frozenset(
        u
        for u in range(p.depth.bit_length() - 1 if even_ok else 1)
        if all(_in_block_line(p.levels[l], u) for l in range(2 << u, p.depth + 1, 2 << u))
    )
    odd_ok = 0 in candidates
    if not odd_ok and not even_ok:
        raise Inconsistent("neither parity fits the visible lines")
    # the two fixed trees differ only at the root, and their lines have a closed form
    inf_ok = even_ok and all(p.levels[m] == line_formula(m) for m in range(1, p.depth + 1))
    parity = "undetermined" if odd_ok and even_ok else "odd" if odd_ok else "even"
    determined = None
    if parity != "undetermined" and len(candidates) == 1 and not inf_ok:
        (determined,) = candidates
    return TypeReport(parity, candidates, determined, inf_ok, p.depth)


def unsub_pow(p: Patch, u: int) -> Patch:
    if u < 0:
        raise NonPositive(f"unsubstitution count must be >= 0, got {u}")
    for _ in range(u):
        p = unsub(BBAB, p)
    return p


# -- the rigidity construction ------------------------------------------------


def brother(p: Patch, u: int | None = None) -> Patch:
    """The unique root-1 sibling forced by a root-0 subtree of class 2^u.

    Unsubstitute u times to root(left, right), rebuild 1(right, right) and
    push it back through the substitution; the result is exact to the depth
    the input data can certify.  It is the root-1 sibling of some parent of
    the tree in the orbit closure X, not always the sibling at the patch's
    own site: in the fixed tree J, J|ab has root 0, and so does its sibling
    J|aa.
    """
    if p.get("") != 0:
        raise Inconsistent("the sibling construction starts from a root-0 tree")
    if u is None:
        report = detect_type(p)
        if report.inf_consistent:
            raise TypeUndetermined("input matches a fixed-tree prefix; class is 2^inf")
        if report.determined is None:
            raise TypeUndetermined(f"class not pinned at depth {p.depth}: {report.serialize()}")
        u = report.determined
    # u unsubstitutions leave depth ((d + 1) >> u) - 1; the core must keep its children
    if (p.depth + 1) >> u < 2:
        raise Shallow(f"depth {p.depth} cannot be unsubstituted {u} times")
    return brother_best_effort(p, u)


def brother_best_effort(p: Patch, u: int) -> Patch:
    """Sibling construction that degrades to the root-only prefix when shallow.

    The image root is always known, so running out of depth mid-chain still
    yields the image of a bare root-1 core.  Either way the sibling is built
    only to depth p.depth, the depth a parent of p shows it to.
    """
    core = unsub_best_effort(p, u)
    if core.depth < 1:
        return apply_pow(BBAB, Patch.leaf(1), u, p.depth)
    right = core.subtree("b")
    return apply_pow(BBAB, Patch.combine(1, right, right), u, p.depth)


def unsub_best_effort(p: Patch, u: int) -> Patch:
    """u-fold unsubstitution, falling back to the root when depth runs out."""
    for _ in range(u):
        p = unsub(BBAB, p) if p.depth >= 1 else Patch.leaf(p.get(""))
    return p
