"""Structural analysis of the BBAB fixed trees: types, rigidity, probes.

Everything in this module is specific to the system 0 -> 0(1,0),
1 -> 1(1,0) with grammar BBAB and its two fixed trees (root 0 and root 1),
which differ exactly at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .engine import BBAB, apply, fixed_point_prefix, unsub
from .errors import Inconsistent, Shallow, TypeUndetermined
from .trees import Patch
from .words import chi_pow, is_rep, v2

INF = math.inf


@lru_cache(maxsize=8)
def jacaranda_prefix(depth: int) -> Patch:
    return fixed_point_prefix(BBAB, 0, depth)


@lru_cache(maxsize=8)
def jprime_prefix(depth: int) -> Patch:
    return fixed_point_prefix(BBAB, 1, depth)


# -- dyadic type detection ----------------------------------------------------


@dataclass(frozen=True)
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

    @property
    def determined_str(self) -> str:
        if self.inf_consistent:
            return "inf-consistent"
        return "none" if self.determined is None else str(self.determined)

    def serialize(self) -> str:
        cand = ",".join(str(u) for u in sorted(self.candidates))
        return (
            f"parity={self.parity} u={{{cand}}} "
            f"determined={self.determined_str} depth={self.depth}"
        )


def detect_type(p: Patch) -> TypeReport:
    if p.depth < 2:
        raise Shallow("type detection needs depth >= 2")
    odd_ok = all(is_rep(p.levels[l], "10") for l in range(2, p.depth + 1, 2))
    even_ok = all(is_rep(p.levels[l], "10") for l in range(1, p.depth + 1, 2))
    if not odd_ok and not even_ok:
        raise Inconsistent("neither parity fits the visible lines")

    even_candidates = set()
    if even_ok:
        u = 1
        while (1 << (u + 1)) <= p.depth:
            block = chi_pow(BBAB, "10", u)
            period = 1 << (u + 1)
            if all(
                is_rep(p.levels[l], block)
                for l in range(period, p.depth + 1, period)
            ):
                even_candidates.add(u)
            u += 1
    inf_ok = even_ok and (
        p == jacaranda_prefix(p.depth) or p == jprime_prefix(p.depth)
    )

    if odd_ok and even_ok:
        return TypeReport(
            "undetermined", frozenset({0} | even_candidates), None, inf_ok, p.depth
        )
    if odd_ok:
        return TypeReport("odd", frozenset({0}), 0, False, p.depth)
    determined = None
    if len(even_candidates) == 1 and not inf_ok:
        (determined,) = even_candidates
    return TypeReport("even", frozenset(even_candidates), determined, inf_ok, p.depth)


def unsub_pow(p: Patch, u: int) -> Patch:
    for _ in range(u):
        p = unsub(BBAB, p)
    return p


# -- descriptors for elements of the orbit closure ----------------------------


@dataclass(frozen=True)
class XDescriptor:
    """A tree of the orbit closure: one of the fixed trees, or a concrete patch.

    The fixed trees carry no patch (their prefixes are generated on demand);
    concrete descriptors may remember the site of the orbit prefix they were
    cut from, which pins their dyadic class exactly.
    """

    kind: str  # "J" | "J'" | "patch"
    patch: Patch | None = None
    provenance: str | None = None

    def __post_init__(self):
        if self.kind not in ("J", "J'", "patch"):
            raise ValueError(f"unknown descriptor kind {self.kind!r}")
        if (self.kind == "patch") != (self.patch is not None):
            raise ValueError("exactly the concrete descriptors carry a patch")


JAC = XDescriptor("J")
JAC_PRIME = XDescriptor("J'")


def concrete(patch: Patch, provenance: str | None = None) -> XDescriptor:
    return XDescriptor("patch", patch, provenance)


# -- the rigidity construction ------------------------------------------------


def _unsub_chain_depth(d: int, u: int) -> int:
    for _ in range(u):
        d = (d - 1) // 2
    return d


def brother(p: Patch, u: int | None = None) -> Patch:
    """The unique root-1 sibling forced by a root-0 subtree of class 2^u.

    Unsubstitute u times to root(left, right), rebuild 1(right, right) and
    push it back through the substitution; the result is exact to the depth
    the input data can certify.
    """
    if p.get("") != 0:
        raise ValueError("the sibling construction starts from a root-0 tree")
    if u is None:
        report = detect_type(p)
        if report.inf_consistent:
            raise TypeUndetermined("input matches a fixed-tree prefix; class is 2^inf")
        if report.parity == "odd":
            u = 0
        elif report.determined is not None:
            u = report.determined
        else:
            raise TypeUndetermined(f"class not pinned at depth {p.depth}: {report.serialize()}")
    if _unsub_chain_depth(p.depth, u) < 1:
        raise Shallow(f"depth {p.depth} cannot be unsubstituted {u} times")
    core = unsub_pow(p, u)
    right = core.subtree("b")
    out = Patch.combine(1, right, right)
    for _ in range(u):
        out = apply(BBAB, out)
    return out


def brother_best_effort(p: Patch, u: int) -> Patch:
    """Sibling construction that degrades to the root-only prefix when shallow.

    The image root is always known, so running out of depth mid-chain still
    yields the depth-(2^u - 1) image prefix of a bare root-1 core.
    """
    if u == 0:
        if p.depth >= 1:
            right = p.subtree("b")
            return Patch.combine(1, right, right)
        return Patch.leaf(1)
    inner = brother_best_effort(
        unsub(BBAB, p) if p.depth >= 1 else Patch.leaf(p.get("")), u - 1
    )
    return apply(BBAB, inner)


def unsub_best_effort(p: Patch, u: int) -> Patch:
    """u-fold unsubstitution, falling back to the root when depth runs out."""
    for _ in range(u):
        p = unsub(BBAB, p) if p.depth >= 1 else Patch.leaf(p.get(""))
    return p


def h_power(core: Patch, u: int) -> Patch:
    for _ in range(u):
        core = apply(BBAB, core)
    return core


# -- classification of even trees ---------------------------------------------

CASE_DOUBLED_DEEP = "doubled-deep"
CASE_DOUBLED_2TYPE_ROOT1 = "doubled-2type-root1"
CASE_MIXED_ROOT0 = "mixed-root0"


@dataclass(frozen=True)
class EvenClassification:
    case: str
    v: float  # int or INF


def _in_block_line(row: str, z: int, deeper: bool = False) -> bool:
    """Is `row` an aligned window of a line repeating the level-z doubling block?

    With `deeper`, of a line at level z or above: chunks of a deeper block
    the size of the level-z block are that block or all zero.
    """
    block = chi_pow(BBAB, "10", z)
    c = min(len(row), len(block))
    pieces = {block[j : j + c] for j in range(0, len(block), c)}
    if deeper:
        pieces.add("0" * c)
    return all(row[j : j + c] in pieces for j in range(0, len(row), c))


def parent_class(side: Patch) -> int:
    """Class v = v2(n - 1) of the even parent of an odd tree, read off its lines.

    Line l of the tree at generation n is an aligned window of line n + l of
    the fixed tree, which repeats the doubling block of level v2(n + l).  That
    level is v2(l + 1) below v, v above it, and above v where it equals v.
    Every class with 2^v - 1 > depth gives the visible lines the pattern of
    v = inf, so INF stands for all of those classes, and no patch pins it.
    Raises TypeUndetermined unless the lines fit exactly one finite class.
    """
    fits = [
        v
        for v in (*range(1, (side.depth + 1).bit_length()), INF)
        if all(
            _in_block_line(side.levels[l], v2(l + 1) + 1, deeper=True)
            if v2(l + 1) == v
            else _in_block_line(side.levels[l], min(v2(l + 1), v))
            for l in range(1, side.depth + 1)
        )
    ]
    if len(fits) != 1 or fits[0] == INF:
        raise TypeUndetermined(f"parent class undetermined: visible lines fit {fits}")
    return fits[0]


def classify_even(desc: XDescriptor, side: Patch | None = None) -> EvenClassification:
    """Which of the three even shapes the tree has, plus its class index v."""
    if desc.kind == "J":
        return EvenClassification(CASE_MIXED_ROOT0, INF)
    if desc.kind == "J'":
        return EvenClassification(CASE_DOUBLED_DEEP, INF)
    p = desc.patch
    if side is not None:
        v = parent_class(side)
    else:
        report = detect_type(p)
        if report.parity == "odd":
            raise Inconsistent("classification applies to even trees only")
        if report.inf_consistent:
            return _classify_core(p, INF)
        if report.determined is None:
            raise TypeUndetermined(report.serialize())
        v = report.determined
    return _classify_core(p, v)


def _classify_core(p: Patch, v) -> EvenClassification:
    if v is INF:
        if p.get("") == 0:
            return EvenClassification(CASE_MIXED_ROOT0, INF)
        return EvenClassification(CASE_DOUBLED_DEEP, INF)
    if _unsub_chain_depth(p.depth, v) < 1:
        raise Shallow(f"depth {p.depth} does not expose the core under {v} unsubstitutions")
    core = unsub_pow(p, v)
    ca, cb = core.get("a"), core.get("b")
    if (ca, cb) == (1, 0):
        if core.get("") != 0:
            raise Inconsistent("mixed children under a root-1 core")
        return EvenClassification(CASE_MIXED_ROOT0, v)
    if (ca, cb) == (0, 0):
        if core.subtree("a") != core.subtree("b"):
            raise Inconsistent("equal-rooted children must be equal subtrees")
        side_d = core.subtree("a")
        if side_d.depth >= 2:
            rep = detect_type(side_d)
            if rep.determined == 1:
                if core.get("") != 1:
                    raise Inconsistent("a 2-class doubled core must have root 1")
                return EvenClassification(CASE_DOUBLED_2TYPE_ROOT1, v)
            if rep.determined is not None or rep.inf_consistent:
                return EvenClassification(CASE_DOUBLED_DEEP, v)
        raise TypeUndetermined(
            f"doubled core found, inner class open at depth {side_d.depth}"
        )
    raise Inconsistent(f"children pair {ca}{cb} cannot occur at even level")


# -- empirical minimality probes -----------------------------------------------


def zero_at_even_within(p: Patch, n_max: int) -> tuple[bool, int]:
    """Does every length-n_max path hit a 0 at even generation?

    Returns the verdict together with the minimal window that works on all
    fully visible paths of this prefix.
    """
    if n_max > p.depth:
        raise Shallow(f"window {n_max} exceeds depth {p.depth}")

    def clean(level, row):
        # a site blocks the window only while it is not a 0 at even level
        return [not (level % 2 == 0 and c == "0") for c in row]

    runs = [1 if c else 0 for c in clean(p.depth, p.levels[-1])]
    longest = max(runs)
    for level in range(p.depth - 1, -1, -1):
        flags = clean(level, p.levels[level])
        runs = [
            1 + max(runs[2 * i], runs[2 * i + 1]) if flag else 0
            for i, flag in enumerate(flags)
        ]
        longest = max(longest, max(runs))
    # a clean chain of k sites defeats every window shorter than k
    return longest <= n_max, longest


@dataclass(frozen=True)
class ProbeResult:
    found: bool
    window: int | None
    horizon: int


def recurrence_probe(p: Patch, m: int) -> ProbeResult:
    """Largest gap, over all branches, back to a subtree matching the seed.

    A site counts as a return when its subtree agrees with the root's first
    m+1 generations.  The probe reports the prefix-scale window; when some
    branch only returns at the root itself the window is unbounded at this
    horizon and the probe reports not-found.
    """
    if m > p.depth:
        raise Shallow(f"ball depth {m} exceeds patch depth {p.depth}")
    table = p.subtree_ids(m)
    ref = table[0][0]
    horizon = p.depth - m
    gaps = [0]
    worst = 0
    for level in range(1, horizon + 1):
        row = table[level]
        gaps = [
            0 if cid == ref else gaps[i // 2] + 1 for i, cid in enumerate(row)
        ]
        worst = max(worst, max(gaps))
    if worst >= horizon:
        return ProbeResult(False, None, horizon)
    return ProbeResult(True, worst, horizon)
