"""One-step and iterated preimages inside the orbit closure.

The case analysis gives, for every tree shape, the exact set of parents
(root color, which side the tree sits on, and the forced sibling).  Where
the cases branch on an index (classes u, k, v, u_inner, line 2^v - 1), it
asks one of two index sources:

- a site: its generation n in the fixed tree pins every index by dyadic
  valuation, and lines below the patch are read from the ambient prefix;
- the patch alone: indices are read from its visible lines, and whatever
  the lines leave open raises TypeUndetermined or Undetermined.

A brute-force scan over a generated prefix acts as the ground truth: the
classification is validated against the scan, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Inconsistent, Shallow, TypeUndetermined, Undetermined
from .jacaranda import (
    INF,
    XDescriptor,
    brother_best_effort,
    detect_type,
    h_power,
    jacaranda_prefix,
    jprime_prefix,
    parent_class,
    unsub_best_effort,
)
from .trees import Patch, addr_index, index_addr, subpatch_representatives
from .words import v2


@dataclass(frozen=True)
class PreimageDescriptor:
    """One parent: which side the given tree occupies and who its sibling is."""

    root: int
    side: str  # 'a': parent = (root, A, sibling); 'b': parent = (root, sibling, A)
    sibling_kind: str  # "patch" | "J" | "J'"
    sibling: Patch | None
    case_tag: str

    def sibling_prefix(self, depth: int) -> Patch:
        if self.sibling_kind == "J":
            return jacaranda_prefix(depth)
        if self.sibling_kind == "J'":
            return jprime_prefix(depth)
        return self.sibling

    def serialize(self) -> str:
        if self.sibling_kind == "patch":
            # depth plus a digest of the levels: a pure function of the sibling;
            # hashlib loads OpenSSL, so only serialized output pays for importing it
            import hashlib

            levels = "\n".join(self.sibling.levels).encode("ascii")
            sib = f"d{self.sibling.depth}:{hashlib.blake2b(levels, digest_size=8).hexdigest()}"
        else:
            sib = self.sibling_kind
        return f"case={self.case_tag} root={self.root} side={self.side} sibling={sib}"


@dataclass(frozen=True)
class PreimageSet:
    members: tuple[PreimageDescriptor, ...]
    completeness: str  # "exact" | "lower-bound"

    def __len__(self):
        return len(self.members)

    def serialize(self) -> str:
        lines = [f"completeness={self.completeness} count={len(self.members)}"]
        lines += [d.serialize() for d in self.members]
        return "\n".join(lines) + "\n"


def _desc(root, side, sibling, tag) -> PreimageDescriptor:
    if sibling in ("J", "J'"):
        return PreimageDescriptor(root, side, sibling, None, tag)
    return PreimageDescriptor(root, side, "patch", sibling, tag)


JAC_PREIMAGES = (
    _desc(0, "a", "J", "jac"),
    _desc(1, "a", "J", "jac"),
    _desc(0, "b", "J'", "jac"),
)
JAC_PRIME_PREIMAGES = (_desc(0, "a", "J", "jacp"),)


# -- classification -----------------------------------------------------------

# Parent set of every case: (root, side, sibling role).  The roles are the
# forced sibling ("main"), the doubled branch ("prime") and the tree itself.
_PARENTS = {
    "odd1-vinf": ((0, "a", "main"), (1, "a", "main")),
    "odd1-2a": ((0, "a", "prime"), (1, "a", "prime"), (0, "a", "main")),
    "odd1-2b": ((1, "a", "prime"), (0, "a", "main")),
    "odd1-1a": ((0, "a", "main"), (1, "a", "main")),
    "odd1-1b": ((1, "a", "main"),),
    "odd1-1c": ((0, "a", "main"),),
    "odd0-open": ((0, "b", "main"), (1, "b", "main")),
    "odd0-1a": ((0, "b", "main"), (1, "b", "main")),
    "odd0-1b": ((1, "b", "main"),),
    "odd0-2a": ((0, "b", "main"),),
    "odd0-vinf": ((0, "b", "main"), (1, "b", "main")),
    "odd0-2bi": ((0, "b", "main"), (1, "b", "main")),
    "odd0-2bii": ((1, "b", "main"),),
    "odd0-2biii": ((0, "b", "main"),),
    "even0-deep": ((0, "a", "self"), (1, "a", "self"), (0, "b", "main")),
    "even0-2type": ((1, "a", "self"), (0, "b", "main")),
    "even1-v1": ((0, "a", "main"),),
    "even1-vdeep": ((0, "a", "main"), (0, "a", "prime")),
}


def _cases(tags, sibs) -> list:
    return [
        (tag, [_desc(root, side, sibs[role], tag) for root, side, role in _PARENTS[tag]])
        for tag in tags
    ]


def preimages_classified(desc: XDescriptor, jprefix: Patch | None = None) -> PreimageSet:
    """Exact parent set per the case analysis.

    Concrete descriptors with provenance use the ambient prefix to pin their
    class; without provenance the class is detected from the patch alone and
    TypeUndetermined or Undetermined is raised when several cases stay open.
    """
    if desc.kind == "J":
        return PreimageSet(JAC_PREIMAGES, "exact")
    if desc.kind == "J'":
        return PreimageSet(JAC_PRIME_PREIMAGES, "exact")
    if desc.provenance == "":
        raise Inconsistent("a root-site descriptor should be passed symbolically")
    if desc.provenance is not None:
        ix = _SiteIndices(desc.patch, desc.provenance, jprefix)
    else:
        ix = _DetectedIndices(desc.patch)
    ((_, members),) = _classify(desc.patch, ix)
    return PreimageSet(tuple(members), "exact")


def _subtree_line(p: Patch, site: str, l: int, jp: Patch | None):
    """Line l of the subtree at `site`, read from p or from the ambient prefix."""
    if l <= p.depth:
        return p.levels[l]
    if jp is not None and len(site) + l <= jp.depth:
        i = addr_index(site)
        return jp.levels[len(site) + l][i << l : (i + 1) << l]
    return None


def _child(p: Patch, letter: str) -> Patch:
    if p.depth >= 1:
        return p.subtree(letter)
    # children of an even root-1 core are root-0; everything else that calls
    # this at depth 0 also knows the child root
    return Patch.leaf(0)


class _SiteIndices:
    """Indices of the tree at `site`: dyadic valuations of its generation n."""

    def __init__(self, p: Patch, site: str, jp: Patch | None):
        self.p, self.site, self.jp, self.n = p, site, jp, len(site)
        self.u = v2(self.n)

    def k(self, letter):
        return v2(self.n + 1)

    def v(self):
        return INF if self.n == 1 else v2(self.n - 1)

    def line(self, v):
        return _subtree_line(self.p, self.site, (1 << v) - 1, self.jp)

    def u_inner(self, v):
        return v2(self.n - 1 + (1 << v)) - v

    def inner(self, c, u):
        return v2(self.n // (1 << u) + 1)


def _pinned(p: Patch, what: str) -> int:
    report = detect_type(p) if p.depth >= 2 else None
    if report is None or report.determined is None:
        raise TypeUndetermined(f"{what} not pinned")
    return report.determined


class _DetectedIndices:
    """Indices read from the patch's own lines; a question they leave open raises."""

    def __init__(self, p: Patch):
        report = detect_type(p)
        if report.inf_consistent:
            raise TypeUndetermined("patch matches a fixed-tree prefix; classify it symbolically")
        if report.parity == "undetermined":
            raise Undetermined("parity not visible at this depth", cases=[])
        if report.parity == "even" and report.determined is None:
            raise TypeUndetermined(report.serialize())
        self.p, self.u = p, report.determined

    def k(self, letter):
        return _pinned(self.p.subtree(letter), f"class of the {letter}-branch")

    def v(self):
        return parent_class(self.p)

    def line(self, v):
        # parent_class pins only classes whose line 2^v - 1 is visible
        return self.p.levels[(1 << v) - 1]

    def u_inner(self, v):
        letter = "a" if self.p.get("") == 1 else "b"
        probe = self.p.subtree(letter * ((1 << v) - 1))
        return _pinned(probe, "inner class of the all-zero branch") - v

    def inner(self, c, u):
        return _pinned(c, "inner branch class")


def _classify(p: Patch, ix) -> list:
    """The parent case tree: [(tag, members)], or Undetermined with the open cases."""
    root = p.get("")
    u = ix.u
    if u >= 1:
        if root == 0:
            sibs = {"self": p, "main": brother_best_effort(p, u)}
            return _cases(("even0-deep" if u >= 2 else "even0-2type",), sibs)
        c = _child(unsub_best_effort(p, u), "a")
        v = ix.inner(c, u)
        sibs = {
            "main": h_power(Patch.combine(0, brother_best_effort(c, v), c), u),
            "prime": h_power(Patch.combine(0, c, c), u),
        }
        return _cases(("even1-v1" if v == 1 else "even1-vdeep",), sibs)
    if root == 1:
        g = _child(p, "a")
        k = ix.k("a")
        sibs = {
            "main": Patch.combine(0, brother_best_effort(g, k), g),
            "prime": Patch.combine(0, g, g),
        }
    else:
        # odd tree with root 0: only ever a b-child
        if p.depth < 1:
            raise Undetermined(
                "children of a depth-0 odd tree are unknown",
                cases=_cases(("odd0-open",), {"main": Patch.leaf(1)}),
            )
        right = p.subtree("b")
        sibs = {"main": Patch.combine(1, right, right)}
        ca, cb = p.get("a"), p.get("b")
        k = ix.k("b")
        if (ca, cb) == (0, 0):
            if k < 2:
                raise Inconsistent("children 00 cannot sit on a line of single blocks")
            return _cases(("odd0-1a" if k >= 3 else "odd0-1b",), sibs)
        if (ca, cb) != (1, 0):
            raise Inconsistent(f"children pair {ca}{cb} cannot occur in the closure")
        if k >= 2:
            return _cases(("odd0-2a",), sibs)
    v = ix.v()
    if v == INF:
        return _cases((f"odd{root}-vinf",), sibs)
    if v == 1 and root == 1:
        return _cases(("odd1-2a" if k >= 3 else "odd1-2b",), sibs)
    # finite parent class (v >= 2 for root 1): line 2^v - 1 all zero with
    # u_inner >= 2, all zero with u_inner < 2, or holding a 1
    deep = ("odd1-1a", "odd1-1b", "odd1-1c") if root else ("odd0-2bi", "odd0-2bii", "odd0-2biii")
    line = ix.line(v)
    if line is None:
        raise Undetermined(
            f"line {(1 << v) - 1} not visible at depth {p.depth}", cases=_cases(deep, sibs)
        )
    if "1" in line:
        return _cases(deep[2:], sibs)
    return _cases(deep[:1] if ix.u_inner(v) >= 2 else deep[1:2], sibs)


# -- brute force over a generated prefix --------------------------------------


def parent_map(jp: Patch, d: int) -> dict[int, dict[int, tuple[int, int]]]:
    """Every depth-d subtree id of jp -> the ids of its depth-(d+1) parents.

    Each parent id maps to (generation, rank) of its first site in jp.  A
    parent id fixes both children, so that one site per parent suffices.
    """
    first: dict[int, tuple[int, int]] = {}
    for m, row in enumerate(jp.subtree_ids(d + 1)):
        for pid in dict.fromkeys(row):
            if pid not in first:
                first[pid] = (m, row.index(pid))
    child = jp.subtree_ids(d)
    out: dict[int, dict[int, tuple[int, int]]] = {}
    for pid, (m, i) in first.items():
        for kid in child[m + 1][2 * i : 2 * i + 2]:
            out.setdefault(kid, {})[pid] = (m, i)
    return out


def parents_of(frontier, pmap) -> set[int]:
    """One step up the ancestor scan: the parents of every id in `frontier`."""
    return {pid for cid in frontier for pid in pmap.get(cid, ())}


def brute_parent_patches(a: Patch, jp: Patch) -> list[Patch]:
    """Distinct depth-(d+1) subtrees of jp having `a` as one of their children."""
    d = a.depth
    if d + 1 > jp.depth:
        raise Shallow(f"need prefix depth >= {d + 1}, have {jp.depth}")
    sites = parent_map(jp, d).get(a.canonical_id, {})
    return [jp.window(m, i, d + 1) for m, i in sites.values()]


def preimages_bruteforce(a: Patch, jp: Patch) -> PreimageSet:
    members = []
    for parent in brute_parent_patches(a, jp):
        side = "a" if parent.subtree("a") == a else "b"
        other = "b" if side == "a" else "a"
        members.append(_desc(parent.get(""), side, parent.subtree(other), "scan"))
    return PreimageSet(tuple(members), "lower-bound")


def p_n(a: Patch, n: int, jp: Patch) -> int:
    """Number of distinct n-step ancestors of `a` visible in the prefix."""
    if a.depth + n > jp.depth:
        raise Shallow(f"need prefix depth >= {a.depth + n}, have {jp.depth}")
    frontier = {a.canonical_id}
    for k in range(n):
        frontier = parents_of(frontier, parent_map(jp, a.depth + k))
    count = len(frontier)
    if count > 3**n:
        raise Inconsistent(f"{count} ancestors at distance {n} exceeds 3^{n}")
    return count


# -- classified-versus-oracle validation ---------------------------------------


@dataclass
class CrosscheckReport:
    ok: bool
    occurrences: int
    mismatches: list = field(default_factory=list)
    limit_only: list = field(default_factory=list)
    undetermined_sites: int = 0


def _descriptor_matches(parent: Patch, a: Patch, desc: PreimageDescriptor) -> bool:
    if parent.get("") != desc.root:
        return False
    other = "b" if desc.side == "a" else "a"
    if parent.subtree(desc.side) != a:
        return False
    sib = parent.subtree(other)
    ref = desc.sibling_prefix(sib.depth)
    d = min(sib.depth, ref.depth)
    return sib.truncate(d) == ref.truncate(d)


def _class_key(a: Patch, site: str, jp: Patch):
    # everything the site classification reads: the patch, n and, for odd n,
    # line 2^v2(n-1) - 1, which can lie below the patch
    n = len(site)
    line = _subtree_line(a, site, (1 << v2(n - 1)) - 1, jp) if n % 2 and n > 1 else None
    return (a.canonical_id, n, line)


def _check_occurrences(jp: Patch, d: int, reps: dict, report: CrosscheckReport, matched: set) -> int:
    """Match the actual parent at every depth-d site of jp holding a patch of `reps`.

    Sites are classified at their own class, once per distinct (patch,
    parent, class).  Adds the (root, side) of every matching member to
    `matched`; returns the number of combinations checked.
    """
    table = jp.subtree_ids(d)
    ptable = jp.subtree_ids(d + 1)
    seen = set()
    class_cache: dict = {}
    checked = 0
    for m in range(1, jp.depth - d + 1):
        row = table[m]
        prow = ptable[m - 1]
        for i, cid in enumerate(row):
            a = reps.get(cid)
            if a is None:
                continue
            report.occurrences += 1
            site = index_addr(i, m)
            key = _class_key(a, site, jp)
            pid = prow[i // 2]
            if (pid, key) in seen:
                continue
            seen.add((pid, key))
            cases = class_cache.get(key)
            if cases is None:
                try:
                    cases = _classify(a, _SiteIndices(a, site, jp))
                except Undetermined as exc:
                    cases = list(exc.cases)
                class_cache[key] = cases
            if not cases:
                report.undetermined_sites += 1
                continue
            parent = jp.window(m - 1, i // 2, d + 1)
            checked += 1
            hits = {
                (member.root, member.side)
                for _, members in cases
                for member in members
                if _descriptor_matches(parent, a, member)
            }
            if not hits:
                report.ok = False
                report.mismatches.append((site, parent))
            matched |= hits
    return checked


def crosscheck(desc: XDescriptor, jp: Patch, depth: int | None = None) -> CrosscheckReport:
    """Validate the classified parents of one patch against the brute scan.

    Every occurrence of the patch inside the prefix must have its actual
    parent among the cases predicted for its site.  Predicted descriptors
    never witnessed anywhere are reported as limit-only.
    """
    if desc.kind != "patch":
        if depth is None:
            depth = min(6, jp.depth - 1)
        a = jacaranda_prefix(depth) if desc.kind == "J" else jprime_prefix(depth)
    else:
        a = desc.patch
    if a.depth + 1 > jp.depth:
        raise Shallow("prefix too shallow for a parent scan")
    try:
        primary = preimages_classified(desc, jp).members
    except (Undetermined, TypeUndetermined):
        primary = ()
    report = CrosscheckReport(ok=True, occurrences=0)
    matched: set = set()
    _check_occurrences(jp, a.depth, {a.canonical_id: a}, report, matched)
    report.limit_only = [m.serialize() for m in primary if (m.root, m.side) not in matched]
    return report


def crosscheck_sweep(jp: Patch, max_depth: int = 6):
    """Oracle comparison over every distinct subpatch of depth <= max_depth.

    One pass per depth: each site's actual parent is matched against the
    classification for that site's class.  Returns the aggregate report and
    the number of distinct (patch, parent, class) combinations checked.
    """
    total = CrosscheckReport(ok=True, occurrences=0)
    checked = 0
    for d in range(1, max_depth + 1):
        checked += _check_occurrences(jp, d, subpatch_representatives(jp, d), total, set())
    return total, checked
