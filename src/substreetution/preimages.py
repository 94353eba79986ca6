"""One-step and iterated preimages inside the orbit closure.

A parent is its root color, the side the tree sits on, and the sibling.
Two sources give exact parent sets:

- a tree at a site of the fixed tree: the case analysis, whose indices
  (classes u, k, v, u_inner and line 2^v - 1) are dyadic valuations of the
  site's generation, with the line below the patch read from J's closed form;
- a patch without a site, which stands for its class: the parents of every
  tree of the class, read off the closure's depth-(d+1) classes
  (`closure.closure_classes`).

A brute-force scan over a generated prefix reads its lower bound through
the same loop.  The case analysis is validated against the scan, never the
other way around.
"""

from __future__ import annotations

from .closure import closure_classes
from .engine import BBAB, apply_pow
from .errors import Inconsistent, NonPositive, Shallow, Undetermined
from .jacaranda import brother_best_effort, unsub_best_effort
from .trees import (
    Patch, _record, addr_index, check_address, classes, decode, find, index_addr, node_keys,
    subpatch_representatives, truncations,
)
from .words import line_window, v2


@_record
class PreimageDescriptor:
    """One parent: which side the given tree occupies and who its sibling is."""

    root: int
    side: str  # 'a': parent = (root, A, sibling); 'b': parent = (root, sibling, A)
    sibling: Patch | str  # a patch, or "J" / "J'" in the fixed trees' sets
    case_tag: str

    def serialize(self) -> str:
        sib = self.sibling
        if isinstance(sib, Patch):
            # depth plus a digest of the levels: a pure function of the sibling;
            # hashlib loads OpenSSL, so only serialized output pays for importing it
            import hashlib

            levels = "\n".join(sib.levels).encode("ascii")
            sib = f"d{sib.depth}:{hashlib.blake2b(levels, digest_size=8).hexdigest()}"
        return f"case={self.case_tag} root={self.root} side={self.side} sibling={sib}"


@_record
class PreimageSet:
    members: tuple[PreimageDescriptor, ...]
    completeness: str  # "exact" | "lower-bound"

    def __len__(self):
        return len(self.members)

    def serialize(self) -> str:
        lines = [f"completeness={self.completeness} count={len(self.members)}"]
        lines += [d.serialize() for d in self.members]
        return "\n".join(lines) + "\n"


# The exact parent sets of the fixed trees J (root 0) and J' (root 1), whose
# siblings are named rather than truncated
JAC_PREIMAGES = PreimageSet(
    (
        PreimageDescriptor(0, "a", "J", "jac"),
        PreimageDescriptor(1, "a", "J", "jac"),
        PreimageDescriptor(0, "b", "J'", "jac"),
    ),
    "exact",
)
JAC_PRIME_PREIMAGES = PreimageSet((PreimageDescriptor(0, "a", "J", "jacp"),), "exact")


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
        (tag, [PreimageDescriptor(r, side, sibs[role], tag) for r, side, role in _PARENTS[tag]])
        for tag in tags
    ]


def preimages_classified(p: Patch, site: str | None = None) -> PreimageSet:
    """Exact parent set: of a tree at a site of the fixed tree J, or of a patch's class.

    A patch with a site goes through the case analysis: the site pins its
    class, and p must be J's window there, which is checked against J's
    closed form, the source of the one line below p the cases may read.  At
    the root site the tree is the fixed tree itself, J when p has root 0 and
    J' when it has root 1 (they differ only at the root), with the constant
    set JAC_PREIMAGES or JAC_PRIME_PREIMAGES.  Without a site, a patch stands
    for its class, the trees of the orbit closure it truncates, and the
    parents of every one of them are read off the closure's depth-(d+1) classes.
    """
    if site is None:
        levels = closure_classes(BBAB, 0, p.depth + 1)
        keys = {cid: key for level in levels for cid, key in level.items()}
        cid = find(dict(zip(keys.values(), keys)), p)
        return _parent_set(cid, levels[-1], keys, "closure", "exact")
    n, i = len(site), addr_index(check_address(site))
    if any(p.levels[t] != line_window(n + t, t, i) for t in range(n == 0, p.depth + 1)):
        raise Inconsistent(f"the patch is not the fixed tree's window at site {site!r}")
    if n == 0:
        return JAC_PRIME_PREIMAGES if p.get("") else JAC_PREIMAGES
    l = (1 << v2(n - 1)) - 1 if n > 1 else 0  # the one line the case tree may read
    ((_, members),) = _classify(p, n, line_window(n + l, l, i))
    return PreimageSet(tuple(members), "exact")


def _classify(p: Patch, n: int, below: str | None = None, built: dict | None = None) -> list:
    """The parent case tree of a tree p in generation n of a fixed tree.

    Returns [(tag, members)], or raises Undetermined with the open cases.
    Every index the cases branch on is a dyadic valuation read off n, and
    line l = 2^v2(n-1) - 1 of the tree is read from p or, below it, is
    `below`, which the caller slices from the fixed tree (None: not visible).
    An odd tree is class u = 0: at u = 0 the u-fold unsubstitution and image
    are the identity, so one sibling construction per root color serves
    every class.  The siblings depend on p, u and, for root 1, k alone;
    calls that pass one `built` dict build each of them once.
    """
    root, u = p.get(""), v2(n)
    built = {} if built is None else built
    if root == 0:
        sibs = {"self": p, "main": _once(built, brother_best_effort, p, u)}
        if u:
            return _cases(("even0-deep" if u >= 2 else "even0-2type",), sibs)
        # odd tree with root 0: only ever a b-child
        if p.depth < 1:
            raise Undetermined(
                "children of a depth-0 odd tree are unknown", cases=_cases(("odd0-open",), sibs)
            )
        ca, cb = p.get("a"), p.get("b")
        k = v2(n + 1)
        if (ca, cb) == (0, 0):
            if k < 2:
                raise Inconsistent("children 00 cannot sit on a line of single blocks")
            return _cases(("odd0-1a" if k >= 3 else "odd0-1b",), sibs)
        if (ca, cb) != (1, 0):
            raise Inconsistent(f"children pair {ca}{cb} cannot occur in the closure")
        if k >= 2:
            return _cases(("odd0-2a",), sibs)
    else:
        # the a-child of the odd core, root 0 also where depth hides it, and its class
        core = _once(built, unsub_best_effort, p, u)
        c = core.subtree("a") if core.depth >= 1 else Patch.leaf(0)
        k = v2((n >> u) + 1)
        sibs = {
            "main": _once(built, _image, _once(built, brother_best_effort, c, k), c, u, p.depth),
            "prime": _once(built, _image, c, c, u, p.depth),
        }
        if u:
            return _cases(("even1-v1" if k == 1 else "even1-vdeep",), sibs)
    if n == 1:  # the parent is the root, of class v = inf
        return _cases((f"odd{root}-vinf",), sibs)
    v = v2(n - 1)
    if v == 1 and root == 1:
        return _cases(("odd1-2a" if k >= 3 else "odd1-2b",), sibs)
    # finite parent class (v >= 2 for root 1): line 2^v - 1 all zero with
    # u_inner >= 2, all zero with u_inner < 2, or holding a 1
    deep = ("odd1-1a", "odd1-1b", "odd1-1c") if root else ("odd0-2bi", "odd0-2bii", "odd0-2biii")
    l = (1 << v) - 1
    line = p.levels[l] if l <= p.depth else below
    if line is None:
        raise Undetermined(f"line {l} not visible at depth {p.depth}", cases=_cases(deep, sibs))
    if "1" in line:
        return _cases(deep[2:], sibs)
    return _cases(deep[:1] if v2(n - 1 + (1 << v)) - v >= 2 else deep[1:2], sibs)


def _once(built: dict, make, *args):
    """make(*args), made on the first call with these arguments and read from `built` after."""
    key = (make, *args)
    if key not in built:
        built[key] = make(*args)
    return built[key]


def _image(left: Patch, right: Patch, u: int, depth: int) -> Patch:
    """The u-fold image of the tree 0(left, right), to the given depth."""
    return apply_pow(BBAB, Patch.combine(0, left, right), u, depth)


# -- brute force over a generated prefix --------------------------------------


def parent_map(jp: Patch, d: int) -> dict[int, set[int]]:
    """Every depth-d subtree id of jp -> the ids of its depth-(d+1) parents.

    A parent's node key holds both its children, so the map inverts the keys.
    """
    out: dict[int, set[int]] = {}
    for pid, (_, a, b) in classes(jp, d + 1).items():
        out.setdefault(a, set()).add(pid)
        out.setdefault(b, set()).add(pid)
    return out


def parents_of(frontier, pmap) -> set[int]:
    """One step up the ancestor scan: the parents of every id in `frontier`."""
    return {pid for cid in frontier for pid in pmap.get(cid, ())}


def _parent_set(cid, parents: dict, keys, tag: str, completeness: str) -> PreimageSet:
    """One member per parent class (id -> key in `parents`) with `cid` as a child.

    A parent with `cid` on both sides is listed once, on side a; siblings
    are decoded from `keys` (id -> node key).
    """
    found = []
    for c, x, y in parents.values():
        if cid in (x, y):
            found.append((int(c), "a", y) if x == cid else (int(c), "b", x))
    siblings = decode(keys, {sib for _, _, sib in found})
    members = [PreimageDescriptor(c, side, siblings[sib], tag) for c, side, sib in found]
    return PreimageSet(tuple(members), completeness)


def preimages_bruteforce(a: Patch, jp: Patch) -> PreimageSet:
    """One parent per depth-(d+1) class of jp with `a` as a child, in first-site order."""
    d = a.depth
    if d + 1 > jp.depth:
        raise Shallow(f"need prefix depth >= {d + 1}, have {jp.depth}")
    parents = classes(jp, d + 1)
    return _parent_set(jp.locate(a), parents, node_keys(jp), "scan", "lower-bound")


def p_n(a: Patch, n: int, jp: Patch) -> int:
    """Number of distinct n-step ancestors of `a` visible in the prefix."""
    if n < 0:
        raise NonPositive(f"ancestor distance must be >= 0, got {n}")
    if a.depth + n > jp.depth:
        raise Shallow(f"need prefix depth >= {a.depth + n}, have {jp.depth}")
    frontier = {jp.locate(a)} - {None}  # a patch absent from jp has no ancestors
    for k in range(n):
        frontier = parents_of(frontier, parent_map(jp, a.depth + k))
    return len(frontier)


# -- classified-versus-oracle validation ---------------------------------------


@_record
class CrosscheckReport:
    ok: bool
    occurrences: int
    mismatches: list  # (site, parent window) of each checked visit that no member matched
    undetermined_sites: int = 0  # checked visits whose site left several cases open


def _descriptor_matches(parent: Patch, a: Patch, desc: PreimageDescriptor) -> bool:
    """Does the depth-(d+1) window `parent` hold `a` as its member `desc` says?

    The same test as `_check_occurrences` makes on node ids, made on patches.
    """
    if parent.get("") != desc.root:
        return False
    other = "b" if desc.side == "a" else "a"
    if parent.subtree(desc.side) != a:
        return False
    sib, ref = parent.subtree(other), desc.sibling
    d = min(sib.depth, ref.depth)
    return sib.truncate(d) == ref.truncate(d)


def _check_occurrences(jp: Patch, d: int, reps: dict) -> tuple[CrosscheckReport, int, set]:
    """Match the actual parent at every depth-d site of jp holding a patch of `reps`.

    Sites are classified at their own class, once per distinct (patch,
    parent, class) at its first site.  Returns the report for depth d, the
    number of combinations checked and the (root, side) of every member
    seen matched.

    Site i of generation m is keyed by (parent id, patch id, line), the line
    sliced from the prefix on odd rows with l = 2^v2(m-1) - 1 > d and
    m + l <= depth.  With L = l + 1 on those rows (a table that exists, as
    l + 1 <= depth - (m - 1)) and d + 1 on the rest, a parent's depth-L class
    fixes the keys of both its children.  So each key first occurs at 2j or
    2j + 1 for j the first rank of a depth-L class in generation m - 1, and
    only those children are keyed, in rank order.

    Members are matched on node ids, the test that `_descriptor_matches`
    makes on patches.  The parent at site i is keys[prow[i // 2]], its
    (color, a-child id, b-child id).  A member matches when the color is its
    root, its side holds the id that reps[cid] has in jp (not cid: reps may
    map an id to a patch of another class), and the other child, truncated
    to the sibling's depth through `truncations`, has the sibling's id.  The
    classifications of one call share their sibling constructions, each
    sibling is located once, and a parent's window is cut only for a
    mismatch report.
    """
    table, ptable = jp.subtree_ids(d), jp.subtree_ids(d + 1)
    keys, up = node_keys(jp), truncations(jp, d)
    own = {cid: jp.locate(a) for cid, a in reps.items()}
    # a row holds depth-d ids only: its sites less those of the classes reps lacks
    absent = classes(jp, d).keys() - reps.keys()
    built: dict = {}
    class_cache: dict = {}
    mismatches, matched = [], set()
    occurrences = undetermined = checked = 0
    for m in range(1, jp.depth - d + 1):
        row, prow = table[m], ptable[m - 1]
        occurrences += len(row) - sum(map(row.count, absent))
        # the site classification reads the patch, m and, for odd m, line
        # l = 2^v2(m-1) - 1: the patch's, or below it sliced from the prefix
        l = (1 << v2(m - 1)) - 1 if m % 2 and m > 1 else None
        sliced = l is not None and l > d and m + l <= jp.depth
        lrow = jp.subtree_ids(l + 1)[m - 1] if sliced else prow
        first = {}
        for j in sorted(map(lrow.index, set(lrow))):  # the first rank of each depth-L class
            for i in (2 * j, 2 * j + 1):
                line = jp.levels[m + l][i << l : (i + 1) << l] if sliced else None
                first.setdefault((prow[j], row[i], line), i)
        visits = [(i, cid, line) for (_, cid, line), i in first.items() if cid in reps]
        for i, cid, line in visits:
            key = (cid, m, line)  # line is None unless sliced from below the patch
            cached = class_cache.get(key)
            if cached is None:
                try:
                    cases, still_open = _classify(reps[cid], m, line, built), False
                except Undetermined as exc:  # matched against the union of the open cases
                    cases, still_open = exc.cases, True
                members = []
                for _, found in cases:
                    for member in found:
                        ref = member.sibling.truncate(d)
                        sid = _once(built, jp.locate, ref)
                        members.append((member.root, member.side, d - ref.depth, sid))
                cached = class_cache[key] = members, still_open
            members, still_open = cached
            undetermined += still_open
            checked += 1
            color, x, y = keys[prow[i // 2]]
            hits = set()
            for root, side, steps, sid in members:
                this, other = (x, y) if side == "a" else (y, x)
                for _ in range(steps):  # a shallower sibling: truncate the other child to its depth
                    other = up[other]
                if (int(color), this, other) == (root, own[cid], sid):
                    hits.add((root, side))
            if not hits:
                mismatches.append((index_addr(i, m), jp.window(m - 1, i // 2, d + 1)))
            matched |= hits
    return CrosscheckReport(not mismatches, occurrences, mismatches, undetermined), checked, matched


def crosscheck_sweep(jp: Patch, max_depth: int = 6):
    """Oracle comparison over every distinct subpatch of depth <= max_depth.

    One pass per depth: each site's actual parent is matched against the
    classification for that site's class.  Returns the depths' reports added
    up and the number of distinct (patch, parent, class) combinations checked.
    """
    depths = range(1, max_depth + 1)
    runs = [_check_occurrences(jp, d, subpatch_representatives(jp, d)) for d in depths]
    reports = [report for report, _, _ in runs]
    total = CrosscheckReport(
        all(r.ok for r in reports), sum(r.occurrences for r in reports),
        [x for r in reports for x in r.mismatches], sum(r.undetermined_sites for r in reports),
    )
    return total, sum(checked for _, checked, _ in runs)
