import hashlib
import os
import subprocess
import sys

import pytest

import substreetution
from substreetution import jacaranda, preimages
from substreetution.closure import closure_classes
from substreetution.engine import BBAB, fixed_point_prefix
from substreetution.errors import (
    BadPatchFormat,
    Inconsistent,
    NonPositive,
    Shallow,
    SubstreetutionError,
    Undetermined,
)
from substreetution.jacaranda import jacaranda_prefix
from substreetution.preimages import (
    JAC_PREIMAGES,
    JAC_PRIME_PREIMAGES,
    CrosscheckReport,
    PreimageDescriptor,
    _classify,
    _descriptor_matches,
    crosscheck_sweep,
    p_n,
    parent_map,
    preimages_bruteforce,
    preimages_classified,
)
from substreetution.trees import Patch, decode, index_addr, subpatch_representatives
from substreetution.words import v2


def crosscheck(a, jp, site=None, primary=None):
    """Validate the classified parents of one patch against the brute scan.

    Every occurrence of the patch inside the prefix must have its actual
    parent among the cases predicted for its site; `site` only picks the
    classification whose unwitnessed members are listed, and `primary`, a
    fixed tree's constant set, stands in for it.  Returns the report and the
    predicted members never witnessed anywhere (limit-only).
    """
    if a.depth + 1 > jp.depth:
        raise Shallow("prefix too shallow for a parent scan")
    if primary is None:
        try:
            primary = preimages_classified(a, site).members
        except Undetermined:
            primary = ()
    report, _, matched = preimages._check_occurrences(jp, a.depth, {jp.locate(a): a})
    return report, [m.serialize() for m in primary if (m.root, m.side) not in matched]


def _site_members(patch, site):
    """The members classified at the site, or the union of its open cases."""
    try:
        return preimages_classified(patch, site).members
    except Undetermined as exc:
        return [member for _, members in exc.cases for member in members]


def _among(member, members):
    """Some member has its root and side, and a sibling equal to its own to its depth."""
    sib = member.sibling
    return any(
        (d.root, d.side) == (member.root, member.side) and d.sibling.truncate(sib.depth) == sib
        for d in members
    )


@pytest.fixture(scope="module")
def jp():
    return jacaranda_prefix(14)


class TestClassifiedFixedTrees:
    def test_root0_set(self):
        got = JAC_PREIMAGES
        assert got.completeness == "exact" and len(got) == 3
        shapes = {(d.root, d.side, d.sibling) for d in got.members}
        assert shapes == {(0, "a", "J"), (1, "a", "J"), (0, "b", "J'")}

    def test_root1_set(self):
        got = JAC_PRIME_PREIMAGES
        assert got.completeness == "exact" and len(got) == 1
        (d,) = got.members
        assert (d.root, d.side, d.sibling) == (0, "a", "J")

    def test_serialization(self):
        text = JAC_PREIMAGES.serialize()
        assert "completeness=exact" in text and "sibling=J'" in text

    def test_constants_match_the_closure(self):
        # a named sibling read as its depth-d prefix: J' has exactly its
        # constant set among the closure's parents, and J's constant set lies
        # within the four parents that its depth-d truncation's class has
        # (five at d = 1)
        def triples(found, d):
            named = {"J": jacaranda_prefix(d), "J'": fixed_point_prefix(BBAB, 1, d)}
            return {(m.root, m.side, named.get(m.sibling, m.sibling).levels) for m in found.members}

        for d in range(1, 13):
            jprime = fixed_point_prefix(BBAB, 1, d)
            assert triples(JAC_PRIME_PREIMAGES, d) == triples(preimages_classified(jprime), d)
            of_class = triples(preimages_classified(jacaranda_prefix(d)), d)
            assert len(of_class) == (5 if d == 1 else 4) and triples(JAC_PREIMAGES, d) <= of_class


def _digest(out):
    return hashlib.blake2b("".join(out).encode("ascii"), digest_size=16).hexdigest()


def test_serialization_golden(jp, first_sites_by_scan):
    # every depth-1..7 class of the prefix at its first site, classified with
    # and without the site and by the scan, then both fixed trees, with each
    # error as its class and message: every serialized byte, one digest per path
    paths = {
        "site": lambda patch, site: preimages_classified(patch, site),
        "site-less": lambda patch, site: preimages_classified(patch),
        "scan": lambda patch, site: preimages_bruteforce(patch, jp),
    }
    outs = {name: [] for name in paths}
    for d in range(1, 8):
        for m, i in sorted(first_sites_by_scan(jp, d).values()):
            patch, site = jp.window(m, i, d), index_addr(i, m)
            for name, run in paths.items():
                try:
                    outs[name].append(run(patch, site).serialize())
                except SubstreetutionError as exc:
                    outs[name].append(f"{type(exc).__name__}: {exc}\n")
    assert [len(out) for out in outs.values()] == [78, 78, 78]
    assert all(out.startswith("completeness=exact count=") for out in outs["site-less"])
    fixed = [JAC_PREIMAGES.serialize(), JAC_PRIME_PREIMAGES.serialize()]
    assert {name: _digest(out) for name, out in [*outs.items(), ("fixed trees", fixed)]} == {
        "site": "dbbf3e2796d845096fea984d12c0abf9",
        "site-less": "3309d505582d838a0133ac699d92b3d1",
        "scan": "127df175b1b392f149bb6787e738493c",
        "fixed trees": "e2c330c92b28c26aaedc409d813cee1d",
    }


_QUERY = """
import random
from substreetution.jacaranda import jacaranda_prefix
from substreetution.preimages import preimages_bruteforce, preimages_classified
from substreetution.trees import distinct_subpatches, random_patch

rng = random.Random(7)
for _ in range({warm}):
    random_patch(6, rng).subtree_ids(3)
jp = jacaranda_prefix(14)
patch = jp.subtree("aabb").truncate(6)
print(preimages_classified(patch, "aabb").serialize(), end="")
print(preimages_bruteforce(patch, jp).serialize(), end="")
print(sorted(distinct_subpatches(jp, 3)))
"""


def test_serialization_ignores_call_history():
    # siblings print as content, and subtree ids belong to the patch, so
    # nothing another patch numbered earlier shows up
    src = os.path.dirname(os.path.dirname(substreetution.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    outs = [
        subprocess.run(
            [sys.executable, "-c", _QUERY.format(warm=warm)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        for warm in (0, 5)
    ]
    assert outs[0] == outs[1]
    assert "sibling=d" in outs[0] and "id:" not in outs[0]


_SWEEPS = """
from substreetution.engine import BBAB, fixed_point_prefix
from substreetution.jacaranda import jacaranda_prefix
from substreetution.preimages import crosscheck_sweep

if {other_first}:
    crosscheck_sweep(fixed_point_prefix(BBAB, 1, 14), 6)
for _ in range(2):
    print(*crosscheck_sweep(jacaranda_prefix(16), 7))
"""


def test_sweep_ignores_call_history():
    # the sweep of the depth-16 prefix twice in a row in a fresh interpreter,
    # and twice after the sweep of a J' prefix, whose ids name other classes
    # (its leaf 1 has color 1): sibling constructions live in each call, and
    # no helper keeps a cache
    src = os.path.dirname(os.path.dirname(substreetution.__file__))
    outs = [
        subprocess.run(
            [sys.executable, "-c", _SWEEPS.format(other_first=other_first)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        for other_first in (False, True)
    ]
    want = "CrosscheckReport(ok=True, occurrences=130034, mismatches=[], undetermined_sites=0) 354"
    assert outs == [[want, want], [want, want]]
    helpers = [
        jacaranda.brother_best_effort, jacaranda.unsub_best_effort,
        preimages._classify, preimages._once, preimages._image,
    ]
    assert not any(hasattr(helper, "cache_info") for helper in helpers)


class TestBruteForce:
    def test_all_ones_has_no_parents(self, jp):
        ones = Patch(("1", "11", "1111"))
        assert len(preimages_bruteforce(ones, jp)) == 0

    def test_odd_root1_always_left(self, jp):
        odd = Patch(("1", "00"))
        found = preimages_bruteforce(odd, jp)
        assert len(found) >= 1
        assert all(d.side == "a" for d in found.members)

    def test_parent_windows_contain_target(self, jp):
        a = jp.truncate(3)
        parents = subpatch_representatives(jp, 4)
        for pid in parent_map(jp, 3)[jp.locate(a)]:
            assert a in (parents[pid].subtree("a"), parents[pid].subtree("b"))

    def test_matches_window_scan(self, jp, first_sites_by_scan):
        # the node keys against the windows at the first site of each parent class
        for d in range(1, 8):
            parents = [jp.window(m, i, d + 1) for m, i in first_sites_by_scan(jp, d + 1).values()]
            pmap = parent_map(jp, d)
            for m, i in first_sites_by_scan(jp, d).values():
                a, want, pids = jp.window(m, i, d), [], set()
                for q in parents:
                    if a in (q.subtree("a"), q.subtree("b")):
                        side, other = ("a", "b") if q.subtree("a") == a else ("b", "a")
                        sibling = q.subtree(other)
                        want.append(PreimageDescriptor(q.get(""), side, sibling, "scan"))
                        pids.add(jp.locate(q))
                assert preimages_bruteforce(a, jp).members == tuple(want)
                assert pmap.get(jp.locate(a), set()) == pids

    def test_lower_bound_flag(self, jp):
        assert preimages_bruteforce(jp.truncate(2), jp).completeness == "lower-bound"

    def test_depth_guard(self, jp):
        with pytest.raises(Shallow):
            preimages_bruteforce(jp, jp)


class TestIteratedCounts:
    def test_distance_zero(self, jp):
        assert p_n(jp.truncate(2), 0, jp) == 1

    def test_negative_distance(self, jp):
        with pytest.raises(NonPositive):
            p_n(jp.truncate(2), -1, jp)

    def test_absent_patch_has_no_ancestors(self, jp):
        absent = Patch(("0", "00", "0000"))
        assert jp.locate(absent) is None
        assert [p_n(absent, n, jp) for n in range(4)] == [0, 0, 0, 0]

    def test_deep_patches_within_bound(self, jp):
        reps = subpatch_representatives(jp, 8)
        for patch in reps.values():
            for n in (1, 2, 3):
                assert p_n(patch, n, jp) <= 3**n

    def test_shallow_truncations_alias_above_bound(self, jp):
        # several closure trees share shallow truncations, so the scan unions
        # their parent sets and the per-tree bound does not apply: p_n counts
        # them all, and only gate 6 compares a count with 3^n
        a = jp.truncate(2)
        assert [p_n(a, n, jp) for n in range(5)] == [1, 4, 5, 8, 7]
        assert p_n(a, 1, jp) == len(preimages_bruteforce(a, jp)) == 4

    def test_most_parents_per_closure_class(self):
        # the counts behind gate 6: the most one-step parents of a depth-d
        # class of the closure, d = 1..14, a parent with the class on both
        # sides listed once.  The literal bound of 3 fails at every depth;
        # the depth-14 prefix that gate 6 scans hides this from depth 8 on
        levels = closure_classes(BBAB, 0, 15)
        keys = {cid: key for level in levels for cid, key in level.items()}
        most = [
            max(len(preimages._parent_set(cid, up, keys, "closure", "exact")) for cid in level)
            for level, up in zip(levels[1:15], levels[2:])
        ]
        assert most == [5, 4, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]

    def test_chain_consistency(self, jp):
        reps, parents = subpatch_representatives(jp, 8), subpatch_representatives(jp, 9)
        pmap = parent_map(jp, 8)
        for cid, patch in list(reps.items())[:6]:
            assert p_n(patch, 2, jp) <= sum(p_n(parents[pid], 1, jp) for pid in pmap.get(cid, ()))


class TestCrosscheck:
    def test_sweep_is_clean(self, jp):
        report, checked = crosscheck_sweep(jp, 6)
        assert report.ok and not report.mismatches
        assert (report.occurrences, checked, report.undetermined_sites) == (32244, 251, 24)

    def test_sweep_below_generation_16(self):
        # generation 16 asks for class-2^4 siblings, which are built only as
        # deep as the patch (unbounded, the depth-1 patch 1/10 wanted depth 31)
        report, checked = crosscheck_sweep(jacaranda_prefix(17), 6)
        assert report.ok and not report.mismatches
        assert (report.occurrences, checked, report.undetermined_sites) == (258036, 355, 0)

    def test_sweep_at_generation_18(self):
        # the deepest prefix the siblings' bounded depth lets the sweep reach
        # in tier-1 time; an unbounded sibling ran out of memory here
        report, checked = crosscheck_sweep(jacaranda_prefix(18), 6)
        assert report.ok and not report.mismatches
        assert (report.occurrences, checked, report.undetermined_sites) == (516084, 389, 4)

    def test_siblings_no_deeper_than_patch(self, first_sites_by_scan):
        # a parent of a depth-d tree shows the sibling only to depth d
        jp16 = jacaranda_prefix(16)
        seen = 0
        for d in range(9):
            for m, i in first_sites_by_scan(jp16, d).values():
                if m == 0:
                    continue
                patch, site = jp16.window(m, i, d), index_addr(i, m)
                for at in (site, None):
                    try:
                        members = preimages_classified(patch, at).members
                    except SubstreetutionError:
                        continue
                    for member in members:
                        seen += 1
                        assert member.sibling.depth <= d, (site, at, member.serialize())
        assert seen > 0

    def test_single_descriptor(self, jp):
        # one occurrence per cell holding the patch below the root
        for site, depth in (("ba", 4), ("aabb", 3), ("a" * 9, 2), ("bab", 4)):
            patch = jp.subtree(site).truncate(depth)
            report, _ = crosscheck(patch, jp, site=site)
            cells = sum(row.count(jp.locate(patch)) for row in jp.subtree_ids(depth)[1:])
            assert report.ok and report.occurrences == cells

    def test_fixed_tree_descriptor_flags_missing_members(self, jp):
        report, limit_only = crosscheck(jacaranda_prefix(4), jp, primary=JAC_PREIMAGES.members)
        assert report.ok
        # whichever members the finite scan cannot witness are flagged, never lost
        witnessed = report.occurrences - len(limit_only)
        assert witnessed >= 0

    def test_classified_agrees_with_provenance_free_detection(self, jp):
        # the tree at the site is one tree of the patch's class: here it has
        # every parent the class has, each sibling agreeing to the site's depth
        site = "aabb"
        patch = jp.subtree(site)
        at_site = preimages_classified(patch, site).members
        of_class = preimages_classified(patch).members
        assert {(d.root, d.side) for d in at_site} == {(d.root, d.side) for d in of_class}
        assert all(_among(d, of_class) for d in at_site)

    def test_patch_without_site_unions_its_sites(self, jp):
        # occurrences of this truncation are odd1-vinf and odd1-1c, and at
        # depth 5 also odd1-1a and odd1-1b: the class's set holds all of them
        for depth in (5, 6):
            patch = jp.subtree("a").truncate(depth)
            of_class = preimages_classified(patch).members
            assert [(d.root, d.side) for d in of_class] == [(0, "a"), (1, "a")]
            cid, tags = jp.locate(patch), set()
            for m, row in enumerate(jp.subtree_ids(depth)[1:], start=1):
                for i in (i for i, c in enumerate(row) if c == cid):
                    members = _site_members(patch, index_addr(i, m))
                    tags |= {d.case_tag for d in members}
                    assert all(_among(d, of_class) for d in members)
            assert {"odd1-vinf", "odd1-1c"} <= tags and "odd1-2b" not in tags

    def test_site_is_an_address(self, jp):
        # the site classifier reads the site's rank, so it checks the site's letters
        with pytest.raises(BadPatchFormat, match="address must be a word over"):
            preimages_classified(Patch.leaf(0), "bx")

    def test_site_patch_is_the_fixed_tree_window(self, jp):
        # every line of the patch is checked against J's, the root's included
        # below the root site (only the root site admits J' as well)
        for site in ("a", "ab", "bab"):
            rows = list(jp.subtree(site).truncate(3).levels)
            for t, row in enumerate(rows):
                flipped = rows[:t] + ["10"[int(row[0])] + row[1:]] + rows[t + 1 :]
                message = f"^the patch is not the fixed tree's window at site '{site}'$"
                with pytest.raises(Inconsistent, match=message):
                    preimages_classified(Patch(tuple(flipped)), site)

    def test_undetermined_carries_case_union(self, jp):
        # a root-1 odd tree whose discriminating line lies below the patch,
        # with no line given, leaves the three deep cases open; at its site
        # the closed form gives that line (J's line 16), which holds a 1
        site = "a" * 9
        patch = jp.subtree(site).truncate(4)
        assert patch.get("") == 1
        with pytest.raises(Undetermined) as exc:
            _classify(patch, 9, lambda t: None)
        tags = [tag for tag, _ in exc.value.cases]
        assert tags == ["odd1-1a", "odd1-1b", "odd1-1c"]
        assert preimages_classified(patch, site).serialize().splitlines() == [
            "completeness=exact count=1",
            "case=odd1-1c root=0 side=a sibling=d4:b081e280e44be928",
        ]

    def test_depth0_root0_odd_site_reads_children(self, jp):
        # a bare root-0 tree at an odd generation: the site reads its children
        # from the closed form and the case tree branches on them; the
        # sibling is built from the patch, at its depth: the root-1 leaf
        assert (jp.get("b"), jp.levels[2][2:4]) == (0, "10")
        found = preimages_classified(Patch.leaf(0), "b")
        assert found.completeness == "exact"
        assert [(m.root, m.side, m.case_tag) for m in found.members] == [
            (0, "b", "odd0-vinf"),
            (1, "b", "odd0-vinf"),
        ]
        assert {m.sibling.levels for m in found.members} == {("1",)}
        # without the children the case stays open
        with pytest.raises(Undetermined, match="^children of a depth-0 odd tree are unknown$") as exc:
            _classify(Patch.leaf(0), 1, lambda t: None)
        assert [tag for tag, _ in exc.value.cases] == ["odd0-open"]


def test_class_parents_equal_a_deep_scan():
    # every depth-1..6 class: its exact set against the scan of a prefix deep
    # enough to show every parent class, as (root, side, sibling) sets
    j20 = jacaranda_prefix(20)

    def triples(found):
        return {(d.root, d.side, d.sibling.levels) for d in found.members}

    classes_seen = 0
    for d in range(1, 7):
        for patch in subpatch_representatives(j20, d).values():
            got = preimages_classified(patch)
            assert got.completeness == "exact"
            assert triples(got) == triples(preimages_bruteforce(patch, j20)), patch.levels
            classes_seen += 1
    assert classes_seen == 73


def test_site_members_lie_in_the_closure(jp):
    """The converse of the crosscheck: every member classified at a site is a parent in the closure.

    A member (root, side, sibling) of a depth-d tree p names the depth-(d+1)
    class with that root, p on that side and that sibling, compared at the
    sibling's own depth, which the case analysis may build below d.  At each
    class's first site below the root, the members of every open case count.
    The check is necessary, not sufficient, for exactness per tree: a member
    that some other tree of p's class has passes it.  Adding (1, "b", "main")
    to case odd0-2a fails it; adding (1, "a", "main") to odd1-1c escapes it.
    """
    levels = closure_classes(BBAB, 0, 7)
    keys = {cid: key for level in levels for cid, key in level.items()}
    members, outside = [], []
    for d in range(1, 7):
        parents = decode(keys, levels[d + 1]).values()
        firsts = {}
        for m, row in enumerate(jp.subtree_ids(d)[1:], start=1):
            for i, cid in enumerate(row):
                firsts.setdefault(cid, (m, i))
        for m, i in firsts.values():
            patch = jp.window(m, i, d)
            for member in _site_members(patch, index_addr(i, m)):
                members.append((d, member.root, member.side, member.sibling.levels))
                if not any(_descriptor_matches(q, patch, member) for q in parents):
                    outside.append((index_addr(i, m), member.serialize()))
    shallower = sum(len(sibling) - 1 < d for d, _, _, sibling in members)
    assert outside == []
    assert (len(members), len(set(members)), shallower) == (93, 69, 20)


def test_case_tree_reads_the_line_it_is_given(jp):
    # the case tree, given the line 2^v2(n-1) - 1 where it lies below the
    # tree (cut here from a window of the prefix), gives the cases that the
    # classification at the site gives, open cases and message included, at
    # the first site of each (class, line) in each generation whose line the
    # prefix shows (the site reads lines below it from the closed form)
    outcomes = []
    for d in range(1, 7):
        for m, row in enumerate(jp.subtree_ids(d)[1:], start=1):
            l = (1 << v2(m - 1)) - 1 if m > 1 else 0
            below = d < l and m + l <= jp.depth
            if d < l and not below:
                continue
            first = {}
            for i, cid in enumerate(row):
                first.setdefault((cid, jp.window(m, i, l).levels[l] if below else None), i)
            for (_, line), i in first.items():
                patch, site = jp.window(m, i, d), index_addr(i, m)
                try:
                    ((_, members),) = _classify(patch, m, {l: line}.get)
                    got = tuple(members)
                except Undetermined as exc:
                    got = (str(exc), exc.cases)
                try:
                    want = preimages_classified(patch, site).members
                except Undetermined as exc:
                    want = (str(exc), exc.cases)
                assert got == want, (site, d)
                outcomes.append((line is not None, isinstance(got[0], str)))
    # sites with a line below the patch, and sites whose cases stay open
    assert (len(outcomes), sum(b for b, _ in outcomes), sum(u for _, u in outcomes)) == (146, 8, 0)


def _outcome(members_of):
    """The members that members_of() gives, or the message and open cases it raises."""
    try:
        return tuple(members_of())
    except Undetermined as exc:
        return (str(exc), exc.cases)


def test_site_reads_the_lines_a_prefix_shows(jp):
    # at every site of length n <= 10 and depth d <= 14 - n, the site's
    # classification, which reads the lines below the patch from the closed
    # form, gives the case tree's cases on a reader of the prefix's lines.
    # The case tree asks that reader only for lines below the tree, and only
    # for the children (line 1) or line 2^v2(n-1) - 1; where it asks for a
    # line below the prefix, the site's members are among the open cases
    pairs = shown = opened = 0
    asked, built = [], {}
    for n in range(1, 11):
        for d in range(15 - n):
            for i in range(1 << n):
                patch = jp.window(n, i, d)
                got = _outcome(lambda: preimages_classified(patch, index_addr(i, n)).members)
                pairs, opened = pairs + 1, opened + isinstance(got[0], str)
                hidden = []

                def read(t, n=n, d=d, i=i, hidden=hidden):
                    asked.append((n, d, t))
                    if n + t > jp.depth:
                        hidden.append(t)
                        return None
                    return jp.levels[n + t][i << t : (i + 1) << t]

                want = _outcome(lambda: _classify(patch, n, read, built)[0][1])
                if hidden:
                    assert set(got) <= {m for _, members in want[1] for m in members}
                    continue
                assert got == want, (n, i, d)
                shown += 1
    assert all(d < t and (t == 1 or t == (1 << v2(n - 1)) - 1) for n, d, t in asked)
    assert (pairs, shown, opened) == (12256, 9184, 0)
    assert (len(asked), sum(t == 1 for _, _, t in asked)) == (3509, 341)


def _check_occurrences_per_site(jp, d, reps):
    """The occurrence scan one site at a time: the oracle for the scan by generation."""
    table = jp.subtree_ids(d)
    ptable = jp.subtree_ids(d + 1)
    seen = set()
    class_cache: dict = {}
    mismatches, matched = [], set()
    occurrences = undetermined = checked = 0
    for m in range(1, jp.depth - d + 1):
        row = table[m]
        prow = ptable[m - 1]
        for i, cid in enumerate(row):
            a = reps.get(cid)
            if a is None:
                continue
            occurrences += 1
            line, below = None, {}.get
            if m % 2 and m > 1:  # line l = 2^v2(m-1) - 1: the patch's or, below it, the prefix's
                l = (1 << v2(m - 1)) - 1
                if l <= d:
                    line = a.levels[l]
                elif m + l <= jp.depth:
                    line = jp.levels[m + l][i << l : (i + 1) << l]
                    below = {l: line}.get
            key = (cid, m, line)
            pid = prow[i // 2]
            if (pid, key) in seen:
                continue
            seen.add((pid, key))
            cached = class_cache.get(key)
            if cached is None:
                try:
                    cached = _classify(a, m, below), False
                except Undetermined as exc:
                    cached = exc.cases, True
                class_cache[key] = cached
            cases, still_open = cached
            undetermined += still_open
            parent = jp.window(m - 1, i // 2, d + 1)
            checked += 1
            hits = {
                (member.root, member.side)
                for _, members in cases
                for member in members
                if _descriptor_matches(parent, a, member)
            }
            if not hits:
                mismatches.append((index_addr(i, m), parent))
            matched |= hits
    return CrosscheckReport(not mismatches, occurrences, mismatches, undetermined), checked, matched


def _fields(report, limit_only=()):
    return (report.ok, report.occurrences, report.mismatches, list(limit_only),
            report.undetermined_sites)


class TestOccurrenceScanOracle:
    """The scan by generation reports exactly what the per-site loop reports."""

    def _both(self, monkeypatch, fn, *args):
        """fn(*args) under each scan: [(result, checked count of every scan call)]."""
        out = []
        for scan in (preimages._check_occurrences, _check_occurrences_per_site):
            counts = []

            def recording(*a, scan=scan, counts=counts):
                result = scan(*a)
                counts.append(result[1])
                return result

            with monkeypatch.context() as mp:
                mp.setattr(preimages, "_check_occurrences", recording)
                out.append((fn(*args), counts))
        return out

    @pytest.mark.parametrize(
        "depth, max_depth", [(10, 6), (12, 6), (14, 6), (16, 7)], ids=["10", "12", "14", "16"]
    )
    def test_sweep(self, monkeypatch, depth, max_depth):
        # depth 16 at max depth 7 is the sweep of the fixed-tree benchmark workload
        jp = jacaranda_prefix(depth)
        (got, got_counts), (want, want_counts) = self._both(
            monkeypatch, crosscheck_sweep, jp, max_depth
        )
        assert _fields(got[0]) == _fields(want[0]) and got[1] == want[1]
        assert got_counts == want_counts
        if depth == 16:
            assert (got[0].occurrences, got[1], got[0].undetermined_sites) == (130034, 354, 0)

    @pytest.mark.parametrize("site, depth, steps", [("ba", 4, 1), ("ba", 7, 2), ("aaa", 7, 3)])
    def test_shallower_siblings(self, monkeypatch, site, depth, steps):
        # the case analysis builds these siblings `steps` levels shallower than
        # the patch, so the scan truncates the parent's other child that many
        # levels before it compares ids; each member is witnessed
        jp16 = jacaranda_prefix(16)
        patch = jp16.subtree(site).truncate(depth)
        members = preimages_classified(patch, site).members
        assert steps == max(depth - member.sibling.depth for member in members)
        (got, got_counts), (want, want_counts) = self._both(
            monkeypatch, crosscheck, patch, jp16, site
        )
        assert _fields(*got) == _fields(*want) and got_counts == want_counts
        assert got[0].ok and got[1] == []

    def test_sweep_with_lines_far_below_patch(self, monkeypatch):
        # at max depth 6 the only sliced rows are m = 5 (line 3); here m = 9
        # slices line 7, whose first sites need depth-8 parent classes
        jp = jacaranda_prefix(16)
        (got, got_counts), (want, want_counts) = self._both(monkeypatch, crosscheck_sweep, jp, 4)
        assert _fields(got[0]) == _fields(want[0]) and got[1] == want[1] == 226
        assert got_counts == want_counts

    def test_single_crosschecks(self, monkeypatch, jp):
        absent = list(jp.subtree("aabb").truncate(6).levels)
        absent[-1] = ("1" if absent[-1][0] == "0" else "0") + absent[-1][1:]
        absent = Patch(tuple(absent))
        assert jp.locate(absent) is None
        runs = [
            (fixed_point_prefix(BBAB, root, depth), None, constant.members)
            for root, constant in ((0, JAC_PREIMAGES), (1, JAC_PRIME_PREIMAGES))
            for depth in (6, 4)
        ]
        runs.append((absent, None, None))
        for site, depth in (("aabb", 6), ("ba", 4), ("bab", 4), ("a" * 9, 2), ("b", 3)):
            patch = jp.subtree(site).truncate(depth)
            runs += [(patch, site, None), (patch, None, None)]
        for patch, site, primary in runs:
            (got, got_counts), (want, want_counts) = self._both(
                monkeypatch, crosscheck, patch, jp, site, primary
            )
            assert _fields(*got) == _fields(*want) and got_counts == want_counts

    def test_mismatch_addresses(self):
        # real prefixes never mismatch, so stand each subtree id for another
        # patch of the same depth: the actual parents then miss the cases
        jp = jacaranda_prefix(10)
        mismatched = 0
        for d in (2, 3):
            reps = subpatch_representatives(jp, d)
            for cid in reps:
                for other in reps.values():
                    if other is reps[cid]:
                        continue
                    results = []
                    for scan in (preimages._check_occurrences, _check_occurrences_per_site):
                        try:
                            report, checked, matched = scan(jp, d, {cid: other})
                        except SubstreetutionError as exc:
                            results.append((type(exc), str(exc)))
                        else:
                            results.append((_fields(report), matched, checked))
                    assert results[0] == results[1], (d, cid, other.levels)
                    if len(results[0]) == 3:
                        mismatched += len(results[0][0][2])
        assert mismatched >= 10
