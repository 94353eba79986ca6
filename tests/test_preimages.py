import os
import subprocess
import sys

import pytest

import substreetution
from substreetution.errors import (
    Inconsistent,
    Shallow,
    SubstreetutionError,
    TypeUndetermined,
    Undetermined,
)
from substreetution.jacaranda import JAC, JAC_PRIME, concrete, jacaranda_prefix, jprime_prefix
from substreetution.preimages import (
    brute_parent_patches,
    crosscheck,
    crosscheck_sweep,
    p_n,
    preimages_bruteforce,
    preimages_classified,
)
from substreetution.trees import Patch, index_addr, subpatch_representatives


@pytest.fixture(scope="module")
def jp():
    return jacaranda_prefix(14)


class TestClassifiedFixedTrees:
    def test_root0_set(self):
        got = preimages_classified(JAC)
        assert got.completeness == "exact" and len(got) == 3
        shapes = {(d.root, d.side, d.sibling_kind) for d in got.members}
        assert shapes == {(0, "a", "J"), (1, "a", "J"), (0, "b", "J'")}

    def test_root1_set(self):
        got = preimages_classified(JAC_PRIME)
        assert len(got) == 1
        (d,) = got.members
        assert (d.root, d.side, d.sibling_kind) == (0, "a", "J")

    def test_serialization(self):
        text = preimages_classified(JAC).serialize()
        assert "completeness=exact" in text and "sibling=J'" in text


_QUERY = """
import random
from substreetution.jacaranda import concrete, jacaranda_prefix
from substreetution.preimages import preimages_bruteforce, preimages_classified
from substreetution.trees import random_patch

rng = random.Random(7)
for _ in range({warm}):
    random_patch(6, rng).canonical_id
jp = jacaranda_prefix(14)
patch = jp.subtree("aabb").truncate(6)
print(preimages_classified(concrete(patch, "aabb"), jp).serialize(), end="")
print(preimages_bruteforce(patch, jp).serialize(), end="")
"""


def test_serialization_ignores_call_history():
    # siblings print as content, not as positions in the process-wide intern table
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
        for parent in brute_parent_patches(a, jp):
            assert a in (parent.subtree("a"), parent.subtree("b"))

    def test_lower_bound_flag(self, jp):
        assert preimages_bruteforce(jp.truncate(2), jp).completeness == "lower-bound"

    def test_depth_guard(self, jp):
        with pytest.raises(Shallow):
            preimages_bruteforce(jp, jp)


class TestIteratedCounts:
    def test_distance_zero(self, jp):
        assert p_n(jp.truncate(2), 0, jp) == 1

    def test_deep_patches_within_bound(self, jp):
        reps = subpatch_representatives(jp, 8)
        for patch in reps.values():
            for n in (1, 2, 3):
                assert p_n(patch, n, jp) <= 3**n

    def test_shallow_truncations_alias_above_bound(self, jp):
        # several closure trees share shallow truncations, so the scan unions
        # their parent sets and the per-tree bound does not apply
        with pytest.raises(Inconsistent):
            p_n(jp.truncate(2), 1, jp)

    def test_chain_consistency(self, jp):
        reps = subpatch_representatives(jp, 8)
        for patch in list(reps.values())[:6]:
            parents = brute_parent_patches(patch, jp)
            assert p_n(patch, 2, jp) <= sum(p_n(q, 1, jp) for q in parents)


class TestCrosscheck:
    def test_sweep_is_clean(self, jp):
        report, checked = crosscheck_sweep(jp, 6)
        assert report.ok and not report.mismatches
        assert (report.occurrences, checked, report.undetermined_sites) == (32244, 251, 0)

    def test_single_descriptor(self, jp):
        # one occurrence per cell holding the patch below the root
        for site, depth in (("ba", 4), ("aabb", 3), ("a" * 9, 2), ("bab", 4)):
            patch = jp.subtree(site).truncate(depth)
            report = crosscheck(concrete(patch, site), jp)
            cells = sum(row.count(patch.canonical_id) for row in jp.subtree_ids(depth)[1:])
            assert report.ok and report.occurrences == cells

    def test_fixed_tree_descriptor_flags_missing_members(self, jp):
        report = crosscheck(JAC, jp, depth=4)
        assert report.ok
        # whichever members the finite scan cannot witness are flagged, never lost
        witnessed = report.occurrences - len(report.limit_only)
        assert witnessed >= 0

    def test_classified_agrees_with_provenance_free_detection(self, jp):
        site = "aabb"
        patch = jp.subtree(site)
        with_prov = preimages_classified(concrete(patch, site), jp)
        detected = preimages_classified(concrete(patch))
        assert {(d.root, d.side, d.case_tag) for d in with_prov.members} == {
            (d.root, d.side, d.case_tag) for d in detected.members
        }

    def test_provenance_free_tags_match_every_site(self, jp):
        # whenever the patch alone pins a case, every occurrence whose site
        # pins one agrees; the patch must not guess a class its lines leave open
        returned = 0
        for d in range(2, 9):
            reps = subpatch_representatives(jp, d)
            sites = {}
            for m, row in enumerate(jp.subtree_ids(d)[1:], start=1):
                for i, cid in enumerate(row):
                    sites.setdefault(cid, []).append(index_addr(i, m))
            for cid, patch in reps.items():
                try:
                    tag = preimages_classified(concrete(patch)).members[0].case_tag
                except SubstreetutionError:
                    continue
                returned += 1
                for site in sites.get(cid, ()):
                    try:
                        got = preimages_classified(concrete(patch, site), jp)
                    except Undetermined:
                        continue
                    assert got.members[0].case_tag == tag, (patch.levels, site)
        assert returned >= 10

    def test_patch_without_site_leaves_parent_class_open(self, jp):
        # occurrences of this truncation are odd1-vinf and odd1-1c, never odd1-2b
        for depth in (5, 6):
            with pytest.raises(TypeUndetermined):
                preimages_classified(concrete(jp.subtree("a").truncate(depth)))

    def test_undetermined_carries_case_union(self, jp):
        # a root-1 odd site whose discriminating line lies beyond both the
        # patch and the prefix leaves the three deep cases open
        site = "a" * 9
        patch = jp.subtree(site).truncate(4)
        assert patch.get("") == 1
        with pytest.raises(Undetermined) as exc:
            preimages_classified(concrete(patch, site), jp)
        tags = [tag for tag, _ in exc.value.cases]
        assert tags == ["odd1-1a", "odd1-1b", "odd1-1c"]
