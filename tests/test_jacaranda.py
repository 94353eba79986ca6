import math
import random

import pytest

from substreetution.engine import ABBA, BBAB, apply, fixed_point_prefix
from substreetution.errors import NotInImage, Shallow, SubstreetutionError, TypeUndetermined
from substreetution.jacaranda import (
    CASE_DOUBLED_2TYPE_ROOT1,
    CASE_DOUBLED_DEEP,
    CASE_MIXED_ROOT0,
    JAC,
    JAC_PRIME,
    brother,
    classify_even,
    concrete,
    detect_type,
    jacaranda_prefix,
    jprime_prefix,
    recurrence_probe,
    unsub_pow,
    zero_at_even_within,
)
from substreetution.trees import Patch, random_patch
from substreetution.words import chi_pow, v2


class TestPrefixes:
    def test_depths_0_1(self):
        assert jacaranda_prefix(0).levels == ("0",)
        assert jprime_prefix(0).levels == ("1",)
        assert jacaranda_prefix(1).levels == ("0", "10")
        assert jprime_prefix(1).levels == ("1", "10")

    def test_differ_exactly_at_root(self):
        j, jp = jacaranda_prefix(16), jprime_prefix(16)
        assert [l for l in range(17) if j.line(l) != jp.line(l)] == [0]

    def test_family_block_law(self):
        # aligned 16-windows on 4N lines: all zero or the doubled block
        j = jacaranda_prefix(12)
        block = chi_pow(BBAB, "10", 2)
        for l in range(4, 13, 4):
            row = j.line(l)
            for i in range(0, len(row), 16):
                window = row[i : i + 16]
                assert window in ("0" * 16, block)


class TestDetectType:
    def test_fixed_tree_consistency(self):
        rep = detect_type(jacaranda_prefix(14))
        assert rep.parity == "even" and rep.inf_consistent and rep.determined is None
        assert "inf-consistent" in rep.serialize()

    def test_odd_site(self):
        rep = detect_type(jacaranda_prefix(14).subtree("a"))
        assert rep.parity == "odd" and rep.candidates == {0}

    def test_even_site_determined(self):
        rep = detect_type(jacaranda_prefix(14).subtree("ba"))
        assert rep.parity == "even" and rep.determined == 1

    def test_matches_site_valuation(self):
        j = jacaranda_prefix(14)
        rng = random.Random(12)
        for n in range(1, 9):
            for _ in range(6):
                site = "".join(rng.choice("ab") for _ in range(n))
                sub = j.subtree(site)
                rep = detect_type(sub)
                u = v2(n)
                if u == 0:
                    assert rep.parity in ("odd", "undetermined")
                    assert 0 in rep.candidates
                else:
                    assert rep.parity == "even"
                    # the true class is never excluded, and is pinned once a
                    # witnessing line is in view (unless the fixed-tree prefix
                    # still shadows it)
                    assert rep.determined in (None, u)
                    if (1 << (u + 1)) <= sub.depth:
                        assert u in rep.candidates or rep.inf_consistent

    def test_shallow(self):
        with pytest.raises(Shallow):
            detect_type(Patch(("0", "10")))


class TestUnsubPow:
    def test_fixed_tree(self):
        assert unsub_pow(jacaranda_prefix(7), 1) == jacaranda_prefix(3)

    def test_double_roundtrip(self):
        rng = random.Random(13)
        q = random_patch(2, rng)
        assert unsub_pow(apply(BBAB, apply(BBAB, q)), 2) == q

    def test_odd_lines_fail_image_check(self):
        with pytest.raises(NotInImage):
            unsub_pow(jacaranda_prefix(9).subtree("a"), 1)


class TestBrother:
    def test_odd_case_is_right_double(self):
        j = jacaranda_prefix(9)
        b = j.subtree("b")  # odd-class, root 0
        a = brother(b, 0)
        right = b.subtree("b")
        assert a == Patch.combine(1, right, right)

    def test_reproduces_actual_siblings(self):
        j = jacaranda_prefix(12)
        for site in ("", "b", "ba", "aab", "bbb"):
            if j.get(site + "a") != 1 or j.get(site + "b") != 0:
                continue
            u = v2(len(site) + 1)
            pred = brother(j.subtree(site + "b"), u)
            actual = j.subtree(site + "a")
            d = min(pred.depth, actual.depth)
            assert pred.truncate(d) == actual.truncate(d)

    def test_requires_root_zero(self):
        with pytest.raises(ValueError):
            brother(jprime_prefix(4), 1)

    def test_fixed_tree_is_undetermined(self):
        with pytest.raises(TypeUndetermined):
            brother(jacaranda_prefix(8))

    def test_too_shallow(self):
        with pytest.raises(Shallow):
            brother(jacaranda_prefix(2), 2)


class TestClassifyEven:
    def test_fixed_trees(self):
        assert classify_even(JAC).case == CASE_MIXED_ROOT0
        assert classify_even(JAC).v == math.inf
        assert classify_even(JAC_PRIME).v == math.inf

    def test_mixed_finite(self):
        sub = jacaranda_prefix(14).subtree("aa")  # root 0, starts 0(1,0)
        got = classify_even(concrete(sub))
        assert got.case == CASE_MIXED_ROOT0 and got.v == 1

    def test_doubled_root1(self):
        sub = jacaranda_prefix(14).subtree("ba")
        got = classify_even(concrete(sub))
        assert got.case == CASE_DOUBLED_2TYPE_ROOT1 and got.v == 1

    def test_doubled_deep_over_zero_block(self):
        # parents of all-zero grandchildren blocks carry equal-children cores
        j = jacaranda_prefix(14)
        block_site = None
        row = j.line(4)
        for i in range(0, len(row), 4):
            if row[i : i + 4] == "0000":
                idx = i // 4
                site = "".join("b" if (idx >> k) & 1 else "a" for k in reversed(range(2)))
                block_site = site
                break
        assert block_site is not None
        sub = j.subtree(block_site)
        got = classify_even(concrete(sub))
        assert got.case in (CASE_DOUBLED_DEEP, CASE_DOUBLED_2TYPE_ROOT1)

    def test_side_detection(self):
        j = jacaranda_prefix(14)
        sub = j.subtree("aa")
        got = classify_even(concrete(sub), side=sub.subtree("b"))
        assert got.v == 1

    def test_side_class_matches_site(self):
        # a branch must not pin a class its lines leave open: whenever the
        # side-based classification returns, v is the valuation of the site
        j = jacaranda_prefix(14)
        returned = 0
        for d in range(2, 10):
            for m in range(2, j.depth - d + 1, 2):
                for i in range(1 << m):
                    p = j.window(m, i, d)
                    for letter in "ab":
                        try:
                            got = classify_even(concrete(p), side=p.subtree(letter))
                        except SubstreetutionError:
                            continue
                        returned += 1
                        assert got.v == v2(m), (m, i, d, letter)
        assert returned > 0


class TestProbes:
    def test_zero_window_holds_at_ten(self):
        ok, minimal = zero_at_even_within(jacaranda_prefix(14), 10)
        assert ok and minimal <= 10

    def test_single_step_fails(self):
        ok, _ = zero_at_even_within(jacaranda_prefix(14), 1)
        assert not ok

    def test_all_ones_never(self):
        ones = Patch(tuple("1" * (1 << l) for l in range(6)))
        ok, _ = zero_at_even_within(ones, 5)
        assert not ok

    def test_recurrence_on_fixed_tree(self):
        res = recurrence_probe(jacaranda_prefix(14), 0)
        assert res.found and res.window <= 10
        res1 = recurrence_probe(jacaranda_prefix(14), 1)
        assert res1.found

    def test_recurrence_not_found_for_escaping_branch(self):
        prefix = fixed_point_prefix(ABBA, 0, 14)
        assert not recurrence_probe(prefix, 1).found
