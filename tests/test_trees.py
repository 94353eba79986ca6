import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substreetution.errors import AddressTooDeep, BadPatchFormat, DepthMismatch
from substreetution.jacaranda import jacaranda_prefix, jprime_prefix
from substreetution.trees import (
    EQUAL_TO_DEPTH,
    Patch,
    addr_index,
    distance,
    distinct_subpatches,
    dump_patch,
    first_sites,
    index_addr,
    parse_patch,
    random_patch,
    subpatch_representatives,
)
from fractions import Fraction


def patch(*rows):
    return Patch(tuple(rows))


def _from_levels(rows):
    """A patch from rows of integer colors, validated by `Patch(...)`."""
    return Patch(tuple("".join(str(c) for c in row) for row in rows))


def patches(max_depth):
    """Random patches of depth 0..max_depth, one bit string per generation."""
    return st.integers(0, max_depth).flatmap(
        lambda d: st.tuples(
            *(st.text("01", min_size=1 << l, max_size=1 << l) for l in range(d + 1))
        ).map(Patch)
    )


class TestAddressing:
    def test_index_roundtrip(self):
        for length in range(6):
            for i in range(1 << length):
                assert addr_index(index_addr(i, length)) == i

    def test_lexicographic_rank(self):
        assert addr_index("") == 0
        assert addr_index("ab") == 1
        assert addr_index("ba") == 2


class TestPatchBasics:
    def test_levels_validated(self):
        with pytest.raises(BadPatchFormat):
            patch("0", "1")
        with pytest.raises(BadPatchFormat):
            patch("0", "1x")
        with pytest.raises(BadPatchFormat):
            Patch(())

    def test_every_constructor_rejects_bad_colors(self):
        q = patch("0", "10")
        bad = [
            lambda: patch("0", "10", "0x10"),  # fault in the middle of a row
            lambda: patch("0", "1\u0660"),  # a non-ASCII digit zero
            lambda: patch("0", "10", "0\uff1110"),  # a fullwidth digit one
            lambda: Patch.leaf(2),
            lambda: Patch.combine(2, q, q),
            lambda: _from_levels([[0], [1, 2]]),
            lambda: parse_patch("depth 1\n0\n1-\n"),
        ]
        for make in bad:
            with pytest.raises(BadPatchFormat, match="non-binary"):
                make()

    def test_get_at_sites(self):
        j = jacaranda_prefix(4)
        assert j.get("ba") == 1  # the single 1 of generation 2
        assert j.get("") == 0
        assert j.get("aaaa") == 0

    def test_get_too_deep(self):
        with pytest.raises(AddressTooDeep):
            patch("0").get("a")

    def test_subtree_child_extraction(self):
        p = patch("0", "10")
        assert p.subtree("a") == patch("1")
        assert p.subtree("") == p

    def test_slices_outside_the_patch_raise(self):
        # window and truncate trust their rows, so their arguments are checked
        p = jacaranda_prefix(3)
        for level, index, n in ((0, 1, 1), (2, 4, 0), (2, -1, 1), (-1, 0, 1), (1, 0, -1), (2, 0, 2)):
            with pytest.raises(AddressTooDeep):
                p.window(level, index, n)
        for depth in (-1, -4, -9):
            with pytest.raises(BadPatchFormat):
                p.truncate(depth)
        for n in (-1, 4):
            with pytest.raises(AddressTooDeep):
                p.subtree_ids(n)
        assert p.window(3, 7, 0) == patch("0") and p.truncate(0) == patch("0")

    def test_subtree_of_prefix(self):
        j = jacaranda_prefix(3)
        assert j.subtree("b").levels == ("0", "10", "1010")

    def test_subtree_composition(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_patch(6, rng)
            w1 = "".join(rng.choice("ab") for _ in range(rng.randrange(3)))
            w2 = "".join(rng.choice("ab") for _ in range(rng.randrange(3)))
            assert p.subtree(w1).subtree(w2) == p.subtree(w1 + w2)

    def test_line(self):
        j = jacaranda_prefix(2)
        assert j.line(0) == "0"
        assert j.line(1) == "10"
        assert j.line(2) == "0010"
        with pytest.raises(AddressTooDeep):
            j.line(3)


class TestDistance:
    def test_root_mismatch(self):
        d = 6
        assert distance(jacaranda_prefix(d), jprime_prefix(d)) == 1

    def test_equal(self):
        p = patch("0", "10")
        assert distance(p, p) is EQUAL_TO_DEPTH

    def test_first_level(self):
        assert distance(patch("0", "10"), patch("0", "11")) == Fraction(1, 2)

    def test_depth_mismatch(self):
        with pytest.raises(DepthMismatch):
            distance(patch("0"), patch("0", "10"))

    def test_ultrametric(self):
        rng = random.Random(11)
        for _ in range(60):
            p, q, r = (random_patch(4, rng) for _ in range(3))
            dv = {
                k: (0 if v is EQUAL_TO_DEPTH else v)
                for k, v in {
                    "pq": distance(p, q),
                    "qr": distance(q, r),
                    "pr": distance(p, r),
                }.items()
            }
            assert dv["pr"] <= max(dv["pq"], dv["qr"])


class TestCanonicalIds:
    def test_equality_iff_equal_structure(self):
        rng = random.Random(3)
        for _ in range(40):
            p = random_patch(4, rng)
            q = Patch(p.levels)
            assert p.locate(q) == p.subtree_ids(4)[0][0] == q.locate(p)
            rows = list(p.levels)
            l = rng.randrange(len(rows))
            i = rng.randrange(len(rows[l]))
            flipped = "1" if rows[l][i] == "0" else "0"
            rows[l] = rows[l][:i] + flipped + rows[l][i + 1 :]
            assert p.locate(Patch(tuple(rows))) is None

    def test_id_tables_match_windows(self):
        j = jacaranda_prefix(6)
        table = j.subtree_ids(2)
        for m in range(len(table)):
            for i in range(1 << m):
                assert table[m][i] == j.locate(j.window(m, i, 2))

    @settings(deadline=None)
    @given(p=patches(6), data=st.data())
    def test_ids_equal_iff_windows_equal(self, p, data):
        n = data.draw(st.integers(0, p.depth))
        entries = {
            (cid, p.window(m, i, n).levels)
            for m, row in enumerate(p.subtree_ids(n))
            for i, cid in enumerate(row)
        }
        ids = {cid for cid, _ in entries}
        windows = {w for _, w in entries}
        # a bijection between ids and windows: equal ids exactly for equal windows
        assert len(entries) == len(ids) == len(windows)


def setdefault_ids(p, n):
    """Tables for depths 0..n and the node table, numbered by plain setdefault."""
    nodes, tables = {}, []
    for k in range(n + 1):
        below = tables[-1][1:] if k else None
        tables.append([
            [
                nodes.setdefault(
                    (c, below[m][2 * i], below[m][2 * i + 1]) if k else (c, 0, 0),
                    len(nodes) + 1,
                )
                for i, c in enumerate(row)
            ]
            for m, row in enumerate(p.levels[: p.depth - k + 1])
        ])
    return tables, nodes


class TestIdNumbering:
    """Ids count from 1 in first-seen order, as a setdefault table numbers them."""

    def check(self, p, n):
        fresh = Patch(p.levels)  # no tables yet
        tables, nodes = setdefault_ids(fresh, n)
        assert fresh.subtree_ids(n) == tables[n]
        assert list(fresh.__dict__["_nodes"].items()) == list(nodes.items())
        assert [fresh.subtree_ids(k) for k in range(n + 1)] == tables

    @settings(deadline=None)
    @given(p=patches(8), data=st.data())
    def test_random_patches(self, p, data):
        self.check(p, data.draw(st.integers(0, p.depth)))

    def test_fixed_tree_prefix(self):
        for n in (0, 3, 8, 12):
            self.check(jacaranda_prefix(12), n)

    def test_locate_never_adds_nodes(self):
        # locate reads the node table with .get: a lookup with [] would give
        # every missing (color, left-id, right-id) key the next id
        rng = random.Random(5)
        for p in [Patch(jacaranda_prefix(12).levels)] + [random_patch(6, rng) for _ in range(20)]:
            p.subtree_ids(p.depth)
            nodes = p.__dict__["_nodes"]
            size = len(nodes)
            a = p.window(1, 1, 4)
            flip = a.levels[:-1] + (("1" if a.levels[-1][0] == "0" else "0") + a.levels[-1][1:],)
            absent = Patch(tuple("1" * (1 << l) for l in range(5)))
            located = [p.locate(q) for q in (a, Patch(flip), absent)]
            assert located[0] == p.subtree_ids(4)[1][1] and len(nodes) == size
            if p.depth == 12:
                assert located[1:] == [None, None]


def first_sites_by_scan(p, n):
    """Oracle: every site in order, keeping the first of each id."""
    first = {}
    for m, row in enumerate(p.subtree_ids(n)):
        for i, cid in enumerate(row):
            first.setdefault(cid, (m, i))
    return first


class TestFirstSites:
    def check(self, p):
        for n in range(p.depth + 1):
            assert list(first_sites(p, n).items()) == list(first_sites_by_scan(p, n).items())

    def test_random_patches(self):
        rng = random.Random(8)
        for depth in (0, 1, 5, 9, 11):
            self.check(random_patch(depth, rng))

    def test_fixed_tree_prefix(self):
        self.check(jacaranda_prefix(12))


class TestDistinctSubpatches:
    def test_jacaranda_depth1(self):
        ids = distinct_subpatches(jacaranda_prefix(6), 1)
        reps = subpatch_representatives(jacaranda_prefix(6), 1)
        shapes = {reps[i].levels for i in ids}
        assert shapes == {
            ("0", "10"),
            ("1", "10"),
            ("1", "00"),
            ("0", "00"),
        }

    def test_all_zero(self):
        zero = Patch(tuple("0" * (1 << l) for l in range(4)))
        assert len(distinct_subpatches(zero, 1)) == 1

    def test_contains_root_subtree(self):
        j = jacaranda_prefix(6)
        assert j.locate(j.truncate(2)) in distinct_subpatches(j, 2)

    def test_monotone_and_bounded(self):
        for n in (0, 1, 2):
            counts = [
                len(distinct_subpatches(jacaranda_prefix(d), n)) for d in range(n + 1, 9)
            ]
            assert counts == sorted(counts)
            assert counts[-1] <= 1 << ((1 << (n + 1)) - 1)


class TestTextFormat:
    def test_roundtrip(self):
        j = jacaranda_prefix(5)
        assert parse_patch(dump_patch(j)) == j

    @settings(deadline=None)
    @given(p=patches(8))
    def test_roundtrip_property(self, p):
        assert parse_patch(dump_patch(p)) == p

    def test_comments_and_blanks(self):
        text = "# a patch\ndepth 1\n\n0  # root\n10\n"
        assert parse_patch(text) == patch("0", "10")

    def test_bad_header(self):
        with pytest.raises(BadPatchFormat):
            parse_patch("deep 1\n0\n10\n")
        with pytest.raises(BadPatchFormat):
            parse_patch("depth 2\n0\n10\n")
