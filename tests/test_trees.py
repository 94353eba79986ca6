import random
from collections import defaultdict
from itertools import chain, count, product, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substreetution.engine import (
    ABBA, BBAB, THUE_MORSE, RenormReport, Substreetution, fixed_point_prefix,
)
from substreetution.errors import AddressTooDeep, BadPatchFormat, DepthMismatch
from substreetution.jacaranda import TypeReport, jacaranda_prefix
from substreetution.measures import MeasureResult
from substreetution.preimages import CrosscheckReport, PreimageDescriptor, PreimageSet
from substreetution.render import DiskIsometry, RenderConfig
from substreetution.systems import OrbitGraph, nomeasure_tree
from substreetution.trees import (
    EQUAL_TO_DEPTH,
    Patch,
    addr_index,
    classes,
    distance,
    distinct_subpatches,
    dump_patch,
    index_addr,
    parse_patch,
    random_patch,
    subpatch_representatives,
    truncations,
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


def block_patches(max_depth):
    """Low-complexity patches of depth 0..max_depth: level l is a random block of
    1, 2, 4 or 8 colors (at most 2^l) repeated, so each depth has few classes."""

    def level(l):
        return st.sampled_from([1, 2, 4, 8]).flatmap(
            lambda n: st.text("01", min_size=min(n, 1 << l), max_size=min(n, 1 << l))
        ).map(lambda block: block * ((1 << l) // len(block)))

    return st.integers(0, max_depth).flatmap(
        lambda d: st.tuples(*map(level, range(d + 1))).map(Patch)
    )


def last_level_patch(depth, sizes):
    """A depth-`depth` patch of 0s but its last level, which holds sizes[j - 1]
    distinct aligned blocks of 2^j colors, the 0 block among them, for j = 1, 2, ...:
    so depth j has sizes[j - 1] classes.  The blocks of 2^j colors are the first
    sizes[j - 1] pairs of those of 2^(j-1) in product order, so each of those is
    the b-half of one while the sizes do not shrink."""
    blocks = ["0", "1"]
    for n in sizes:
        blocks = [a + b for a in blocks for b in blocks][:n]
    last = "".join(blocks).ljust(1 << depth, "0")
    return Patch(tuple("0" * (1 << l) for l in range(depth)) + (last,))


def coded_depths(p):
    """The depths whose id rows are all `bytes`, on a fresh copy of p built to its depth."""
    p = Patch(p.levels)
    p.subtree_ids(p.depth)
    return [k for k, t in enumerate(p.__dict__["_idtables"]) if {type(row) for row in t} == {bytes}]


class TestAddressing:
    def test_index_roundtrip(self):
        for length in range(6):
            for i in range(1 << length):
                assert addr_index(index_addr(i, length)) == i

    def test_lexicographic_rank(self):
        assert addr_index("") == 0
        assert addr_index("ab") == 1
        assert addr_index("ba") == 2
        words = ["".join(w) for w in product("ab", repeat=5)]
        assert [index_addr(i, 5) for i in range(32)] == words
        assert list(map(addr_index, words)) == list(range(32))


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
        assert distance(jacaranda_prefix(d), fixed_point_prefix(BBAB, 1, d)) == 1

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
        assert list(map(list, fresh.subtree_ids(n))) == tables[n]
        assert list(fresh.__dict__["_nodes"].items()) == list(nodes.items())
        assert [list(map(list, fresh.subtree_ids(k))) for k in range(n + 1)] == tables

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


def per_node_ids(p):
    """Oracle: every id table built one node-table step per site, the leaf
    level too (its keys have children 0); returns the tables and node table."""
    nodes = defaultdict(count(1).__next__)
    tables = []
    for k in range(p.depth + 1):
        below = map(iter, tables[-1][1:]) if k else repeat(repeat(0))
        tables.append([
            list(map(nodes.__getitem__, zip(row, it, it)))
            for row, it in zip(p.levels[: p.depth - k + 1], below)
        ])
        if not k:
            leaf_nodes = list(nodes.items())
    return tables, leaf_nodes, list(nodes.items())


def one_color_patches(depth):
    """All 0, all 1, and a root of the other color over one-color levels."""
    for root, rest in (("0", "0"), ("1", "1"), ("1", "0"), ("0", "1")):
        yield Patch((root,) + tuple(rest * (1 << l) for l in range(1, depth + 1)))


class TestLeafLevel:
    """Byte-coded depths are built for all sites at once, the others a site at a
    time; the per-node build is the oracle for both."""

    def check(self, p):
        tables, leaf_nodes, nodes = per_node_ids(p)
        fresh = Patch(p.levels)
        assert list(map(list, fresh.subtree_ids(0))) == tables[0]
        assert list(fresh.__dict__["_nodes"].items()) == leaf_nodes
        assert [list(map(list, fresh.subtree_ids(k))) for k in range(p.depth + 1)] == tables
        assert list(fresh.__dict__["_nodes"].items()) == nodes

    @settings(deadline=None)
    @given(p=patches(8))
    def test_random_patches(self, p):
        self.check(p)

    def test_one_color_patches(self):
        for depth in range(7):
            for p in one_color_patches(depth):
                self.check(p)
                if p.levels[0] == p.levels[-1][0]:  # all one color: one code per depth
                    assert {len(distinct_subpatches(p, n)) for n in range(depth + 1)} == {1}

    def test_depth0_patches(self):
        for c in "01":
            self.check(Patch((c,)))
            assert list(map(list, Patch((c,)).subtree_ids(0))) == [[1]]

    def test_deep_rows(self):
        # generations past 8, which the generated patches do not reach, at every
        # depth: coded up to 4 (BBAB, Thue-Morse), at every depth (ABBA, the
        # no-measure tree) and up to 2 (the random patch)
        for p in (jacaranda_prefix(16), nomeasure_tree(1, 14), fixed_point_prefix(THUE_MORSE, 0, 14),
                  fixed_point_prefix(ABBA, 0, 14), random_patch(12, random.Random(33))):
            self.check(p)

    @settings(deadline=None)
    @given(p=block_patches(10))
    def test_low_complexity_patches(self, p):
        # few classes per depth, so the byte-coded path reaches deep depths
        self.check(p)

    def test_coded_depths(self):
        # a silent fall back to lists would only show as a slower benchmark
        assert coded_depths(fixed_point_prefix(BBAB, 0, 18)) == [0, 1, 2, 3, 4]
        assert coded_depths(nomeasure_tree(0, 18)) == list(range(19))
        assert coded_depths(random_patch(16, random.Random(1))) == [0, 1, 2]

    def test_id_bound(self):
        # 55 or 56 ids before depth 7 and 10 classes at depth 6: depth 7 has 2 * 10^2
        # possible codes, so the ids it can create reach 255 (coded) or 256 (not)
        for sizes, last in (((4, 9, 10, 10, 10, 10), 255), ((4, 10, 10, 10, 10, 10), 256)):
            p = last_level_patch(10, sizes)
            self.check(p)
            p.subtree_ids(10)
            ends = p.__dict__["_ends"]
            assert ends[7] + 2 * (ends[7] - ends[6]) ** 2 == last
            # depth 8 would fit on its own, but stays a list once depth 7 is one
            assert ends[8] + 2 * (ends[8] - ends[7]) ** 2 <= 255
            assert coded_depths(p) == (list(range(11)) if last == 255 else list(range(7)))

    def test_no_coding_after_a_fall_back(self):
        # 16 classes at depth 2 (2 * 16^2 codes), so depth 3 falls back; depth 5
        # would fit on its own (2 + 4 + 16 + 16 + 9 ids and 2 * 9^2 codes), but stays a list
        p = last_level_patch(8, (4, 16, 16))
        self.check(p)
        assert [len(distinct_subpatches(p, n)) for n in range(6)] == [2, 4, 16, 16, 9, 5]
        assert coded_depths(p) == [0, 1, 2]

    def test_every_depth2_code(self):
        # generation 7 holds each of the 128 depth-2 trees once, tree t at rank t;
        # two more generations make the depth-2 codes long enough to be searched
        # for one code at a time
        trees = [format(t, "07b") for t in range(128)]
        rows = ["0" * (1 << l) for l in range(7)]
        rows += ["".join(t[0] for t in trees), "".join(t[1:3] for t in trees),
                 "".join(t[3:] for t in trees), "0" * (1 << 10), "0" * (1 << 11)]
        p = Patch(tuple(rows))
        assert len(distinct_subpatches(p, 2)) == 128
        self.check(p)

    @settings(deadline=None)
    @given(p=st.one_of(patches(8), st.sampled_from(list(one_color_patches(5)))), data=st.data())
    def test_distinct_is_the_depth_id_range(self, p, data):
        p = Patch(p.levels)  # no tables yet
        d = data.draw(st.integers(0, p.depth))
        m = data.draw(st.integers(0, p.depth - d))
        assert p.locate(p.window(m, data.draw(st.integers(0, (1 << m) - 1)), d)) is not None
        for n in data.draw(st.permutations(range(p.depth + 1))):
            assert distinct_subpatches(p, n) == frozenset(chain.from_iterable(p.subtree_ids(n)))


class TestClasses:
    def check(self, p, scan):
        for n in range(p.depth + 1):
            first, keys, up = scan(p, n), classes(p, n), truncations(p, n)
            reps = subpatch_representatives(p, n)
            assert list(keys) == list(first)  # ids in scan order
            for cid, (m, i) in first.items():
                # the key at the first site, its window decoded, its truncation's id
                assert reps[cid] == p.window(m, i, n)
                if n == 0:
                    assert (keys[cid], up[cid]) == ((p.levels[m][i], 0, 0), 0)
                    continue
                below = p.subtree_ids(n - 1)
                assert keys[cid] == (p.levels[m][i], *below[m + 1][2 * i : 2 * i + 2])
                assert up[cid] == below[m][i]

    def test_random_patches(self, first_sites_by_scan):
        rng = random.Random(8)
        for depth in (0, 1, 5, 9, 11):
            self.check(random_patch(depth, rng), first_sites_by_scan)

    def test_one_color_patches(self, first_sites_by_scan):
        for depth in range(5):
            for p in one_color_patches(depth):
                self.check(p, first_sites_by_scan)

    def test_fixed_tree_prefix(self, first_sites_by_scan):
        self.check(jacaranda_prefix(12), first_sites_by_scan)


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


# -- the record contract ------------------------------------------------------

_DESC = PreimageDescriptor(0, "a", "J", "jac")

# each record class with two argument tuples that differ in one field
RECORDS = [
    (Patch, (("0", "01"),), (("0", "11"),)),
    (Substreetution, ((0, 1, 0), (1, 0, 1), "BBAB", "bbab"), ((0, 1, 0), (1, 0, 1), "BBAB", None)),
    (RenormReport, (True, 3, None), (True, 4, None)),
    (TypeReport, ("odd", frozenset({1}), 1, False, 4), ("odd", frozenset({1}), None, False, 4)),
    (MeasureResult, (False, None, ("s0",)), (False, None, ())),
    (PreimageDescriptor, (0, "a", "J", "jac"), (0, "b", "J", "jac")),
    (PreimageSet, ((_DESC,), "exact"), ((_DESC,), "lower-bound")),
    (CrosscheckReport, (True, 2, [], 0), (True, 2, [], 1)),
    (DiskIsometry, (1 + 0j, 0.5j), (1 + 0j, 0.25j)),
    (RenderConfig, (256, 2), (256, 3)),
    (OrbitGraph, (("s0",), {"s0": "s0"}, {"s0": "s0"}), (("s1",), {"s1": "s1"}, {"s1": "s1"})),
]


@pytest.mark.parametrize("cls, args, other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, args, other):
    """Records compare, hash and print by their fields, and refuse assignment."""
    names = list(cls.__annotations__)
    x, y = cls(*args), cls(**dict(zip(names, args)))
    fields = tuple(getattr(x, n) for n in names)
    assert x == y and x is not y
    assert x != cls(*other)
    # == holds only within a class
    assert x.__eq__(fields) is NotImplemented
    stranger = next(c(*a) for c, a, _ in RECORDS if c is not cls)
    assert x.__eq__(stranger) is NotImplemented and x != stranger
    assert repr(x) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, fields)) + ")"
    try:
        want = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(y, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == y
