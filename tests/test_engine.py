import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substreetution import engine
from substreetution.engine import (
    ABBA,
    BBAB,
    SLOTS,
    THUE_MORSE,
    Substreetution,
    _reader,
    _undouble,
    apply,
    double,
    fixed_point_prefix,
    parse_substreetution,
    resolve_system,
    source,
    theta,
    unsub,
    verify_renormalization,
)
from substreetution.errors import (
    BadSystemFormat,
    NotFixable,
    NotInImage,
    OddLength,
    Shallow,
)
from substreetution.jacaranda import jacaranda_prefix
from substreetution.trees import Patch, addr_index, distance, index_addr, random_patch
from substreetution.words import chi_recursive, chi_via_theta


GRAMMARS = ["".join(g) for g in itertools.product("AB", repeat=4)]
ALL_SYSTEMS = [
    Substreetution(image0, image1, grammar)
    for image0 in itertools.product((0, 1), repeat=3)
    for image1 in itertools.product((0, 1), repeat=3)
    for grammar in GRAMMARS
]
MARKED = [system for system in ALL_SYSTEMS if system.marked]


def patches(max_depth):
    """Random patches of depth 0..max_depth, one bit string per generation."""
    return st.integers(0, max_depth).flatmap(
        lambda d: st.tuples(
            *(st.text("01", min_size=1 << l, max_size=1 << l) for l in range(d + 1))
        ).map(Patch)
    )


class TestDefinition:
    def test_builtins_marked(self):
        assert BBAB.marked and THUE_MORSE.marked and ABBA.marked

    def test_fixable(self):
        assert BBAB.fixable_at(0) and BBAB.fixable_at(1)
        assert ABBA.fixable_at(0) and ABBA.fixable_at(1)

    def test_grammar_validated(self):
        with pytest.raises(BadSystemFormat):
            Substreetution((0, 1, 0), (1, 1, 0), "BBA")
        with pytest.raises(BadSystemFormat):
            Substreetution((0, 1, 0), (1, 1, 0), "BBAC")


class TestApply:
    def test_image_of_leaf(self):
        assert apply(BBAB, Patch.leaf(0)).levels == ("0", "10")
        assert apply(ABBA, Patch.leaf(0)).levels == ("0", "01")

    def test_slot_wiring(self):
        p = Patch(("0", "10"))
        assert apply(BBAB, p).levels == ("0", "10", "0010", "10101010")

    def test_output_depth(self):
        rng = random.Random(0)
        p = random_patch(3, rng)
        assert apply(BBAB, p).depth == 7

    def test_truncation_consistent(self):
        rng = random.Random(1)
        p = random_patch(4, rng)
        full = apply(BBAB, p)
        for d in range(full.depth + 1):
            assert apply(BBAB, p, d) == full.truncate(d)

    @settings(deadline=None)
    @given(p=patches(4), system=st.sampled_from([BBAB, ABBA, THUE_MORSE]))
    def test_image_read_through_source(self, p, system):
        # the image at an even site w carries the image root of the color at
        # source(w); the next generation carries that image's two children
        image = apply(system, p)
        for m in range(p.depth + 1):
            for letters in itertools.product("ab", repeat=2 * m):
                w = "".join(letters)
                root, *kids = system.image(p.get(source(system, w)))
                assert image.get(w) == root
                assert [image.get(w + e) for e in "ab"] == kids

    def test_every_system_read_through_source(self):
        # the rule of test_image_read_through_source, line by line, on all
        # 1,024 systems at depths 0..4; a site's source depends on the grammar only
        rng = random.Random(16)
        source_ranks = {}
        for grammar in GRAMMARS:
            system = Substreetution((0, 0, 0), (0, 0, 0), grammar)
            source_ranks[grammar] = [
                [addr_index(source(system, index_addr(i, 2 * m))) for i in range(1 << 2 * m)]
                for m in range(5)
            ]
        for system in ALL_SYSTEMS:
            roots = ["%d" % system.image(c)[0] for c in (0, 1)]
            kids = ["%d%d" % system.image(c)[1:] for c in (0, 1)]
            for depth in range(5):
                p = random_patch(depth, rng)
                rows = []
                for line, ranks in zip(p.levels, source_ranks[system.grammar]):
                    colors = [int(line[i]) for i in ranks]
                    rows += ["".join(roots[c] for c in colors), "".join(kids[c] for c in colors)]
                assert apply(system, p).levels == tuple(rows), (system, p)

    def test_contraction(self):
        # a first mismatch at generation n reappears first at generation 2n
        rng = random.Random(2)
        for _ in range(30):
            p = random_patch(4, rng)
            rows = list(p.levels)
            rows[4] = "".join(rng.choice("01") for _ in range(16))
            q = Patch(tuple(rows))
            if q == p:
                continue
            ip, iq = apply(BBAB, p), apply(BBAB, q)
            assert ip.truncate(7) == iq.truncate(7)
            assert ip != iq


def _double_oracle(sub, line):
    """Plain bottom-up slot recursion: each pair of a level glued by the grammar."""
    parts = list(line)
    while len(parts) > 1:
        parts = [
            "".join(a if g == "A" else b for g in sub.grammar)
            for a, b in zip(parts[0::2], parts[1::2])
        ]
    return parts[0]


class TestDouble:
    def test_matches_oracle_cold_and_warm(self):
        # every grammar, color strings of length 1..256: the plain table gives
        # the oracle's image, the root and children tables that image mapped
        # color by color; a system that ran the lines in another order first
        # gives the same
        rng = random.Random(13)
        for grammar in GRAMMARS:
            for _ in range(3):
                images = [tuple(rng.randrange(2) for _ in range(3)) for _ in (0, 1)]
                cold = Substreetution(*images, grammar)
                maps = [
                    {},
                    str.maketrans({str(c): "%d" % images[c][0] for c in (0, 1)}),
                    str.maketrans({str(c): "%d%d" % images[c][1:] for c in (0, 1)}),
                ]
                lines = ["".join(rng.choice("01") for _ in range(1 << l)) for l in range(9)]
                oracle = [_double_oracle(cold, line) for line in lines]
                expected = [[image.translate(m) for image in oracle] for m in maps]
                tables = cold._chunk_images
                assert [[double(cold, line, t) for line in lines] for t in tables] == expected
                assert [double(cold, line) for line in lines] == expected[0]
                warm = Substreetution(*images, grammar)
                for line in rng.sample(lines, len(lines)):
                    double(warm, line, rng.choice(warm._chunk_images))
                assert warm._chunk_images == tables
                assert [[double(warm, line, t) for line in lines] for t in tables] == expected

    def test_table_stays_small(self, chunk_keys):
        # three tables of exactly the 278 lines of 1 to 8 colors, none of which
        # grows under gate 12's 65,814 words, each through both definitions (the
        # gate itself calls chi_via_theta on unit words only), then apply and
        # unsub on depth 0..7 patches
        assert len(chunk_keys) == 278
        rng = random.Random(14)
        for system in (BBAB, ABBA, THUE_MORSE):
            sub = Substreetution(system.image0, system.image1, system.grammar)
            assert [set(t) for t in sub._chunk_images] == [chunk_keys] * 3
            if system is BBAB:
                for l in range(5):
                    for word in map("".join, itertools.product("01", repeat=1 << l)):
                        assert chi_via_theta(sub, word) == chi_recursive(sub, word), word
            for depth in range(8):
                p = random_patch(depth, rng)
                assert unsub(sub, apply(sub, p)) == p
            assert [set(t) for t in sub._chunk_images] == [chunk_keys] * 3


def _fixed_point_oracle(sub: Substreetution, root: int, depth: int) -> Patch:
    """Iterate the substitution from the root until two rounds agree."""
    p = Patch.leaf(root)
    while True:
        q = apply(sub, p, min(2 * p.depth + 1, depth))
        if q == p:
            return p
        p = q


class TestFixedPoints:
    def test_counted_rounds_match_compare_until_fixed(self):
        pairs = 0
        for images in itertools.product((0, 1), repeat=6):
            for grammar in map("".join, itertools.product("AB", repeat=4)):
                sub = Substreetution(images[:3], images[3:], grammar)
                for root in (0, 1):
                    if not sub.fixable_at(root):
                        continue
                    pairs += 1
                    for depth in range(7):
                        want = _fixed_point_oracle(sub, root, depth)
                        assert fixed_point_prefix(sub, root, depth) == want
        assert pairs == 1024

    def test_every_fixed_tree_digest(self):
        # all 1,024 fixable (system, root) pairs at depth 12, one digest; it was
        # computed at commit 9cb7625, whose double still glued lists of blocks
        digest = hashlib.blake2b(digest_size=16)
        for system in ALL_SYSTEMS:
            for root in (0, 1):
                if system.fixable_at(root):
                    levels = fixed_point_prefix(system, root, 12).levels
                    digest.update("\n".join(levels).encode("ascii") + b"\n\n")
        assert digest.hexdigest() == "bfa5cc31254d09b00397f013efd8fa17"

    def test_jacaranda_lines(self):
        j = fixed_point_prefix(BBAB, 0, 2)
        assert j.levels == ("0", "10", "0010")

    def test_root1(self):
        jp = fixed_point_prefix(BBAB, 1, 2)
        assert jp.levels == ("1", "10", "0010")

    def test_thue_morse_levels(self):
        # each generation is monochromatic with the sequence value
        t = fixed_point_prefix(THUE_MORSE, 0, 3)
        assert t.levels == ("0", "11", "1111", "00000000")

    def test_prefixes_nest(self):
        deep = fixed_point_prefix(BBAB, 0, 9)
        for d in range(10):
            assert fixed_point_prefix(BBAB, 0, d) == deep.truncate(d)

    def test_prefix_is_fixed(self):
        p = fixed_point_prefix(ABBA, 0, 6)
        assert apply(ABBA, p, 6) == p

    def test_not_fixable(self):
        flip = Substreetution((1, 0, 0), (0, 1, 1), "ABAB")
        with pytest.raises(NotFixable):
            fixed_point_prefix(flip, 0, 3)


class TestSourceTheta:
    def test_source_table(self):
        assert source(BBAB, "ba") == "a"
        assert source(BBAB, "aa") == source(BBAB, "ab") == source(BBAB, "bb") == "b"
        assert source(BBAB, "baab") == "ab"
        assert source(ABBA, "aa") == source(ABBA, "bb") == "a"
        assert source(ABBA, "ab") == source(ABBA, "ba") == "b"

    def test_source_odd(self):
        with pytest.raises(OddLength):
            source(BBAB, "aba")

    def test_theta_letters(self):
        assert theta(BBAB, "a") == {"ba"}
        assert theta(BBAB, "b") == {"aa", "ab", "bb"}
        assert theta(BBAB, "ab") == {"baaa", "baab", "babb"}
        assert theta(BBAB, "") == {""}

    def test_theta_inverts_source(self):
        rng = random.Random(5)
        for system in (BBAB, ABBA):
            for _ in range(20):
                w = "".join(rng.choice("ab") for _ in range(rng.randrange(4)))
                for lift in theta(system, w):
                    assert len(lift) == 2 * len(w)
                    assert source(system, lift) == w

    def test_source_blockwise(self):
        rng = random.Random(6)
        for _ in range(20):
            p = "".join(rng.choice("ab") for _ in range(2 * rng.randrange(4)))
            q = "".join(rng.choice("ab") for _ in range(2 * rng.randrange(4)))
            assert source(BBAB, p + q) == source(BBAB, p) + source(BBAB, q)

    def test_source_of_sites_in_rank_order(self):
        # verify_renormalization reads the sources of a generation off the
        # product of the slots' source letters; source() is the definition
        for grammar in GRAMMARS:
            system = Substreetution(BBAB.image0, BBAB.image1, grammar)
            letters = [system.source_letter(slot) for slot in SLOTS]
            for n in (0, 2, 4, 6, 8):
                sites = map("".join, itertools.product("ab", repeat=n))
                assert list(map("".join, itertools.product(letters, repeat=n // 2))) == [
                    source(system, w) for w in sites
                ]

    def test_theta_missing_letter_warns(self):
        allb = Substreetution((0, 1, 0), (1, 1, 0), "BBBB")
        with pytest.warns(UserWarning):
            assert theta(allb, "a") == frozenset()


class TestRenormalization:
    def test_on_fixed_tree(self):
        j = fixed_point_prefix(BBAB, 0, 9)
        assert verify_renormalization(BBAB, j, 4).ok

    def test_on_abba_fixed_tree(self):
        p = fixed_point_prefix(ABBA, 0, 9)
        assert verify_renormalization(ABBA, p, 4).ok

    def test_on_arbitrary_patches(self):
        rng = random.Random(8)
        for _ in range(5):
            assert verify_renormalization(BBAB, random_patch(4, rng), 2).ok

    @settings(deadline=None)
    @given(
        p=patches(6),
        system=st.builds(
            Substreetution,
            st.tuples(*[st.integers(0, 1)] * 3),
            st.tuples(*[st.integers(0, 1)] * 3),
            st.text("AB", min_size=4, max_size=4),
        ),
        data=st.data(),
    )
    def test_identity_property(self, p, system, data):
        # any of the 1024 systems, marked or not, on any patch
        maxlen = 2 * data.draw(st.integers(0, p.depth // 2))
        assert verify_renormalization(system, p, maxlen).ok

    def test_matches_per_site_loop(self):
        # same (ok, checked) as applying the source of every site anew: every
        # system on a depth-4 patch to length 2; each grammar, which alone
        # fixes the source map and so which sites share an image, on depth-4
        # and depth-6 patches to their full depth; and gate 3's input
        rng = random.Random(15)
        cases = [(system, random_patch(4, rng), 2) for system in ALL_SYSTEMS]
        for depth in (4, 6):
            cases += [(system, random_patch(depth, rng), depth) for system in ALL_SYSTEMS[::65]]
        cases.append((BBAB, jacaranda_prefix(9), 6))
        assert len({system.grammar for system, _, maxlen in cases if maxlen == 6}) == 16
        for system, p, maxlen in cases:
            report = verify_renormalization(system, p, maxlen)
            assert (report.ok, report.checked) == _renorm_per_site(system, p, maxlen)[:2]

    def test_first_failure_matches_per_site_loop(self, monkeypatch):
        # an apply that flips the last color of one level of the image of the
        # patches `wrong` picks out: both loops stop at the same first site,
        # with the same sides and count
        j5 = fixed_point_prefix(BBAB, 0, 5)
        r = random_patch(7, random.Random(16))
        assert len({r.subtree(w) for w in ("a", "b")}) == 2
        assert len({r.subtree(w) for w in ("aa", "ab", "ba", "bb")}) == 4
        cases = [
            # the deepest level of the depth-3 subtrees' images: only the last
            # per-level comparison of generation 4 sees it, at its first site
            (j5, 4, lambda q: q.depth == 3, -1, (False, 6), "aaaa"),
            # the root of one source's image: under BBAB only site ba of
            # generation 2 has source a, so the first bad site has rank 2
            (r, 6, lambda q: q == r.subtree("a"), 0, (False, 4), "ba"),
            # source ab in generation 4: its first site baaa has rank 8, after
            # generations 0 and 2 are counted in full
            (r, 6, lambda q: q == r.subtree("ab"), 2, (False, 14), "baaa"),
            # the deepest level of the depth-4 subtrees' images: generation 6
            (r, 6, lambda q: q.depth == 4, -1, (False, 22), "aaaaaa"),
        ]
        for p, maxlen, wrong, level, head, site in cases:

            def broken(sub, q, out_depth=None):
                image = apply(sub, q, out_depth)
                if not wrong(q):
                    return image
                rows = list(image.levels)
                rows[level] = rows[level][:-1] + "10"[int(rows[level][-1])]
                return Patch(tuple(rows))

            monkeypatch.setattr(engine, "apply", broken)
            report = verify_renormalization(BBAB, p, maxlen)
            expected = _renorm_per_site(BBAB, p, maxlen)
            assert (report.ok, report.checked, report.failure) == expected
            assert expected[:2] == head and expected[2][0] == site

    def test_maxlen_guard(self):
        with pytest.raises(Shallow):
            verify_renormalization(BBAB, Patch.leaf(0), 2)
        with pytest.raises(OddLength):
            verify_renormalization(BBAB, fixed_point_prefix(BBAB, 0, 5), 3)


def _renorm_per_site(sub, p, maxlen):
    """(ok, checked, failure) of the renormalization check with one apply per site."""
    big = engine.apply(sub, p)
    checked = 0
    for n in range(0, maxlen + 1, 2):
        for letters in itertools.product("ab", repeat=n):
            w = "".join(letters)
            lhs = big.subtree(w)
            rhs = engine.apply(sub, p.subtree(source(sub, w)))
            d = min(lhs.depth, rhs.depth)
            checked += 1
            if lhs.truncate(d) != rhs.truncate(d):
                return False, checked, (w, lhs, rhs)
    return True, checked, None


class TestTrustedPaths:
    """Slices, images and preimages skip validation; each must still be valid."""

    @staticmethod
    def _outputs(system, p, rng):
        m = rng.randrange(p.depth + 1)
        n = rng.randrange(p.depth - m + 1)
        i = rng.randrange(1 << m)
        image = apply(system, p)
        outs = [
            p.window(m, i, n),
            p.truncate(n),
            p.subtree(index_addr(i, m)),
            image,
            apply(system, p, rng.randrange(image.depth + 1)),
        ]
        if system.marked:
            for d in range(1, image.depth + 1):
                try:
                    outs.append(unsub(system, image.truncate(d)))
                except NotInImage:  # a grammar that never places one subtree
                    assert d >= 3 and len(set(system.grammar)) == 1
        return outs

    @settings(deadline=None)
    @given(system=st.sampled_from(ALL_SYSTEMS), depth=st.integers(0, 5), seed=st.integers(0, 2**32))
    def test_outputs_revalidate(self, system, depth, seed):
        rng = random.Random(seed)
        for q in self._outputs(system, random_patch(depth, rng), rng):
            assert Patch(q.levels) == q

    def test_every_system(self):
        rng = random.Random(16)
        for k, system in enumerate(ALL_SYSTEMS):
            for q in self._outputs(system, random_patch(k % 5, rng), rng):
                assert Patch(q.levels) == q


class TestUnsub:
    def test_roundtrip(self):
        rng = random.Random(9)
        for _ in range(40):
            p = random_patch(rng.randrange(4), rng)
            assert unsub(BBAB, apply(BBAB, p)) == p
            assert unsub(ABBA, apply(ABBA, p)) == p

    @settings(deadline=None)
    @given(p=patches(6), system=st.sampled_from([BBAB, ABBA, THUE_MORSE]))
    def test_roundtrip_property(self, p, system):
        assert unsub(system, apply(system, p)) == p

    def test_fixed_tree_halves(self):
        j = fixed_point_prefix(BBAB, 0, 9)
        assert unsub(BBAB, j) == fixed_point_prefix(BBAB, 0, 4)

    def test_rejects_non_image(self):
        bad = Patch(("1", "10", "0011", "10101010"))
        with pytest.raises(NotInImage):
            unsub(BBAB, bad)

    def test_rejects_bad_level1(self):
        with pytest.raises(NotInImage):
            unsub(BBAB, Patch(("0", "01")))

    def test_depth_guard(self):
        with pytest.raises(Shallow):
            unsub(BBAB, Patch.leaf(0))

    def test_even_depth_validates_last_level(self):
        good = apply(BBAB, Patch(("0", "10"))).truncate(2)
        assert unsub(BBAB, good) == Patch.leaf(0)
        with pytest.raises(NotInImage):
            unsub(BBAB, Patch(("0", "10", "0110")))


    def test_matches_recursive_oracle(self):
        # images of random patches, every truncation of them, every single-bit
        # flip of those, and random patches: same levels or same exception
        rng = random.Random(12)
        cases = 0
        for system in MARKED:
            image = apply(system, random_patch(rng.randrange(3), rng))
            truncs = [image.truncate(d) for d in range(image.depth + 1)]
            inputs = truncs + [f for t in truncs for f in _flips(t)]
            inputs += [random_patch(rng.randrange(6), rng) for _ in range(2)]
            for p in inputs:
                assert _outcome(unsub, system, p) == _outcome(_unsub_recursive, system, p)
            cases += len(inputs)
        assert len(MARKED) == 512 and cases > 25_000

    def test_gather_matches_slices(self):
        # every slot pair unsub reads with, the one-letter fallback included,
        # on lines of 4^0..4^8 colors
        rng = random.Random(17)
        firsts = {tuple(_first(grammar)) for grammar in GRAMMARS}
        assert (0, 0) in firsts and len(firsts) == 7
        lines = ["".join(rng.choice("01") for _ in range(4**m)) for m in range(9)]
        for first in firsts:
            for line in lines:
                assert _undouble(line, list(first)) == _undouble_slices(line, list(first))

    def test_gather_inverts_double(self):
        rng = random.Random(18)
        lines = ["".join(rng.choice("01") for _ in range(1 << l)) for l in range(9)]
        for grammar in GRAMMARS:
            if len(set(grammar)) < 2:
                continue
            system = Substreetution(BBAB.image0, BBAB.image1, grammar)
            for line in lines:
                assert _undouble(double(system, line), _first(grammar)) == line

    def test_matches_cold_and_warm(self):
        # unsub(apply(.)) of random patches of depth 0..7 on every marked
        # system: the same outcome with the readers built in case order from
        # an empty cache and with them built first for the lengths in
        # shuffled order; at most one reader per (slot pair, generation)
        rng = random.Random(19)
        cases = [(system, random_patch(k % 8, rng)) for k, system in enumerate(MARKED)]
        _reader.cache_clear()
        cold = [_outcome(unsub, system, apply(system, p)) for system, p in cases]
        used = {(tuple(_first(s.grammar)), m) for s, p in cases for m in range(1, p.depth + 1)}
        assert 0 < _reader.cache_info().currsize <= len(used)
        _reader.cache_clear()
        for first, m in rng.sample(sorted(used), len(used)):
            _undouble("".join(rng.choice("01") for _ in range(4**m)), list(first))
        warm = {}
        for i in rng.sample(range(len(cases)), len(cases)):
            system, p = cases[i]
            warm[i] = _outcome(unsub, system, apply(system, p))
        assert [warm[i] for i in range(len(cases))] == cold
        assert _reader.cache_info().currsize == len(used)


def _unsub_recursive(sub, p):
    """Top-down inversion: root from generation 1, children from the slots."""
    if not sub.marked:
        raise NotInImage("only marked systems can be unsubstituted")
    if p.depth < 1:
        raise Shallow("need at least one generation to unsubstitute")
    # the system is marked: exactly one color's image has the given root
    root = 0 if sub.image0[0] == p.get("") else 1
    _, ia, ib = sub.image(root)
    if p.levels[1] != f"{ia}{ib}":
        raise NotInImage(f"generation 1 is {p.levels[1]}, image of {root} needs {ia}{ib}")
    if p.depth < 3:
        if p.depth == 2:
            for letter in "ab":
                vals = [p.window(2, SLOTS.index(s), 0) for s in sub.slots_of(letter)]
                if any(other != vals[0] for other in vals[1:]):
                    raise NotInImage("slots disagree; not an image")
        return Patch.leaf(root)
    kids = {}
    for letter in "ab":
        slots = sub.slots_of(letter)
        if not slots:
            raise NotInImage(f"grammar {sub.grammar} never places the {letter}-subtree")
        pulled = [p.subtree(s) for s in slots]
        if any(other != pulled[0] for other in pulled[1:]):
            raise NotInImage(f"slots {slots} disagree; not an image")
        kids[letter] = _unsub_recursive(sub, pulled[0])
    return Patch.combine(root, kids["a"], kids["b"])


def _outcome(f, sub, p):
    try:
        return f(sub, p).levels
    except (NotInImage, Shallow) as exc:
        return type(exc)


def _flips(p):
    for l, row in enumerate(p.levels):
        for i, c in enumerate(row):
            rows = list(p.levels)
            rows[l] = row[:i] + "10"[int(c)] + row[i + 1 :]
            yield Patch(tuple(rows))


def _first(grammar):
    """The slot pair unsub reads: the first A-slot and B-slot, or one slot twice."""
    first = [grammar.find(g) for g in "AB"]
    return [max(first)] * 2 if -1 in first else first


def _undouble_slices(line, first):
    """The slot recursion undone a generation at a time, by slicing each block in quarters."""
    parts = [line]
    while len(parts[0]) > 1:
        w = len(parts[0]) // 4
        parts = [part[k * w : (k + 1) * w] for part in parts for k in first]
    return "".join(parts)


def dump_substreetution(sub):
    lines = []
    for c, img in ((0, sub.image0), (1, sub.image1)):
        lines.append(f"{c} -> {img[0]}({img[1]},{img[2]})")
    lines.append(f"grammar {sub.grammar}")
    return "\n".join(lines) + "\n"


class TestTextFormat:
    def test_roundtrip(self):
        text = dump_substreetution(BBAB)
        assert parse_substreetution(text) == Substreetution((0, 1, 0), (1, 1, 0), "BBAB")

    def test_rejects_general_shapes(self):
        with pytest.raises(BadSystemFormat):
            parse_substreetution("0 -> 0(1,0,1)\n1 -> 1(1,0)\ngrammar BBAB\n")
        with pytest.raises(BadSystemFormat):
            parse_substreetution("0 -> 0(1,0)\ngrammar BBAB\n")

    def test_resolve_builtin(self):
        assert resolve_system("builtin:bbab") is BBAB
        assert resolve_system("builtin:tm") is THUE_MORSE
        with pytest.raises(BadSystemFormat):
            resolve_system("builtin:nope")

    def test_resolve_file(self, tmp_path):
        path = tmp_path / "sys.txt"
        path.write_text(dump_substreetution(ABBA))
        assert resolve_system(str(path)) == Substreetution((0, 0, 1), (1, 1, 0), "ABBA")
