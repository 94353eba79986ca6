import gc
import itertools
import os
import random
import subprocess
import sys
import warnings
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import substreetution
from substreetution.engine import ABBA, BBAB, THUE_MORSE, Substreetution, apply, source
from substreetution.errors import AddressTooDeep, BadPatchFormat, NonPositive, NotPowerOfTwo
from substreetution.jacaranda import jacaranda_prefix
from substreetution.words import (
    _MASKS,
    _level_of,
    chi,
    chi_pow,
    chi_recursive,
    chi_via_theta,
    doubling_block,
    f_iter,
    line_formula,
    line_window,
    ones_count_line_2n,
    v2,
)
from substreetution.trees import Patch, addr_index, index_addr, random_patch


def ones_addresses(word: str) -> frozenset[str]:
    """Addresses (a=0, b=1 positional bits) of the 1s in a line word."""
    l = _level_of(word)
    return frozenset(index_addr(i, l) for i, c in enumerate(word) if c == "1")


def word_from_addresses(level: int, addrs) -> str:
    out = bytearray(b"0" * (1 << level))
    for w in addrs:
        out[addr_index(w)] = ord("1")
    return out.decode("ascii")


def v2_case_check(kmax: int = 8, mmax: int = 8) -> bool:
    """Range-check the three valuation rules for 2^k(2m+1) + 2^(k'+1).

    k' >= k gives valuation k; k' = k-1 pushes it to at least k+1;
    k' <= k-2 pins it at k'+1.
    """
    for k in range(1, kmax + 1):
        for m in range(mmax + 1):
            base = (1 << k) * (2 * m + 1)
            for kp in range(0, kmax + 2):
                val = v2(base + (1 << (kp + 1)))
                if kp >= k and val != k:
                    return False
                if kp == k - 1 and val < k + 1:
                    return False
                if kp <= k - 2 and val != kp + 1:
                    return False
    return True


def ones_proportion(u: int) -> Fraction:
    """Density of 1s in the level-u doubling block (and in lines 2^u(2n+1))."""
    return 1 / (1 + f_iter(u))


def proportion_check(word: str, u: int) -> bool:
    """True iff the word's 1-density equals the exact level-u block density."""
    if not word:
        return False
    return Fraction(word.count("1"), len(word)) == ones_proportion(u)


# VmHWM is the peak RSS of this process image alone; ru_maxrss would also
# carry the peak of the forking test process across exec.
_LONG_WORDS = """
import random
from substreetution.engine import ABBA
from substreetution.words import chi_via_theta

rng = random.Random(1)
for _ in range(3):
    chi_via_theta(ABBA, "".join(rng.choice("01") for _ in range(1024)))
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


# every grammar, each on the BBAB images: chi depends on the grammar alone
ALL_GRAMMARS = [
    Substreetution((0, 1, 0), (1, 1, 0), "".join(g)) for g in itertools.product("AB", repeat=4)
]


class TestAddressSets:
    def test_examples(self):
        assert ones_addresses("0010") == {"ba"}
        assert ones_addresses("01000001") == {"aab", "bbb"}
        assert ones_addresses("0000") == frozenset()

    def test_roundtrip(self):
        rng = random.Random(1)
        for l in range(5):
            word = "".join(rng.choice("01") for _ in range(1 << l))
            assert word_from_addresses(l, ones_addresses(word)) == word

    def test_power_of_two_guard(self):
        with pytest.raises(NotPowerOfTwo):
            ones_addresses("010")


class TestChi:
    def test_pinned_values(self):
        assert chi(BBAB, "10") == "0010"
        assert chi(BBAB, "0010") == "0010001000000010"
        assert chi(BBAB, "00") == "0000"
        assert chi(BBAB, "0") == "0" and chi(BBAB, "1") == "1"

    def test_pow(self):
        assert chi_pow(BBAB, "10", 0) == "10"
        assert chi_pow(BBAB, "10", 2) == "0010001000000010"
        w3 = chi_pow(BBAB, "10", 3)
        assert len(w3) == 256 and w3.count("1") == 39

    @pytest.mark.parametrize("word", ["01x2", "0120", "1 ", "10é1", "0" * 15 + "2"])
    def test_pow_rejects_non_binary_words(self, word, chunk_keys):
        # checked once, before any iteration (and so before any chunk of the
        # word reaches the system's chunk tables), also for u = 0
        for u in (0, 1, 2):
            with pytest.raises(BadPatchFormat, match="line words are over"):
                chi_pow(BBAB, word, u)
        assert [set(t) for t in BBAB._chunk_images] == [chunk_keys] * 3

    def test_pow_length_exponent_doubles(self):
        w = "0110"
        for u in range(3):
            assert len(chi_pow(BBAB, w, u)) == 1 << (2 * (1 << u))

    # theta of a letter a grammar never uses is empty, and warns
    @pytest.mark.filterwarnings("ignore:grammar .* never uses letter")
    @settings(deadline=None)
    @given(
        system=st.sampled_from([BBAB, ABBA, THUE_MORSE] + ALL_GRAMMARS),
        word=st.integers(0, 8).flatmap(
            lambda l: st.text("01", min_size=1 << l, max_size=1 << l)
        ),
    )
    def test_recursion_matches_definition(self, system, word):
        assert chi_recursive(system, word) == chi_via_theta(system, word)
        assert chi(system, word) == chi_recursive(system, word)

    def test_unused_letter_contributes_nothing(self):
        # theta of an a-address is empty under this grammar, so only the
        # b-addresses reach the image, and theta still warns about it
        allb = Substreetution((0, 1, 0), (1, 1, 0), "BBBB")
        with pytest.warns(UserWarning, match="never uses letter 'a'"):
            assert chi_via_theta(allb, "10") == "0000"
        assert chi_via_theta(allb, "01") == "1111"
        with pytest.warns(UserWarning, match="never uses letter 'a'"):
            assert chi_via_theta(allb, "0110") == "0" * 16

    def test_empty_image_warns_on_every_call(self):
        # the first call caches level 2, where ab's empty image is the mask 0;
        # every call that meets a 0 mask asks theta again, so it warns again
        allb = Substreetution((0, 1, 0), (1, 1, 0), "BBBB")
        for _ in range(3):
            with pytest.warns(UserWarning, match=r"theta\('ab'\) is empty"):
                assert chi_via_theta(allb, "0101") == "1" * 16
            assert _MASKS[allb][2] == [0, 0, 0, (1 << 16) - 1]

    def test_masks_do_not_keep_a_system_alive(self):
        # the masks are keyed weakly by system, so dropping it frees them with it
        sub = Substreetution((0, 1, 0), (1, 1, 0), "BABA")
        chi_via_theta(sub, "0110")
        assert _MASKS[sub][2][1]
        ref = weakref.ref(sub)
        del sub
        gc.collect()
        assert ref() is None

    def test_long_words_keep_memory_bounded(self):
        # a level-10 word is read as blocks of 2^8 letters over the cached
        # level-8 and level-2 masks: a table of all level-10 masks would hold
        # 2^10 masks of 4^10 bits, about 128 MB
        src = os.path.dirname(os.path.dirname(substreetution.__file__))
        out = subprocess.run(
            [sys.executable, "-c", _LONG_WORDS],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        ).stdout
        assert int(out) <= 60 * 1024  # kB

    @pytest.mark.parametrize("system", ALL_GRAMMARS, ids=lambda s: s.grammar)
    def test_block_reading_matches_recursion(self, system):
        # past level 8 a word is read in blocks of 2^8 letters; a two-letter
        # grammar never warns, a one-letter one warns on the unused letter
        rng = random.Random(system.grammar)
        with warnings.catch_warnings():
            action = "ignore" if len(set(system.grammar)) == 1 else "error"
            warnings.simplefilter(action)
            for l in (9, 10):
                word = "".join(rng.choice("01") for _ in range(1 << l))
                assert chi_via_theta(system, word) == chi_recursive(system, word)

    def test_block_reading_warns_in_rank_order(self):
        # ranks 255 (the outer part a is empty), 510 (the inner block's mask
        # is empty) and 511: one warning per empty image, in rank order
        allb = Substreetution((0, 1, 0), (1, 1, 0), "BBBB")
        empty = ["a" + "b" * 8, "b" * 8 + "a"]
        word = word_from_addresses(9, empty + ["b" * 9])
        with pytest.warns(UserWarning) as record:
            assert chi_via_theta(allb, word) == "1" * (1 << 18)
        assert [str(w.message) for w in record] == [
            f"grammar BBBB never uses letter 'a'; theta({a!r}) is empty "
            "and the source map is not onto"
            for a in empty
        ]

    def test_block_recursion_shape(self):
        # image of a split word is slot-wise images of the halves
        rng = random.Random(3)
        for _ in range(12):
            w1 = "".join(rng.choice("01") for _ in range(4))
            w2 = "".join(rng.choice("01") for _ in range(4))
            lhs = chi(BBAB, w1 + w2)
            c1, c2 = chi(BBAB, w1), chi(BBAB, w2)
            assert lhs == c2 + c2 + c1 + c2

    def test_bottom_row_commutation(self):
        # last line of the image is the doubled word of the input's last line
        rng = random.Random(4)
        for system in (BBAB, ABBA):
            for _ in range(10):
                p = random_patch(3, rng)
                image = apply(system, p)
                assert image.line(2 * p.depth) == chi_via_theta(system, p.line(p.depth))


class TestValuation:
    def test_values(self):
        assert v2(12) == 2
        assert v2(22) == 1
        assert v2(1) == 0

    def test_guard(self):
        with pytest.raises(NonPositive):
            v2(0)

    def test_case_rules(self):
        assert v2_case_check(kmax=7, mmax=7)


class TestCounts:
    def test_f_iterates(self):
        assert f_iter(1) == 3
        assert f_iter(2) == Fraction(13, 3)
        assert f_iter(3) == Fraction(217, 39)

    def test_ones_counts(self):
        assert [ones_count_line_2n(n) for n in range(5)] == [1, 1, 3, 39, 8463]

    def test_proportions(self):
        assert proportion_check("0010", 1)
        assert proportion_check("10", 0)
        assert not proportion_check("0000", 1)
        assert ones_proportion(1) == Fraction(1, 4)

    def test_block_densities_distinct(self):
        densities = [ones_proportion(u) for u in range(6)]
        assert len(set(densities)) == 6


class TestLineFormula:
    def test_examples(self):
        assert line_formula(3) == "10101010"
        assert line_formula(4) == "0010001000000010"
        assert line_formula(6) == "0010" * 16

    def test_guard(self):
        with pytest.raises(NonPositive):
            line_formula(0)
        with pytest.raises(NonPositive):
            doubling_block(-1)

    def test_doubling_block_is_chi_pow(self):
        for z in range(5):
            assert doubling_block(z) == chi_pow(BBAB, "10", z)

    def test_block_halves_have_ones(self):
        for u in range(1, 5):
            block = chi_pow(BBAB, "10", u)
            half = len(block) // 2
            assert "1" in block[half:]
            if u >= 2:
                assert "1" in block[:half]


def _j_window(site: str, depth: int) -> Patch:
    """The fixed tree J's lines at a site below its root, read from the closed form."""
    i = addr_index(site)
    return Patch(tuple(line_window(len(site) + t, t, i) for t in range(depth + 1)))


class TestLineWindow:
    def test_slices_of_a_generated_prefix(self):
        rng = random.Random(16)
        j16 = jacaranda_prefix(16)
        for m in range(1, 17):
            assert line_formula(m) == j16.levels[m]
            for k in range(m + 1):
                count = 1 << (m - k)
                for i in {0, count - 1, *rng.sample(range(count), min(count, 8))}:
                    assert line_window(m, k, i) == j16.levels[m][i << k : (i + 1) << k], (m, k, i)

    @settings(deadline=None)
    @given(
        site=st.integers(1, 5).flatmap(lambda j: st.text("ab", min_size=2 * j, max_size=2 * j)),
        depth=st.integers(0, 6),
    )
    def test_renormalization(self, site, depth):
        # J at an even site is the image of J at the site's source
        image = apply(BBAB, _j_window(source(BBAB, site), depth // 2), depth)
        assert _j_window(site, depth) == image

    def test_refuses_blocks_past_2_24_colors(self):
        # generation 32 repeats the level-5 block, 2^32 colors, which is never built
        for m in (32, 64):
            with pytest.raises(AddressTooDeep, match=f"^generation {m} repeats a block of 2\\^"):
                line_window(m, 0)
            with pytest.raises(AddressTooDeep):
                line_formula(m)
        assert doubling_block.cache_info().currsize <= 5  # B(0) to B(4) at most
        for m, k, i in ((3, 4, 0), (3, 1, 4), (3, 0, -1)):
            with pytest.raises(AddressTooDeep, match=f"^no window {i} of 2\\^{k} colors"):
                line_window(m, k, i)
