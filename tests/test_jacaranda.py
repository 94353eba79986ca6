import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass

import pytest

import substreetution
from substreetution.engine import ABBA, BBAB, apply, fixed_point_prefix
from substreetution.errors import (
    Inconsistent,
    NonPositive,
    NotInImage,
    Shallow,
    TypeUndetermined,
)
from substreetution.jacaranda import (
    _in_block_line, brother, detect_type, jacaranda_prefix, unsub_pow,
)
from substreetution.preimages import JAC_PREIMAGES, JAC_PRIME_PREIMAGES, preimages_classified
from substreetution.trees import Patch, dump_patch, random_patch, subpatch_representatives
from substreetution.words import chi_pow, v2


def is_rep(line: str, block: str) -> bool:
    """True iff `line` is a whole number of copies of `block`."""
    q, r = divmod(len(line), len(block))
    return r == 0 and line == block * q


class TestPrefixes:
    def test_depths_0_1(self):
        assert jacaranda_prefix(0).levels == ("0",)
        assert fixed_point_prefix(BBAB, 1, 0).levels == ("1",)
        assert jacaranda_prefix(1).levels == ("0", "10")
        assert fixed_point_prefix(BBAB, 1, 1).levels == ("1", "10")

    def test_differ_exactly_at_root(self):
        j, jp = jacaranda_prefix(16), fixed_point_prefix(BBAB, 1, 16)
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
        # and block by block: the |B(z-1)|-chunks of B(z) are B(z-1) or zero
        for z in range(1, 5):
            low, high = chi_pow(BBAB, "10", z - 1), chi_pow(BBAB, "10", z)
            c = len(low)
            assert {high[i : i + c] for i in range(0, len(high), c)} == {low, "0" * c}


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


def _in_block_line_oracle(row: str, z: int) -> bool:
    """The window test as first written: every call builds the level-z block."""
    block = chi_pow(BBAB, "10", z)
    c = min(len(row), len(block))
    pieces = {block[j : j + c] for j in range(0, len(block), c)}
    return all(row[j : j + c] in pieces for j in range(0, len(row), c))


def _type_oracle(p: Patch):
    """detect_type's (parity, candidates, determined) from is_rep sweeps; None if inconsistent."""
    odd_ok = all(is_rep(p.levels[l], "10") for l in range(2, p.depth + 1, 2))
    even_ok = all(is_rep(p.levels[l], "10") for l in range(1, p.depth + 1, 2))
    if not odd_ok and not even_ok:
        return None
    even = set()
    u = 1
    while even_ok and (1 << (u + 1)) <= p.depth:
        block = chi_pow(BBAB, "10", u)
        period = 1 << (u + 1)
        if all(is_rep(p.levels[l], block) for l in range(period, p.depth + 1, period)):
            even.add(u)
        u += 1
    if odd_ok and even_ok:
        return "undetermined", {0} | even, None
    if odd_ok:
        return "odd", {0}, 0
    inf_ok = p in (jacaranda_prefix(p.depth), fixed_point_prefix(BBAB, 1, p.depth))
    return "even", even, min(even) if len(even) == 1 and not inf_ok else None


class TestBlockTable:
    """The window test and type detection against the block-building oracles."""

    def test_window_test_matches_oracle(self):
        rng = random.Random(19)
        rows = {"0" * (1 << k) for k in range(15)}
        rows |= {
            "".join(rng.choice("01") for _ in range(1 << k)) for k in range(12) for _ in range(4)
        }
        # lines of the prefix, the level-4 block, and rows of level-(z-1)
        # blocks and zero chunks in random order
        lines = [*jacaranda_prefix(14).levels[1:], chi_pow(BBAB, "10", 4)]
        for z in range(1, 5):
            low = chi_pow(BBAB, "10", z - 1)
            lines += ["".join(rng.choice((low, "0" * len(low))) for _ in range(4)) for _ in range(3)]
        for row in lines:
            for k in range(len(row).bit_length()):
                w = 1 << k
                rows.update(row[i : i + w] for i in range(0, len(row), w))
        fits = 0
        for row in rows:
            for z in range(5):
                want = _in_block_line_oracle(row, z)
                assert _in_block_line(row, z) == want, (row, z)
                fits += want
        assert (len(rows), fits) == (125, 109)

    def test_detect_type_matches_oracle(self):
        rng = random.Random(19)
        windows = [
            window
            for q in (jacaranda_prefix(14), fixed_point_prefix(BBAB, 1, 14))
            for d in range(2, 11)
            for window in subpatch_representatives(q, d).values()
        ]
        patches = windows + [random_patch(rng.randint(2, 8), rng) for _ in range(300)]
        # whole fixed-tree prefixes, deeper than the windows
        patches += [fixed_point_prefix(BBAB, root, d) for root in (0, 1) for d in range(11, 17)]
        for _ in range(600):  # one flipped site: near the closure but mostly off it
            rows = list(rng.choice(windows).levels)
            l = rng.randrange(len(rows))
            i = rng.randrange(len(rows[l]))
            rows[l] = rows[l][:i] + "10"[int(rows[l][i])] + rows[l][i + 1 :]
            patches.append(Patch(tuple(rows)))
        outcomes = set()
        for p in patches:
            want = _type_oracle(p)
            outcomes.add(want and want[0])
            try:
                rep = detect_type(p)
            except Inconsistent:
                assert want is None
                continue
            assert (rep.parity, rep.candidates, rep.determined) == want
        assert outcomes == {None, "odd", "even", "undetermined"}

    def test_inf_check_matches_a_generated_prefix(self):
        # type detection and the root site's check compare each line with the
        # closed form; the oracle compares the lines with a generated prefix
        rng = random.Random(23)
        j14 = jacaranda_prefix(14)
        patches = [w for d in range(2, 12) for w in subpatch_representatives(j14, d).values()]
        patches += [fixed_point_prefix(BBAB, root, d) for root in (0, 1) for d in range(15)]
        for p in list(patches):  # one flipped color, the root's included
            rows = list(p.levels)
            l = rng.randrange(len(rows))
            i = rng.randrange(len(rows[l]))
            rows[l] = rows[l][:i] + "10"[int(rows[l][i])] + rows[l][i + 1 :]
            patches.append(Patch(tuple(rows)))
        verdicts = []
        for p in patches:
            want = p.levels[1:] == jacaranda_prefix(p.depth).levels[1:]
            try:
                preimages_classified(p, "")
            except Inconsistent:
                assert not want, p.levels
            else:
                assert want, p.levels
            if p.depth >= 2:
                try:
                    assert detect_type(p).inf_consistent == want, p.levels
                except Inconsistent:
                    assert not want, p.levels
            verdicts.append(want)
        assert (len(verdicts), sum(verdicts)) == (304, 50)


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

    def test_negative_count(self):
        with pytest.raises(NonPositive):
            unsub_pow(jacaranda_prefix(9), -1)


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
        with pytest.raises(Inconsistent):
            brother(fixed_point_prefix(BBAB, 1, 4), 1)

    def test_fixed_tree_is_undetermined(self):
        with pytest.raises(TypeUndetermined):
            brother(jacaranda_prefix(8))

    def test_too_shallow(self):
        with pytest.raises(Shallow):
            brother(jacaranda_prefix(2), 2)

    def test_depth_threshold(self):
        # u unsubstitutions leave depth ((d + 1) >> u) - 1, which must be >= 1:
        # the b-sibling at generation 2^u needs depth 2^(u + 1) - 1
        j = jacaranda_prefix(14)
        for u in range(3):
            b = j.subtree("a" * ((1 << u) - 1) + "b")
            need = (2 << u) - 1
            assert brother(b.truncate(need), u).depth == need
            with pytest.raises(Shallow):
                brother(b.truncate(need - 1), u)


def _case_tags(sub: Patch, site: str) -> set[str]:
    """Case tags of the parents classified at the site."""
    return {m.case_tag for m in preimages_classified(sub, site).members}


class TestClassifyEven:
    """The even shapes, as the parent case tree decides them at their sites."""

    def test_fixed_trees(self):
        def parents(found):
            return [(m.root, m.side, m.sibling) for m in found.members]

        assert parents(JAC_PREIMAGES) == [(0, "a", "J"), (1, "a", "J"), (0, "b", "J'")]
        assert parents(JAC_PRIME_PREIMAGES) == [(0, "a", "J")]

    def test_mixed_finite(self):
        sub = jacaranda_prefix(14).subtree("aa")  # root 0, starts 0(1,0)
        assert _case_tags(sub, "aa") == {"even0-2type"}

    def test_doubled_root1(self):
        sub = jacaranda_prefix(14).subtree("ba")
        assert _case_tags(sub, "ba") == {"even1-v1"}

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
        assert _case_tags(j.subtree(block_site), block_site) == {"even1-v1"}

    def test_deep_root0(self):
        sub = jacaranda_prefix(14).subtree("abab")  # generation 4: class 2^2
        assert _case_tags(sub, "abab") == {"even0-deep"}


# -- an odd tree next to a class-5 line -----------------------------------------

def _run_limited(tmp_path, *args):
    """Run Python on the depth-15 patch below under a 1.5 GB address-space limit.

    Its line 15 sits on line 32 of the fixed tree, whose block B(5) has 2^32
    characters: code that builds it fails here with a MemoryError instead of
    filling the machine's memory.
    """
    rows = ["1"]
    for l in range(1, 15):
        block = chi_pow(BBAB, "10", v2(17 + l))
        rows.append((block * (2 + (1 << l) // len(block)))[: 1 << l])
    rows.append("0" * (1 << 15))
    f = tmp_path / "depth15.patch"
    f.write_text(dump_patch(Patch(tuple(rows))))

    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 1_500_000_000 if hard == resource.RLIM_INFINITY else min(hard, 1_500_000_000)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    src = os.path.dirname(os.path.dirname(substreetution.__file__))
    return subprocess.run(
        [sys.executable, *args, str(f)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, preexec_fn=limit,
    )


class TestDepth15OddPatch:
    def test_classified_preimages_exit_0(self, tmp_path):
        # the patch lies in the closure, whose classes the command reads without
        # the fixed tree's lines: its class's parents print, and no block is built
        done = _run_limited(
            tmp_path, "-m", "substreetution.cli", "preimages", "--classified", "--patch"
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("completeness=exact count=2\n")


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
