import argparse
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import substreetution
from substreetution.cli import build_parser, main
from substreetution.engine import BBAB, BUILTINS, SLOTS, fixed_point_prefix, theta
from substreetution.jacaranda import jacaranda_prefix
from substreetution.preimages import JAC_PREIMAGES, JAC_PRIME_PREIMAGES, preimages_classified
from substreetution.systems import NOMEASURE_GRAPH, build_orbit_graph, nomeasure_tree
from substreetution.trees import dump_patch, parse_patch, random_patch
from substreetution.words import doubling_block


# every integer flag at a negative value: (test id, argv, message)
NEGATIVE_COUNTS = [
    ("unsub", "unsub --patch {f} --times -2",
     "unsubstitution count must be >= 0, got -2"),
    ("fixpoint", "fixpoint --sub builtin:bbab --root 0 --depth -3",
     "depth must be >= 0, got -3"),
    ("verify-renorm", "verify-renorm --sub builtin:bbab --maxlen -2",
     "maxlen must be >= 0, got -2"),
    ("preimages", "preimages --patch {f} --n -1",
     "ancestor distance must be >= 0, got -1"),
    ("line", "line --patch {f} --level -1",
     "no generation -1 in a depth-9 patch"),
    ("chi", "chi --word 10 --pow -1",
     "iteration count must be >= 0"),
    ("verify-renorm-depth", "verify-renorm --sub builtin:bbab --depth -1",
     "depth must be >= 0, got -1"),
    ("verify-renorm-random", "verify-renorm --sub builtin:bbab --random -1",
     "random patch count must be >= 0, got -1"),
    ("complexity", "complexity --patch {f} --max-n -1",
     "max-n must be >= 0, got -1"),
    ("proportion", "proportion --n -1",
     "iteration count must be >= 0"),
    ("orbit-graph", "orbit-graph --example nomeasure --depth -1",
     "identification depth must be at least 2"),
    ("render-tiling-depth", "render-tiling --patch {f} --depth -1 --out {svg}",
     "word limit must be nonnegative, got -1"),
    ("render-tiling-res", "render-tiling --patch {f} --res -1 --out {svg}",
     "resolution must be at least 1, got -1"),
]


EXPECTED_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWordCommands:
    def test_chi(self, capsys):
        code, out, _ = run(capsys, "chi", "--word", "10", "--pow", "1")
        assert code == 0 and out.strip() == "0010"

    def test_chi_rejects_non_binary_word(self, capsys):
        code, out, err = run(capsys, "chi", "--word", "01x2", "--pow", "1")
        assert code == 2 and out == ""
        assert "line words are over {0,1}" in err

    def test_proportion(self, capsys):
        code, out, _ = run(capsys, "proportion", "--n", "4")
        assert code == 0 and out.strip() == "8463/65536"

    def test_source(self, capsys):
        code, out, _ = run(capsys, "source", "--addr", "ba", "--sub", "builtin:bbab")
        assert code == 0 and out.strip() == "a"
        code, out, _ = run(capsys, "source", "--addr", "", "--sub", "builtin:bbab")
        assert out.strip() == "e"

    def test_theta(self, capsys):
        code, out, _ = run(capsys, "theta", "--addr", "b", "--sub", "builtin:bbab")
        assert code == 0 and out.split() == ["aa", "ab", "bb"]

    @pytest.mark.parametrize("name", ["bbab", "tm", "abba"])
    def test_theta_prints_the_sorted_set(self, capsys, name):
        # every address up to length 5: the sorted set from engine.theta, as
        # the command printed it before it read the sites off the slot product
        for n in range(6):
            for addr in map("".join, itertools.product("ab", repeat=n)):
                want = " ".join(sorted(theta(BUILTINS[name], addr))) or "e"
                argv = ("theta", "--addr", addr, "--sub", f"builtin:{name}")
                assert run(capsys, *argv) == (0, want + "\n", ""), addr

    def test_theta_prints_empty_site_as_e(self, capsys):
        assert run(capsys, "theta", "--addr", "", "--sub", "builtin:bbab") == (0, "e\n", "")

    def test_theta_of_unused_letter_warns_in_one_line(self, capsys, tmp_path):
        f = tmp_path / "allb.sub"
        f.write_text("0 -> 0(1,0)\n1 -> 1(1,0)\ngrammar BBBB\n")
        assert run(capsys, "theta", "--addr", "ba", "--sub", str(f)) == (
            0,
            "{}\n",
            "warning: grammar BBBB never uses letter 'a'; theta('ba') is empty "
            "and the source map is not onto\n",
        )
        sites = " ".join(map("".join, itertools.product(SLOTS, repeat=2)))
        assert run(capsys, "theta", "--addr", "bb", "--sub", str(f)) == (0, sites + "\n", "")


class TestPatchCommands:
    def test_fixpoint_and_line(self, capsys, tmp_path):
        out_file = tmp_path / "j.patch"
        code, _, _ = run(
            capsys,
            "fixpoint", "--sub", "builtin:bbab", "--root", "0",
            "--depth", "6", "--out", str(out_file),
        )
        assert code == 0
        assert parse_patch(out_file.read_text()) == fixed_point_prefix(BBAB, 0, 6)
        code, out, _ = run(capsys, "line", "--patch", str(out_file), "--level", "2")
        assert code == 0 and out.strip() == "0010"

    def test_type(self, capsys, tmp_path):
        f = tmp_path / "j.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 8)))
        code, out, _ = run(capsys, "type", "--patch", str(f))
        assert code == 0 and "inf-consistent" in out

    def test_unsub(self, capsys, tmp_path):
        f = tmp_path / "j9.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 9)))
        code, out, _ = run(capsys, "unsub", "--patch", str(f), "--times", "1")
        assert code == 0
        assert parse_patch(out) == fixed_point_prefix(BBAB, 0, 4)

    def test_brother(self, capsys, tmp_path):
        j = fixed_point_prefix(BBAB, 0, 9)
        f = tmp_path / "b.patch"
        f.write_text(dump_patch(j.subtree("b")))
        code, out, _ = run(capsys, "brother", "--patch", str(f))
        assert code == 0
        got = parse_patch(out)
        actual = j.subtree("a")
        assert got.truncate(got.depth) == actual.truncate(got.depth)

    def test_complexity(self, capsys, tmp_path):
        f = tmp_path / "j.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 6)))
        code, out, _ = run(capsys, "complexity", "--patch", str(f), "--max-n", "1")
        assert code == 0
        assert out.splitlines() == ["0 2", "1 4"]
        # a max-n past the patch depth is rejected before any line prints
        assert run(capsys, "complexity", "--patch", str(f), "--max-n", "7") == (
            2, "", "error: no depth-7 subtrees in a depth-6 patch\n"
        )

    def test_preimages_bruteforce(self, capsys, tmp_path):
        jp = tmp_path / "jp.patch"
        jp.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 10)))
        target = tmp_path / "ones.patch"
        target.write_text("depth 1\n1\n11\n")
        code, out, _ = run(
            capsys, "preimages", "--patch", str(target), "--jprefix", str(jp)
        )
        assert code == 0 and "count=0" in out

    def test_preimages_classified_at_site(self, capsys, tmp_path):
        # without a site the patch stands for its class, whose parents include
        # those of its tree at site "a" of the default depth-14 prefix
        jp = jacaranda_prefix(14)
        patch = jp.subtree("a").truncate(5)
        f = tmp_path / "sub.patch"
        f.write_text(dump_patch(patch))
        code, of_class, _ = run(capsys, "preimages", "--patch", str(f), "--classified")
        assert code == 0 and of_class == preimages_classified(patch).serialize()
        code, out, _ = run(capsys, "preimages", "--patch", str(f), "--site", "a")
        assert code == 0
        assert out == preimages_classified(patch, "a").serialize()
        assert out.startswith("completeness=exact") and of_class.startswith("completeness=exact")
        # each member at the site is a class member, its sibling to the site's depth
        members = preimages_classified(patch).members
        for at_site in preimages_classified(patch, "a").members:
            sib = at_site.sibling
            assert any(
                (m.root, m.side) == (at_site.root, at_site.side)
                and m.sibling.truncate(sib.depth) == sib
                for m in members
            )

    def test_preimages_site_is_checked(self, capsys, tmp_path):
        f = tmp_path / "sub.patch"
        f.write_text(dump_patch(jacaranda_prefix(14).subtree("a").truncate(5)))
        for site, message in (
            ("b", "is not the fixed tree's window at site 'b'"),
            ("a" * 10, f"is not the fixed tree's window at site '{'a' * 10}'"),
            ("ax", "address must be a word"),
        ):
            code, out, err = run(
                capsys, "preimages", "--patch", str(f), "--classified", "--site", site
            )
            assert code == 2 and message in err and out == ""
        # the tree at the root site is J (or J') itself, whose parent set is constant
        f.write_text(dump_patch(jacaranda_prefix(5)))
        assert run(capsys, "preimages", "--patch", str(f), "--site", "") == (
            0, JAC_PREIMAGES.serialize(), ""
        )
        jp = tmp_path / "jprime.patch"
        jp.write_text(dump_patch(fixed_point_prefix(BBAB, 1, 14)))
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 1, 5)))
        assert run(capsys, "preimages", "--patch", str(f), "--site", "", "--jprefix", str(jp)) == (
            0, JAC_PRIME_PREIMAGES.serialize(), ""
        )

    def test_preimages_site_needs_a_fixed_tree_prefix(self, capsys, tmp_path):
        # the site is a site of the fixed tree, whose lines the case analysis
        # reads from the closed form: a patch of another tree is refused
        # whatever --jprefix names, which the site path does not read
        rp = random_patch(8, random.Random(3))
        jp, j8, f = tmp_path / "random.patch", tmp_path / "j8.patch", tmp_path / "sub.patch"
        jp.write_text(dump_patch(rp))
        j8.write_text(dump_patch(jacaranda_prefix(8)))
        f.write_text(dump_patch(rp.subtree("ab").truncate(3)))
        argv = ["preimages", "--patch", str(f), "--site", "ab"]
        for named in ([], ["--jprefix", str(jp)], ["--jprefix", str(j8)], ["--jprefix", "absent"]):
            assert run(capsys, *argv, *named) == (
                2, "", "error: the patch is not the fixed tree's window at site 'ab'\n"
            )

    def test_preimages_site_in_jprime_prints_as_in_j(self, capsys, tmp_path):
        # J and J' differ only at the root, so every other site reads the same lines
        jp = tmp_path / "jprime.patch"
        jp.write_text(dump_patch(fixed_point_prefix(BBAB, 1, 14)))
        f = tmp_path / "sub.patch"
        for site in ("a", "ab", "ba", "aabb", "bab"):
            f.write_text(dump_patch(jacaranda_prefix(14).subtree(site).truncate(3)))
            argv = ["preimages", "--patch", str(f), "--site", site]
            in_j, in_jprime = run(capsys, *argv), run(capsys, *argv, "--jprefix", str(jp))
            assert in_j == in_jprime and in_j[0] == 0 and in_j[1].startswith("completeness=exact")

    @pytest.mark.parametrize("flag", [["--site", "ab"], ["--classified"]], ids=["site", "classified"])
    @pytest.mark.parametrize("n", ["-1", "3"])
    def test_preimages_classified_rejects_other_n(self, capsys, tmp_path, flag, n):
        # the classified set is the one-step set, so --n other than 1 is refused
        f = tmp_path / "p.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 8).subtree("ab").truncate(3)))
        assert run(capsys, "preimages", "--patch", str(f), *flag, "--n", n) == (
            2, "", f"error: --n must be 1 with --classified or --site, got {n}\n"
        )

    def test_preimages_at_generation_16(self, capsys, tmp_path):
        # the class-2^4 sibling is built only as deep as the depth-1 patch
        jp = tmp_path / "j17.patch"
        jp.write_text(dump_patch(jacaranda_prefix(17)))
        f = tmp_path / "p.patch"
        f.write_text("depth 1\n1\n10\n")
        code, out, _ = run(
            capsys, "preimages", "--patch", str(f), "--site", "a" * 14 + "ba", "--jprefix", str(jp)
        )
        assert code == 0
        assert out.splitlines() == [
            "completeness=exact count=1",
            "case=even1-v1 root=0 side=a sibling=d1:9f269ff2348b00a5",
        ]

    def test_verify_renorm(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-renorm", "--sub", "builtin:abba", "--depth", "7",
            "--maxlen", "4", "--random", "3",
        )
        assert code == 0 and out.startswith("pass")


class TestGraphCommands:
    def test_orbit_and_measure(self, capsys, tmp_path):
        gfile = tmp_path / "orbit.graph"
        code, _, _ = run(
            capsys,
            "orbit-graph", "--example", "nomeasure", "--depth", "6",
            "--out", str(gfile),
        )
        assert code == 0
        code, out, err = run(capsys, "measure-check", "--graph", str(gfile))
        assert code == 0 and out == "infeasible\n"
        assert err == (
            "# state s1 is not the b-child of any kept state\n"
            "# state s2 is not the a-child of any kept state\n"
            "# state s4 is not the b-child of any kept state\n"
            "# state s5 is not the a-child of any kept state\n"
            "# state s0 is not the a-child of any kept state\n"
            "# state s3 is not the b-child of any kept state\n"
        )

    @pytest.mark.parametrize("text, message", [
        ("state s0\nstate s1\nstate s0\nedge s0 a s0\nedge s0 b s0\n"
         "edge s1 a s1\nedge s1 b s1\n", "repeated state s0 is declared twice"),
        ("state s0\nstate s1\nedge s0 a s1\nedge s0 b s0\nedge s1 a s0\n",
         "state s1 has no b-edge"),
    ], ids=["repeated-state", "missing-edge"])
    def test_measure_rejects_malformed_graph(self, capsys, tmp_path, text, message):
        gfile = tmp_path / "bad.graph"
        gfile.write_text(text)
        code, out, err = run(capsys, "measure-check", "--graph", str(gfile))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_orbit_graph_of_random_patch_not_closed(self, capsys, tmp_path):
        pfile = tmp_path / "noise.patch"
        pfile.write_text(dump_patch(random_patch(12, random.Random(4))))
        code, out, err = run(capsys, "orbit-graph", "--patch", str(pfile))
        assert code == 2 and out == ""
        assert err == "error: 64 state(s) appear only at the truncation frontier\n"

    def test_measure_feasible(self, capsys, tmp_path):
        gfile = tmp_path / "loop.graph"
        gfile.write_text("state s0\nedge s0 a s0\nedge s0 b s0\n")
        code, out, _ = run(capsys, "measure-check", "--graph", str(gfile))
        assert code == 0
        assert out.splitlines() == ["feasible", "mu s0 1"]


class TestVerifyPaper:
    def test_json(self, verify_paper_json):
        code, out = verify_paper_json
        assert code == 3
        entries = [json.loads(line) for line in out.splitlines()]
        assert len(entries) == 13
        assert all(set(e) == {"gate", "ok", "detail", "seconds"} for e in entries)
        assert [e["gate"].split()[0] for e in entries] == [str(k) for k in range(1, 14)]
        assert [e["gate"] for e in entries if not e["ok"]] == ["6 backward bound (literal)"]
        assert all(e["seconds"] >= 0 for e in entries)
        # every (gate, ok, detail), byte for byte, is the table the benchmark checks against
        with open(EXPECTED_JSON, encoding="utf-8") as fh:
            want = json.load(fh)["paper-gates"]["table"]
        assert [[e["gate"], e["ok"], e["detail"]] for e in entries] == want


class TestRenderCommands:
    def test_render_tree(self, capsys, tmp_path):
        f = tmp_path / "j.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 4)))
        out_file = tmp_path / "tree.svg"
        code, _, _ = run(capsys, "render-tree", "--patch", str(f), "--out", str(out_file))
        assert code == 0 and out_file.read_text().startswith("<svg")

    def test_render_tree_warns_in_one_line(self, capsys, tmp_path):
        f = tmp_path / "j13.patch"
        f.write_text(dump_patch(jacaranda_prefix(13)))
        out_file = tmp_path / "tree.svg"
        assert run(capsys, "render-tree", "--patch", str(f), "--out", str(out_file)) == (
            0,
            "",
            "warning: depth 13 will not render readably\n",
        )
        assert out_file.read_text().startswith("<svg")

    def test_render_tiling_threads_flag(self, capsys, tmp_path):
        # renders are pure functions of their flags; --threads no longer exists
        f = tmp_path / "j.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 3)))
        args = ["render-tiling", "--patch", str(f), "--depth", "1", "--res", "48"]
        outs = []
        for k in range(2):
            out_file = tmp_path / f"tiling{k}.svg"
            code, _, _ = run(capsys, *args, "--out", str(out_file))
            assert code == 0
            outs.append(out_file.read_bytes())
        assert outs[0] == outs[1]
        code, _, err = run(capsys, "--threads", "4", *args, "--out", str(tmp_path / "t.svg"))
        assert code == 1 and "invalid choice: '4'" in err
        code, _, err = run(capsys, *args, "--out", str(tmp_path / "t.svg"), "--threads", "4")
        assert code == 1 and "unrecognized arguments: --threads 4" in err
        assert not (tmp_path / "t.svg").exists()

    @pytest.mark.parametrize("depth", ["9", "10"])
    def test_render_tiling_deep_word_limits(self, capsys, tmp_path, depth):
        # deep isometry images put bisector centres within rounding of the unit circle
        f = tmp_path / "j10.patch"
        f.write_text(dump_patch(jacaranda_prefix(10)))
        out_file = tmp_path / "tiling.svg"
        args = ["render-tiling", "--patch", str(f), "--depth", depth, "--res", "64"]
        assert run(capsys, *args, "--out", str(out_file)) == (0, "", "")
        assert out_file.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--res", "0"), "resolution must be at least 1, got 0"),
            (("--res", "-5"), "resolution must be at least 1, got -5"),
            (("--depth", "-1"), "word limit must be nonnegative, got -1"),
        ],
    )
    def test_render_tiling_rejects_degenerate_sizes(self, capsys, tmp_path, flags, message):
        f = tmp_path / "j.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 3)))
        out_file = tmp_path / "tiling.svg"
        code, _, err = run(
            capsys, "render-tiling", "--patch", str(f), *flags, "--out", str(out_file)
        )
        assert code == 2 and err == f"error: {message}\n"
        assert not out_file.exists()


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "no-such-command")[0] == 1
        assert run(capsys)[0] == 1

    def test_operation_error(self, capsys, tmp_path):
        f = tmp_path / "bad.patch"
        f.write_text("depth 1\n0\n")
        assert run(capsys, "line", "--patch", str(f), "--level", "0")[0] == 2

    def test_missing_file(self, capsys):
        assert run(capsys, "line", "--patch", "/nonexistent", "--level", "0")[0] == 2

    def test_empty_word(self, capsys):
        # the length is checked also at --pow 0, which applies no doubling
        for word, pow_ in (("", "1"), ("", "0"), ("101", "0"), ("101", "1")):
            assert run(capsys, "chi", "--word", word, "--pow", pow_) == (
                2, "", f"error: line words have power-of-two length, got {len(word)}\n"
            )

    def test_brother_of_root1_patch(self, capsys, tmp_path):
        f = tmp_path / "j1.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 1, 4)))
        assert run(capsys, "brother", "--patch", str(f)) == (
            2, "", "error: the sibling construction starts from a root-0 tree\n"
        )

    @pytest.mark.parametrize(
        "argv, message", [pytest.param(argv, message, id=i) for i, argv, message in NEGATIVE_COUNTS]
    )
    def test_negative_count(self, capsys, tmp_path, argv, message):
        f = tmp_path / "j.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 9)))
        svg = tmp_path / "t.svg"
        code, out, err = run(capsys, *(a.format(f=f, svg=svg) for a in argv.split()))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not svg.exists()

    def test_proportion_above_its_bound(self, capsys):
        # line 2^14's count has 4,933 digits; the bound rejects it before any work
        assert run(capsys, "proportion", "--n", "14") == (2, "", "error: n must be <= 13, got 14\n")
        code, out, _ = run(capsys, "proportion", "--n", "13")
        assert code == 0 and out.endswith(f"/{1 << (1 << 13)}\n")

    def test_render_tiling_word_limit_above_its_bound(self, capsys, tmp_path):
        # the walls double with each letter; the bound rejects limit 17 before the patch
        # is read, and limit 16 gets as far as reading it
        missing, svg = str(tmp_path / "missing.patch"), tmp_path / "t.svg"
        args = ["render-tiling", "--patch", missing, "--out", str(svg), "--depth"]
        assert run(capsys, *args, "17") == (2, "", "error: depth must be <= 16, got 17\n")
        code, out, err = run(capsys, *args, "16")
        assert (code, out) == (2, "") and "No such file" in err
        assert not svg.exists()

    def test_render_tiling_resolution_above_its_bound(self, capsys, tmp_path):
        # 4096 px is a grid of 2^24 pixels; the bound rejects 4097 before the patch is
        # read, and 4096 gets as far as reading it
        missing, svg = str(tmp_path / "missing.patch"), tmp_path / "t.svg"
        args = ["render-tiling", "--patch", missing, "--out", str(svg), "--res"]
        assert run(capsys, *args, "4097") == (2, "", "error: res must be <= 4096, got 4097\n")
        assert run(capsys, *args, "100000000") == (
            2, "", "error: res must be <= 4096, got 100000000\n"
        )
        code, out, err = run(capsys, *args, "4096")
        assert (code, out) == (2, "") and "No such file" in err
        assert not svg.exists()

    def test_render_tree_depth_above_its_bound(self, capsys, tmp_path):
        # rejected once the patch is read, before the warning and before any drawing
        f, svg = tmp_path / "j.patch", tmp_path / "tree.svg"
        args = ["render-tree", "--patch", str(f), "--out", str(svg)]
        f.write_text(dump_patch(jacaranda_prefix(17)))
        assert run(capsys, *args) == (2, "", "error: patch depth must be <= 16, got 17\n")
        assert not svg.exists()
        f.write_text(dump_patch(jacaranda_prefix(16)))
        assert run(capsys, *args) == (0, "", "warning: depth 16 will not render readably\n")
        assert svg.read_text().startswith("<svg")

    def test_theta_above_its_bound(self, capsys):
        # BBAB gives b three slots: 3^13 sites of 26 letters and a space are past 2^24
        # characters, 3^12 sites of 24 are not; a's one slot gives one site at any length
        assert run(capsys, "theta", "--addr", "b" * 13) == (
            2, "", "error: theta's output length must be <= 16777216, got 43046721\n"
        )
        code, out, err = run(capsys, "theta", "--addr", "b" * 12)
        assert (code, err, len(out), out.count(" ")) == (0, "", 3**12 * 25, 3**12 - 1)
        assert run(capsys, "theta", "--addr", "a" * 40) == (0, "ba" * 40 + "\n", "")

    @pytest.mark.parametrize(
        "argv, text",
        [
            ("line --patch {f} --level 1", "depth 1\n0\n10\n"),
            ("source --addr ba --sub {f}", "0 -> 0(1,0)\n1 -> 1(1,0)\ngrammar BBAB\n"),
            ("measure-check --graph {f}", "state s0\nedge s0 a s0\nedge s0 b s0\n"),
        ],
        ids=["patch", "system", "graph"],
    )
    def test_non_ascii_input_file(self, capsys, tmp_path, argv, text):
        # input files are ASCII, comments included: one error line, not a traceback
        f = tmp_path / "input.txt"
        argv = argv.format(f=f).split()
        f.write_text("# cafe\n" + text, encoding="ascii")
        assert run(capsys, *argv)[0] == 0
        f.write_text("# caf\u00e9\n" + text, encoding="utf-8")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: 'ascii' codec can't decode byte 0xc3 in position 5")
        assert err.count("\n") == 1

    def test_orbit_graph_example_above_its_bound(self, capsys):
        # the example's seed doubles with each depth; the bound rejects it before any work
        assert run(capsys, "orbit-graph", "--example", "nomeasure", "--depth", "15") == (
            2, "", "error: depth must be <= 14, got 15\n"
        )
        code, out, _ = run(capsys, "orbit-graph", "--example", "nomeasure", "--depth", "14")
        assert (code, out) == (0, NOMEASURE_GRAPH.serialize())

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a 2^25-character deepest line
            ("fixpoint --sub {sub} --root 0 --depth 25", "depth must be <= 24, got 25"),
            # 2^32 characters: a length-2^l word's u-th image has 2^(l * 2^u)
            ("chi --word 10 --pow 5 --sub {sub}", "pow must be <= 4 for this word, got 5"),
            ("chi --word 00100010 --pow 4 --sub {sub}", "pow must be <= 3 for this word, got 4"),
            # a length-1 word stays one character, but each iteration is a call
            ("chi --word 1 --pow 1000000000 --sub {sub}", "pow must be <= 4 for this word, got 1000000000"),
            # the image of a depth-12 prefix has the 2^25-character line 25
            ("verify-renorm --sub {sub} --depth 12", "depth must be <= 11, got 12"),
        ],
    )
    def test_line_size_above_its_bound(self, capsys, tmp_path, argv, message):
        # the bound is checked before any work, even before the system file is read
        sub = tmp_path / "missing.sub"
        assert run(capsys, *argv.format(sub=sub).split()) == (2, "", f"error: {message}\n")

    def test_line_sizes_in_use_stay_allowed(self, capsys):
        code, out, _ = run(capsys, "fixpoint", "--sub", "builtin:bbab", "--root", "0", "--depth", "20")
        assert code == 0 and parse_patch(out) == fixed_point_prefix(BBAB, 0, 20)
        code, out, _ = run(capsys, "chi", "--word", "10", "--pow", "4")
        assert (code, out) == (0, doubling_block(4) + "\n")
        assert run(capsys, "verify-renorm", "--sub", "builtin:bbab") == (0, "pass (21 sites checked)\n", "")

    def test_verify_renorm_patch_depth_bound(self, capsys, tmp_path):
        # a depth-12 patch's image has the 2^25-character line 25; rejected before --sub is read
        deep = tmp_path / "j12.patch"
        deep.write_text(dump_patch(jacaranda_prefix(12)))
        missing = str(tmp_path / "missing.sub")
        assert run(capsys, "verify-renorm", "--sub", missing, "--patch", str(deep)) == (
            2, "", "error: patch depth must be <= 11, got 12\n"
        )
        deepest = tmp_path / "j11.patch"
        deepest.write_text(dump_patch(jacaranda_prefix(11)))
        assert run(capsys, "verify-renorm", "--sub", "builtin:bbab", "--patch", str(deepest)) == (
            0, "pass (21 sites checked)\n", ""
        )

    def test_negative_count_covers_every_integer_flag(self):
        # a new integer flag needs a row in NEGATIVE_COUNTS; --seed takes any integer
        covered = set()
        for _, argv, _ in NEGATIVE_COUNTS:
            words = argv.split()
            k = next(k for k, w in enumerate(words) if w[0] == "-" and w[1:].isdigit())
            covered.add((words[0], words[k - 1]))
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        flags = {
            (name, a.option_strings[0])
            for name, cmd in commands.items()
            for a in cmd._actions
            if a.type is int and not a.choices
        }
        assert covered == flags - {("verify-renorm", "--seed")}


def test_import_loads_no_heavy_stdlib_modules():
    """Importing the CLI, and with it every module, loads no dataclasses, inspect or hashlib.

    Only what the import itself adds counts, so modules that the host's site
    hooks load beforehand do not.
    """
    code = (
        "import sys; before = set(sys.modules); import substreetution.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    path = [str(Path(substreetution.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    added = set(out.stdout.split())
    assert "substreetution.cli" in added
    assert added & {"dataclasses", "inspect", "hashlib"} == set()
