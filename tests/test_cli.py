import argparse
import json
import random

import pytest

from substreetution.cli import build_parser, main
from substreetution.engine import BBAB, fixed_point_prefix
from substreetution.jacaranda import concrete, jacaranda_prefix
from substreetution.preimages import preimages_classified
from substreetution.systems import build_orbit_graph, nomeasure_tree
from substreetution.trees import dump_patch, parse_patch, random_patch


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
        # without a site the lines leave the parent class open; the site
        # "a" of the default depth-14 prefix pins it
        jp = jacaranda_prefix(14)
        patch = jp.subtree("a").truncate(5)
        f = tmp_path / "sub.patch"
        f.write_text(dump_patch(patch))
        code, _, err = run(capsys, "preimages", "--patch", str(f), "--classified")
        assert code == 2 and "undetermined" in err
        code, out, _ = run(capsys, "preimages", "--patch", str(f), "--site", "a")
        assert code == 0
        assert out == preimages_classified(concrete(patch, "a"), jp).serialize()
        assert out.startswith("completeness=exact")

    def test_preimages_site_is_checked(self, capsys, tmp_path):
        f = tmp_path / "sub.patch"
        f.write_text(dump_patch(jacaranda_prefix(14).subtree("a").truncate(5)))
        for site, message in (
            ("b", "does not occur at site 'b'"),
            ("a" * 10, "reaches below the depth-14 prefix"),
            ("ax", "address must be a word"),
        ):
            code, out, err = run(
                capsys, "preimages", "--patch", str(f), "--classified", "--site", site
            )
            assert code == 2 and message in err and out == ""

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
        assert err == "# state s1 is not b-periodic\n"

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
        assert err == "error: more than 64 states; treating as not closed\n"

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
        assert entries[10]["detail"] == "6-state graph infeasible; self-loop feasible with mass 1"


class TestRenderCommands:
    def test_render_tree(self, capsys, tmp_path):
        f = tmp_path / "j.patch"
        f.write_text(dump_patch(fixed_point_prefix(BBAB, 0, 4)))
        out_file = tmp_path / "tree.svg"
        code, _, _ = run(capsys, "render-tree", "--patch", str(f), "--out", str(out_file))
        assert code == 0 and out_file.read_text().startswith("<svg")

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
