"""Command-line front end.

Every subcommand is a pure function of its inputs: same flags, same bytes
(the one exception is the `seconds` field of `verify-paper --json`).
Exit codes: 0 success, 1 usage error, 2 operation error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
import warnings

from . import acceptance
from .engine import (
    fixed_point_prefix,
    resolve_system,
    source,
    theta,
    verify_renormalization,
)
from .errors import NonPositive, SubstreetutionError
from .jacaranda import brother, detect_type, jacaranda_prefix, unsub_pow
from .measures import invariant_measure
from .preimages import p_n, preimages_bruteforce, preimages_classified
from .render import RenderConfig, tiling_svg, tree_svg
from .systems import build_orbit_graph, nomeasure_tree, parse_orbit_graph
from .trees import check_address, distinct_subpatches, dump_patch, load_patch, random_patch
from .words import chi_pow, ones_count_line_2n


# The line-2^n count for n = 14 has 4,933 digits, past the 4,300 that Python
# converts to text by default, and the work grows with 2^n beyond that.
_MAX_PROPORTION_N = 13

# The example seed's last line has 2^(depth + 4) digits; its graph is NOMEASURE_GRAPH to here.
_MAX_EXAMPLE_DEPTH = 14

# The tiling draws 10 (2^(limit + 1) - 1) bisector walls: 1.3 million at word limit 16,
# doubling with each further letter; a 4096-pixel side is a grid of 2^24 pixels.
_MAX_TILING_DEPTH = 16
_MAX_TILING_RES = 4096

# The tree picture has one SVG element per node and per edge: 22 MB at depth 16.
_MAX_TREE_DEPTH = 16

# No command builds a line past 2^24 characters: fixpoint's at --depth, chi's (2^(l * 2^pow)
# for a length-2^l word), verify-renorm's image line 2 * depth + 1 and theta's list of sites.
_MAX_LINE_LEVEL = 24


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_most(what, value, cap) -> None:
    if value > cap:
        raise SubstreetutionError(f"{what} must be <= {cap}, got {value}")


def _write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="substreetution")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixpoint", help="prefix of a fixed tree")
    p.add_argument("--sub", required=True, help="builtin:<name> or a system file")
    p.add_argument("--root", type=int, choices=(0, 1), required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("line", help="one generation of a patch")
    p.add_argument("--patch", required=True)
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("chi", help="iterate the line-doubling map")
    p.add_argument("--word", required=True)
    p.add_argument("--pow", type=int, default=1)
    p.add_argument("--sub", default="builtin:bbab")

    p = sub.add_parser("theta", help="even sites pulling back to an address")
    p.add_argument("--addr", required=True)
    p.add_argument("--sub", default="builtin:bbab")

    p = sub.add_parser("source", help="half-length source of an even address")
    p.add_argument("--addr", required=True)
    p.add_argument("--sub", default="builtin:bbab")

    p = sub.add_parser("verify-renorm", help="check the renormalization identity")
    p.add_argument("--sub", required=True)
    p.add_argument("--depth", type=int, default=9)
    p.add_argument("--maxlen", type=int, default=4)
    p.add_argument("--patch", help="check on this patch instead of the fixed tree")
    p.add_argument("--random", type=int, default=0, help="also check N random patches")
    p.add_argument("--seed", type=int, default=2024)

    p = sub.add_parser("type", help="dyadic class report for a patch")
    p.add_argument("--patch", required=True)

    p = sub.add_parser("unsub", help="invert the substitution repeatedly")
    p.add_argument("--patch", required=True)
    p.add_argument("--times", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("brother", help="forced root-1 sibling of a root-0 patch")
    p.add_argument("--patch", required=True)
    p.add_argument("--out")

    p = sub.add_parser("preimages", help="parents of a patch: classified, or scanned in a prefix")
    p.add_argument("--patch", required=True)
    p.add_argument("--jprefix", help="prefix file for the scan and --n (defaults to depth 14)")
    p.add_argument("--n", type=int, default=1, help="iterated ancestor distance")
    p.add_argument("--classified", action="store_true")
    p.add_argument(
        "--site",
        metavar="WORD",
        help="where the patch occurs in the fixed tree; classifies that occurrence "
        "(implies --classified)",
    )

    p = sub.add_parser("complexity", help="distinct subtree counts by depth")
    p.add_argument("--patch", required=True)
    p.add_argument("--max-n", type=int, required=True)

    p = sub.add_parser("proportion", help="exact density of 1s on line 2^n")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("orbit-graph", help="close a tree under both shifts")
    p.add_argument("--example", choices=("nomeasure",))
    p.add_argument("--patch")
    p.add_argument("--root", type=int, choices=(0, 1), default=0)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--out")

    p = sub.add_parser("measure-check", help="invariant probability feasibility")
    p.add_argument("--graph", required=True)

    p = sub.add_parser("render-tree", help="SVG picture of a patch")
    p.add_argument("--patch", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("render-tiling", help="colored disk tiling SVG")
    p.add_argument("--patch", required=True)
    p.add_argument("--depth", type=int, default=2, help="maximal word length")
    p.add_argument("--res", type=int, default=256)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify-paper", help="run the full verification table")
    p.add_argument(
        "--json",
        action="store_true",
        help="one JSON object per gate: gate, ok, detail, seconds",
    )
    return parser


def _run(args) -> int:
    cmd = args.command
    if cmd == "fixpoint":
        _at_most("depth", args.depth, _MAX_LINE_LEVEL)
        system = resolve_system(args.sub)
        patch = fixed_point_prefix(system, args.root, args.depth)
        _write(dump_patch(patch), args.out)
    elif cmd == "line":
        print(load_patch(args.patch).line(args.level))
    elif cmd == "chi":
        max_pow = (_MAX_LINE_LEVEL // max(len(args.word).bit_length() - 1, 1)).bit_length() - 1
        if args.pow > max_pow:
            raise SubstreetutionError(f"pow must be <= {max_pow} for this word, got {args.pow}")
        print(chi_pow(resolve_system(args.sub), args.word, args.pow))
    elif cmd == "theta":
        system = resolve_system(args.sub)
        slots = [system.slots_of(c) for c in check_address(args.addr)]
        count = math.prod(map(len, slots))
        _at_most("theta's output length", count * (2 * len(args.addr) + 1), 1 << _MAX_LINE_LEVEL)
        if count:  # slots come in SLOTS order, so the product is already sorted
            print(" ".join(map("".join, itertools.product(*slots))) or "e")
        else:
            theta(system, args.addr)  # warns that the grammar never uses a letter of addr
            print("{}")
    elif cmd == "source":
        system = resolve_system(args.sub)
        print(source(system, args.addr) or "e")
    elif cmd == "verify-renorm":
        if args.random < 0:
            raise NonPositive(f"random patch count must be >= 0, got {args.random}")
        cap = (_MAX_LINE_LEVEL - 1) // 2  # the image's deepest line is 2 * depth + 1
        _at_most("depth", args.depth, cap)
        patch = load_patch(args.patch) if args.patch else None
        if patch is not None:
            _at_most("patch depth", patch.depth, cap)
        system = resolve_system(args.sub)
        if patch is None:
            patch = fixed_point_prefix(system, 0 if system.fixable_at(0) else 1, args.depth)
        reports = [verify_renormalization(system, patch, args.maxlen)]
        rng = random.Random(args.seed)
        for _ in range(args.random):
            reports.append(verify_renormalization(system, random_patch(args.maxlen, rng), args.maxlen))
        ok = all(r.ok for r in reports)
        print(f"{'pass' if ok else 'FAIL'} ({sum(r.checked for r in reports)} sites checked)")
        return 0 if ok else 2
    elif cmd == "type":
        print(detect_type(load_patch(args.patch)).serialize())
    elif cmd == "unsub":
        patch = load_patch(args.patch)
        _write(dump_patch(unsub_pow(patch, args.times)), args.out)
    elif cmd == "brother":
        _write(dump_patch(brother(load_patch(args.patch))), args.out)
    elif cmd == "preimages":
        classified = args.classified or args.site is not None
        if classified and args.n != 1:
            raise SubstreetutionError(f"--n must be 1 with --classified or --site, got {args.n}")
        patch = load_patch(args.patch)
        if classified:  # at a site of J from its closed form, else the class's, from the closure
            sys.stdout.write(preimages_classified(patch, args.site).serialize())
            return 0
        jp = load_patch(args.jprefix) if args.jprefix else jacaranda_prefix(14)
        if args.n == 1:
            sys.stdout.write(preimages_bruteforce(patch, jp).serialize())
        else:
            print(p_n(patch, args.n, jp))
    elif cmd == "complexity":
        if args.max_n < 0:
            raise NonPositive(f"max-n must be >= 0, got {args.max_n}")
        patch = load_patch(args.patch)
        # every count before any line: a max-n past the patch depth prints nothing
        counts = [len(distinct_subpatches(patch, n)) for n in range(args.max_n + 1)]
        sys.stdout.writelines(f"{n} {c}\n" for n, c in enumerate(counts))
    elif cmd == "proportion":
        _at_most("n", args.n, _MAX_PROPORTION_N)
        print(f"{ones_count_line_2n(args.n)}/{1 << (1 << args.n)}")
    elif cmd == "orbit-graph":
        if args.example == "nomeasure":
            _at_most("depth", args.depth, _MAX_EXAMPLE_DEPTH)
            seed = nomeasure_tree(args.root, max(args.depth + 4, 12))
        elif args.patch:
            seed = load_patch(args.patch)
        else:
            raise SubstreetutionError("need --example or --patch")
        graph = build_orbit_graph(seed, args.depth)
        _write(graph.serialize(), args.out)
    elif cmd == "measure-check":
        with open(args.graph, encoding="ascii") as fh:
            graph = parse_orbit_graph(fh.read())
        result = invariant_measure(graph)
        for line in result.certificate:
            print(f"# {line}", file=sys.stderr)
        sys.stdout.write(result.serialize())
    elif cmd == "render-tree":
        patch = load_patch(args.patch)
        _at_most("patch depth", patch.depth, _MAX_TREE_DEPTH)
        _write(tree_svg(patch), args.out)
    elif cmd == "render-tiling":
        _at_most("depth", args.depth, _MAX_TILING_DEPTH)
        _at_most("res", args.res, _MAX_TILING_RES)
        cfg = RenderConfig(resolution=args.res, depth_limit=args.depth)
        _write(tiling_svg(load_patch(args.patch), cfg), args.out)
    elif cmd == "verify-paper":
        results = acceptance.run_all(as_json=args.json)
        return 0 if all(ok for _, ok, _ in results) else 3
    return 0


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        with warnings.catch_warnings():
            # a library warning reads like an error line, not like a traceback
            warnings.showwarning = _warning_line
            return _run(args)
    except (SubstreetutionError, OSError, UnicodeDecodeError) as exc:
        # input files are ASCII, comments included: a non-ASCII byte is an input error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
