"""The verification table: one deterministic check per headline claim.

Each criterion returns (ok, detail).  run_all prints one pass/fail line per
criterion, or one JSON object that adds its wall time; the CLI's
verify-paper command and the test suite both call in here so there is
exactly one definition of every gate.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, compress, count, product, repeat, starmap
from operator import ne

from .engine import ABBA, BBAB, THUE_MORSE, apply, fixed_point_prefix, unsub, verify_renormalization
from .errors import Shallow
from .jacaranda import brother, jacaranda_prefix
from .measures import invariant_measure
from .preimages import JAC_PREIMAGES, JAC_PRIME_PREIMAGES, crosscheck_sweep, parent_map, parents_of
from .render import RenderConfig, make_generators, tiling_svg, tree_svg
from .systems import (
    NOMEASURE_GRAPH,
    OrbitGraph,
    abba_digit,
    build_orbit_graph,
    nomeasure_tree,
    tm_project,
)
from .trees import distinct_subpatches, index_addr, random_patch
from .words import chi_pow, chi_recursive, chi_via_theta, line_formula, ones_count_line_2n, v2


def c01_fixed_point_lines():
    """Generated prefix: pinned lines, odd lines, and period-4 offset-2 lines."""
    j = jacaranda_prefix(16)
    if j.line(1) != "10" or j.line(2) != "0010":
        return False, "lines 1-2 wrong"
    if j.line(4) != "0010001000000010":
        return False, "line 4 wrong"
    for l in range(1, 17, 2):
        if j.line(l) != "10" * (1 << (l - 1)):
            return False, f"odd line {l} is not a 10-repetition"
    for l in range(2, 17, 4):
        if j.line(l) != "0010" * (1 << (l - 2)):
            return False, f"line {l} is not a 0010-repetition"
    return True, "lines 1,2,4 pinned; odd and 4N+2 structure exact to depth 16"


def c02_roots_only_difference():
    j, jp = jacaranda_prefix(16), fixed_point_prefix(BBAB, 1, 16)
    diff = [l for l in range(17) if j.line(l) != jp.line(l)]
    return diff == [0], f"levels differing: {diff}"


def c03_renormalization():
    rng = random.Random(40906)
    rep = verify_renormalization(BBAB, jacaranda_prefix(9), 6)
    if not rep.ok:
        return False, f"fixed tree failed at {rep.failure[0]!r}"
    for k in range(20):
        rep = verify_renormalization(BBAB, random_patch(6, rng), 6)
        if not rep.ok:
            return False, f"random patch {k} failed at {rep.failure[0]!r}"
    rep = verify_renormalization(ABBA, fixed_point_prefix(ABBA, 0, 9), 6)
    if not rep.ok:
        return False, f"ABBA failed at {rep.failure[0]!r}"
    return True, "identity holds on fixed trees and 20 random patches (maxlen 6)"


def c04_line_formula():
    j = jacaranda_prefix(16)
    bad = [m for m in range(1, 17) if line_formula(m) != j.line(m)]
    return not bad, f"mismatching generations: {bad}" if bad else "generations 1..16 exact"


def c05_ones_counts():
    j = jacaranda_prefix(16)
    expected = [1, 3, 39, 8463]
    got_formula = [ones_count_line_2n(n) for n in range(1, 5)]
    got_direct = [j.line(1 << n).count("1") for n in range(1, 5)]
    ok = got_formula == expected == got_direct
    return ok, f"formula {got_formula}, direct count {got_direct}, expected {expected}"


def c06_backward_bound_literal():
    """Every depth-d subpatch, d <= 8: one-step parents <= 3 and p_n <= 3^n, n <= 3.

    Stated bound; see the test module docstring for why shallow depths break
    it (one truncation can stand for several distinct trees of the closure,
    and the scan then unions their parent sets).
    """
    jp = jacaranda_prefix(14)
    maps = [parent_map(jp, d) for d in range(11)]
    violations = []
    for d in range(1, 9):
        for cid in distinct_subpatches(jp, d):
            frontier = {cid}
            for n in range(1, 4):
                frontier = parents_of(frontier, maps[d + n - 1])
                if len(frontier) > 3**n:
                    violations.append((d, n, len(frontier)))
                    break
    if violations:
        worst = max(violations, key=lambda t: t[2] / 3 ** t[1])
        sizes = sorted({d for d, _, _ in violations})
        return False, (
            f"{len(violations)} truncation classes exceed the bound at depths {sizes} "
            f"(worst: {worst[2]} ancestors at distance {worst[1]} for depth {worst[0]}); "
            "bound is exact for depth >= 8"
        )
    return True, "one-step <= 3 and p_n <= 3^n for all depth<=8 subpatches"


def c07_classified_vs_oracle():
    jp = jacaranda_prefix(14)
    rep, checked = crosscheck_sweep(jp, 6)
    if not rep.ok:
        return False, f"{len(rep.mismatches)} oracle parents matched no classified case"
    return True, (
        f"zero mismatches over {rep.occurrences} occurrences "
        f"({checked} distinct combinations); parent sets of the fixed trees: "
        f"{len(JAC_PREIMAGES)} and {len(JAC_PRIME_PREIMAGES)}"
    )


def c08_rigidity_roundtrips():
    rng = random.Random(51114)
    for k in range(100):
        p = random_patch(rng.randrange(5), rng)
        if unsub(BBAB, apply(BBAB, p)) != p:
            return False, f"round trip failed on random patch {k}"
    jp = jacaranda_prefix(14)
    tested = 0
    skipped = 0
    for m in range(jp.depth - 1):
        n = jp.depth - m - 1
        ids = jp.subtree_ids(n)[m + 1]
        # an id names a depth-n window, so the sites with one (b-sibling,
        # a-sibling) pair of ids are one class, checked at its first site and
        # counted per site; classes come in the order of their first sites
        pairs = list(zip(ids[1::2], ids[0::2]))
        for key, sites in Counter(pairs).items():
            i = pairs.index(key)
            if jp.levels[m + 1][2 * i : 2 * i + 2] != "10":
                continue
            b = jp.window(m + 1, 2 * i + 1, n)
            try:
                pred = brother(b, v2(m + 1))
            except Shallow:
                skipped += sites
                continue
            actual = jp.window(m + 1, 2 * i, n)
            d = min(pred.depth, actual.depth)
            if pred.truncate(d) != actual.truncate(d):
                return False, f"sibling mismatch at level {m} index {i}"
            tested += sites
    if tested < 100:
        return False, f"only {tested} sibling sites tested"
    return True, f"100 round trips; {tested} sibling sites reproduced ({skipped} too shallow)"


def c09_sequence_lift():
    word = tm_project(fixed_point_prefix(THUE_MORSE, 0, 15))
    return word == "0110100110010110", f"projected word {word}"


def c10_additive_digit_law():
    prefix = fixed_point_prefix(ABBA, 0, 12)
    for m in range(13):
        row = prefix.line(m)
        for i, c in enumerate(row):
            if int(c) != abba_digit(0, index_addr(i, m)):
                return False, f"digit law fails at level {m} index {i}"
    # the witness: the sweep covered the sites b a^n (n <= 10), where the law gives 0 + 1 = 1
    return True, "digit law exact on all sites to depth 12; witness holds for n <= 10"


def c11_no_invariant_measure():
    g = build_orbit_graph(nomeasure_tree(0, 12), 6)
    if len(g.states) != 6:
        return False, f"{len(g.states)} states"
    if g != NOMEASURE_GRAPH:
        return False, "edge structure differs from the expected 6-state graph"
    if invariant_measure(g).feasible:
        return False, "expected infeasible"
    loop = OrbitGraph(("s0",), {"s0": "s0"}, {"s0": "s0"})
    res = invariant_measure(loop)
    if not res.feasible or res.assignment["s0"] != 1:
        return False, "self-loop graph should carry the point mass"
    return True, "6-state graph infeasible; self-loop feasible with mass 1"


def c12_word_properties():
    # chi runs on every word; by theta's definition an image is the OR of its unit words'
    # images: ORs over each half's subsets (positions < n/2 first), paired, are in code order.
    for n in (1, 2, 4, 8, 16):
        spec, halves = f"0{n}b", [[0], [0]]
        for k in range(n):
            unit = int(chi_via_theta(BBAB, format(1 << (n - 1 - k), spec)), 2)
            halves[2 * k >= n] = [u | m for u in halves[2 * k >= n] for m in (0, unit)]
        # a row of images shares its first half's OR h: one w-bit lane per second half,
        # in code order from the top, so h * ones | tail holds them all (h < 2^w: no carries)
        w, seconds = n * n, halves[1]
        ones = int(("0" * (w - 1) + "1") * len(seconds), 2)
        tail = int("".join(map(format, seconds, repeat(f"0{w}b"))), 2)
        lanes = [slice(i, i + w) for i in range(0, w * len(seconds), w)]
        rows = (format(h * ones | tail, f"0{w * len(seconds)}b") for h in halves[0])
        defined = chain.from_iterable(map(row.__getitem__, lanes) for row in rows)
        # every word is a first-half word and a second-half word, paired by product in code order
        first, second = (map("".join, product("01", repeat=k)) for k in (n - n // 2, n // 2))
        images = map(chi_recursive, repeat(BBAB), starmap(str.__add__, product(first, second)))
        bad = next(compress(count(), map(ne, images, defined)), None)
        if bad is not None:
            return False, f"definitions disagree on {format(bad, spec)}"
    blocks = [chi_pow(BBAB, "10", u) for u in range(5)]
    for u, block in enumerate(blocks[1:], 1):
        half = len(block) // 2
        if "1" not in block[half:]:
            return False, f"no 1 in the second half at u={u}"
        if u >= 2 and "1" not in block[:half]:
            return False, f"no 1 in the first half at u={u}"
    if len({Fraction(block.count("1"), len(block)) for block in blocks}) != 5:
        return False, "block densities collide"
    return True, "definitions agree on 65814 words; halves and densities as claimed"


def c13_render_determinism():
    h1, h2 = make_generators()
    checks = [
        abs(h1(-0.5) - 0.5),
        abs(h1(1) - 1),
        abs(h1(-1) + 1),
        abs(h2(-0.5j) - 0.5j),
        abs(h2(1j) - 1j),
        abs(h2(-1j) + 1j),
    ]
    if max(checks) > 1e-12:
        return False, f"generator fixed-point error {max(checks):.2e}"
    tree = jacaranda_prefix(4)
    if tree_svg(tree) != tree_svg(tree):
        return False, "tree output not reproducible"
    cfg = RenderConfig(resolution=96, depth_limit=2)
    p = jacaranda_prefix(3)
    if tiling_svg(p, cfg) != tiling_svg(p, cfg):
        return False, "tiling output not reproducible"
    return True, "byte-identical outputs (single-threaded); generator checks < 1e-12"


CRITERIA = [
    ("1 fixed-point lines", c01_fixed_point_lines),
    ("2 roots-only difference", c02_roots_only_difference),
    ("3 renormalization", c03_renormalization),
    ("4 line formula", c04_line_formula),
    ("5 ones counts", c05_ones_counts),
    ("6 backward bound (literal)", c06_backward_bound_literal),
    ("7 classified vs oracle", c07_classified_vs_oracle),
    ("8 rigidity round trips", c08_rigidity_roundtrips),
    ("9 sequence lift", c09_sequence_lift),
    ("10 additive digit law", c10_additive_digit_law),
    ("11 no invariant measure", c11_no_invariant_measure),
    ("12 word properties", c12_word_properties),
    ("13 render determinism", c13_render_determinism),
]


def run_all(as_json=False):
    results = []
    for name, fn in CRITERIA:
        start = time.perf_counter()
        ok, detail = fn()
        seconds = time.perf_counter() - start
        results.append((name, ok, detail))
        if as_json:
            entry = {"gate": name, "ok": bool(ok), "detail": detail, "seconds": round(seconds, 6)}
            print(json.dumps(entry), flush=True)
        else:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return results
