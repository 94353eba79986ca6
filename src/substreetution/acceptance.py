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
from fractions import Fraction

from .engine import ABBA, BBAB, THUE_MORSE, apply, fixed_point_prefix, unsub, verify_renormalization
from .errors import Shallow
from .jacaranda import brother, jacaranda_prefix, jprime_prefix
from .measures import invariant_measure
from .preimages import JAC_PREIMAGES, JAC_PRIME_PREIMAGES, crosscheck_sweep, parent_map, parents_of
from .render import RenderConfig, make_generators, tiling_svg, tree_svg
from .systems import OrbitGraph, build_orbit_graph, invariant_edges_expected, nomeasure_tree, tm_project
from .trees import distinct_subpatches, index_addr, random_patch
from .words import chi_pow, chi_recursive, chi_via_theta, is_rep, line_formula, ones_count_line_2n, v2


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
    for l in range(2, 17):
        if l % 4 == 2 and not is_rep(j.line(l), "0010"):
            return False, f"line {l} is not a 0010-repetition"
    return True, "lines 1,2,4 pinned; odd and 4N+2 structure exact to depth 16"


def c02_roots_only_difference():
    j, jp = jacaranda_prefix(16), jprime_prefix(16)
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
    if len(JAC_PREIMAGES) != 3 or len(JAC_PRIME_PREIMAGES) != 1:
        return False, "fixed-tree parent sets have wrong sizes"
    return True, (
        f"zero mismatches over {rep.occurrences} occurrences "
        f"({checked} distinct combinations); parent sets of the fixed trees: 3 and 1"
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
        for i in range(1 << m):
            if jp.levels[m + 1][2 * i] != "1" or jp.levels[m + 1][2 * i + 1] != "0":
                continue
            u = v2(m + 1)
            b = jp.window(m + 1, 2 * i + 1, jp.depth - m - 1)
            try:
                pred = brother(b, u)
            except Shallow:
                skipped += 1
                continue
            actual = jp.window(m + 1, 2 * i, jp.depth - m - 1)
            d = min(pred.depth, actual.depth)
            if pred.truncate(d) != actual.truncate(d):
                return False, f"sibling mismatch at level {m} index {i}"
            tested += 1
    if tested < 100:
        return False, f"only {tested} sibling sites tested"
    return True, f"100 round trips; {tested} sibling sites reproduced ({skipped} too shallow)"


def c09_sequence_lift():
    word = tm_project(fixed_point_prefix(THUE_MORSE, 0, 15))
    return word == "0110100110010110", f"projected word {word}"


def c10_additive_digit_law():
    prefix = fixed_point_prefix(ABBA, 0, 12)
    from .systems import abba_digit, abba_nonminimal_witness

    for m in range(13):
        row = prefix.line(m)
        for i, c in enumerate(row):
            if int(c) != abba_digit(0, index_addr(i, m)):
                return False, f"digit law fails at level {m} index {i}"
    if not abba_nonminimal_witness(10, fixed_point_prefix(ABBA, 0, 11)):
        return False, "escape-branch witness failed"
    return True, "digit law exact on all sites to depth 12; witness holds for n <= 10"


def c11_no_invariant_measure():
    g = build_orbit_graph(nomeasure_tree(0, 12), 6)
    if len(g.states) != 6:
        return False, f"{len(g.states)} states"
    if not invariant_edges_expected(g):
        return False, "edge structure differs from the expected 6-state graph"
    if not g.periodic:
        return False, "orbit graph not periodic"
    if invariant_measure(g).feasible:
        return False, "expected infeasible"
    loop = OrbitGraph(("s0",), {"s0": "s0"}, {"s0": "s0"})
    res = invariant_measure(loop)
    if not res.feasible or res.assignment["s0"] != 1:
        return False, "self-loop graph should carry the point mass"
    return True, "6-state graph infeasible; self-loop feasible with mass 1"


def c12_word_properties():
    for length in (1, 2, 4, 8, 16):
        for code in range(1 << length):
            word = format(code, f"0{length}b")
            if chi_recursive(BBAB, word) != chi_via_theta(BBAB, word):
                return False, f"definitions disagree on {word}"
    for u in range(1, 5):
        block = chi_pow(BBAB, "10", u)
        half = len(block) // 2
        if "1" not in block[half:]:
            return False, f"no 1 in the second half at u={u}"
        if u >= 2 and "1" not in block[:half]:
            return False, f"no 1 in the first half at u={u}"
    densities = [
        Fraction(chi_pow(BBAB, "10", u).count("1"), 1 << (1 << u)) for u in range(5)
    ]
    if len(set(densities)) != 5:
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


def run_all(verbose=False, as_json=False):
    results = []
    for name, fn in CRITERIA:
        start = time.perf_counter()
        ok, detail = fn()
        seconds = time.perf_counter() - start
        results.append((name, ok, detail))
        if verbose and as_json:
            entry = {"gate": name, "ok": bool(ok), "detail": detail, "seconds": round(seconds, 6)}
            print(json.dumps(entry), flush=True)
        elif verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return results
