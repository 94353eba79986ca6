"""The thirteen verification gates, one test each.

Gate 6 is asserted literally and is expected red at the moment: below depth
8 a single truncation is shared by several distinct trees of the orbit
closure, so the scan necessarily unions their parent sets and exceeds the
per-tree bound of 3 (a depth-1 example with five parents can be read off
the line structure by hand).  The per-tree statement itself is what gate 7
verifies, per occurrence class, with zero mismatches.  Depth 8 does not end
the aliasing: over the exact classes of the closure, closure_classes(BBAB,
0, 15), the most one-step parents of a depth-d class (a parent with the
class on both sides counted once) are 5, 4, 5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4,
4 at d = 1..14, so the literal bound fails at every depth (pinned in
tests/test_preimages.py).  The gate's depth-14 prefix shows only 16 of the
28 depth-8 classes, which hides this from depth 8 on.  The gate is kept as
stated rather than weakened to the attainable form.
"""

import json

import pytest

from substreetution import acceptance
from substreetution.errors import Shallow
from substreetution.jacaranda import brother, jacaranda_prefix
from substreetution.words import chi_recursive, chi_via_theta, v2


@pytest.fixture(scope="module")
def results(verify_paper_json):
    table = {}
    for line in verify_paper_json[1].splitlines():
        entry = json.loads(line)
        name, ok, detail = entry["gate"], entry["ok"], entry["detail"]
        table[name.split(" ")[0]] = (name, ok, detail)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return table


def _gate(results, key):
    name, ok, detail = results[key]
    assert ok, f"{name}: {detail}"


def test_criterion_01_fixed_point_lines(results):
    _gate(results, "1")


def test_criterion_02_roots_only_difference(results):
    _gate(results, "2")


def test_criterion_03_renormalization(results):
    _gate(results, "3")


def test_criterion_04_line_formula(results):
    _gate(results, "4")


def test_criterion_05_ones_counts(results):
    _gate(results, "5")


def test_criterion_06_backward_bound_literal(results):
    _gate(results, "6")


def test_criterion_07_classified_vs_oracle(results):
    _gate(results, "7")


def test_criterion_08_rigidity_roundtrips(results):
    _gate(results, "8")


def test_criterion_09_sequence_lift(results):
    _gate(results, "9")


def test_criterion_10_additive_digit_law(results):
    _gate(results, "10")


def test_criterion_11_no_invariant_measure(results):
    _gate(results, "11")


def test_criterion_12_word_properties(results):
    _gate(results, "12")


def test_criterion_13_render_determinism(results):
    _gate(results, "13")


def _sibling_sites_oracle(jp):
    """Gate 8's check site by site: (tested, skipped), or None at a mismatch."""
    tested = skipped = 0
    for m in range(jp.depth - 1):
        for i in range(1 << m):
            if jp.levels[m + 1][2 * i] != "1" or jp.levels[m + 1][2 * i + 1] != "0":
                continue
            b = jp.window(m + 1, 2 * i + 1, jp.depth - m - 1)
            try:
                pred = brother(b, v2(m + 1))
            except Shallow:
                skipped += 1
                continue
            actual = jp.window(m + 1, 2 * i, jp.depth - m - 1)
            d = min(pred.depth, actual.depth)
            if pred.truncate(d) != actual.truncate(d):
                return None
            tested += 1
    return tested, skipped


def test_gate_08_checks_each_sibling_class_once(monkeypatch):
    # the 6,544 sibling sites of the depth-14 prefix fall into 18 classes of
    # (b-sibling, a-sibling) windows, and the gate calls brother once per class
    tested, skipped = _sibling_sites_oracle(jacaranda_prefix(14))
    assert (tested, skipped) == (5737, 807)
    calls = []

    def counting_brother(p, u=None):
        calls.append(u)
        return brother(p, u)

    monkeypatch.setattr(acceptance, "brother", counting_brother)
    assert acceptance.c08_rigidity_roundtrips() == (
        True,
        f"100 round trips; {tested} sibling sites reproduced ({skipped} too shallow)",
    )
    assert len(calls) == 18


def _recorded(fn, calls, bad_word=None, flip=0):
    """`fn` that appends each word to `calls` and flips character `flip` of bad_word's image."""

    def wrapped(sub, word):
        calls.append(word)
        image = fn(sub, word)
        if word != bad_word:
            return image
        i = flip % len(image)
        return image[:i] + "10"[int(image[i])] + image[i + 1 :]

    return wrapped


def test_gate_12_names_the_first_word_on_the_theta_side(monkeypatch):
    # the theta side reads chi_via_theta on the 31 unit words only, so a wrong
    # unit image spoils every word that holds the unit; the first of them in
    # code order is the unit word itself
    calls = []
    monkeypatch.setattr(acceptance, "chi_via_theta", _recorded(chi_via_theta, calls, "0000000010000000"))
    assert acceptance.c12_word_properties() == (False, "definitions disagree on 0000000010000000")
    assert len(calls) == 31 and all(w.count("1") == 1 for w in calls)


def _names_the_bad_word(monkeypatch, bad, flip=0):
    words = []
    monkeypatch.setattr(acceptance, "chi_recursive", _recorded(chi_recursive, words, bad, flip))
    assert acceptance.c12_word_properties() == (False, f"definitions disagree on {bad}")
    # every word of lengths 1 to 8, then length 16 in code order up to the bad word
    k = int(bad, 2)
    assert len(words) == 2 + 4 + 16 + 256 + (k + 1)
    assert words[-(k + 1) :] == [format(j, "016b") for j in range(k + 1)]


def test_gate_12_names_the_word_on_the_recursive_side(monkeypatch):
    _names_the_bad_word(monkeypatch, "0000000000000011")


@pytest.mark.parametrize("flip", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("bad", ["0000000011111111", "0000000100000000", "1111111111111111"])
def test_gate_12_names_the_word_at_a_row_boundary(monkeypatch, bad, flip):
    # the theta side reads a row of 256 images (one per second half) from one number:
    # the last word of a row, the first of the next and the very last word, with the
    # first or last character of the image flipped, catch a wrong lane width or offset
    _names_the_bad_word(monkeypatch, bad, flip)


def test_gate_12_runs_the_recursive_map_on_every_word(monkeypatch):
    words = []
    monkeypatch.setattr(acceptance, "chi_recursive", _recorded(chi_recursive, words))
    assert acceptance.c12_word_properties() == (
        True, "definitions agree on 65814 words; halves and densities as claimed"
    )
    # every word of each length once, in code order
    assert words == [format(k, f"0{n}b") for n in (1, 2, 4, 8, 16) for k in range(1 << n)]
