import itertools

import pytest

from substreetution.closure import closure_classes
from substreetution.engine import BBAB, Substreetution, fixed_point_prefix
from substreetution.errors import BadSystemFormat, NonPositive, NotFixable
from substreetution.jacaranda import jacaranda_prefix
from substreetution.trees import decode, subpatch_representatives


def windows(levels):
    """Each level of the closure as the set of its windows' level tuples."""
    keys = {cid: key for level in levels for cid, key in level.items()}
    return [{p.levels for p in decode(keys, level).values()} for level in levels]


def prefix_windows(p, depth):
    return [{q.levels for q in subpatch_representatives(p, d).values()} for d in range(depth + 1)]


def test_bbab_counts():
    levels = closure_classes(BBAB, 0, 64)
    assert [len(level) for level in levels[:13]] == [2, 4, 7, 10, 13, 18, 21, 25, 28, 34, 39, 45, 48]
    assert len(levels[64]) == 373


def test_levels_are_node_keys():
    # a depth-d key names two depth-(d-1) classes, a leaf has children 0
    levels = closure_classes(BBAB, 0, 10)
    assert all(key[1:] == (0, 0) for key in levels[0].values())
    for below, level in zip(levels, levels[1:]):
        assert {cid for _, a, b in level.values() for cid in (a, b)} == set(below)


def test_root1_closure_is_root0s():
    assert windows(closure_classes(BBAB, 1, 12)) == windows(closure_classes(BBAB, 0, 12))


def test_equals_a_deep_prefix():
    # jacaranda_prefix(20) shows every class of depth <= 7
    assert windows(closure_classes(BBAB, 0, 7)) == prefix_windows(jacaranda_prefix(20), 7)


def test_ids_depend_on_nothing_earlier():
    first = closure_classes(BBAB, 0, 9)
    closure_classes(Substreetution((0, 1, 1), (1, 0, 0), "ABAB"), 0, 12)
    assert closure_classes(BBAB, 0, 9) == first


def test_holds_every_prefix_class_of_every_two_letter_pair():
    pairs = 0
    for image0, image1 in itertools.product(itertools.product((0, 1), repeat=3), repeat=2):
        for grammar in map("".join, itertools.product("AB", repeat=4)):
            if len(set(grammar)) == 1:
                continue
            sub = Substreetution(image0, image1, grammar)
            for root in (0, 1):
                if sub.fixable_at(root):
                    pairs += 1
                    got = windows(closure_classes(sub, root, 4))
                    seen = prefix_windows(fixed_point_prefix(sub, root, 10), 4)
                    assert all(map(set.issubset, seen, got)), (sub, root)
    assert pairs == 896


def test_refuses_what_it_cannot_answer():
    with pytest.raises(BadSystemFormat, match="spine"):
        closure_classes(Substreetution((0, 1, 0), (1, 1, 0), "BBBB"), 0, 3)
    with pytest.raises(NotFixable):
        closure_classes(Substreetution((1, 1, 0), (1, 1, 0), "BBAB"), 0, 3)
    with pytest.raises(NonPositive):
        closure_classes(BBAB, 0, -1)
