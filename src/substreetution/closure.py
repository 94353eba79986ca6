"""The exact subtree classes of a fixed tree's orbit closure, by renormalization.

W_d is the set of depth-d windows of the fixed tree T, and so of its orbit
closure.  An even site w has T|w = sigma(T|source(w)), and an odd site's
window is a child of the window one deeper at its even parent.  Where the
grammar uses both letters, source maps the even sites onto all sites, so

    W_d = sigma(W_(d//2), d) + children of sigma(W_((d+1)//2), d + 1)   (d >= 2),

W_1 is the least set, grown from the root's window, that holds sigma of its
roots and the children of its images at depth 2, and W_0 is its roots.  A
one-letter grammar sources the spine sites only, and is refused.  Windows
are ids in one node table keyed (color, a-child id, b-child id), leaves
(color, 0, 0), as in `trees.classes`; each call builds its own table.
"""

from __future__ import annotations

from .engine import SLOTS, Substreetution, check_fixed_tree
from .errors import BadSystemFormat


def closure_classes(sub: Substreetution, root: int, depth: int) -> list[dict]:
    """W_0..W_depth of the fixed tree of `sub` with the given root, each {id: key}."""
    check_fixed_tree(sub, root, depth)
    if len(set(sub.grammar)) == 1:
        raise BadSystemFormat(f"grammar {sub.grammar} sources the spine only; not supported")
    ids, keys, memo = {}, [None], {}
    images = {str(c): tuple(map(str, sub.image(c))) for c in (0, 1)}
    feeds = [1 if sub.source_letter(slot) == "a" else 2 for slot in SLOTS]  # key index

    def node(*key):
        if key not in ids:
            ids[key] = len(keys)
            keys.append(key)
        return ids[key]

    def sigma(x, d):  # sigma(x) truncated to depth d, for a window x of depth d // 2
        if d < 0:
            return 0
        if (x, d) not in memo:
            r, ca, cb = images[keys[x][0]]
            g = [sigma(keys[x][j], d - 2) for j in feeds]
            memo[x, d] = node(r, node(ca, *g[:2]), node(cb, *g[2:])) if d else node(r, 0, 0)
        return memo[x, d]

    w1, grow = {}, [sigma(node(str(root), 0, 0), 1)]
    for x in grow:
        if x not in w1:
            w1[x] = keys[x]
            grow += [sigma(x, 1), *keys[sigma(x, 2)][1:]]
    levels = [{node(c, 0, 0): (c, 0, 0) for c, _, _ in w1.values()}, w1]
    for d in range(2, depth + 1):
        xs = [sigma(x, d) for x in levels[d // 2]]
        xs += [y for x in levels[(d + 1) // 2] for y in keys[sigma(x, d + 1)][1:]]
        levels.append({x: keys[x] for x in xs})
    return levels[: depth + 1]
