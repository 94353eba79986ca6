"""Finite complete 2-colored binary tree patches and the two shift maps.

A patch of depth D stores one bit string per generation, breadth first:
level l holds the 2^l colors of generation l with the a-branch before the
b-branch.  The subtree rooted at the site with rank i in generation m then
occupies the aligned window [i * 2^l, (i+1) * 2^l) of level m + l, which
keeps all family-block reasoning plain index arithmetic.

Structural sharing is provided by a global interning table that assigns a
canonical integer id to every distinct (color, left-id, right-id) node.
Interning is exact: equal ids mean equal subtrees, never "probably equal".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import AddressTooDeep, BadPatchFormat, DepthMismatch

LETTERS = "ab"


def check_address(word: str) -> str:
    if any(c not in LETTERS for c in word):
        raise BadPatchFormat(f"address must be a word over {{a,b}}, got {word!r}")
    return word


def addr_index(word: str) -> int:
    """Rank of an address within its generation (a=0, b=1, binary)."""
    i = 0
    for c in word:
        i = 2 * i + (c == "b")
    return i


def index_addr(i: int, length: int) -> str:
    """Inverse of addr_index at a fixed generation."""
    return "".join("b" if (i >> k) & 1 else "a" for k in reversed(range(length)))


class _EqualToDepth:
    """Marker: no mismatch up to the common depth (not a distance of 0)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EQUAL_TO_DEPTH"


EQUAL_TO_DEPTH = _EqualToDepth()


class _Interner:
    def __init__(self):
        self._table = {}

    def node(self, color, left=None, right=None):
        key = (color, left, right)
        got = self._table.get(key)
        if got is None:
            got = len(self._table) + 1
            self._table[key] = got
        return got


_INTERN = _Interner()


@dataclass(frozen=True)
class Patch:
    """Complete colored binary tree of finite depth."""

    levels: tuple[str, ...]

    def __post_init__(self):
        if not self.levels:
            raise BadPatchFormat("a patch needs at least the root level")
        for l, row in enumerate(self.levels):
            if len(row) != 1 << l:
                raise BadPatchFormat(
                    f"level {l} must hold {1 << l} colors, got {len(row)}"
                )
            # one C-speed pass; a non-ASCII character encodes to "?" and stays
            if row.encode("ascii", "replace").translate(None, b"01"):
                raise BadPatchFormat(f"level {l} contains a non-binary color")

    # -- construction ------------------------------------------------------

    @staticmethod
    def leaf(color) -> "Patch":
        return Patch((str(int(color)),))

    @staticmethod
    def from_levels(rows) -> "Patch":
        return Patch(tuple("".join(str(c) for c in row) for row in rows))

    @staticmethod
    def combine(color, left: "Patch", right: "Patch") -> "Patch":
        """Root a new patch over two subtrees, truncated to their common depth."""
        d = min(left.depth, right.depth)
        rows = [str(int(color))]
        for l in range(d + 1):
            rows.append(left.levels[l] + right.levels[l])
        return Patch(tuple(rows))

    # -- basic queries -----------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def get(self, word: str) -> int:
        """Color at a site (empty word = root)."""
        check_address(word)
        if len(word) > self.depth:
            raise AddressTooDeep(f"site {word!r} below depth {self.depth}")
        return int(self.levels[len(word)][addr_index(word)])

    def line(self, l: int) -> str:
        if not 0 <= l <= self.depth:
            raise AddressTooDeep(f"no generation {l} in a depth-{self.depth} patch")
        return self.levels[l]

    def window(self, level: int, index: int, n: int) -> "Patch":
        """Depth-n subtree rooted at rank `index` of generation `level`."""
        if level + n > self.depth:
            raise AddressTooDeep(
                f"window of depth {n} at level {level} exceeds depth {self.depth}"
            )
        rows = tuple(
            self.levels[level + l][index << l : (index + 1) << l] for l in range(n + 1)
        )
        return Patch(rows)

    def subtree(self, word: str) -> "Patch":
        """Shift by the letters of `word` in order: the subtree rooted at that site."""
        check_address(word)
        if len(word) > self.depth:
            raise AddressTooDeep(f"site {word!r} below depth {self.depth}")
        return self.window(len(word), addr_index(word), self.depth - len(word))

    def truncate(self, depth: int) -> "Patch":
        if depth >= self.depth:
            return self
        return Patch(self.levels[: depth + 1])

    # -- canonical identity --------------------------------------------------

    @property
    def canonical_id(self) -> int:
        got = self.__dict__.get("_cid")
        if got is None:
            ids = [_INTERN.node(c) for c in self.levels[-1]]
            for l in range(self.depth - 1, -1, -1):
                row = self.levels[l]
                ids = [
                    _INTERN.node(row[i], ids[2 * i], ids[2 * i + 1])
                    for i in range(len(row))
                ]
            got = ids[0]
            self.__dict__["_cid"] = got
        return got

    def subtree_ids(self, n: int) -> list[list[int]]:
        """Canonical ids of every depth-n subtree.

        Entry [m][i] is the id of the depth-n subtree rooted at rank i of
        generation m, for every m <= depth - n.  Tables are cached per patch
        and built incrementally from the depth-(n-1) table.
        """
        if n > self.depth:
            raise AddressTooDeep(f"no depth-{n} subtrees in a depth-{self.depth} patch")
        cache = self.__dict__.setdefault("_idtables", {})
        start = n
        while start >= 0 and start not in cache:
            start -= 1
        if start < 0:
            cache[0] = [[_INTERN.node(c) for c in row] for row in self.levels]
            start = 0
        for k in range(start + 1, n + 1):
            below = cache[k - 1]
            cache[k] = [
                [
                    _INTERN.node(row[i], below[m + 1][2 * i], below[m + 1][2 * i + 1])
                    for i in range(len(row))
                ]
                for m, row in enumerate(self.levels[: self.depth - k + 1])
            ]
        return cache[n]


def distance(p: Patch, q: Patch):
    """2^-N for the first mismatching generation N, or EQUAL_TO_DEPTH.

    Finite patches cannot certify equality of the infinite trees they
    truncate, so full agreement is reported as a marker rather than 0.
    """
    if p.depth != q.depth:
        raise DepthMismatch(f"depths {p.depth} and {q.depth} differ")
    for l, (rp, rq) in enumerate(zip(p.levels, q.levels)):
        if rp != rq:
            return Fraction(1, 1 << l)
    return EQUAL_TO_DEPTH


def distinct_subpatches(p: Patch, n: int) -> frozenset[int]:
    """Canonical ids of all distinct depth-n subtrees rooted anywhere in p."""
    table = p.subtree_ids(n)
    return frozenset(i for row in table for i in row)


def subpatch_representatives(p: Patch, n: int) -> dict[int, Patch]:
    """One concrete depth-n patch per distinct canonical id occurring in p."""
    table = p.subtree_ids(n)
    reps: dict[int, Patch] = {}
    for m, row in enumerate(table):
        for i, cid in enumerate(row):
            if cid not in reps:
                reps[cid] = p.window(m, i, n)
    return reps


def random_patch(depth: int, rng: random.Random) -> Patch:
    rows = ["".join(rng.choice("01") for _ in range(1 << l)) for l in range(depth + 1)]
    return Patch(tuple(rows))


# -- text format -----------------------------------------------------------


def dump_patch(p: Patch) -> str:
    return "\n".join([f"depth {p.depth}", *p.levels]) + "\n"


def parse_patch(text: str) -> Patch:
    rows = []
    depth = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if depth is None:
            head = line.split()
            if len(head) != 2 or head[0] != "depth":
                raise BadPatchFormat(f"expected 'depth <D>' header, got {raw!r}")
            try:
                depth = int(head[1])
            except ValueError:
                raise BadPatchFormat(f"bad depth value {head[1]!r}") from None
            if depth < 0:
                raise BadPatchFormat("depth must be >= 0")
        else:
            rows.append(line)
    if depth is None:
        raise BadPatchFormat("empty patch text")
    if len(rows) != depth + 1:
        raise BadPatchFormat(f"expected {depth + 1} level lines, got {len(rows)}")
    return Patch(tuple(rows))


def load_patch(path) -> Patch:
    with open(path, encoding="ascii") as fh:
        return parse_patch(fh.read())


def save_patch(p: Patch, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_patch(p))
