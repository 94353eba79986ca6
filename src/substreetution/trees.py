"""Finite complete 2-colored binary tree patches and the two shift maps.

A patch of depth D stores one bit string per generation, breadth first:
level l holds the 2^l colors of generation l with the a-branch before the
b-branch.  The subtree rooted at the site with rank i in generation m then
occupies the aligned window [i * 2^l, (i+1) * 2^l) of level m + l, which
keeps all family-block reasoning plain index arithmetic.

Subtree ids are local to a patch: each patch numbers its own distinct
(color, left-id, right-id) nodes, so ids are a pure function of the patch.
They are exact: two subtrees of one patch have equal ids exactly when they
are equal, never "probably equal".

Patches are validated where they enter (`Patch(...)`, `leaf`, `combine`,
`parse_patch`, `random_patch`).  Slices of a valid patch (`window`,
`truncate`, `subtree`) and the results of `engine.apply` and `engine.unsub`
are valid by construction and skip the checks through `Patch._of`.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, repeat

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

    @classmethod
    def _of(cls, levels: tuple[str, ...]) -> "Patch":
        """A patch over levels that are valid by construction, left unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "levels", levels)
        return p

    @staticmethod
    def leaf(color) -> "Patch":
        return Patch((str(int(color)),))

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
        if not (0 <= level and 0 <= n and level + n <= self.depth and 0 <= index < 1 << level):
            raise AddressTooDeep(
                f"no depth-{n} window at rank {index} of level {level} in depth {self.depth}"
            )
        rows = tuple(
            self.levels[level + l][index << l : (index + 1) << l] for l in range(n + 1)
        )
        return Patch._of(rows)

    def subtree(self, word: str) -> "Patch":
        """Shift by the letters of `word` in order: the subtree rooted at that site."""
        check_address(word)
        if len(word) > self.depth:
            raise AddressTooDeep(f"site {word!r} below depth {self.depth}")
        return self.window(len(word), addr_index(word), self.depth - len(word))

    def truncate(self, depth: int) -> "Patch":
        if depth >= self.depth:
            return self
        if depth < 0:
            raise BadPatchFormat(f"a patch needs at least the root level, got depth {depth}")
        return Patch._of(self.levels[: depth + 1])

    # -- subtree identity ----------------------------------------------------

    def subtree_ids(self, n: int) -> list[list[int]]:
        """Ids of every depth-n subtree, local to this patch.

        Entry [m][i] is the id of the depth-n subtree rooted at rank i of
        generation m, for every m <= depth - n.  Tables are cached per patch
        and built upward from depth 0; ids come from one (color, left-id,
        right-id) -> id table per patch, where a leaf has children 0.  A
        missing key takes the next id, so ids count from 1 in first-seen order.
        """
        if not 0 <= n <= self.depth:
            raise AddressTooDeep(f"no depth-{n} subtrees in a depth-{self.depth} patch")
        cache = self.__dict__.setdefault("_idtables", {})
        nodes = self.__dict__.setdefault("_nodes", defaultdict(count(1).__next__))
        for k in range(len(cache), n + 1):
            below = map(iter, cache[k - 1][1:]) if k else repeat(repeat(0))
            cache[k] = [
                list(map(nodes.__getitem__, zip(row, it, it)))
                for row, it in zip(self.levels[: self.depth - k + 1], below)
            ]
        return cache[n]

    def locate(self, a: "Patch") -> int | None:
        """The id `a` has in self.subtree_ids(a.depth), or None if it does not occur."""
        self.subtree_ids(a.depth)
        ids = repeat(0)
        for row in reversed(a.levels):
            # .get adds no key; a missing child puts None in the key, which no key holds
            ids = map(self.__dict__["_nodes"].get, zip(row, ids, ids))
        return next(ids)


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
    """Ids (local to p) of all distinct depth-n subtrees rooted anywhere in p."""
    return frozenset(chain.from_iterable(p.subtree_ids(n)))


def first_sites(p: Patch, n: int) -> dict[int, tuple[int, int]]:
    """Each depth-n subtree id of p -> (generation, rank) of its first site.

    Keys are in site order.  Within a row, distinct ids in first-seen order
    have rising first ranks, so each search resumes where the last stopped
    and a row is scanned once.
    """
    first: dict[int, tuple[int, int]] = {}
    for m, row in enumerate(p.subtree_ids(n)):
        i = 0
        for cid in dict.fromkeys(row):
            if cid not in first:
                i = row.index(cid, i)
                first[cid] = (m, i)
    return first


def subpatch_representatives(p: Patch, n: int) -> dict[int, Patch]:
    """One concrete depth-n patch per distinct subtree id of p."""
    return {cid: p.window(m, i, n) for cid, (m, i) in first_sites(p, n).items()}


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
