"""Finite complete 2-colored binary tree patches and the two shift maps.

A patch of depth D stores one bit string per generation, breadth first:
level l holds the 2^l colors of generation l with the a-branch before the
b-branch.  The subtree rooted at the site with rank i in generation m then
occupies the aligned window [i * 2^l, (i+1) * 2^l) of level m + l, which
keeps all family-block reasoning plain index arithmetic.

Subtree ids are local to a patch: each patch numbers its own distinct
(color, left-id, right-id) nodes, so ids are a pure function of the patch.
They are exact: two subtrees of one patch have equal ids exactly when they
are equal, never "probably equal".  Each depth's ids form one contiguous
range, so the classes of a depth, each with its node key (color, a-child
id, b-child id), are read off the node table without a pass over the id
table.  An id row is a sequence of ints.  While the classes one depth below
are so few that each site's tree packs into a one-byte code, and the ids a
depth can take fit a byte too, its table is built for all sites at once by
bytes operations and its rows are `bytes`; from the first depth that does
not fit, a table takes one node-table lookup per site and its rows are lists.

Patches are validated where they enter (`Patch(...)`, `leaf`, `combine`,
`parse_patch`, `random_patch`).  Slices of a valid patch (`window`,
`truncate`, `subtree`) and the results of `engine.apply` and `engine.unsub`
are valid by construction and skip the checks through `Patch._of`.

The package's records (`Patch`, systems, reports, graphs) are classes under
`_record`: it sets their methods as closures over the annotated fields, where
`dataclasses` would import `inspect`, `ast` and `dis` and compile code.  The
`dataclass` contract holds: `==` only within a class, by fields; `hash` of the
field tuple; repr `Name(field=value, ...)`; `__post_init__` after the fields;
AttributeError on assigning or deleting.
"""

from __future__ import annotations

import random
from collections import defaultdict
from fractions import Fraction
from itertools import count, islice, repeat
from operator import attrgetter

from .errors import AddressTooDeep, BadPatchFormat, DepthMismatch

LETTERS = "ab"


def check_address(word: str) -> str:
    if any(c not in LETTERS for c in word):
        raise BadPatchFormat(f"address must be a word over {{a,b}}, got {word!r}")
    return word


_TO_BITS, _TO_LETTERS = str.maketrans("ab", "01"), str.maketrans("01", "ab")


_COLOR_CODES = bytes.maketrans(b"01", b"\0\1")  # a color character to its depth-0 code


def addr_index(word: str) -> int:
    """Rank of an address within its generation (a=0, b=1, binary)."""
    return int(word.translate(_TO_BITS), 2) if word else 0


def index_addr(i: int, length: int) -> str:
    """Inverse of addr_index at a fixed generation."""
    return format(i, f"0{length}b").translate(_TO_LETTERS) if length else ""


class _EqualToDepth:
    """Marker: no mismatch up to the common depth (not a distance of 0)."""

    def __repr__(self):
        return "EQUAL_TO_DEPTH"


EQUAL_TO_DEPTH = _EqualToDepth()


def _record(cls):
    """Class decorator: a record over the fields the class annotates (see the module doc)."""
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    key = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            values = dict(defaults, **dict(zip(names, args)), **kwargs)  # a repeated field raises
            if len(args) > len(names) or values.keys() != set(names):
                raise TypeError(f"{cls.__name__}() takes {names}, got {len(args)} "
                                f"positional arguments and the keywords {sorted(kwargs)}")
            args = map(values.__getitem__, names)
        self.__dict__.update(zip(names, args))
        if post_init:
            post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, names, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__, cls.__setattr__, cls.__delattr__ = __hash__, __setattr__, __delattr__
    return cls


@_record
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

    def subtree_ids(self, n: int) -> list[bytes] | list[list[int]]:
        """Ids of every depth-n subtree, local to this patch.

        Entry [m][i] is the id of the depth-n subtree rooted at rank i of
        generation m, for every m <= depth - n.  Tables are cached per patch
        and built upward from depth 0; ids come from one (color, left-id,
        right-id) -> id table per patch, where a leaf has children 0.  A
        missing key takes the next id, so ids count from 1 in first-seen order:
        the root's color is leaf 1 and the other color, if it occurs, leaf 2.
        A depth-k key has depth-(k-1) children, so each depth takes a new,
        contiguous id range; `_ends[k + 1]` is the table's size after depth k.

        With N classes at depth k - 1, a site's depth-k tree is one of 2*N^2
        codes, each below 2*N^2 plus the first depth-(k-1) id (`_coded_ids`).
        While every id depth k can take fits a byte, the table's size before it
        plus 2*N^2 at most 255 (so every code < 256 too), depth k's rows are
        `bytes`, built for all sites at once; depths 0, 1 and 2 always are
        (N = 1, 2 and at most 8).  From the first depth that does not fit, rows
        are lists, one node-table lookup per site.
        """
        if not 0 <= n <= self.depth:
            raise AddressTooDeep(f"no depth-{n} subtrees in a depth-{self.depth} patch")
        cache = self.__dict__.setdefault("_idtables", [])
        nodes = self.__dict__.setdefault("_nodes", defaultdict(count(1).__next__))
        ends = self.__dict__.setdefault("_ends", [0])
        for k in range(len(cache), n + 1):
            cache.append(self._coded_ids(k, nodes) or [
                list(map(nodes.__getitem__, zip(row, it, it)))
                for row, it in zip(self.levels[: self.depth - k + 1], map(iter, cache[k - 1][1:]))
            ])
            ends.append(len(nodes))
        return cache[n]

    def _coded_ids(self, k: int, nodes) -> list[bytes] | None:
        """The depth-k id rows for every site at once, or None if depth k is not coded.

        A site's code is c*N^2 + l*N + r + base: c its color, N the number of
        depth-(k-1) classes, base the first depth-(k-1) id, and l + base and
        r + base its children's depth-(k-1) ids (at depth 0, N = 1 and base = 0:
        the code is the color).  The depth-0 ids and the latest coded depth's are
        kept for every site, breadth first, so the a-children of all sites are
        [1::2] of the latter and the b-children [2::2].  The b-child's id is its
        field as it is; translates map a site's depth-0 id to c*N^2 and its
        a-child's id to l*N.  Each code is numbered at its first site, and a
        translate maps codes to ids.
        """
        if k:
            if not (coded := self.__dict__["_coded"]):  # depth k - 1 was the last coded one
                return None
            leaves, below, n = coded
            base, sites = len(nodes) + 1 - n, len(below) >> 1
            # leaf id 1 has the root's color, 2 the other one
            hue = bytes((0, 0, n * n) if self.levels[0] == "0" else (0, n * n)).ljust(256, b"\0")
            times_n = (bytes(base) + bytes(range(0, n * n, n))).ljust(256, b"\0")
            fields = (leaves[:sites].translate(hue), below[1::2].translate(times_n), below[2::2])
            # a site's fields sum to its code, < 256, so one sum of big integers adds every site's
            codes = sum(int.from_bytes(f, "big") for f in fields).to_bytes(sites, "big")
        else:
            n, base, codes = 1, 0, "".join(self.levels).encode().translate(_COLOR_CODES)
        # a search per candidate code, each a C-speed scan
        find = codes.find
        first = {v: at for v in range(base, base + 2 * n * n) if (at := find(v)) >= 0}
        table = bytearray(256)
        for v in sorted(first, key=first.get):
            c, lr = divmod(v - base, n * n)
            table[v] = nodes["01"[c], base + lr // n, base + lr % n]
        row_ids = codes.translate(table)
        # keep the leaf ids and the latest ones while depth k + 1 fits a byte (see subtree_ids)
        fits = len(nodes) + 2 * len(first) ** 2 <= 255
        self.__dict__["_coded"] = (leaves if k else row_ids, row_ids, len(first)) if fits else ()
        return [row_ids[(1 << m) - 1 : (2 << m) - 1] for m in range(self.depth - k + 1)]

    def locate(self, a: "Patch") -> int | None:
        """The id `a` has in self.subtree_ids(a.depth), or None if it does not occur."""
        self.subtree_ids(a.depth)
        return find(self.__dict__["_nodes"], a)


def find(nodes, a: Patch) -> int | None:
    """The id of `a` in a node table `nodes` (key -> id), or None if it holds no such node."""
    ids = repeat(0)
    for row in reversed(a.levels):
        # .get adds no key; a missing child puts None in the key, which no key holds
        ids = map(nodes.get, zip(row, ids, ids))
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


def classes(p: Patch, n: int) -> dict[int, tuple[str, int, int]]:
    """Each depth-n subtree id of p -> its node key (color, a-child id, b-child id).

    These are the id range depth n took in p's node table.  Ids are handed out
    in site order, so the keys come in the order of the classes' first sites.
    A depth-0 key has children 0.
    """
    p.subtree_ids(n)
    nodes, (start, stop) = p.__dict__["_nodes"], p.__dict__["_ends"][n : n + 2]
    return dict(zip(islice(nodes.values(), start, stop), islice(nodes, start, stop)))


def distinct_subpatches(p: Patch, n: int) -> frozenset[int]:
    """Ids (local to p) of all distinct depth-n subtrees rooted anywhere in p."""
    return frozenset(classes(p, n))


def truncations(p: Patch, n: int) -> dict[int, int]:
    """Each id of depth <= n in p -> the id of its truncation by one level (depth 0: 0)."""
    up, nodes = dict.fromkeys(classes(p, 0), 0), p.__dict__["_nodes"]
    for k in range(1, n + 1):
        up.update((cid, nodes[c, up[a], up[b]]) for cid, (c, a, b) in classes(p, k).items())
    return up


def node_keys(p: Patch) -> list:
    """p's node table by id: entry k is the key of id k, and entry 0 (no node) is None."""
    return [None, *p.__dict__["_nodes"]]


def decode(keys, ids) -> dict[int, Patch]:
    """The subtree each given id stands for, from keys[id], its node key, and its descendants'."""
    levels = {0: ()}

    def walk(cid):
        if cid not in levels:
            c, a, b = keys[cid]
            levels[cid] = (c, *map(str.__add__, walk(a), walk(b)))
        return levels[cid]

    return {cid: Patch._of(walk(cid)) for cid in ids}


def subpatch_representatives(p: Patch, n: int) -> dict[int, Patch]:
    """One concrete depth-n patch per distinct subtree id of p, in first-site order."""
    ids = classes(p, n)
    return decode(node_keys(p), ids)


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
