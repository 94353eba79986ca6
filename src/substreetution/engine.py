"""Constant-length-2 substitutions on colored binary trees.

A system maps each color to a depth-1 tree and carries a 4-letter grammar
over {A, B} that says, slot by slot (aa, ab, ba, bb), whether the image of
the a-subtree or of the b-subtree is glued at generation 2.  This grammar
order reproduces the source table s(ba)=a, s(aa)=s(ab)=s(bb)=b of the
BBAB system, which pins down the otherwise implicit slot convention.
"""

from __future__ import annotations

import itertools
import re
import warnings
from functools import cached_property, lru_cache
from operator import itemgetter

from .errors import (
    BadSystemFormat,
    NonPositive,
    NotFixable,
    NotInImage,
    OddLength,
    Shallow,
)
from .trees import Patch, _record, check_address, index_addr

SLOTS = ("aa", "ab", "ba", "bb")
# colors per key of a system's chunk tables: every line of 1 to 8 colors,
# 278 keys; an image holds at most 64 colors, 128 characters with image children
CHUNK = 8


@_record
class Substreetution:
    """Images of the two colors plus the grammar word.

    image0/image1 are (root, a-child, b-child) triples of bits.  The system
    is *marked* when the two image roots differ, which makes it injective
    and lets images be unsubstituted.
    """

    image0: tuple[int, int, int]
    image1: tuple[int, int, int]
    grammar: str
    name: str | None = None

    def __post_init__(self):
        for img in (self.image0, self.image1):
            if len(img) != 3 or any(b not in (0, 1) for b in img):
                raise BadSystemFormat(f"image must be a triple of bits, got {img!r}")
        if len(self.grammar) != 4 or any(c not in "AB" for c in self.grammar):
            raise BadSystemFormat(f"grammar must be 4 letters over A/B, got {self.grammar!r}")

    def image(self, color: int) -> tuple[int, int, int]:
        return self.image1 if color else self.image0

    @property
    def marked(self) -> bool:
        return self.image0[0] != self.image1[0]

    def fixable_at(self, color: int) -> bool:
        return self.image(color)[0] == color

    def source_letter(self, slot: str) -> str:
        """Which subtree ('a' or 'b') feeds the given generation-2 slot."""
        return "a" if self.grammar[SLOTS.index(slot)] == "A" else "b"

    def slots_of(self, letter: str) -> tuple[str, ...]:
        want = "A" if letter == "a" else "B"
        return tuple(s for s, g in zip(SLOTS, self.grammar) if g == want)

    @cached_property
    def slot_parts(self) -> itemgetter:
        """The grammar as a picker over an (a-part, b-part) pair.

        "".join(slot_parts((a, b))) fills the four slots (SLOTS order) with
        the part each one is fed by: one step of the slot recursion.
        """
        return itemgetter(*(0 if g == "A" else 1 for g in self.grammar))

    @cached_property
    def _chunk_images(self) -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
        """double's tables: the image of every line of 1 to CHUNK colors over {0,1}.

        The first table holds the image itself, the second the image with each
        color replaced by its image root, the third with each color replaced by
        its image's two children.  double only copies and moves positions, so
        it commutes with such a color-by-color map.  A wider entry is the
        join of slot_parts picked from its key halves' entries.
        """
        pick = self.slot_parts
        keys = ["0", "1"]
        rows = [
            keys,
            ["%d" % self.image(c)[0] for c in (0, 1)],
            ["%d%d" % self.image(c)[1:] for c in (0, 1)],
        ]
        tables = tuple(dict(zip(keys, row)) for row in rows)
        while len(keys[0]) < CHUNK:  # each key of twice the width is a pair of keys
            keys = list(map("".join, itertools.product(keys, repeat=2)))
            rows = [list(map("".join, map(pick, itertools.product(row, repeat=2)))) for row in rows]
            for table, row in zip(tables, rows):
                table.update(zip(keys, row))
        return tables


BBAB = Substreetution((0, 1, 0), (1, 1, 0), "BBAB", name="bbab-jacaranda")
THUE_MORSE = Substreetution((0, 1, 1), (1, 0, 0), "ABAB", name="thue-morse")
ABBA = Substreetution((0, 0, 1), (1, 1, 0), "ABBA", name="abba")

BUILTINS = {
    "bbab": BBAB,
    "bbab-jacaranda": BBAB,
    "tm": THUE_MORSE,
    "thue-morse": THUE_MORSE,
    "abba": ABBA,
}


# -- applying the substitution ----------------------------------------------


def apply(sub: Substreetution, p: Patch, out_depth: int | None = None) -> Patch:
    """Image of a patch; depth 2*p.depth + 1, optionally truncated.

    A node of color c contributes the three nodes of its image at the two
    generations it spawns; the four grandchild slots receive the images of
    the node's subtrees as dictated by the grammar.  Read level by level,
    generation 2m of the image is generation m of p with each color replaced
    by its image root, doubled by the slot recursion; generation 2m + 1 is
    the same with each color replaced by its image's children.  Truncation
    happens during construction so deep prefixes never materialize beyond
    out_depth.
    """
    full = 2 * p.depth + 1
    out_depth = full if out_depth is None else min(max(out_depth, 0), full)
    _, roots, children = sub._chunk_images
    rows = []
    for line in p.levels[: out_depth // 2 + 1]:
        rows.append(double(sub, line, roots))
        if len(rows) <= out_depth:
            rows.append(double(sub, line, children))
    return Patch._of(tuple(rows))


def double(sub: Substreetution, line: str, table: dict[str, str] | None = None) -> str:
    """The slot recursion on halves: a line of 2^m colors to its 4^m-color image.

    The image of a line is the join of slot_parts picked from the images of
    its two halves, and a single color is its own image.  A line of at most
    CHUNK colors is read from `table`, one of the system's _chunk_images (the
    plain image when None), which also maps the image color by color.
    Lines are over {0,1}: chi_pow checks this once, and double trusts it.
    """
    if table is None:
        table = sub._chunk_images[0]
    if len(line) <= CHUNK:
        return table[line]
    half = len(line) // 2
    if half <= CHUNK:  # both halves are table keys: read here, no frame per half
        parts = table[line[:half]], table[line[half:]]
    else:
        parts = double(sub, line[:half], table), double(sub, line[half:], table)
    return "".join(sub.slot_parts(parts))


def apply_pow(sub: Substreetution, p: Patch, u: int, depth: int) -> Patch:
    """u-fold image of `p`, truncated to `depth` while it is built."""
    for _ in range(u):
        p = apply(sub, p, depth)
    return p.truncate(depth)


def fixed_point_prefix(sub: Substreetution, root: int, depth: int) -> Patch:
    """Depth-`depth` truncation of the unique fixed tree with the given root.

    The image of the fixed tree's depth-d prefix is its depth-(2d + 1)
    prefix, so depth.bit_length() images of the root reach `depth`.
    """
    check_fixed_tree(sub, root, depth)
    return apply_pow(sub, Patch.leaf(root), depth.bit_length(), depth)


def check_fixed_tree(sub: Substreetution, root: int, depth: int) -> None:
    """Refuse a negative depth, then a root whose image does not start with it."""
    if depth < 0:
        raise NonPositive(f"depth must be >= 0, got {depth}")
    if not sub.fixable_at(root):
        raise NotFixable(f"{sub.name or sub.grammar}: image of {root} does not start with {root}")


# -- source and its multivalued inverse --------------------------------------


def source(sub: Substreetution, word: str) -> str:
    """Half-length site the substitution pulls an even site back to, blockwise."""
    check_address(word)
    if len(word) % 2:
        raise OddLength(f"source needs an even-length site, got {word!r}")
    return "".join(
        sub.source_letter(word[i : i + 2]) for i in range(0, len(word), 2)
    )


def theta(sub: Substreetution, word: str) -> frozenset[str]:
    """All even sites whose source is `word` (letterwise slot sets, concatenated)."""
    check_address(word)
    sets = []
    for c in word:
        slots = sub.slots_of(c)
        if not slots:
            warnings.warn(
                f"grammar {sub.grammar} never uses letter {c!r}; theta({word!r}) is empty "
                "and the source map is not onto",
                stacklevel=2,
            )
            return frozenset()
        sets.append(slots)
    return frozenset("".join(parts) for parts in itertools.product(*sets))


# -- renormalization ----------------------------------------------------------


@_record
class RenormReport:
    ok: bool
    checked: int
    failure: tuple[str, Patch, Patch] | None = None


def verify_renormalization(sub: Substreetution, p: Patch, maxlen: int) -> RenormReport:
    """Check shift-after-image = image-after-source on every even site <= maxlen.

    The identity is checked a generation at a time.  Every window at
    generation n of the image has depth 2 * p.depth + 1 - n, so it holds on
    the whole generation exactly when each level n + l of the image is the
    join of the level-l rows of the sources' images, in site order.  Only a
    generation that fails is walked site by site, for the first failure in
    rank order; `checked` counts the sites up to and including it.
    """
    if maxlen < 0:
        raise NonPositive(f"maxlen must be >= 0, got {maxlen}")
    if maxlen % 2:
        raise OddLength("maxlen must be even")
    if maxlen > p.depth:
        raise Shallow(f"maxlen {maxlen} exceeds patch depth {p.depth}")
    big = apply(sub, p)
    letters = [sub.source_letter(slot) for slot in SLOTS]
    checked = 0
    for n in range(0, maxlen + 1, 2):
        # source is blockwise, and the product of slots yields the sites of
        # length n in rank order, so this is source() of each site in turn
        sources = list(map("".join, itertools.product(letters, repeat=n // 2)))
        # one image per distinct source (few per length); the empty one's is big
        images = {s: apply(sub, p.subtree(s)) if s else big for s in dict.fromkeys(sources)}
        rows = [images[s].levels for s in sources]
        if any(map(str.__ne__, big.levels[n:], map("".join, zip(*rows)))):
            depth = big.depth - n  # of both sides of every site
            for i, s in enumerate(sources):
                lhs = big.window(n, i, depth)
                if lhs != images[s]:
                    return RenormReport(False, checked + i + 1, (index_addr(i, n), lhs, images[s]))
        checked += len(sources)
        del images, rows  # free this generation's images before the next is built
    return RenormReport(True, checked)


# -- unsubstitution -----------------------------------------------------------


def unsub(sub: Substreetution, p: Patch) -> Patch:
    """Invert the substitution on its image (marked systems only).

    Recovers the patch of depth floor((depth-1)/2) whose image agrees with p
    on all of p's data.  Generation m of the preimage is read off generation
    2m of p by undoing the slot recursion: one gather of its first a-slot and
    b-slot positions, cached per grammar slot pair and generation.  p is
    accepted only when the image of what was read is p itself, so a forged
    deepest level is still rejected.
    """
    if not sub.marked:
        raise NotInImage("only marked systems can be unsubstituted")
    if p.depth < 1:
        raise Shallow("need at least one generation to unsubstitute")
    # a letter the grammar never uses feeds no slot: its subtree is invisible
    # in the image, so the other letter's slot stands in for it
    first = [sub.grammar.find(g) for g in "AB"]
    if -1 in first:
        if p.depth >= 3:
            letter = "ab"[first.index(-1)]
            raise NotInImage(f"grammar {sub.grammar} never places the {letter}-subtree")
        first = [max(first)] * 2
    colors = str.maketrans("%d%d" % (sub.image0[0], sub.image1[0]), "01")
    # the two image roots differ, so every recovered color is 0 or 1
    q = Patch._of(tuple(_undouble(line, first).translate(colors) for line in p.levels[::2]))
    image = apply(sub, q, p.depth)
    if image != p:
        l = next(l for l, (x, y) in enumerate(zip(image.levels, p.levels)) if x != y)
        raise NotInImage(f"generation {l} does not match the image of the recovered patch")
    return q.truncate((p.depth - 1) // 2)


def _undouble(line: str, first: list[int]) -> str:
    """Inverse of double on an image line: read the first a-slot and b-slot of each block.

    A line of 4^m colors is read by one gather, the cached _reader of
    (first, m); a 1-color line is its own preimage.
    """
    if len(line) == 1:
        return line
    return "".join(_reader(tuple(first), len(line).bit_length() // 2)(line))


@lru_cache(maxsize=None)
def _reader(first: tuple[int, ...], m: int) -> itemgetter:
    """The positions _undouble reads in a line of 4^m colors, as one picker.

    Each generation splits every block into quarters and keeps quarters
    first[0] and first[1] in that order, so a position p becomes 4p + k.
    """
    pos = [0]
    for _ in range(m):
        pos = [4 * p + k for p in pos for k in first]
    return itemgetter(*pos)


# -- text format --------------------------------------------------------------

_IMAGE_RE = re.compile(r"^([01])\s*->\s*([01])\(\s*([01])\s*,\s*([01])\s*\)$")
_GRAMMAR_RE = re.compile(r"^grammar\s+([A-Z]+)$")


def parse_substreetution(text: str) -> Substreetution:
    images = {}
    grammar = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _IMAGE_RE.match(line)
        if m:
            c = int(m.group(1))
            if c in images:
                raise BadSystemFormat(f"duplicate image for color {c}")
            images[c] = tuple(int(m.group(i)) for i in (2, 3, 4))
            continue
        m = _GRAMMAR_RE.match(line)
        if m:
            grammar = m.group(1)
            continue
        raise BadSystemFormat(
            f"unsupported line {raw!r}: only constant-length-2 binary systems are accepted"
        )
    if sorted(images) != [0, 1] or grammar is None:
        raise BadSystemFormat("need images for colors 0 and 1 plus a grammar line")
    return Substreetution(images[0], images[1], grammar)


def resolve_system(spec: str) -> Substreetution:
    """Turn 'builtin:<name>' or a file path into a system."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        try:
            return BUILTINS[name]
        except KeyError:
            raise BadSystemFormat(
                f"unknown builtin {name!r}; have {sorted(set(BUILTINS))}"
            ) from None
    with open(spec, encoding="ascii") as fh:
        return parse_substreetution(fh.read())
