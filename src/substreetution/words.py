"""Line words: the doubling procedure on 1-address sets and exact counts.

Everything here is exact: proportions are rationals and equality of block
densities is decided with Fraction arithmetic, never floats.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from .engine import BBAB, Substreetution, double, theta
from .errors import AddressTooDeep, BadPatchFormat, NonIntegerResult, NonPositive, NotPowerOfTwo
from .trees import _COLOR_CODES, addr_index, index_addr


def _level_of(word: str) -> int:
    n = len(word)
    l = n.bit_length() - 1
    if n == 0 or n != 1 << l:
        raise NotPowerOfTwo(f"line words have power-of-two length, got {n}")
    return l


# system -> level -> theta's bitmask of each address rank.  The masks depend
# on the grammar alone, so equal systems share an entry, and an entry dies
# with its system.  Levels are cached up to this one, 2^8 masks of 4^8 bits
# (2 MB); a level grows as 8^l, so longer words are read in blocks.
_MASKS = weakref.WeakKeyDictionary()
_MASK_CACHE_LEVEL = 8


def _theta_masks(sub: Substreetution, levels: dict, l: int) -> list[int]:
    """theta's bitmask of every level-l address, in rank order, position 0 on top.

    theta is the product of the letters' slot sets, so a level of masks is a
    Kronecker power of the 4-bit slot masks, first letter outermost; 0 is an
    empty image.  `levels` is sub's entry of `_MASKS`.
    """
    if l in levels:
        return levels[l]
    masks = [1]
    for k in range(l):  # letter c in front: m goes to its disjoint copies at c's slots
        shifts = [[(3 - addr_index(s)) << 2 * k for s in sub.slots_of(c)] for c in "ab"]
        masks = [sum(m << t for t in ts) for ts in shifts for m in masks]
    if l <= _MASK_CACHE_LEVEL:
        levels[l] = masks
    return masks


def chi_via_theta(sub: Substreetution, word: str) -> str:
    """Word whose 1-addresses are the theta-images of the input's 1-addresses.

    This is the defining form and works for any grammar; images that collide
    simply merge.  An address is pq with |q| = r = min(l, `_MASK_CACHE_LEVEL`)
    and theta(pq) = theta(p)theta(q): each block of 2^r letters is the OR of
    its 1-addresses' level-r masks, placed at every bit of p's level-(l - r) mask.
    """
    l = _level_of(word)
    r = min(l, _MASK_CACHE_LEVEL)
    levels = _MASKS.setdefault(sub, {})
    inner, size = _theta_masks(sub, levels, r), 1 << r
    ones = word.encode().translate(_COLOR_CODES)  # compress selectors: 1 keeps an address rank
    image = 0
    for p, outer in enumerate(_theta_masks(sub, levels, l - r)):
        block, start = 0, p * size
        for i in compress(range(start, start + size), ones[start : start + size]):
            mask = inner[i - start]
            if not (mask and outer):  # an empty image: theta warns, on every call
                theta(sub, index_addr(i, l))
            block |= mask
        image |= sum(block << (t << 2 * r) for t in range(outer.bit_length()) if outer >> t & 1)
    return format(image, f"0{1 << (2 * l)}b")


def chi_recursive(sub: Substreetution, word: str) -> str:
    """Slot recursion on halves (engine.double); must agree with the theta form."""
    _level_of(word)
    return double(sub, word)


# The line-doubling map.  The slot recursion equals the theta form for every
# grammar; chi_via_theta stays as the definition it is checked against.
chi = chi_recursive


def chi_pow(sub: Substreetution, word: str, u: int) -> str:
    """u-fold iteration; a length-2^l word ends up with length 2^(l*2^u)."""
    if u < 0:
        raise NonPositive("iteration count must be >= 0")
    # checked once here: chi_recursive and chi_via_theta trust their input
    if word.encode("ascii", "replace").translate(None, b"01"):
        raise BadPatchFormat(f"line words are over {{0,1}}, got {word!r}")
    _level_of(word)  # also when u = 0, which calls no chi
    for _ in range(u):
        word = chi(sub, word)
    return word


def v2(k: int) -> int:
    """Dyadic valuation: the largest n with 2^n dividing k."""
    if k < 1:
        raise NonPositive(f"dyadic valuation needs k >= 1, got {k}")
    return (k & -k).bit_length() - 1


def f_iter(n: int) -> Fraction:
    """n-th iterate of x + 1/x + 1 started at 1, exactly."""
    if n < 0:
        raise NonPositive("iteration count must be >= 0")
    x = Fraction(1)
    for _ in range(n):
        x = x + 1 / x + 1
    return x


def ones_count_line_2n(n: int) -> int:
    """Exact number of 1s on generation 2^n of the root-0 fixed tree."""
    x = f_iter(n)  # raises NonPositive before a negative n reaches the shift
    q = Fraction(1 << (1 << n)) / (1 + x)
    if q.denominator != 1:
        raise NonIntegerResult(f"count for n={n} came out {q}, expected an integer")
    return q.numerator


@lru_cache(maxsize=None)
def doubling_block(z: int) -> str:
    """B(z) = chi^z("10") under BBAB, the block that line m repeats when z = v2(m).

    Built from B(z - 1), so the cache holds B(0) to the deepest z asked for.
    """
    if z < 0:
        raise NonPositive(f"block level must be >= 0, got {z}")
    return "10" if z == 0 else chi(BBAB, doubling_block(z - 1))


def line_window(m: int, k: int, i: int = 0) -> str:
    """Colors [i 2^k, (i + 1) 2^k) of generation m of the root-0 fixed tree of BBAB.

    With u the dyadic valuation of m, the line repeats the u-th doubling
    block of "10" (2^u <= m, so whole copies fill it); odd lines repeat "10".
    The window is cut from the block without building the line; a block past
    2^24 colors (m a multiple of 32, whose block has 2^32) is refused, not built.
    """
    if m < 1:
        raise NonPositive("generations are indexed from 1 here")
    z = v2(m)
    if 1 << z > 24:
        raise AddressTooDeep(f"generation {m} repeats a block of 2^{1 << z} colors, past 2^24")
    if not (0 <= k <= m and 0 <= i < 1 << m - k):
        raise AddressTooDeep(f"no window {i} of 2^{k} colors in generation {m}")
    block, size = doubling_block(z), 1 << k
    if size >= len(block):  # the window starts at a multiple of its size: whole copies
        return block * (size // len(block))
    start = (i << k) % len(block)
    return block[start : start + size]


def line_formula(m: int) -> str:
    """Closed form for generation m of the root-0 fixed tree of the BBAB system."""
    return line_window(m, m)
