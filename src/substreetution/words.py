"""Line words: the doubling procedure on 1-address sets and exact counts.

Everything here is exact: proportions are rationals and equality of block
densities is decided with Fraction arithmetic, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .engine import BBAB, Substreetution, double, theta
from .errors import BadPatchFormat, NonIntegerResult, NonPositive, NotPowerOfTwo
from .trees import index_addr


def _level_of(word: str) -> int:
    n = len(word)
    l = n.bit_length() - 1
    if n != 1 << l:
        raise NotPowerOfTwo(f"line words have power-of-two length, got {n}")
    return l


# Masks are cached per system up to this level: 2^8 masks of 4^8 bits, 2 MB.
# Longer words build their masks per call and drop them, since the table
# grows as 8^l (about 128 MB at l = 10).
_MASK_CACHE_LEVEL = 8


@lru_cache(maxsize=None)
def _theta_masks(sub: Substreetution, level: int) -> list[int | None]:
    """Per address rank of a level, its theta mask; filled on first use."""
    return [None] * (1 << level)


_RANK_DIGITS = str.maketrans("ab", "01")


def _theta_mask(sub: Substreetution, addr: str) -> int:
    """theta(addr) as the bits of a length-4^len(addr) word, position 0 on top.

    theta is the product of the letters' slot sets, so its mask is the
    Kronecker product of their 4-bit slot masks, first letter outermost.
    """
    mask, width = 1, 1
    for c in reversed(addr):
        slots = sub.slots_of(c)
        if not slots:
            theta(sub, addr)  # empty: warns that the grammar never uses c
            return 0
        # the slots' blocks are disjoint, so the sum is their union
        mask = sum(mask << (width * (3 - int(s.translate(_RANK_DIGITS), 2))) for s in slots)
        width *= 4
    return mask


def chi_via_theta(sub: Substreetution, word: str) -> str:
    """Word whose 1-addresses are the theta-images of the input's 1-addresses.

    This is the defining form and works for any grammar; images that collide
    simply merge.  Each address's image is theta's bitmask, kept per system
    and level up to `_MASK_CACHE_LEVEL`, so a word is the OR of its
    1-addresses' masks.
    """
    l = _level_of(word)
    masks = _theta_masks(sub, l) if l <= _MASK_CACHE_LEVEL else None
    image = 0
    for i, c in enumerate(word):
        if c == "1":
            mask = masks[i] if masks is not None else None
            if not mask:  # 0 is an empty image: rebuilt, so theta warns on every call
                mask = _theta_mask(sub, index_addr(i, l))
                if masks is not None:
                    masks[i] = mask
            image |= mask
    return format(image, f"0{1 << (2 * l)}b")


def chi_recursive(sub: Substreetution, word: str) -> str:
    """Slot recursion on halves (engine.double); must agree with the theta form."""
    _level_of(word)
    return double(sub, word)


# The line-doubling map.  The slot recursion equals the theta form for every
# grammar; chi_via_theta stays as the definition it is checked against.
chi = chi_recursive


def is_rep(line: str, block: str) -> bool:
    """True iff `line` is a whole number of copies of `block`."""
    q, r = divmod(len(line), len(block))
    return r == 0 and line == block * q


def chi_pow(sub: Substreetution, word: str, u: int) -> str:
    """u-fold iteration; a length-2^l word ends up with length 2^(l*2^u)."""
    if u < 0:
        raise NonPositive("iteration count must be >= 0")
    # checked once here: chi_recursive and chi_via_theta trust their input
    if word.encode("ascii", "replace").translate(None, b"01"):
        raise BadPatchFormat(f"line words are over {{0,1}}, got {word!r}")
    for _ in range(u):
        word = chi(sub, word)
    return word


def v2(k: int) -> int:
    """Dyadic valuation: the largest n with 2^n dividing k."""
    if k < 1:
        raise NonPositive(f"dyadic valuation needs k >= 1, got {k}")
    return (k & -k).bit_length() - 1


@lru_cache(maxsize=None)
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


def line_formula(m: int) -> str:
    """Closed form for generation m of the root-0 fixed tree of the BBAB system.

    With u the dyadic valuation of m, the line is the u-th doubling block of
    "10" repeated 2^m / 2^(2^u) times; odd lines are plain "10" repetitions.
    """
    if m < 1:
        raise NonPositive("generations are indexed from 1 here")
    block = chi_pow(BBAB, "10", v2(m))
    reps, rem = divmod(1 << m, len(block))
    if rem:
        raise NonIntegerResult(f"line {m} does not tile by a block of {len(block)}")
    return block * reps

