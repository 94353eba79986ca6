"""Line words: the doubling procedure on 1-address sets and exact counts.

Everything here is exact: proportions are rationals and equality of block
densities is decided with Fraction arithmetic, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .engine import BBAB, SLOTS, Substreetution, theta
from .errors import NonIntegerResult, NonPositive, NotPowerOfTwo
from .trees import addr_index, index_addr


def _level_of(word: str) -> int:
    n = len(word)
    l = n.bit_length() - 1
    if n != 1 << l:
        raise NotPowerOfTwo(f"line words have power-of-two length, got {n}")
    return l


def ones_addresses(word: str) -> frozenset[str]:
    """Addresses (a=0, b=1 positional bits) of the 1s in a line word."""
    l = _level_of(word)
    return frozenset(index_addr(i, l) for i, c in enumerate(word) if c == "1")


def word_from_addresses(level: int, addrs) -> str:
    out = bytearray(b"0" * (1 << level))
    for w in addrs:
        out[addr_index(w)] = ord("1")
    return out.decode("ascii")


@lru_cache(maxsize=None)
def _theta_indices(sub: Substreetution, addr: str) -> tuple[int, ...]:
    return tuple(addr_index(w) for w in theta(sub, addr))


def chi_via_theta(sub: Substreetution, word: str) -> str:
    """Word whose 1-addresses are the theta-images of the input's 1-addresses.

    This is the defining form and works for any grammar; images that collide
    simply merge.
    """
    l = _level_of(word)
    out = bytearray(b"0" * (1 << (2 * l)))
    for i, c in enumerate(word):
        if c == "1":
            for j in _theta_indices(sub, index_addr(i, l)):
                out[j] = ord("1")
    return out.decode("ascii")


def chi_recursive(sub: Substreetution, word: str) -> str:
    """Slot recursion on halves; fast path that must agree with the theta form."""
    _level_of(word)
    return _chi_rec(sub, word, {})


def _chi_rec(sub, word, memo):
    got = memo.get(word)
    if got is None:
        if len(word) == 1:
            got = word
        else:
            half = len(word) // 2
            parts = {
                "a": _chi_rec(sub, word[:half], memo),
                "b": _chi_rec(sub, word[half:], memo),
            }
            got = "".join(parts[sub.source_letter(s)] for s in SLOTS)
        memo[word] = got
    return got


def chi(sub: Substreetution, word: str) -> str:
    if sub.grammar == "BBAB":
        return chi_recursive(sub, word)
    return chi_via_theta(sub, word)


def is_rep(line: str, block: str) -> bool:
    """True iff `line` is a whole number of copies of `block`."""
    q, r = divmod(len(line), len(block))
    return r == 0 and line == block * q


def chi_pow(sub: Substreetution, word: str, u: int) -> str:
    """u-fold iteration; a length-2^l word ends up with length 2^(l*2^u)."""
    if u < 0:
        raise NonPositive("iteration count must be >= 0")
    for _ in range(u):
        word = chi(sub, word)
    return word


def v2(k: int) -> int:
    """Dyadic valuation: the largest n with 2^n dividing k."""
    if k < 1:
        raise NonPositive(f"dyadic valuation needs k >= 1, got {k}")
    return (k & -k).bit_length() - 1


def v2_case_check(kmax: int = 8, mmax: int = 8) -> bool:
    """Range-check the three valuation rules for 2^k(2m+1) + 2^(k'+1).

    k' >= k gives valuation k; k' = k-1 pushes it to at least k+1;
    k' <= k-2 pins it at k'+1.
    """
    for k in range(1, kmax + 1):
        for m in range(mmax + 1):
            base = (1 << k) * (2 * m + 1)
            for kp in range(0, kmax + 2):
                val = v2(base + (1 << (kp + 1)))
                if kp >= k and val != k:
                    return False
                if kp == k - 1 and val < k + 1:
                    return False
                if kp <= k - 2 and val != kp + 1:
                    return False
    return True


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
    q = Fraction(1 << (1 << n)) / (1 + f_iter(n))
    if q.denominator != 1:
        raise NonIntegerResult(f"count for n={n} came out {q}, expected an integer")
    return q.numerator


def ones_proportion(u: int) -> Fraction:
    """Density of 1s in the level-u doubling block (and in lines 2^u(2n+1))."""
    return 1 / (1 + f_iter(u))


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


def proportion_check(word: str, u: int) -> bool:
    """True iff the word's 1-density equals the exact level-u block density."""
    if not word:
        return False
    return Fraction(word.count("1"), len(word)) == ones_proportion(u)
