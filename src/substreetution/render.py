"""Static SVG figures: the tree picture and the colored disk tiling.

Floating point lives only here.  A pixel's cell is found by pulling it back
through the two disk isometries into the central Dirichlet cell; ties go to
the shorter word.  The tiling is drawn one pixel row at a time, by spans:
  every comparison is a bisector of two isometry images, so walls are geodesics;
  between two wall bands a row keeps one label, so one pixel decides it;
  a pixel whose centre lies inside a band is classified on its own, exactly.
Output is deterministic: fixed formatting, row-major order, no concurrency.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NonPositive, Shallow
from .trees import Patch

_TOL = 1e-9


@dataclass(frozen=True)
class DiskIsometry:
    """Unit-disk Moebius map z -> (alpha z + beta) / (conj(beta) z + conj(alpha))."""

    alpha: complex
    beta: complex

    def normalized(self) -> "DiskIsometry":
        det = abs(self.alpha) ** 2 - abs(self.beta) ** 2
        s = 1 / math.sqrt(det)
        return DiskIsometry(self.alpha * s, self.beta * s)

    def __call__(self, z: complex) -> complex:
        return (self.alpha * z + self.beta) / (
            self.beta.conjugate() * z + self.alpha.conjugate()
        )

    def inverse(self) -> "DiskIsometry":
        return DiskIsometry(self.alpha.conjugate(), -self.beta)

    def compose(self, other: "DiskIsometry") -> "DiskIsometry":
        return DiskIsometry(
            self.alpha * other.alpha + self.beta * other.beta.conjugate(),
            self.alpha * other.beta + self.beta * other.alpha.conjugate(),
        )


def make_generators() -> tuple[DiskIsometry, DiskIsometry]:
    """The two isometries: one moves -1/2 to 1/2 fixing +-1, the other is its
    quarter-turn conjugate moving -i/2 to i/2 fixing +-i.

    Maps fixing +-1 form the one-parameter family z -> (z+t)/(tz+1); the
    half-point condition (-1/2 + t) / (1 - t/2) = 1/2 reads t * 5/4 = 1, so
    t = 4/5 exactly.
    """
    t = Fraction(4, 5)
    h1 = DiskIsometry(complex(1), complex(t)).normalized()
    rot = DiskIsometry(cmath.exp(1j * math.pi / 4), 0)
    h2 = rot.compose(h1).compose(rot.inverse())
    return h1, h2


PALETTE = ("#9a9a9a", "#101010")  # fill of a color-0 and a color-1 node or cell
BACKGROUND = "#ffffff"
ROOT_COLOR = "#e6c800"  # the root glyph of the tree picture


@dataclass(frozen=True)
class RenderConfig:
    resolution: int = 512
    depth_limit: int = 3


@lru_cache(maxsize=16)
def _classifier(gens, depth_limit):
    """The descent of `classify_point`, with the isometry set-up done once.

    Same arithmetic, operation for operation: the distance from z to t is
    atanh(|z - t| / |1 - conj(t) z|), atanh(|z|) for t = 0; inverse maps are
    their Moebius coefficients; the argmin is the first index of the minimum.
    """
    h1, h2 = gens
    inv1, inv2 = h1.inverse(), h2.inverse()
    t1, t2, t3, t4 = (h(0) for h in (h1, inv1, h2, inv2))
    c1, c2, c3, c4 = (t.conjugate() for t in (t1, t2, t3, t4))
    pulls = [
        (inv.alpha, inv.beta, inv.beta.conjugate(), inv.alpha.conjugate()) for inv in (inv1, inv2)
    ]
    atanh = math.atanh
    rounds = range(depth_limit + 1)

    def classify(z):
        word = ""
        for _ in rounds:
            ds = [
                atanh(abs(z - t1) / abs(1 - c1 * z)),
                atanh(abs(z - t2) / abs(1 - c2 * z)),
                atanh(abs(z - t3) / abs(1 - c3 * z)),
                atanh(abs(z - t4) / abs(1 - c4 * z)),
            ]
            nearest = min(ds)
            if atanh(abs(z)) <= nearest + _TOL:  # rounding is monotone: d0 <= d + _TOL for every d
                return word
            best = ds.index(nearest)
            if best % 2:
                return None  # lives in an inverse-letter half-plane
            a, b, bc, ac = pulls[best // 2]
            word += "ab"[best // 2]
            z = (a * z + b) / (bc * z + ac)
        return None

    return classify


def classify_point(z, gens, depth_limit):
    """Positive word whose cell contains z, or None (inverse side / too deep)."""
    return _classifier(tuple(gens), depth_limit)(z)


# Euclidean half-width of the band around each wall that counts as crossing
# it.  The 1e-9 tolerance and rounding move a decision by far less, so the
# label cannot change between two bands, and a row that only grazes a wall
# still meets its band; the band is far narrower than a column.
_WALL_BAND = 1e-5


def _bisector(p: complex, q: complex):
    """The wall where d(z, p) = d(z, q): ("circle", c, R, R^2 - Im(c)^2) or ("line", n).

    1 - rho(z, p)^2 = (1 - |z|^2)(1 - |p|^2) / |1 - conj(p) z|^2 turns the
    comparison into alpha |z|^2 - 2 Re(conj(beta) z) + gamma = 0, where
    alpha = gamma = |q|^2 - |p|^2 and beta = (1 - |p|^2) q - (1 - |q|^2) p:
    a circle of centre beta / alpha orthogonal to the unit circle, or, when
    alpha vanishes, the diameter with unit normal beta / |beta|.
    """
    pp, qq = abs(p) ** 2, abs(q) ** 2
    alpha = qq - pp
    beta = (1 - pp) * q - (1 - qq) * p
    if abs(alpha) <= 1e-6 * abs(beta):  # that flat, the circle is in the diameter's band
        return ("line", beta / abs(beta))
    c = beta / alpha
    return ("circle", c, math.sqrt(abs(c) ** 2 - 1), c.real**2 - 1)


def _walls(gens, depth_limit):
    """Every comparison the descent can make, plus the unit circle.

    At a word W the descent compares distances from W^-1(z) to 0 and the
    four generator images of 0; W is an isometry, so each comparison is the
    bisector of the W-images of a pair of those five points.
    """
    h1, h2 = gens
    base = [complex(0)] + [h(0) for h in (h1, h1.inverse(), h2, h2.inverse())]
    walls = [("circle", complex(0), 1.0, 1.0)]
    words = [DiskIsometry(complex(1), complex(0))]
    for _ in range(depth_limit + 1):
        for w in words:
            walls += [_bisector(p, q) for p, q in itertools.combinations(map(w, base), 2)]
        words = [w.compose(h) for w in words for h in (h1, h2)]
    return walls


def _crossings(walls, y):
    """The x-intervals where the walls' bands meet the row at height y."""
    d = _WALL_BAND
    out = []
    for wall in walls:
        if wall[0] == "line":
            n = wall[1]
            if abs(n.real) > 1e-12:
                xa = (-n.imag * y - d) / n.real
                xb = (-n.imag * y + d) / n.real
                out.append((min(xa, xb), max(xa, xb)))
            elif abs(n.imag * y) <= d:
                out.append((-1.0, 1.0))
            continue
        # (x - cx)^2 = s on the wall, with k = R^2 - cy^2 kept free of
        # cancellation; the band widens s by 2 R d + d^2.
        _, c, radius, k = wall
        s = k + y * (2 * c.imag - y)
        hi2 = s + 2 * radius * d + d * d
        if hi2 >= 0:
            hi = math.sqrt(hi2)
            lo = math.sqrt(max(s - 2 * radius * d, 0.0))
            out += [(c.real - hi, c.real - lo), (c.real + lo, c.real + hi)]
    return out


def _row_walls(walls, res):
    """For each pixel row, the walls whose band can reach its height.

    A line wall reaches every row.  A circle wall reaches the rows within
    R + band of its centre's height; row = ((1 - y) res - 1) / 2, and the
    floor and ceil widen the range by up to a row, far more than rounding.
    """
    rows = [[] for _ in range(res)]
    for wall in walls:
        first, last = 0, res - 1
        if wall[0] == "circle":
            _, c, radius, _ = wall
            reach = radius + _WALL_BAND
            first = max(first, math.floor(((1 - c.imag - reach) * res - 1) / 2))
            last = min(last, math.ceil(((1 - c.imag + reach) * res - 1) / 2))
        for row in range(first, last + 1):
            rows[row].append(wall)
    return rows


def tiling_svg(p: Patch, cfg: RenderConfig) -> str:
    """Color the positive-word cells by the patch digits, one row at a time.

    A row is cut at the wall bands that reach it.  A pixel whose centre lies
    inside a band is classified on its own; each stretch between bands takes
    the label of its first pixel.
    """
    res, depth_limit = cfg.resolution, cfg.depth_limit
    if res < 1:
        raise NonPositive(f"resolution must be at least 1, got {res}")
    if depth_limit < 0:
        raise NonPositive(f"word limit must be nonnegative, got {depth_limit}")
    if p.depth < depth_limit:
        raise Shallow(f"patch depth {p.depth} below word limit {depth_limit}")
    gens = make_generators()
    classify = _classifier(gens, depth_limit)
    walls = _walls(gens, depth_limit)
    xs = [(2 * col + 1) / res - 1 for col in range(res)]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{res}" height="{res}" '
        f'viewBox="0 0 {res} {res}">',
        f'<rect width="{res}" height="{res}" fill="{BACKGROUND}"/>',
    ]
    cache: dict = {}

    def paint(changes, col, y):
        """Classify one pixel; record (col, color) if the color changes there."""
        z = complex(xs[col], y)
        color = None
        if abs(z) < 1:
            word = classify(z)
            if word is not None:
                color = cache.get(word)
                if color is None:
                    color = cache[word] = PALETTE[p.get(word)]
        if color != changes[-1][1]:
            changes.append((col, color))

    for row, row_walls in enumerate(_row_walls(walls, res)):
        y = 1 - (2 * row + 1) / res
        # Columns c whose centre lies in a band, c = ((x+1)res-1)/2; a band
        # between two centres gives an empty range that still cuts the row.
        exact = sorted(
            (math.ceil(((xa + 1) * res - 1) / 2), math.floor(((xb + 1) * res - 1) / 2))
            for xa, xb in _crossings(row_walls, y)
        )
        changes = [(0, None)]
        col = 0  # first column not yet painted
        for c0, c1 in exact:
            if col < min(c0, res):
                paint(changes, col, y)  # the stretch up to this band has one label
            for c in range(max(col, c0), min(c1 + 1, res)):
                paint(changes, c, y)
            col = max(col, c1 + 1)
        if col < res:
            paint(changes, col, y)
        ends = [c for c, _ in changes[1:]] + [res]
        for (x0, color), x1 in zip(changes, ends):
            if color is not None:
                out.append(
                    f'<rect x="{x0}" y="{row}" width="{x1 - x0}" height="1" fill="{color}"/>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def tree_svg(p: Patch) -> str:
    """Classic layered layout: squares under a-edges, disks under b-edges."""
    if p.depth > 12:
        warnings.warn(f"depth {p.depth} will not render readably", stacklevel=2)
    unit = 24
    width = (1 << p.depth) * unit
    height = (p.depth + 1) * 2 * unit
    half = unit * 0.32

    def pos(level, i):
        x = width * (2 * i + 1) / (2 << level)
        y = unit + level * 2 * unit
        return x, y

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="{BACKGROUND}"/>',
    ]
    for level in range(p.depth):
        for i in range(1 << level):
            x0, y0 = pos(level, i)
            for child in (2 * i, 2 * i + 1):
                x1, y1 = pos(level + 1, child)
                out.append(
                    f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
                    f'stroke="#606060" stroke-width="1"/>'
                )
    for level, rowbits in enumerate(p.levels):
        for i, c in enumerate(rowbits):
            x, y = pos(level, i)
            fill = ROOT_COLOR if level == 0 else PALETTE[int(c)]
            if level == 0 or i % 2 == 0:  # root and a-followers: rectangles
                out.append(
                    f'<rect x="{x - half:.2f}" y="{y - half:.2f}" '
                    f'width="{2 * half:.2f}" height="{2 * half:.2f}" fill="{fill}"/>'
                )
            else:  # b-followers: disks
                out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{half:.2f}" fill="{fill}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
