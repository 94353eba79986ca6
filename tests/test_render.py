import hashlib
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from substreetution import render
from substreetution.engine import THUE_MORSE, fixed_point_prefix
from substreetution.errors import NonPositive, Shallow
from substreetution.jacaranda import jacaranda_prefix
from substreetution.render import (
    BACKGROUND,
    PALETTE,
    DiskIsometry,
    ROOT_COLOR,
    RenderConfig,
    classify_point,
    make_generators,
    tiling_svg,
    tree_svg,
)
from substreetution.trees import Patch


def hyperbolic_distance(z: complex, w: complex) -> float:
    return math.atanh(abs(z - w) / abs(1 - w.conjugate() * z))


def _tiling_svg_per_pixel(p, cfg):
    """The tiling classified pixel by pixel: the oracle for the span renderer."""
    # classify_point's descent, looked up once rather than once per pixel
    classify = render._classifier(cfg.depth_limit)
    res = cfg.resolution
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{res}" height="{res}" '
        f'viewBox="0 0 {res} {res}">',
        f'<rect width="{res}" height="{res}" fill="{BACKGROUND}"/>',
    ]
    cache = {}
    for row in range(res):
        y = 1 - (2 * row + 1) / res
        runs = []
        current = None
        start = 0
        for col in range(res):
            x = (2 * col + 1) / res - 1
            z = complex(x, y)
            if abs(z) >= 1:
                color = None
            else:
                word = classify(z)
                if word is None:
                    color = None
                else:
                    color = cache.get(word)
                    if color is None:
                        color = PALETTE[p.get(word)]
                        cache[word] = color
            if color != current:
                if current is not None:
                    runs.append((start, col, current))
                current = color
                start = col
        if current is not None:
            runs.append((start, res, current))
        for x0, x1, color in runs:
            out.append(
                f'<rect x="{x0}" y="{row}" width="{x1 - x0}" height="1" fill="{color}"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tree_svg_by_element(p):
    """The tree picture formatted element by element: the byte oracle for `tree_svg`."""
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


def _band_columns_by_call(walls, res):
    """Each band's columns added by one call: the oracle for `render._band_columns`."""
    d = render._WALL_BAND
    rows = [[0] for _ in range(res)]
    columns = list(range(res))

    def add(row, xa, xb):
        c0 = math.ceil(((xa + 1) * res - 1) / 2)
        c1 = math.floor(((xb + 1) * res - 1) / 2)
        # a slice stops at res by itself; a negative end would count from it
        rows[row] += columns[max(c0, 0) : max(c1 + 2, 0)]

    for wall in walls:
        if wall[0] == "line":  # a line wall reaches every row
            n = wall[1]
            for row in range(res):
                y = 1 - (2 * row + 1) / res
                if abs(n.real) > 1e-12:
                    xa = (-n.imag * y - d) / n.real
                    xb = (-n.imag * y + d) / n.real
                    add(row, min(xa, xb), max(xa, xb))
                elif abs(n.imag * y) <= d:
                    add(row, -1.0, 1.0)
            continue
        _, c, radius, k = wall
        reach = radius + d
        first = max(0, math.floor(((1 - c.imag - reach) * res - 1) / 2))
        last = min(res - 1, math.ceil(((1 - c.imag + reach) * res - 1) / 2))
        for row in range(first, last + 1):
            y = 1 - (2 * row + 1) / res
            s = k + y * (2 * c.imag - y)
            hi2 = s + 2 * radius * d + d * d
            if hi2 >= 0:
                hi = math.sqrt(hi2)
                lo = math.sqrt(max(s - 2 * radius * d, 0.0))
                add(row, c.real - hi, c.real - lo)
                add(row, c.real + lo, c.real + hi)
    return rows


@pytest.fixture(scope="module")
def gens():
    return make_generators()


class TestGenerators:
    def test_h1_constraints(self, gens):
        h1, _ = gens
        assert abs(h1(-0.5) - 0.5) < 1e-12
        assert abs(h1(1) - 1) < 1e-12
        assert abs(h1(-1) + 1) < 1e-12
        assert abs(h1(0) - 0.8) < 1e-12

    def test_h2_constraints(self, gens):
        _, h2 = gens
        assert abs(h2(-0.5j) - 0.5j) < 1e-12
        assert abs(h2(1j) - 1j) < 1e-12
        assert abs(h2(-1j) + 1j) < 1e-12

    def test_disk_preserved(self, gens):
        h1, h2 = gens
        for k in range(40):
            z = 0.95 * complex(
                0.9 * ((k % 8) - 3.5) / 4, 0.9 * ((k // 8) - 2.5) / 3
            )
            if abs(z) >= 1:
                continue
            assert abs(h1(z)) < 1 and abs(h2(z)) < 1

    def test_inverse_composes_to_identity(self, gens):
        h1, _ = gens
        z = 0.3 + 0.2j
        assert abs(h1.inverse()(h1(z)) - z) < 1e-12


class TestClassification:
    def test_center_is_root_cell(self):
        assert classify_point(0, 3) == ""

    def test_generator_orbit_points(self, gens):
        h1, h2 = gens
        assert classify_point(h1(0), 3) == "a"
        assert classify_point(h2(0), 3) == "b"
        assert classify_point(h1(h2(0)), 3) == "ab"
        assert classify_point(h2(h1(0)), 3) == "ba"

    def test_inverse_side_unclaimed(self, gens):
        h1, _ = gens
        assert classify_point(h1.inverse()(0), 3) is None

    def test_cells_disjoint(self, gens):
        h1, h2 = gens

        def in_cell(z, word):
            for c in word:
                z = (h1 if c == "a" else h2).inverse()(z)
            d0 = hyperbolic_distance(z, 0)
            for g in (h1, h1.inverse(), h2, h2.inverse()):
                if d0 > hyperbolic_distance(z, g(0)) - 1e-9:
                    return False
            return True

        words = [""]
        for n in (1, 2, 3):
            words += ["".join(t) for t in itertools.product("ab", repeat=n)]
        grid = 48
        for i in range(grid):
            for k in range(grid):
                z = complex((2 * i + 1) / grid - 1, (2 * k + 1) / grid - 1)
                if abs(z) >= 0.999:
                    continue
                hits = sum(in_cell(z, w) for w in words)
                assert hits <= 1


class TestTreeSvg:
    def test_glyph_count(self):
        svg = tree_svg(jacaranda_prefix(4))
        glyphs = svg.count("<rect") - 1 + svg.count("<circle")  # minus background
        assert glyphs == 31

    def test_level2_fills(self):
        svg = tree_svg(jacaranda_prefix(2))
        glyph_lines = [
            l for l in svg.splitlines() if "<rect" in l or "<circle" in l
        ][1:]
        fills = [l.split('fill="')[1].split('"')[0] for l in glyph_lines]
        level2 = fills[3:]
        grey, black = PALETTE
        assert level2 == [grey, grey, black, grey]

    def test_single_black_node(self):
        svg = tree_svg(Patch.leaf(1))
        assert svg.count("<rect") == 2  # background + root glyph
        assert ROOT_COLOR in svg

    def test_level_constant_fills(self):
        svg = tree_svg(fixed_point_prefix(THUE_MORSE, 0, 3))
        glyph_lines = [
            l for l in svg.splitlines() if "<rect" in l or "<circle" in l
        ][1:]
        fills = [l.split('fill="')[1].split('"')[0] for l in glyph_lines]
        assert set(fills[1:3]) == {PALETTE[1]}
        assert set(fills[3:7]) == {PALETTE[1]}
        assert set(fills[7:]) == {PALETTE[0]}

    def test_deterministic(self):
        p = jacaranda_prefix(5)
        assert tree_svg(p) == tree_svg(p)

    def test_deep_warning(self):
        deep = Patch(tuple("0" * (1 << l) for l in range(14)))
        with pytest.warns(UserWarning):
            tree_svg(deep)

    @pytest.mark.parametrize("depth", range(13))
    def test_bytes_match_per_element(self, depth):
        p = jacaranda_prefix(depth)
        assert tree_svg(p) == _tree_svg_by_element(p)

    def test_bytes_match_per_element_on_thue_morse(self):
        p = fixed_point_prefix(THUE_MORSE, 0, 9)
        assert tree_svg(p) == _tree_svg_by_element(p)

    @settings(deadline=None, max_examples=40)
    @given(depth=st.integers(0, 5), data=st.data())
    def test_bytes_match_per_element_on_random_patches(self, depth, data):
        lines = (st.text("01", min_size=1 << l, max_size=1 << l) for l in range(depth + 1))
        p = Patch(tuple(map(data.draw, lines)))
        assert tree_svg(p) == _tree_svg_by_element(p)

    def test_benchmark_tree_digest(self):
        # the tiling workload's depth-10 picture, against the digest it checks
        expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
        want = json.loads(expected.read_text())["tiling"]["full"]["tree"]
        svg = tree_svg(jacaranda_prefix(18).truncate(10))
        assert hashlib.blake2b(svg.encode("ascii"), digest_size=16).hexdigest() == want

    def test_memory_at_depth_14(self):
        # formatted element by element and joined into a copy with the final
        # newline, the depth-14 picture peaked at 19,845,787 B under tracemalloc;
        # per-level coordinate strings and one join bring it to about 16.0 MB
        p = jacaranda_prefix(14)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tracemalloc.start()
            try:
                tree_svg(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 17_000_000


class TestTilingSvg:
    def test_no_wall_between_two_boundary_points(self):
        # deep isometry images can both round onto the unit circle: alpha = beta = 0
        assert render._bisector(1, 1j) is None

    def test_word_limit_zero_over_root(self):
        cfg = RenderConfig(resolution=48, depth_limit=0)
        svg = tiling_svg(jacaranda_prefix(1), cfg)
        assert PALETTE[0] in svg  # the root cell, color of the root digit
        assert PALETTE[1] not in svg

    def test_first_generation_colors(self):
        cfg = RenderConfig(resolution=64, depth_limit=1)
        svg = tiling_svg(jacaranda_prefix(1), cfg)
        assert PALETTE[0] in svg and PALETTE[1] in svg

    def test_depth_guard(self):
        with pytest.raises(Shallow):
            tiling_svg(jacaranda_prefix(1), RenderConfig(resolution=32, depth_limit=3))

    def test_deterministic(self):
        cfg = RenderConfig(resolution=64, depth_limit=2)
        p = jacaranda_prefix(2)
        assert tiling_svg(p, cfg) == tiling_svg(p, cfg)

    @pytest.mark.parametrize("res", [1, 2, 3, 32, 33, 64, 96, 97, 128, 200, 256])
    def test_spans_match_per_pixel(self, res):
        # word limits 5 and 6 only up to 64 px, where the per-pixel oracle is cheap; at
        # 9 and 10, rounding puts some bisector centres just inside the unit circle
        p = jacaranda_prefix(10)
        deep = (9, 10) if res in (32, 64) else ()
        for depth_limit in [*range(7 if res <= 64 else 5), *deep]:
            cfg = RenderConfig(resolution=res, depth_limit=depth_limit)
            assert tiling_svg(p, cfg) == _tiling_svg_per_pixel(p, cfg)

    @pytest.mark.parametrize(
        "res, depth_limit, expected",
        [(512, 3, 5022), (256, 2, 2440), (97, 4, 1069)],
    )
    def test_classifies_band_pixels_only(self, monkeypatch, res, depth_limit, expected):
        # only pixels whose centres lie in a band, and the first pixel of each
        # stretch between bands, are classified; (512, 3) is the perfbench input
        calls = 0
        classifier = render._classifier

        def counting(*args):
            classify = classifier(*args)

            def counted(z):
                nonlocal calls
                calls += 1
                return classify(z)

            return counted

        monkeypatch.setattr(render, "_classifier", counting)
        p = jacaranda_prefix(18)
        svg = tiling_svg(p, RenderConfig(resolution=res, depth_limit=depth_limit))
        assert calls == expected
        if res == 512:
            digest = hashlib.blake2b(svg.encode("ascii"), digest_size=16).hexdigest()
            assert digest == "436c1c22f171d3d92eb45bf100d3818d"

    @pytest.mark.parametrize(
        "res, depth_limits",
        [
            *(pytest.param(res, range(6), id=f"{res}px") for res in (1, 2, 3, 33, 97, 256, 512)),
            pytest.param(16, [11], id="16px-words11"),
        ],
    )
    def test_band_columns_match_per_call(self, res, depth_limits):
        # the same columns in every row: a finer check than the pixels, since an
        # added or lost column fails here even where it would not flip a pixel
        for depth_limit in depth_limits:
            got = render._band_columns(render._walls(depth_limit), res)
            want = _band_columns_by_call(render._walls(depth_limit), res)
            assert list(map(set, got)) == list(map(set, want)), depth_limit

    def test_walls_are_not_held_at_once(self):
        # word limit 11 has 40,950 walls: held as one list they peaked at 7.4 MB
        p = jacaranda_prefix(11)
        tracemalloc.start()
        try:
            tiling_svg(p, RenderConfig(resolution=16, depth_limit=11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_walls_compose_only_words_in_use(self, monkeypatch):
        # words of 1..11 letters at word limit 11: 2^12 - 2 compositions, none
        # for the 2^13 words of a round past the limit
        calls = []
        compose = DiskIsometry.compose
        monkeypatch.setattr(DiskIsometry, "compose", lambda *a: calls.append(1) or compose(*a))
        walls = sum(1 for _ in render._walls(11))
        assert (walls, len(calls)) == (40_951, (1 << 12) - 2)

    @settings(deadline=None, max_examples=25)
    @given(
        levels=st.tuples(*(st.text("01", min_size=1 << l, max_size=1 << l) for l in range(5))),
        res=st.integers(48, 96),
        depth_limit=st.integers(0, 3),
    )
    def test_spans_match_per_pixel_on_random_patches(self, levels, res, depth_limit):
        p = Patch(levels)
        cfg = RenderConfig(resolution=res, depth_limit=depth_limit)
        assert tiling_svg(p, cfg) == _tiling_svg_per_pixel(p, cfg)

    @pytest.mark.parametrize("res, depth_limit", [(0, 2), (-5, 2), (32, -1)])
    def test_degenerate_config_rejected(self, res, depth_limit):
        with pytest.raises(NonPositive):
            tiling_svg(jacaranda_prefix(2), RenderConfig(resolution=res, depth_limit=depth_limit))
