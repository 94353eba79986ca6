import hashlib
import itertools
import math
import tracemalloc

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
