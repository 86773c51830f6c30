import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eltomo import (GridSpec, PhantomDescriptor, Rectangle,
                    default_ct_descriptor, generate_ct_phantom,
                    generate_et_phantom, load_descriptor, save_descriptor)
from eltomo import phantoms
from eltomo.phantoms import evaluate_descriptor, et_phantom_components


def test_empty_descriptor_gives_zero_image():
    img = generate_ct_phantom(PhantomDescriptor(()), GridSpec(16, 12))
    assert_array_equal(img.values, 0.0)


def test_full_square_rectangle_gives_constant_one():
    desc = PhantomDescriptor((Rectangle(0.0, 0.0, 1.0, 1.0, 1.0),))
    img = generate_ct_phantom(desc, GridSpec(20, 20))
    assert_array_equal(img.values, 1.0)


def test_generation_is_deterministic():
    desc = default_ct_descriptor()
    a = generate_ct_phantom(desc, GridSpec(64, 64))
    b = generate_ct_phantom(desc, GridSpec(64, 64))
    assert_array_equal(a.values, b.values)


def test_default_descriptor_max_matches_supersampled_oracle():
    # oracle: dense analytic evaluation at 10x supersampling
    desc = default_ct_descriptor()
    img = generate_ct_phantom(desc, GridSpec(250, 250))
    n = 2500
    xs = (np.arange(n) + 0.5) / n
    x, y = np.meshgrid(xs, xs)
    oracle_max = evaluate_descriptor(desc, x, y).max()
    # grid max can only undershoot, by at most the local variation over
    # one coarse pixel (smooth overlap region, moderate slope)
    assert img.values.max() <= oracle_max + 1e-12
    assert abs(img.values.max() - oracle_max) < 0.03


def test_downsampled_fine_phantom_matches_coarse():
    desc = default_ct_descriptor()
    coarse = generate_ct_phantom(desc, GridSpec(256, 256)).values
    fine = generate_ct_phantom(desc, GridSpec(512, 512)).values
    avg = fine.reshape(256, 2, 256, 2).mean(axis=(1, 3))
    rms = np.sqrt(np.mean((avg - coarse) ** 2))
    assert rms / np.abs(coarse).max() <= 0.02


def test_descriptor_text_round_trip():
    desc = default_ct_descriptor()
    again = load_descriptor(save_descriptor(desc))
    assert again == desc


def test_descriptor_rejects_bad_line():
    with pytest.raises(ValueError):
        load_descriptor("gaussian 0.5 0.5 0.1\n")


def test_et_phantom_deterministic():
    grid = GridSpec(128, 128)
    a_img, a_gr, a_br = generate_et_phantom(grid, seed=3)
    b_img, b_gr, b_br = generate_et_phantom(grid, seed=3)
    assert_array_equal(a_img.values, b_img.values)
    assert_array_equal(a_gr.membership, b_gr.membership)
    assert_array_equal(a_br.membership, b_br.membership)


def test_et_regions_disjoint_and_nonempty():
    for seed in (0, 1, 2, 9):
        img, gr, br = generate_et_phantom(GridSpec(128, 128), seed)
        assert not np.any(gr.membership & br.membership)
        assert gr.count > 0 and br.count > 0
        assert np.all(img.values >= 0)


def test_et_rejects_non_square_grid():
    with pytest.raises(ValueError):
        generate_et_phantom(GridSpec(64, 32), seed=0)


def test_et_grid_too_small_is_rejected_before_drawing(monkeypatch):
    # at 16^2 the smallest spot's 4-sigma margin, 8 pixels, reaches past
    # the deepest support point, so no draw could be accepted; with a
    # budget of 10 draws only the up-front check names the margin
    monkeypatch.setattr(phantoms, "_SPOT_DRAWS", 10)
    with pytest.raises(ValueError, match=r"16x16 grid: .*4-sigma margin"):
        et_phantom_components(GridSpec(16, 16), seed=0)


def test_et_gaussian_integrals_match_analytic():
    # oracle: integral of a 2-D gaussian is amp * 2*pi*sigma^2, so the
    # pixel sum is that divided by the pixel area
    grid = GridSpec(400, 400)
    _support, spots = et_phantom_components(grid, seed=1)
    xs = (np.arange(400) + 0.5) / 400
    x, y = np.meshgrid(xs, xs)
    h2 = grid.hx * grid.hy
    for s in spots:
        if s.sigma < 3.0 / 400:
            continue
        field = s.amplitude * np.exp(
            -((x - s.cx) ** 2 + (y - s.cy) ** 2) / (2 * s.sigma ** 2))
        expected = s.amplitude * 2 * np.pi * s.sigma ** 2 / h2
        assert_allclose(field.sum(), expected, rtol=0.01)


def test_et_spot_sigmas_in_pixel_range():
    grid = GridSpec(128, 128)
    _support, spots = et_phantom_components(grid, seed=5)
    assert len(spots) == 6
    for s in spots:
        assert 2.0 / 128 <= s.sigma <= 8.0 / 128
        assert 0.4 <= s.amplitude <= 1.0
