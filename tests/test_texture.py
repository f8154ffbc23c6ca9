"""LBP codes, threshold masks, and fusion."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracersep.tensor import make_rng
from tracersep.texture import (NEIGHBOR_OFFSETS, TextureConfig, fuse,
                               image_mask, lbp_map, masked_texture,
                               quantize_to_byte, texture_mask)


def lbp_oracle(image):
    """Direct 8-comparison enumeration per pixel, replicate borders."""
    q = quantize_to_byte(image)
    h, w = q.shape
    out = np.zeros((h, w), dtype=np.int64)
    for i in range(h):
        for j in range(w):
            code = 0
            for p, (dy, dx) in enumerate(NEIGHBOR_OFFSETS):
                ni = min(max(i + dy, 0), h - 1)
                nj = min(max(j + dx, 0), w - 1)
                if q[ni, nj] - q[i, j] >= 0:
                    code += 1 << p
            out[i, j] = code
    return out


def test_config_validation():
    TextureConfig(tau=0, alpha=0.0)
    TextureConfig(tau=255, alpha=1.0)
    with pytest.raises(ValueError):
        TextureConfig(tau=256)
    with pytest.raises(ValueError):
        TextureConfig(tau=-1)
    with pytest.raises(ValueError):
        TextureConfig(alpha=1.5)


def test_quantize_range_and_constant():
    rng = make_rng(2)
    img = rng.uniform(3.0, 17.0, size=(9, 9))
    q = quantize_to_byte(img)
    assert q.min() == 0 and q.max() == 255
    assert np.all(quantize_to_byte(np.full((4, 4), 7.3)) == 0)


def test_lbp_constant_image_is_255():
    # every neighbor difference is 0 and s(0) = 1, so all eight bits set
    assert np.all(lbp_map(np.full((5, 5), 2.5)) == 255)


def test_lbp_center_above_all_neighbors():
    img = np.zeros((3, 3))
    img[1, 1] = 5.0
    assert lbp_map(img)[1, 1] == 0


def test_lbp_hand_worked_code():
    # neighbors clockwise from top-left, center 100
    img = np.array([
        [200.0, 50.0, 150.0],
        [101.0, 100.0, 100.0],
        [100.0, 99.0, 0.0],
    ])
    # quantization keeps the comparison signs: scale is 255/200
    assert lbp_map(img)[1, 1] == 205


def test_lbp_matches_oracle_random():
    rng = make_rng(6)
    for _ in range(20):
        img = rng.uniform(0.0, 1.0, size=(7, 6))
        assert np.array_equal(lbp_map(img), lbp_oracle(img))


def test_lbp_monotone_rescale_invariance():
    rng = make_rng(8)
    img = rng.integers(0, 256, size=(8, 8)).astype(np.float64)
    assert np.array_equal(lbp_map(img), lbp_map(3.0 * img + 10.0))


def test_lbp_rejects_bad_shapes():
    for shape in ((0, 4), (5,), (), (0, 4, 4), (2, 0, 3), (2, 3, 0)):
        with pytest.raises(ValueError, match="expected non-empty"):
            lbp_map(np.zeros(shape))


@st.composite
def stacks(draw):
    """(..., H, W) stacks with 1-pixel extents, constant images and tied values."""
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    images = rng.uniform(0.0, 4.0, size=lead + (h, w))
    constant = (rng.random(lead) < 0.3)[..., None, None]
    images = np.where(constant, images[..., :1, :1], images)
    coarse = (rng.random(lead) < 0.3)[..., None, None]
    return np.where(coarse, np.round(images), images)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(images=stacks(), tau=st.integers(0, 255))
def test_texture_of_a_stack_is_the_texture_of_each_image(images, tau):
    for f in (quantize_to_byte, lbp_map, lambda im: image_mask(im, tau)):
        whole = f(images)
        assert whole.shape == images.shape
        for idx in np.ndindex(*images.shape[:-2]):
            item = f(images[idx])
            assert whole[idx].dtype == item.dtype
            assert np.array_equal(whole[idx], item)


def test_quantize_uses_each_image_range():
    stack = np.stack([np.full((3, 3), 9.0), np.arange(9.0).reshape(3, 3),
                      100.0 + np.arange(9.0).reshape(3, 3)])
    q = quantize_to_byte(stack)
    assert np.all(q[0] == 0)
    assert np.array_equal(q[1], q[2])
    assert q[1].min() == 0 and q[1].max() == 255


def test_texture_mask_examples():
    lbp = np.array([[205, 150], [180, 0]])
    mask = texture_mask(lbp, 180)
    assert np.array_equal(mask, [[1.0, 0.0], [1.0, 0.0]])
    assert np.all(texture_mask(lbp, 0) == 1.0)
    with pytest.raises(ValueError):
        texture_mask(np.array([[300]]), 180)


def test_mask_monotone_in_tau():
    rng = make_rng(12)
    lbp = lbp_map(rng.uniform(0, 1, size=(16, 16)))
    prev = None
    for tau in (0, 60, 120, 180, 200, 255):
        mask = texture_mask(lbp, tau)
        if prev is not None:
            assert np.all(mask <= prev)
        prev = mask


def test_texture_mask_rejects_tau_outside_byte_range():
    lbp = lbp_map(make_rng(12).uniform(0, 1, size=(8, 8)))
    for tau in (-1, 256, 999):
        with pytest.raises(ValueError, match=f"tau {tau} outside"):
            texture_mask(lbp, tau)


def test_masked_texture():
    img = np.array([[2.0, 3.0]])
    assert np.array_equal(masked_texture(img, np.array([[1.0, 0.0]])), [[2.0, 0.0]])
    assert np.array_equal(masked_texture(img, np.ones((1, 2))), img)
    assert np.all(masked_texture(img, np.zeros((1, 2))) == 0.0)
    with pytest.raises(ValueError):
        masked_texture(img, np.ones((2, 2)))


def test_fuse_examples_and_affinity():
    rng = make_rng(14)
    sep = rng.uniform(0, 1, size=(6, 6))
    tex = masked_texture(sep, image_mask(sep, 180))
    assert np.array_equal(fuse(sep, tex, 1.0), sep)
    assert np.array_equal(fuse(sep, tex, 0.0), tex)
    assert fuse(np.array([[2.0]]), np.array([[4.0]]), 0.5)[0, 0] == 3.0
    for alpha in (0.25, 0.9):
        want = alpha * fuse(sep, tex, 1.0) + (1 - alpha) * fuse(sep, tex, 0.0)
        assert np.max(np.abs(fuse(sep, tex, alpha) - want)) < 1e-12
    with pytest.raises(ValueError):
        fuse(sep, tex, 1.2)
