"""Metric identities, oracle agreement, and the phantom corpus."""
import math

import numpy as np
import pytest

from tracersep.evaluation import (MetricsRow, PhantomSpec, cov, cr,
                                  evaluate_pair, gen_phantom, load_corpus,
                                  nrmse, psnr, save_corpus, ssim,
                                  write_metrics_csv)
from tracersep.tensor import make_rng


def test_psnr_identity_and_hand_pair():
    x = np.array([[0.3, 0.7]])
    assert psnr(x, x) == math.inf
    # Max(y)=2, RMSE=sqrt(2) -> 20 log10(2/sqrt 2) = 10 log10 2
    got = psnr(np.array([0.0, 0.0]), np.array([0.0, 2.0]))
    assert abs(got - 10.0 * math.log10(2.0)) < 1e-9


def test_psnr_monotone_in_noise():
    rng = make_rng(1)
    y = rng.uniform(0.1, 1.0, size=(16, 16))
    noise = rng.standard_normal((16, 16))
    values = [psnr(y + a * noise, y) for a in (0.01, 0.02, 0.04)]
    assert values[0] > values[1] > values[2]


def test_psnr_errors():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        psnr(np.zeros((0,)), np.zeros((0,)))


def test_ssim_identities():
    rng = make_rng(2)
    x = rng.uniform(0, 1, size=(8, 8))
    assert abs(ssim(x, x) - 1.0) < 1e-12
    const = np.full((4, 4), 3.7)
    assert abs(ssim(const, const) - 1.0) < 1e-12


def test_ssim_symmetric_with_shared_constants():
    rng = make_rng(3)
    x = rng.uniform(0, 1, size=(8, 8))
    y = rng.uniform(0, 1, size=(8, 8))
    c1, c2 = 1e-4, 9e-4
    assert abs(ssim(x, y, c1, c2) - ssim(y, x, c1, c2)) < 1e-12


def test_nrmse_examples():
    x = np.array([0.5, 1.5])
    y = np.array([0.0, 1.0])
    assert abs(nrmse(x, y) - 0.5) < 1e-12
    assert nrmse(y, y) == 0.0
    with pytest.raises(ValueError):
        nrmse(x, np.array([2.0, 2.0]))


def test_nrmse_scale_covariance():
    rng = make_rng(4)
    x = rng.uniform(0, 1, size=(6, 6))
    y = rng.uniform(0, 1, size=(6, 6))
    assert abs(nrmse(3.0 * x, 3.0 * y) - nrmse(x, y)) < 1e-12


def test_cr_examples():
    img = np.array([[6.0, 1.0], [2.0, 3.0]])
    a = np.array([[1, 0], [0, 0]], dtype=bool)
    b = np.array([[0, 1], [1, 0]], dtype=bool)  # mean (1+2)/2 = 1.5
    assert abs(cr(img, a, b) - 4.0) < 1e-12
    # max 6 over a, mean 2 over a region of twos
    b2 = np.array([[0, 0], [1, 0]], dtype=bool)
    assert abs(cr(img, a, b2) - 3.0) < 1e-12
    const = np.full((2, 2), 5.0)
    assert abs(cr(const, a, a) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        cr(img, np.zeros((2, 2), dtype=bool), b)
    with pytest.raises(ZeroDivisionError):
        cr(np.zeros((2, 2)), a, b)


def test_cov_examples():
    img = np.array([[1.0, 3.0], [9.0, 9.0]])
    region = np.array([[1, 1], [0, 0]], dtype=bool)
    assert abs(cov(img, region) - 0.5) < 1e-12  # {1,3}: std 1, mean 2
    assert cov(np.full((2, 2), 4.0), region) == 0.0
    with pytest.raises(ValueError):
        cov(img, np.zeros((2, 2), dtype=bool))
    with pytest.raises(ZeroDivisionError):
        cov(np.zeros((2, 2)), region)


def test_ratio_metrics_scale_invariant():
    rng = make_rng(5)
    img = rng.uniform(0.5, 2.0, size=(8, 8))
    a = rng.uniform(size=(8, 8)) > 0.6
    b = rng.uniform(size=(8, 8)) > 0.6
    assert abs(cr(7.0 * img, a, b) - cr(img, a, b)) < 1e-12
    assert abs(cov(7.0 * img, b) - cov(img, b)) < 1e-12


def test_all_metrics_against_direct_oracles():
    rng = make_rng(6)
    for _ in range(50):
        x = rng.uniform(0.0, 2.0, size=(8, 8))
        y = rng.uniform(0.1, 2.0, size=(8, 8))
        mse = ((x - y) ** 2).mean()
        assert abs(psnr(x, y) - 20 * math.log10(y.max() / math.sqrt(mse))) < 1e-9
        r = y.max() - y.min()
        c1, c2 = (0.01 * r) ** 2, (0.03 * r) ** 2
        mx, my = x.mean(), y.mean()
        covxy = ((x - mx) * (y - my)).mean()
        want = ((2 * mx * my + c1) * (2 * covxy + c2)
                / ((mx ** 2 + my ** 2 + c1) * (x.var() + y.var() + c2)))
        assert abs(ssim(x, y) - want) < 1e-9
        assert abs(nrmse(x, y) - math.sqrt(mse) / r) < 1e-9
        a = rng.uniform(size=(8, 8)) > 0.5
        b = rng.uniform(size=(8, 8)) > 0.5
        if a.any() and b.any() and y[b].mean() != 0:
            assert abs(cr(y, a, b) - y[a].max() / y[b].mean()) < 1e-9
            assert abs(cov(y, b) - y[b].std() / y[b].mean()) < 1e-9


def test_phantom_additive_and_nonnegative():
    pair = gen_phantom(0)
    assert np.max(np.abs(pair.dual - (pair.singles[0] + pair.singles[1]))) < 1e-12
    assert np.all(pair.dual >= 0)
    for s in pair.singles:
        assert np.all(s >= 0)


def test_phantom_determinism_and_seed_sensitivity():
    a = gen_phantom(5)
    b = gen_phantom(5)
    c = gen_phantom(6)
    assert np.array_equal(a.dual, b.dual)
    assert np.array_equal(a.singles[1], b.singles[1])
    assert np.max(np.abs(a.dual - c.dual)) > 0


def test_phantom_distinct_tracer_statistics():
    pair = gen_phantom(3)
    # blobs and rings should not be near-identical patterns
    diff = np.abs(pair.singles[0] - pair.singles[1]).mean()
    assert diff > 0.05


def test_phantom_region_masks_present():
    pair = gen_phantom(1)
    for k in range(2):
        for name in (f"lesion_t{k}", f"background_t{k}"):
            mask = pair.region_masks[name]
            assert mask.shape == pair.dual.shape
            assert set(np.unique(mask)) <= {0.0, 1.0}
            assert mask.any(), name


def test_phantom_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(size=2)
    with pytest.raises(ValueError):
        PhantomSpec(n_tracers=0)
    with pytest.raises(ValueError):
        PhantomSpec(n_blobs=0)


def test_corpus_roundtrip_bit_identical(tmp_path):
    seeds = [4, 9, 11]
    for n_tracers in (2, 3):
        out = tmp_path / f"corpus{n_tracers}"
        saved = save_corpus(out, seeds, PhantomSpec(n_tracers=n_tracers))
        loaded = load_corpus(out)
        assert len(loaded) == 3
        for a, b in zip(saved, loaded):
            assert len(b.singles) == n_tracers
            assert list(b.region_masks) == list(a.region_masks)
            for s, t in zip([a.dual, *a.singles, *a.region_masks.values()],
                            [b.dual, *b.singles, *b.region_masks.values()]):
                assert t.dtype == s.dtype and np.array_equal(s, t)


def test_evaluate_pair_and_csv(tmp_path):
    pair = gen_phantom(2)
    row = evaluate_pair(pair.singles[0], pair, 0, "p0000")
    assert row.psnr_db == math.inf
    assert abs(row.ssim - 1.0) < 1e-12
    assert row.nrmse == 0.0
    path = tmp_path / "metrics.csv"
    write_metrics_csv([row], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "phantom_id,tracer,psnr_db,ssim,nrmse,cr,cov"
    fields = lines[1].split(",")
    assert fields[0] == "p0000" and fields[1] == "0" and fields[2] == "inf"
