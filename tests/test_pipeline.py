"""Joint training, inference, and checkpointing."""
import hashlib
import json

import numpy as np
import pytest

from tracersep import tensor as T
from tracersep.evaluation import PhantomSpec, gen_phantom
from tracersep.pipeline import (CheckpointError, ModelConfig, SeparationModel,
                                TrainConfig, load_checkpoint, loss_tm,
                                save_checkpoint, separate, train, train_step)
from tracersep.tensor import (Adam, Parameter, Tensor, grad_check, load_tsr, make_rng,
                              save_tsr)
from tracersep.texture import TextureConfig


def tiny_config(**kw):
    base = dict(d=4, n_tracers=2, lpeb_width=4, lpeb_res_blocks=1,
                denoiser_hidden=8, unet_levels=2, unet_heads=[1, 2],
                unet_channels=[4, 8], unet_blocks=[1, 1], init_seed=0)
    base.update(kw)
    return ModelConfig(**base)


def tiny_pairs(n=2, size=8):
    return [gen_phantom(s, PhantomSpec(size=size)) for s in range(n)]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=0)
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
    with pytest.raises(ValueError):
        TrainConfig(precision="f16")


def test_loss_tm_perfect_prediction_is_zero():
    rng = make_rng(1)
    targets = [rng.uniform(0.1, 1.0, size=(8, 8)) for _ in range(2)]
    preds = [Tensor(t) for t in targets]
    out = loss_tm(preds, targets, TextureConfig())
    assert float(out.data) == 0.0


def test_loss_tm_plus_one_with_full_masks():
    # tau = 0 makes every mask all ones, so each tracer contributes
    # image term 1 + texture term 1
    rng = make_rng(2)
    targets = [rng.uniform(0.1, 1.0, size=(8, 8)) for _ in range(2)]
    preds = [Tensor(t + 1.0) for t in targets]
    out = loss_tm(preds, targets, TextureConfig(tau=0))
    assert abs(float(out.data) - 4.0) < 1e-5


def test_loss_tm_four_term_oracle():
    from tracersep.texture import image_mask
    rng = make_rng(3)
    with T.precision("f64"):
        targets = [rng.uniform(0.1, 1.0, size=(8, 8)) for _ in range(2)]
        preds = [Tensor(rng.uniform(0.1, 1.0, size=(8, 8))) for _ in range(2)]
        got = float(loss_tm(preds, targets, TextureConfig(tau=180)).data)
        want = 0.0
        for p, t in zip(preds, targets):
            mask = image_mask(t, 180)
            want += np.abs(p.data - t).mean()
            want += np.abs(p.data * mask - t * mask).mean()
        assert abs(got - want) < 1e-12


def test_loss_tm_shape_errors():
    t = np.zeros((4, 4))
    with pytest.raises(ValueError):
        loss_tm([Tensor(t)], [t, t], TextureConfig())
    with pytest.raises(ValueError):
        loss_tm([Tensor(np.zeros((2, 2)))], [t], TextureConfig())


def test_train_step_additivity_and_history():
    model = SeparationModel(tiny_config())
    pairs = tiny_pairs()
    cfg = TrainConfig(steps=3, batch=2, seed=0)
    opt = Adam(model.parameters(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    rng = make_rng(cfg.seed)
    for step in range(3):
        total, dm, tm = train_step(pairs, model, opt, cfg, rng, step, 3)
        assert abs(total - (dm + tm)) < 1e-12
        assert np.isfinite(total)


def test_train_deterministic_trajectory():
    def run():
        model = SeparationModel(tiny_config())
        return train(tiny_pairs(), model, TrainConfig(steps=4, batch=2, seed=7))

    a = run()
    b = run()
    assert a == b  # bit-identical float trajectories
    assert len(a) == 4


def test_all_parameter_groups_get_gradients():
    model = SeparationModel(tiny_config())
    pairs = tiny_pairs(1)
    cfg = TrainConfig(steps=1, batch=1, seed=0)

    class NoOpt:
        def zero_grad(self):
            for p in model.parameters():
                p.grad = None

        def step(self):
            pass

    train_step(pairs, model, NoOpt(), cfg, make_rng(0), 0, 1)
    for p in model.parameters():
        assert p.grad is not None, p.name
        assert np.any(p.grad != 0.0), p.name


def test_loss_total_finite_difference_subset():
    """Full stochastic graph with frozen noise, 10 sampled parameters."""
    with T.precision("f64"):
        model = SeparationModel(tiny_config())
        pairs = tiny_pairs(1)
        cfg = TrainConfig(steps=1, batch=1, seed=0)

        from tracersep.pipeline import _item_losses
        def f():
            rng = make_rng(42)  # identical draws every call
            dm, tm = _item_losses(pairs[0], model, rng, teacher_forcing=False)
            return dm + tm

        # the rollout-consistency target is a stop-gradient copy of the prior,
        # so finite differences through the prior encoder legitimately
        # disagree with backprop there; check the other groups
        params = [p for p in model.parameters() if not p.name.startswith("msp")]
        pick = make_rng(5).choice(len(params), size=10, replace=False)
        err = grad_check(f, [params[i] for i in pick], h=1e-5, max_elems=2,
                         rng=make_rng(1))
    assert err < 1e-3


def test_nonfinite_loss_diagnostic():
    model = SeparationModel(tiny_config())
    model.unet.conv_in.data[:] = 3e38  # overflows f32 in the first conv
    cfg = TrainConfig(steps=1, batch=1, seed=0)
    opt = Adam(model.parameters())
    with pytest.raises(FloatingPointError, match="conv3x3"):
        train_step(tiny_pairs(1), model, opt, cfg, make_rng(0), 0, 1)


def test_nonfinite_diagnostic_names_the_source_on_a_diamond():
    from tracersep.pipeline import _first_nonfinite
    with T.precision("f32"):
        x = Parameter(np.full(3, 1e38), "x")
        c = x * 10.0  # overflows; both branches below inherit the inf
        assert _first_nonfinite(T.neg(c) + T.abs_(c)) == "mul"


def test_separate_contract():
    model = SeparationModel(tiny_config())
    pair = tiny_pairs(1)[0]
    fused, raw, latent = separate(pair.dual, model, seed=3)
    assert len(fused) == 2 and len(raw) == 2
    assert latent.shape == (4, 2)
    fused1, raw1, _ = separate(pair.dual, model, seed=3, alpha=1.0)
    for f, r in zip(fused1, raw1):
        assert np.array_equal(f, r)
    again = separate(pair.dual, model, seed=3)
    for a, b in zip(fused, again[0]):
        assert np.array_equal(a, b)
    # the freshly built model starts with inert modulation, so give the
    # latent path some weight before checking seed sensitivity
    rng = make_rng(8)
    for blocks in model.unet.enc_blocks + model.unet.dec_blocks:
        for blk in blocks:
            scale_w = blk.mod1.w.data[:, :blk.mod1.w.data.shape[1] // 2]
            scale_w[:] = 0.1 * rng.standard_normal(scale_w.shape)
    raw = separate(pair.dual, model, seed=3)[1]
    different = separate(pair.dual, model, seed=4)
    assert not all(np.array_equal(a, b) for a, b in zip(raw, different[1]))


def test_checkpoint_roundtrip(tmp_path):
    model = SeparationModel(tiny_config())
    pairs = tiny_pairs(1)
    train(pairs, model, TrainConfig(steps=2, batch=1, seed=0))
    save_checkpoint(model, tmp_path / "ck", step=2, seed=0)
    loaded, opt = load_checkpoint(tmp_path / "ck")
    assert opt is None
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.data, b.data)
    before = separate(pairs[0].dual, model, seed=9)
    after = separate(pairs[0].dual, loaded, seed=9)
    for a, b in zip(before[0], after[0]):
        assert np.array_equal(a, b)


def test_checkpoint_with_optimizer_state(tmp_path):
    model = SeparationModel(tiny_config())
    opt = Adam(model.parameters(), lr=2e-4)
    cfg = TrainConfig(steps=2, batch=1, seed=0)
    rng = make_rng(0)
    for step in range(2):
        train_step(tiny_pairs(1), model, opt, cfg, rng, step, 2)
    save_checkpoint(model, tmp_path / "ck", optimizer=opt, step=2, seed=0)
    loaded, opt2 = load_checkpoint(tmp_path / "ck")
    assert opt2 is not None and opt2.t == opt.t
    for p in model.parameters():
        assert np.array_equal(opt.m[p.name], opt2.m[p.name])
        assert np.array_equal(opt.v[p.name], opt2.v[p.name])


def test_checkpoint_corrupted_blob_rejected(tmp_path):
    model = SeparationModel(tiny_config())
    save_checkpoint(model, tmp_path / "ck")
    blob = next((tmp_path / "ck" / "params").glob("*.tsr"))
    raw = bytearray(blob.read_bytes())
    raw[-1] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_older_format_rejected(tmp_path):
    model = SeparationModel(tiny_config())
    save_checkpoint(model, tmp_path / "ck")
    manifest_path = tmp_path / "ck" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["format"] == 2
    manifest["format"] = 1
    manifest_path.write_text(json.dumps(manifest))
    # a corrupted blob as well: the format is checked before any blob is hashed
    blob = next((tmp_path / "ck" / "params").glob("*.tsr"))
    blob.write_bytes(blob.read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="format 1, expected 2"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_missing_blob_rejected(tmp_path):
    model = SeparationModel(tiny_config())
    save_checkpoint(model, tmp_path / "ck")
    next((tmp_path / "ck" / "params").glob("*.tsr")).unlink()
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "ck")


def trained_checkpoint(root, steps=2):
    """A tiny model after `steps` Adam steps, saved with its optimizer state."""
    model = SeparationModel(tiny_config())
    opt = Adam(model.parameters(), lr=2e-4)
    cfg = TrainConfig(steps=steps, batch=1, seed=0)
    rng = make_rng(0)
    for step in range(steps):
        train_step(tiny_pairs(1), model, opt, cfg, rng, step, steps)
    save_checkpoint(model, root, optimizer=opt, step=steps, seed=0)
    return model, opt


def rewrite_manifest(root, edit):
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("prec", ["f32", "f64"])
def test_checkpoint_roundtrip_with_adam_is_bit_equal(tmp_path, prec):
    with T.precision(prec):
        model, opt = trained_checkpoint(tmp_path / "ck")
        loaded, opt2 = load_checkpoint(tmp_path / "ck")
    assert opt2.t == opt.t == 2
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        for x, y in ((a.data, b.data), (opt.m[a.name], opt2.m[b.name]),
                     (opt.v[a.name], opt2.v[b.name])):
            assert x.dtype == y.dtype == (np.float32 if prec == "f32" else np.float64)
            assert x.tobytes() == y.tobytes()


def test_loaded_arrays_are_aligned_writable_contiguous(tmp_path):
    trained_checkpoint(tmp_path / "ck")
    loaded, opt = load_checkpoint(tmp_path / "ck")
    for p in loaded.parameters():
        for arr in (p.data, opt.m[p.name], opt.v[p.name]):
            assert arr.flags.aligned and arr.flags.writeable and arr.flags.c_contiguous


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    model = SeparationModel(tiny_config())
    save_checkpoint(model, tmp_path / "ck")

    class NoDraws(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            raise AssertionError("standard_normal drawn")

    monkeypatch.setattr(np.random, "Generator", NoDraws)
    with pytest.raises(AssertionError, match="standard_normal drawn"):
        SeparationModel(tiny_config())  # the patch does catch a fresh init
    loaded, _ = load_checkpoint(tmp_path / "ck")
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)


def test_save_checkpoint_digests_are_file_sha256(tmp_path):
    trained_checkpoint(tmp_path / "ck")
    blobs = json.loads((tmp_path / "ck" / "manifest.json").read_text())["blobs"]
    assert any(rel.startswith("opt/") for rel in blobs)
    for rel, digest in blobs.items():
        assert digest == hashlib.sha256((tmp_path / "ck" / rel).read_bytes()).hexdigest()


def test_checkpoint_unlisted_adam_state_rejected(tmp_path):
    trained_checkpoint(tmp_path / "ck")
    rel = "opt/msp.conv_in.b.m.tsr"
    rewrite_manifest(tmp_path / "ck", lambda m: m["blobs"].pop(rel))
    with pytest.raises(CheckpointError, match=rel):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("rel", ["params/msp.conv_in.b.tsr", "opt/msp.conv_in.b.m.tsr",
                                 "opt/msp.conv_in.b.v.tsr"])
def test_checkpoint_blob_with_wrong_shape_rejected(tmp_path, rel):
    trained_checkpoint(tmp_path / "ck")
    blob = tmp_path / "ck" / rel
    assert load_tsr(blob).shape == (4,)
    save_tsr(blob, np.zeros(3, dtype=np.float32))
    digest = hashlib.sha256(blob.read_bytes()).hexdigest()
    rewrite_manifest(tmp_path / "ck", lambda m: m["blobs"].__setitem__(rel, digest))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(tmp_path / "ck")
    message = str(info.value)
    assert "msp.conv_in.b" in message and "(3,)" in message and "(4,)" in message
