"""Joint training, inference, and checkpointing."""
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracersep import pipeline
from tracersep import tensor as T
from tracersep.evaluation import PhantomPair, PhantomSpec, gen_phantom
from tracersep.pipeline import (CheckpointError, ModelConfig, SeparationModel,
                                TrainConfig, load_checkpoint, loss_tm,
                                save_checkpoint, separate, train, train_step)
from tracersep.tensor import Adam, Parameter, Tensor, grad_check, make_rng, save_tsr
from tracersep.texture import image_mask


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


@pytest.mark.parametrize("field, value, want", [
    ("lr", -1.0, "finite and > 0"), ("lr", 0.0, "finite and > 0"),
    ("lr", float("inf"), "finite and > 0"), ("lr", float("nan"), "finite and > 0"),
    ("beta1", 1.0, "in [0, 1)"), ("beta1", -0.1, "in [0, 1)"), ("beta2", 1.0, "in [0, 1)"),
    ("eps", 0.0, "> 0"), ("teacher_forcing_frac", 7.0, "in [0, 1]"),
    ("teacher_forcing_frac", -0.5, "in [0, 1]"), ("seed", -1, ">= 0")])
def test_train_config_rejects_out_of_range_optimizer_settings(field, value, want):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {want}, got {value}")):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value, want", [
    ("steps", 2.5, "an integer"), ("steps", True, "an integer"), ("batch", "4", "an integer"),
    ("seed", 1.0, "an integer"), ("seed", None, "an integer"),
    ("lr", "2e-4", "a real number"), ("beta1", False, "a real number"),
    ("eps", [1e-8], "a real number"), ("teacher_forcing_frac", 1j, "a real number")])
def test_train_config_rejects_wrong_types(field, value, want):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {want}, got {value!r}")):
        TrainConfig(**{field: value})


def test_train_config_accepts_numpy_scalars():
    TrainConfig(steps=np.int64(3), batch=np.int32(2), seed=np.uint8(0), lr=np.float32(1e-3),
                beta1=np.float64(0.5), eps=np.float16(1e-3), teacher_forcing_frac=np.int64(1))


def test_train_config_accepts_range_edges():
    TrainConfig(beta1=0.0, beta2=0.0, teacher_forcing_frac=0.0)
    TrainConfig(teacher_forcing_frac=1.0, lr=1e-12, eps=1e-300)


def test_loss_tm_perfect_prediction_is_zero():
    rng = make_rng(1)
    targets = [rng.uniform(0.1, 1.0, size=(8, 8)) for _ in range(2)]
    preds = [Tensor(t) for t in targets]
    out = loss_tm(preds, targets, [image_mask(t, 180) for t in targets])
    assert float(out.data) == 0.0


def test_loss_tm_plus_one_with_full_masks():
    # tau = 0 makes every mask all ones, so each tracer contributes
    # image term 1 + texture term 1
    rng = make_rng(2)
    targets = [rng.uniform(0.1, 1.0, size=(8, 8)) for _ in range(2)]
    preds = [Tensor(t + 1.0) for t in targets]
    out = loss_tm(preds, targets, [image_mask(t, 0) for t in targets])
    assert abs(float(out.data) - 4.0) < 1e-5


def test_loss_tm_four_term_oracle():
    rng = make_rng(3)
    with T.precision("f64"):
        targets = [rng.uniform(0.1, 1.0, size=(8, 8)) for _ in range(2)]
        preds = [Tensor(rng.uniform(0.1, 1.0, size=(8, 8))) for _ in range(2)]
        got = float(loss_tm(preds, targets, [image_mask(t, 180) for t in targets]).data)
        want = 0.0
        for p, t in zip(preds, targets):
            mask = image_mask(t, 180)
            want += np.abs(p.data - t).mean()
            want += np.abs(p.data * mask - t * mask).mean()
        assert abs(got - want) < 1e-12


def test_loss_tm_shape_errors():
    t = np.zeros((4, 4))
    with pytest.raises(ValueError):
        loss_tm([Tensor(t)], [t, t], [image_mask(t, 180)] * 2)
    with pytest.raises(ValueError):
        loss_tm([Tensor(np.zeros((2, 2)))], [t], [image_mask(t, 180)])


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


def test_train_step_rejects_an_empty_batch():
    model = SeparationModel(tiny_config())
    with pytest.raises(ValueError, match="non-empty batch"):
        train_step([], model, Adam(model.parameters()), TrainConfig(), make_rng(0), 0, 1)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_diagnostic():
    model = SeparationModel(tiny_config())
    model.unet.conv_in.data[:] = 3e38  # overflows f32 in the first conv
    cfg = TrainConfig(steps=1, batch=1, seed=0)
    opt = Adam(model.parameters())
    with pytest.raises(FloatingPointError, match="conv3x3"):
        train_step(tiny_pairs(1), model, opt, cfg, make_rng(0), 0, 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_diagnostic_names_the_source_on_a_diamond():
    from tracersep.pipeline import _first_nonfinite
    with T.precision("f32"):
        x = Parameter(np.full(3, 1e38), "x")
        c = x * 10.0  # overflows; both branches below inherit the inf
        assert _first_nonfinite(T.leaky_relu(c) + T.abs_(c)) == "mul"


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
    give_latent_weight(model)
    raw = separate(pair.dual, model, seed=3)[1]
    different = separate(pair.dual, model, seed=4)
    assert not all(np.array_equal(a, b) for a, b in zip(raw, different[1]))


def give_latent_weight(model):
    """A freshly built model starts with inert modulation, where the rollout
    seed cannot change the images; give the latent path some weight."""
    rng = make_rng(8)
    for blocks in model.unet.enc_blocks + model.unet.dec_blocks:
        for blk in blocks:
            scale_w = blk.mod1.w.data[:, :blk.mod1.w.data.shape[1] // 2]
            scale_w[:] = 0.1 * rng.standard_normal(scale_w.shape)


@pytest.mark.parametrize("lead", [(3,), (2, 2)])
def test_separate_stack_is_each_image_with_seed_plus_index(lead):
    with T.precision("f64"):
        model = SeparationModel(tiny_config())
        give_latent_weight(model)
        n = int(np.prod(lead))
        duals = np.stack([p.dual for p in tiny_pairs(n)]).reshape(lead + (8, 8))
        flat = duals.reshape(-1, 8, 8)
        flat[-1] = flat[0]  # the same image at two indices gets two rollouts
        fused, raw, latent = separate(duals, model, seed=5, alpha=0.7, tau=150)
        assert len(fused) == len(raw) == 2
        assert latent.shape == lead + (4, 2)
        for i, idx in enumerate(np.ndindex(*lead)):
            fused1, raw1, latent1 = separate(duals[idx], model, seed=5 + i, alpha=0.7,
                                             tau=150)
            for k in range(2):
                np.testing.assert_allclose(fused[k][idx], fused1[k], rtol=0, atol=1e-10)
                np.testing.assert_allclose(raw[k][idx], raw1[k], rtol=0, atol=1e-10)
            np.testing.assert_allclose(latent[idx], latent1, rtol=0, atol=1e-10)
        raw0 = raw[0].reshape(-1, 8, 8)
        assert not np.allclose(raw0[0], raw0[-1])


@pytest.mark.parametrize("kw, message", [({"tau": 300}, "tau 300 outside"),
                                         ({"tau": -1}, "tau -1 outside"),
                                         ({"alpha": 1.5}, "alpha 1.5 outside")])
def test_separate_rejects_out_of_range_texture_settings_first(monkeypatch, kw, message):
    model = SeparationModel(tiny_config())

    def no_stage(*args, **kwargs):
        raise AssertionError("the condition encoder ran")

    monkeypatch.setattr(pipeline, "extract_condition", no_stage)
    with pytest.raises(ValueError, match=message):
        separate(tiny_pairs(1)[0].dual, model, seed=0, **kw)


def test_checkpoint_roundtrip(tmp_path):
    model = SeparationModel(tiny_config())
    pairs = tiny_pairs(1)
    train(pairs, model, TrainConfig(steps=2, batch=1, seed=0))
    save_checkpoint(model, tmp_path / "ck", step=2, seed=0)
    loaded, meta = load_checkpoint(tmp_path / "ck")
    assert meta == json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
    assert (meta["step"], meta["seed"]) == (2, 0)
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.data, b.data)
    before = separate(pairs[0].dual, model, seed=9)
    after = separate(pairs[0].dual, loaded, seed=9)
    for a, b in zip(before[0], after[0]):
        assert np.array_equal(a, b)


def archive(root):
    return root / "arrays.tsrs"


def rewrite_meta(root, edit):
    path = root / "checkpoint.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


def test_checkpoint_corrupted_blob_rejected(tmp_path):
    model = SeparationModel(tiny_config())
    save_checkpoint(model, tmp_path / "ck")
    raw = bytearray(archive(tmp_path / "ck").read_bytes())
    raw[-1] ^= 0xFF
    archive(tmp_path / "ck").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="digest mismatch for arrays.tsrs"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_older_format_rejected(tmp_path):
    model = SeparationModel(tiny_config())
    save_checkpoint(model, tmp_path / "ck")
    assert json.loads((tmp_path / "ck" / "checkpoint.json").read_text())["format"] == 3
    rewrite_meta(tmp_path / "ck", lambda m: m.update(format=2))
    # a corrupted archive as well: the format is checked before anything is hashed
    archive(tmp_path / "ck").write_bytes(archive(tmp_path / "ck").read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="format 2, expected 3"):
        load_checkpoint(tmp_path / "ck")
    # format 2 kept its format in manifest.json next to one blob per tensor
    old = tmp_path / "old"
    (old / "params").mkdir(parents=True)
    save_tsr(old / "params" / "msp.conv_in.b.tsr", np.zeros(4, dtype=np.float32))
    (old / "manifest.json").write_text(json.dumps(
        {"format": 2, "blobs": {"params/msp.conv_in.b.tsr": "0" * 64}}))
    with pytest.raises(CheckpointError, match=f"{re.escape(str(old))} has no checkpoint.json"):
        load_checkpoint(old)


def test_checkpoint_missing_blob_rejected(tmp_path):
    model = SeparationModel(tiny_config())
    save_checkpoint(model, tmp_path / "ck")
    archive(tmp_path / "ck").unlink()
    with pytest.raises(CheckpointError, match="missing archive"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("key", ["model", "names", "sha256"])
def test_checkpoint_missing_meta_key_rejected(tmp_path, key):
    save_checkpoint(SeparationModel(tiny_config()), tmp_path / "ck")
    rewrite_meta(tmp_path / "ck", lambda m: m.pop(key))
    with pytest.raises(CheckpointError, match=f"checkpoint.json lacks {key}$"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("damage, message", [
    (lambda path: path.write_text(path.read_text()[:40]), " is not valid JSON"),
    (lambda path: path.write_bytes(b"\xff\xfe{}"), " is not valid JSON"),
    (lambda path: path.write_text("[3]"), " holds a list, not a JSON object"),
    (lambda path: path.write_text("null"), " holds null, not a JSON object"),
    (lambda path: path.write_text('"x"'), " holds a string, not a JSON object"),
    (lambda path: path.write_text("1.5"), " holds a number, not a JSON object"),
    (lambda path: rewrite_meta(path.parent, lambda m: m.update(model=[1])),
     ": model is a list, not a JSON object"),
    (lambda path: rewrite_meta(path.parent, lambda m: m.update(model=None)),
     ": model is null, not a JSON object"),
    (lambda path: rewrite_meta(path.parent, lambda m: m.update(model="x")),
     ": model is a string, not a JSON object"),
    (lambda path: rewrite_meta(path.parent, lambda m: m.update(model=True)),
     ": model is a boolean, not a JSON object"),
    (lambda path: rewrite_meta(path.parent, lambda m: m.update(names="msp.conv_in.w")),
     ": names is not a list")],
    ids=["truncated", "not-utf8", "array", "null", "string", "number", "model", "null-model",
         "string-model", "boolean-model", "names"])
def test_unreadable_checkpoint_meta_rejected_naming_the_file(tmp_path, damage, message):
    save_checkpoint(SeparationModel(tiny_config()), tmp_path / "ck")
    path = tmp_path / "ck" / "checkpoint.json"
    damage(path)
    with pytest.raises(CheckpointError, match=re.escape(str(path)) + re.escape(message)):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_unknown_model_key_rejected(tmp_path, monkeypatch):
    save_checkpoint(SeparationModel(tiny_config()), tmp_path / "ck")
    rewrite_meta(tmp_path / "ck", lambda m: m["model"].update(dropout=0.1))

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built before the keys were checked")
    monkeypatch.setattr(pipeline, "SeparationModel", no_model)
    with pytest.raises(CheckpointError, match="unknown model keys dropout"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("model, message", [
    ({"d": "4"}, "d must be an integer, got '4'"),
    ({"unet_heads": 2}, "unet_heads must be a list of integers, got 2"),
    ({"tau": 180.5}, "tau must be an integer, got 180.5"),
    ({"unet_levels": 3}, "heads has 2 entries for 3 levels"),
], ids=["string-d", "int-heads", "float-tau", "levels-vs-lists"])
def test_checkpoint_bad_model_config_rejected_naming_the_file(tmp_path, monkeypatch, model,
                                                              message):
    save_checkpoint(SeparationModel(tiny_config()), tmp_path / "ck")
    rewrite_meta(tmp_path / "ck", lambda m: m["model"].update(model))

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built before its config was checked")
    monkeypatch.setattr(pipeline, "SeparationModel", no_model)
    path = tmp_path / "ck" / "checkpoint.json"
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: model: {message}")):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("field, value, want", [
    ("d", "4", "an integer"), ("n_tracers", 2.0, "an integer"), ("init_seed", True, "an integer"),
    ("beta_end", "0.9", "a real number"), ("alpha", None, "a real number"),
    ("unet_heads", (1, 2), "a list of integers"), ("unet_blocks", [1, 1.0], "a list of integers"),
    ("unet_channels", [4, False], "a list of integers")])
def test_model_config_rejects_wrong_types(field, value, want):
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {want}, got {value!r}")):
        tiny_config(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("tau", 300, "tau 300 outside [0, 255]"), ("alpha", 1.5, "alpha 1.5 outside [0, 1]"),
    ("diffusion_steps", 0, "denoiser steps must be >= 1, got 0"),
    ("beta_end", 0.05, "beta_start and beta_end must satisfy 0 < beta_start <= beta_end < 1, "
                       "got 0.1 and 0.05"),
    ("lpeb_width", 0, "channel width must be positive"),
    ("unet_channels", [4, 6], "channels above level 0 must be divisible by 4"),
    ("gdfn_expansion", 0.5, "gdfn expansion must be >= 1"),
    ("d", 0, "d must be >= 1, got 0"), ("lpeb_res_blocks", -1, "res_blocks must be >= 0"),
    ("n_tracers", 0, "need at least one head"),
    ("denoiser_hidden", 0, "denoiser hidden must be >= 1, got 0"),
    ("unet_heads", [0, 2], "heads must each be >= 1, got [0, 2]"),
    ("unet_channels", [0, 8], "channels must each be >= 1, got [0, 8]"),
    ("unet_blocks", [1, -1], "blocks must each be >= 0, got [1, -1]"),
    ("init_seed", -1, "init_seed must be >= 0, got -1"),
    ("beta_start", 0.0, "beta_start and beta_end must satisfy 0 < beta_start <= beta_end < 1, "
                        "got 0.0 and 0.99")])
def test_model_config_checks_every_part_range_when_built(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        tiny_config(**{field: value})


def test_model_config_accepts_empty_blocks_and_one_level():
    tiny_config(lpeb_res_blocks=0, unet_blocks=[0, 0])
    tiny_config(unet_levels=1, unet_heads=[1], unet_channels=[4], unet_blocks=[1])
    with pytest.raises(ValueError, match=re.escape("need at least one level, got 0")):
        tiny_config(unet_levels=0, unet_heads=[], unet_channels=[], unet_blocks=[])


def test_model_config_accepts_numpy_scalars():
    tiny_config(d=np.int64(4), tau=np.uint8(180), alpha=np.float32(0.5), gdfn_expansion=2)


def test_checkpoint_directory_without_metadata_rejected(tmp_path):
    save_checkpoint(SeparationModel(tiny_config()), tmp_path / "ck")
    (tmp_path / "ck" / "checkpoint.json").unlink()
    with pytest.raises(CheckpointError, match="ck has no checkpoint.json$"):
        load_checkpoint(tmp_path / "ck")
    with pytest.raises(CheckpointError, match="absent has no checkpoint.json$"):
        load_checkpoint(tmp_path / "absent")


def test_checkpoint_is_two_files(tmp_path):
    trained_checkpoint(tmp_path / "ck")
    assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["arrays.tsrs",
                                                                    "checkpoint.json"]


def test_checkpoint_truncated_or_overlong_archive_rejected(tmp_path):
    trained_checkpoint(tmp_path / "ck")
    raw = archive(tmp_path / "ck").read_bytes()
    archive(tmp_path / "ck").write_bytes(raw[:-5])
    with pytest.raises(CheckpointError, match=r"\(unet\.[^ ]+\): shape .* expects "
                                              r"\d+ bytes, found \d+"):
        load_checkpoint(tmp_path / "ck")
    archive(tmp_path / "ck").write_bytes(raw + bytes(3))
    with pytest.raises(CheckpointError, match="has 3 bytes after its"):
        load_checkpoint(tmp_path / "ck")


def trained_checkpoint(root, steps=2):
    """A tiny model after `steps` Adam steps, saved."""
    model = SeparationModel(tiny_config())
    opt = Adam(model.parameters(), lr=2e-4)
    cfg = TrainConfig(steps=steps, batch=1, seed=0)
    rng = make_rng(0)
    for step in range(steps):
        train_step(tiny_pairs(1), model, opt, cfg, rng, step, steps)
    save_checkpoint(model, root, step=steps, seed=0)
    return model


def assert_bit_equal(model, loaded, dtype=None):
    for a, b in zip(model.parameters(), loaded.parameters(), strict=True):
        assert a.name == b.name
        assert a.data.dtype == b.data.dtype == (dtype or a.data.dtype)
        assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("prec", ["f32", "f64"])
def test_checkpoint_roundtrip_with_adam_is_bit_equal(tmp_path, prec):
    """The parameters Adam steps left round trip bit for bit."""
    with T.precision(prec):
        model = trained_checkpoint(tmp_path / "ck")
        loaded, meta = load_checkpoint(tmp_path / "ck")
    assert meta["step"] == 2
    assert_bit_equal(model, loaded, np.float32 if prec == "f32" else np.float64)


def test_f64_checkpoint_loads_cast_to_f32(tmp_path):
    with T.precision("f64"):
        model = trained_checkpoint(tmp_path / "ck")
    loaded, _ = load_checkpoint(tmp_path / "ck")  # the ambient dtype is f32
    for a, b in zip(model.parameters(), loaded.parameters(), strict=True):
        assert b.data.dtype == np.float32
        assert np.array_equal(a.data.astype(np.float32), b.data)


def test_loaded_arrays_are_aligned_writable_contiguous(tmp_path):
    trained_checkpoint(tmp_path / "ck")
    loaded, _ = load_checkpoint(tmp_path / "ck")
    for p in loaded.parameters():
        assert p.data.flags.aligned and p.data.flags.writeable and p.data.flags.c_contiguous


def test_checkpoint_with_a_null_adam_key_loads_bit_identically(tmp_path):
    """Format-3 checkpoints written before the optimizer left the format
    carry `"adam": null` next to the same n records."""
    model = trained_checkpoint(tmp_path / "ck")
    rewrite_meta(tmp_path / "ck", lambda m: m.update(adam=None))
    assert json.loads((tmp_path / "ck" / "checkpoint.json").read_text())["adam"] is None
    loaded, _ = load_checkpoint(tmp_path / "ck")
    assert_bit_equal(model, loaded)


def test_archive_with_trailing_adam_records_rejected(tmp_path):
    """An archive that also holds every m and then every v buffer, as one
    saved with Adam state once did, fails the trailing-bytes check."""
    model = trained_checkpoint(tmp_path / "ck")
    params_only = archive(tmp_path / "ck").stat().st_size
    params = model.parameters()
    hasher = hashlib.sha256()
    with open(archive(tmp_path / "ck"), "wb") as fh:
        for arr in [p.data for p in params] + [np.zeros_like(p.data) for p in params * 2]:
            T.write_tsr_record(fh, arr, hasher)
    rewrite_meta(tmp_path / "ck", lambda m: m.update(
        sha256=hasher.hexdigest(),
        adam={"t": 2, "lr": 2e-4, "beta1": 0.9, "beta2": 0.99, "eps": 1e-8}))
    extra = archive(tmp_path / "ck").stat().st_size - params_only
    assert extra > 0
    with pytest.raises(CheckpointError,
                       match=f"has {extra} bytes after its {len(params)} records"):
        load_checkpoint(tmp_path / "ck")


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


def read_records(path):
    with open(path, "rb") as fh:
        records = []
        while fh.tell() < path.stat().st_size:
            records.append(T.read_tsr_record(fh))
    return records


def test_save_checkpoint_digests_are_file_sha256(tmp_path):
    model = trained_checkpoint(tmp_path / "ck")
    meta = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
    assert meta["sha256"] == hashlib.sha256(archive(tmp_path / "ck").read_bytes()).hexdigest()
    assert "adam" not in meta
    params = model.parameters()
    assert meta["names"] == [p.name for p in params]
    records = read_records(archive(tmp_path / "ck"))
    assert len(records) == len(params)
    for p, y in zip(params, records):
        assert p.data.tobytes() == y.tobytes()


def test_checkpoint_name_list_must_match_model(tmp_path):
    trained_checkpoint(tmp_path / "ck")
    names = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())["names"]
    cases = [
        (names[:2] + [names[3], names[2]] + names[4:], f"entry 2: checkpoint has '{names[3]}', "
                                                       f"model has '{names[2]}'"),
        (names[:-1], f"entry {len(names) - 1}: checkpoint has None, "
                     f"model has '{names[-1]}'"),
        (names + ["extra.w"], f"entry {len(names)}: checkpoint has 'extra.w', model has None"),
    ]
    for listed, message in cases:
        rewrite_meta(tmp_path / "ck", lambda m: m.update(names=listed))
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(tmp_path / "ck")


def test_checkpoint_blob_with_wrong_shape_rejected(tmp_path):
    model = trained_checkpoint(tmp_path / "ck")
    names = [p.name for p in model.parameters()]
    records = read_records(archive(tmp_path / "ck"))
    i = names.index("msp.conv_in.b")
    assert records[i].shape == (4,)
    records[i] = np.zeros(3, dtype=np.float32)
    hasher = hashlib.sha256()
    with open(archive(tmp_path / "ck"), "wb") as fh:
        for arr in records:
            T.write_tsr_record(fh, arr, hasher)
    rewrite_meta(tmp_path / "ck", lambda m: m.update(sha256=hasher.hexdigest()))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(tmp_path / "ck")
    message = str(info.value)
    assert "msp.conv_in.b" in message and "(3,)" in message and "(4,)" in message
    assert f"record {i} " in message


@pytest.fixture(scope="module")
def tiny_ck(tmp_path_factory):
    """A tiny trained checkpoint, and its archive's bytes."""
    root = tmp_path_factory.mktemp("damaged") / "ck"
    trained_checkpoint(root)
    return root, archive(root).read_bytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_archive_always_rejected(tiny_ck, data):
    root, raw = tiny_ck
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        damaged = bytearray(raw)
        damaged[data.draw(st.integers(0, len(raw) - 1), label="offset")] ^= data.draw(
            st.integers(1, 255), label="flip")
    archive(root).write_bytes(bytes(damaged))
    with np.errstate(all="ignore"), pytest.raises(CheckpointError):
        load_checkpoint(root)


# the acceptance gate's toy configuration (tests/test_acceptance.py)
TOY_MODEL = dict(d=32, n_tracers=2, lpeb_width=32, denoiser_hidden=256,
                 diffusion_steps=4, unet_levels=2, unet_heads=[1, 2],
                 unet_channels=[8, 16], unet_blocks=[1, 1],
                 gdfn_expansion=4.0, init_seed=2)


def _toy_training_graph():
    model = SeparationModel(ModelConfig(**TOY_MODEL))
    dm, tm = pipeline._batch_losses(tiny_pairs(4, size=32), model, make_rng(0),
                                    teacher_forcing=False)
    return dm + tm


def held_bytes(root):
    """Bytes of the distinct arrays a graph holds at backward start: each
    node's data and every array its backward closure keeps (such as gelu's
    phi), each view counted as the array it views, once."""
    arrays, closures = {}, set()

    def hold(arr):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        arrays[id(arr)] = arr.nbytes

    def visit(obj):
        if isinstance(obj, np.ndarray):
            hold(obj)
        elif isinstance(obj, Tensor):
            hold(obj.data)
        elif isinstance(obj, (list, tuple)):
            for x in obj:
                visit(x)
        elif getattr(obj, "__closure__", None) and id(obj) not in closures:
            closures.add(id(obj))
            for cell in obj.__closure__:
                visit(cell.cell_contents)

    for node in T.topological_order(root):
        hold(node.data)
        visit(node._backward)
    return sum(arrays.values())


def test_toy_training_graph_size_is_pinned():
    # A ratchet on the nodes of one toy training graph (batch 4, 32x32): a
    # change that removes nodes lowers the pin, one that adds nodes says why.
    assert len(T.topological_order(_toy_training_graph())) == 244


def test_toy_training_graph_held_bytes_are_pinned():
    # A ratchet on the bytes the same graph holds when its backward starts,
    # parameters (834,360 bytes) included: a change that keeps fewer arrays
    # lowers the pin, one that keeps more says why.
    assert held_bytes(_toy_training_graph()) == 18_993_192


def test_held_bytes_counts_views_once_and_closure_arrays():
    # f32: x (80 bytes), its reshape (a view), the product (80) and the 2.0
    # const that mul's closure keeps (4), a split view, the gelu output and
    # the phi its closure keeps (40 each), the sum (4)
    x = Parameter(np.ones((4, 5)), "x")
    y = T.reshape(x, (20,)) * 2.0
    g = T.gelu(T.split(y, 2)[0])
    assert held_bytes(T.sum_(g)) == 80 + 80 + 4 + 40 + 40 + 4


def test_toy_training_is_bytewise_that_of_the_per_pixel_depthwise_kernel(monkeypatch):
    # the depthwise forward and input gradient run over whole W*C window
    # rows; 5 f32 toy steps with the per-pixel einsum they replaced must give
    # the same losses and parameter bytes, since criterion 5's thin margin
    # was measured with it
    def run():
        model = SeparationModel(ModelConfig(**TOY_MODEL))
        cfg = TrainConfig()
        opt = Adam(model.parameters(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                   eps=cfg.eps)
        rng = make_rng(0)
        pairs = tiny_pairs(4, size=32)
        losses = [train_step(pairs, model, opt, cfg, rng, step, cfg.steps)
                  for step in range(5)]
        return losses, [p.data.tobytes() for p in model.parameters()]

    got = run()
    calls = []

    def per_pixel(xs, k):
        calls.append(xs.shape)
        return np.einsum("nhwcij,ijc->nhwc", T._windows(xs), k)

    monkeypatch.setattr(T, "_depthwise_rows", per_pixel)
    want = run()
    assert calls
    assert got == want


def test_training_masks_come_from_one_image_mask_call_per_batch(monkeypatch):
    real = pipeline.image_mask
    calls = []

    def recorded(images, tau):
        masks = real(images, tau)
        calls.append((images, tau, masks))
        return masks

    monkeypatch.setattr(pipeline, "image_mask", recorded)
    model = SeparationModel(tiny_config())
    tau = model.texture.tau
    pairs = tiny_pairs(3)
    pipeline._batch_losses(pairs, model, make_rng(0), teacher_forcing=False)
    model.texture.tau = 120
    pipeline._batch_losses(pairs[:2], model, make_rng(0), teacher_forcing=False)
    # one call per step on the (B, 1 + n, H, W) stack, at the step's tau
    assert [(images.shape, t) for images, t, _ in calls] == [((3, 3, 8, 8), tau),
                                                               ((2, 3, 8, 8), 120)]
    for (images, t, masks), batch in zip(calls, [pairs, pairs[:2]]):
        for item, pair in enumerate(batch):
            # each item's dual, then its singles, each masked as if alone
            for image, want, mask in zip(images[item], [pair.dual, *pair.singles],
                                         masks[item]):
                assert image.tobytes() == want.tobytes()
                assert mask.tobytes() == real(want, t).tobytes()
    # a pair is a plain record that training writes nothing to
    assert [f.name for f in dataclasses.fields(PhantomPair)] == ["dual", "singles",
                                                                "region_masks"]
    assert all(vars(pair).keys() == {"dual", "singles", "region_masks"} for pair in pairs)


@pytest.mark.parametrize("filled", [True, False])
@pytest.mark.parametrize("config,count,digest", [
    (TOY_MODEL, 73, "ca2ceb53aba2a50f"),
    ({}, 420, "9ddeea426daeecfd"),
])
def test_parameters_are_construction_order_with_format_3_names(monkeypatch, filled,
                                                                config, count, digest):
    made = []
    init = Parameter.__init__

    def recording_init(self, data, name):
        init(self, data, name)
        made.append(self)

    monkeypatch.setattr(Parameter, "__init__", recording_init)
    params = SeparationModel(ModelConfig(**config), filled=filled).parameters()
    assert len(params) == len({id(p) for p in params}) == len(made) == count
    assert all(p is q for p, q in zip(params, made))
    # sha256 of the names as the format-3 checkpoints of earlier versions
    # list them; a different list would no longer load those checkpoints
    names = "\n".join(p.name for p in params)
    assert hashlib.sha256(names.encode()).hexdigest().startswith(digest)
