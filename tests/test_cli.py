"""End-to-end command-line behavior: exit codes, artifacts, replay."""
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tracersep import cli
from tracersep import tensor as T
from tracersep.cli import (dispatch, evaluate_predictions, run_sweep_tau, write_pgm8,
                           write_pgm16)
from tracersep.evaluation import PhantomSpec, cr, evaluate_pair, load_corpus, save_corpus
from tracersep.pipeline import (ModelConfig, SeparationModel, load_checkpoint,
                                save_checkpoint, separate)
from tracersep.tensor import load_tsr, make_rng, save_tsr
from tracersep.texture import image_mask

TINY = {
    "model": {"d": 4, "lpeb_width": 4, "lpeb_res_blocks": 1,
              "denoiser_hidden": 8, "unet_levels": 2, "unet_heads": [1, 2],
              "unet_channels": [4, 8], "unet_blocks": [1, 1], "init_seed": 0},
    "train": {"steps": 2, "batch": 2, "seed": 0},
}


def _hash_dir(d: Path, skip=("manifest.json",)) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.is_file() and p.name not in skip}


@pytest.fixture()
def corpus(tmp_path):
    out = tmp_path / "corpus"
    assert dispatch(["phantom", "--seed", "7", "--count", "2", "--size", "8",
                     "--out", str(out)]) == 0
    return out


@pytest.fixture()
def ckpt(tmp_path, corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    out = tmp_path / "ckpt"
    assert dispatch(["train", "--config", str(cfg), "--data", str(corpus),
                     "--out", str(out)]) == 0
    return out


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "phantom" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert dispatch(["frobnicate"]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_no_command_exits_two():
    assert dispatch([]) == 2


def test_runtime_error_exits_one(tmp_path, capsys):
    rc = dispatch(["separate", "--ckpt", str(tmp_path / "nope"),
                   "--input", str(tmp_path / "nope.tsr"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_phantom_deterministic_artifacts(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert dispatch(["phantom", "--seed", "7", "--count", "3", "--size", "8",
                         "--out", str(out)]) == 0
    assert _hash_dir(a) == _hash_dir(b)
    assert (a / "manifest.json").exists()
    assert (a / "corpus.json").exists()
    assert (a / "p0000_dual.pgm").read_bytes().startswith(b"P5\n8 8\n65535\n")


def test_lbp_outputs(tmp_path, corpus):
    out = tmp_path / "lbp"
    src = corpus / "p0000_dual.tsr"
    assert dispatch(["lbp", "--input", str(src), "--tau", "180",
                     "--out", str(out)]) == 0
    assert (out / "lbp.pgm").read_bytes().startswith(b"P5\n8 8\n255\n")
    assert (out / "mask.pgm").exists()
    masked = load_tsr(out / "masked_texture.tsr")
    assert masked.shape == (8, 8)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "lbp"
    assert manifest["config"]["tau"] == 180


def _truth_as_predictions(pred: Path, corpus: Path) -> Path:
    pred.mkdir()
    for idx, pair in enumerate(load_corpus(corpus)):
        for k, single in enumerate(pair.singles):
            save_tsr(pred / f"p{idx:04d}_t{k}.tsr", single)
    return pred


def test_evaluate_truth_against_itself(tmp_path, corpus):
    pred = _truth_as_predictions(tmp_path / "pred", corpus)
    out = tmp_path / "metrics.csv"
    assert dispatch(["evaluate", "--pred", str(pred), "--truth", str(corpus),
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "phantom_id,tracer,psnr_db,ssim,nrmse,cr,cov"
    assert len(lines) == 5  # 2 phantoms x 2 tracers
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == "inf"
        assert float(fields[3]) == 1.0
        assert float(fields[4]) == 0.0


def test_train_writes_checkpoint_and_manifest(ckpt):
    model, _ = load_checkpoint(ckpt)
    assert model.cfg.d == 4
    manifest = json.loads((ckpt / "manifest.json").read_text())
    # an ordinary run record next to the checkpoint's own two files
    assert manifest["command"] == "train"
    assert manifest["outputs"] == ["checkpoint.json", "arrays.tsrs"]
    assert sorted(p.name for p in ckpt.iterdir()) == ["arrays.tsrs", "checkpoint.json",
                                                      "manifest.json"]


@pytest.mark.parametrize("flag", ["steps", "batch"])
def test_train_rejects_nonpositive_flag_before_training(tmp_path, corpus, capsys, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    out = tmp_path / "ckpt"
    rc = dispatch(["train", "--config", str(cfg), "--data", str(corpus),
                   f"--{flag}", "0", "--out", str(out)])
    assert rc == 1
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_sha_agrees_across_commands(tmp_path, corpus, ckpt):
    sep, sweep = tmp_path / "sep", tmp_path / "sweep"
    assert dispatch(["separate", "--ckpt", str(ckpt), "--input",
                     str(corpus / "p0000_dual.tsr"), "--out", str(sep)]) == 0
    assert dispatch(["sweep-tau", "--ckpt", str(ckpt), "--data", str(corpus),
                     "--taus", "180", "--out", str(sweep / "sweep.csv")]) == 0
    shas = {json.loads((d / "manifest.json").read_text())["checkpoint_sha"]
            for d in (ckpt, sep, sweep)}
    assert len(shas) == 1 and None not in shas


@pytest.mark.parametrize("argv, message", [
    (["separate", "--tau", "300"], "tau 300 outside"),
    (["separate", "--alpha", "1.5"], "alpha 1.5 outside"),
    (["lbp", "--tau", "999"], "tau 999 outside"),
])
def test_out_of_range_texture_settings_exit_one(tmp_path, corpus, ckpt, capsys, argv,
                                                message):
    if argv[0] == "separate":
        argv = argv + ["--ckpt", str(ckpt)]
    out = tmp_path / "out"
    assert dispatch(argv + ["--input", str(corpus / "p0000_dual.tsr"),
                            "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_separate_and_replay_bit_identical(tmp_path, corpus, ckpt):
    out1 = tmp_path / "sep1"
    rc = dispatch(["separate", "--ckpt", str(ckpt),
                   "--input", str(corpus / "p0000_dual.tsr"),
                   "--seed", "3", "--out", str(out1)])
    assert rc == 0
    for k in range(2):
        assert (out1 / f"fused_t{k}.tsr").exists()
        assert (out1 / f"raw_t{k}.pgm").exists()
    assert load_tsr(out1 / "prior.tsr").shape == (4, 2)

    manifest = out1 / "manifest.json"
    first = _hash_dir(out1)
    assert dispatch(["--replay", str(manifest)]) == 0
    assert _hash_dir(out1) == first


def test_separate_alpha_one_fused_equals_raw(tmp_path, corpus, ckpt):
    out = tmp_path / "sep"
    assert dispatch(["separate", "--ckpt", str(ckpt),
                     "--input", str(corpus / "p0000_dual.tsr"),
                     "--alpha", "1.0", "--out", str(out)]) == 0
    for k in range(2):
        assert np.array_equal(load_tsr(out / f"fused_t{k}.tsr"),
                              load_tsr(out / f"raw_t{k}.tsr"))


def test_sweep_tau_checks_every_tau_before_loading(tmp_path):
    # nothing exists at either path, so only an up-front tau check can win
    with pytest.raises(ValueError, match="tau 300 outside"):
        run_sweep_tau(tmp_path / "no_ckpt", tmp_path / "no_corpus", [120, 300])


def test_sweep_tau_csv_shape(tmp_path, corpus, ckpt):
    out = tmp_path / "sweep.csv"
    assert dispatch(["sweep-tau", "--ckpt", str(ckpt), "--data", str(corpus),
                     "--taus", "120,150,180,200", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau,psnr_db,ssim,nrmse,mask_density"
    assert len(lines) == 5
    taus = [int(line.split(",")[0]) for line in lines[1:]]
    assert taus == [120, 150, 180, 200]
    density = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(a >= b for a, b in zip(density, density[1:]))


def test_pgm_writers(tmp_path):
    img = np.array([[0.0, 1.0], [0.5, 0.25]])
    write_pgm16(tmp_path / "x.pgm", img)
    raw = (tmp_path / "x.pgm").read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    pix = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2").reshape(2, 2)
    assert pix[0, 0] == 0 and pix[0, 1] == 65535
    write_pgm8(tmp_path / "m.pgm", np.array([[0, 1], [1, 0]]))
    raw8 = (tmp_path / "m.pgm").read_bytes()
    assert raw8.endswith(bytes([0, 255, 255, 0]))


def test_evaluate_regions_replace_only_the_masks_they_hold(tmp_path, corpus):
    pred = _truth_as_predictions(tmp_path / "pred", corpus)
    pair = load_corpus(corpus)[0]
    background = pair.region_masks["background_t0"]
    regions = tmp_path / "regions"
    regions.mkdir()
    # one altered lesion mask; every other mask falls back to the corpus's
    save_tsr(regions / "p0000_mask_lesion_t0.tsr", background)
    lines = {}
    for name, extra in (("plain", []), ("regions", ["--regions", str(regions)])):
        out = tmp_path / f"{name}.csv"
        assert dispatch(["evaluate", "--pred", str(pred), "--truth", str(corpus),
                         "--out", str(out)] + extra) == 0
        lines[name] = out.read_text().strip().split("\n")
    plain, altered = lines["plain"], lines["regions"]
    assert len(altered) == len(plain) == 5
    assert altered[0] == plain[0] and altered[2:] == plain[2:]
    cr_col = plain[0].split(",").index("cr")
    want = cr(pair.singles[0], background, background)
    assert altered[1].split(",")[cr_col] == f"{want:.9g}"
    assert altered[1].split(",")[cr_col] != plain[1].split(",")[cr_col]
    assert altered[1].split(",")[:cr_col] == plain[1].split(",")[:cr_col]


@pytest.mark.parametrize("command", ["separate", "lbp"])
def test_image_commands_reject_a_stack_before_any_work(tmp_path, capsys, command):
    stack = tmp_path / "stack.tsr"
    save_tsr(stack, make_rng(0).uniform(size=(2, 8, 8)))
    out = tmp_path / "out"
    argv = [command, "--input", str(stack), "--out", str(out)]
    if command == "separate":
        # no checkpoint there: the shape check must come before the load
        argv += ["--ckpt", str(tmp_path / "no_ckpt")]
    assert dispatch(argv) == 1
    assert "(2, 8, 8)" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.rglob("*.pgm"))


def test_pgm_writers_reject_non_2d_arrays(tmp_path):
    for write in (write_pgm16, write_pgm8):
        for shape in ((2, 2, 2), (4,)):
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                write(tmp_path / "x.pgm", np.zeros(shape))
    assert not (tmp_path / "x.pgm").exists()


def _sweep_reference(model, pairs, taus, seed):
    """run_sweep_tau's rows from one separate call per image and tau."""
    rows = []
    for tau in taus:
        metric_rows, density = [], []
        for idx, pair in enumerate(pairs):
            fused, _, _ = separate(pair.dual, model, seed=seed + idx, tau=tau)
            for k, pred in enumerate(fused):
                metric_rows.append(evaluate_pair(pred, pair, k, f"p{idx:04d}"))
            density.append(float(image_mask(pair.dual, tau).mean()))
        finite_psnr = [r.psnr_db for r in metric_rows if math.isfinite(r.psnr_db)]
        rows.append({"tau": tau, "psnr_db": float(np.mean(finite_psnr)),
                     "ssim": float(np.mean([r.ssim for r in metric_rows])),
                     "nrmse": float(np.mean([r.nrmse for r in metric_rows])),
                     "mask_density": float(np.mean(density))})
    return rows


def _check_sweep_against_per_image_loop(tmp_path, seeds, taus):
    with T.precision("f64"):
        model = SeparationModel(ModelConfig(**TINY["model"]))
        # give the latent path weight, so that each image's seed matters
        for blocks in model.unet.enc_blocks + model.unet.dec_blocks:
            for blk in blocks:
                blk.mod1.w.data[:] = 0.1 * make_rng(8).standard_normal(blk.mod1.w.data.shape)
        save_checkpoint(model, tmp_path / "ckpt")
        pairs = save_corpus(tmp_path / "corpus", seeds, PhantomSpec(size=8))
        rows = run_sweep_tau(tmp_path / "ckpt", tmp_path / "corpus", taus, seed=2)
        want = _sweep_reference(model, pairs, taus, seed=2)
    assert [r["tau"] for r in rows] == taus
    for got, ref in zip(rows, want):
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_sweep_tau_rows_match_a_per_image_loop(tmp_path):
    _check_sweep_against_per_image_loop(tmp_path, [3, 4, 5], [0, 120, 180, 255])


def test_sweep_tau_separates_the_corpus_in_chunks(tmp_path, monkeypatch):
    # 5 images in chunks of 2: the last chunk is short, and each image must
    # still start its rollout from seed + its corpus index
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 2)
    sizes = []

    def recording_separate(dual, *args, **kwargs):
        sizes.append(len(dual))
        return separate(dual, *args, **kwargs)

    monkeypatch.setattr(cli, "separate", recording_separate)
    _check_sweep_against_per_image_loop(tmp_path, [3, 4, 5, 6, 7], [120, 180])
    assert sizes == [2, 2, 1] * 2
