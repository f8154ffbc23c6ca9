"""End-to-end command-line behavior: exit codes, artifacts, replay."""
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
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


# an f32 training step, separation and CLI run, then one f64 gelu; prints the
# scipy modules loaded after the f32 work, then whether the gelu loaded scipy
F32_THEN_F64 = """
import json, sys
import numpy as np
from tracersep import cli, tensor as T
from tracersep.evaluation import PhantomSpec, gen_phantom
from tracersep.pipeline import ModelConfig, SeparationModel, TrainConfig, separate, train_step

model_cfg, tmp = json.loads(sys.argv[1]), sys.argv[2]
pairs = [gen_phantom(seed, PhantomSpec(size=8)) for seed in (0, 1)]
model = SeparationModel(ModelConfig(**model_cfg))
train_step(pairs, model, T.Adam(model.parameters()), TrainConfig(batch=2), T.make_rng(0), 0, 1)
separate(pairs[0].dual, model, seed=0)
T.save_tsr(tmp + "/dual.tsr", pairs[0].dual)
assert cli.dispatch(["lbp", "--input", tmp + "/dual.tsr", "--out", tmp + "/lbp"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
with T.precision("f64"):
    T.gelu(T.Tensor(np.ones(3)))
print("scipy.special" in sys.modules)
"""


def test_f32_runs_never_import_scipy(tmp_path):
    # in a fresh interpreter, as pytest has imported scipy in this one
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    run = subprocess.run([sys.executable, "-c", F32_THEN_F64, json.dumps(TINY["model"]),
                          str(tmp_path)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "True"]


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert "phantom" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    assert dispatch(["frobnicate"]) == 2
    assert "frobnicate" in capsys.readouterr().err


def test_train_offers_only_config_data_log_every_and_out(capsys):
    assert dispatch(["train", "--help"]) == 0
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--data", "--log-every", "--out"}


@pytest.mark.parametrize("argv, removed", [
    (["train", "--data", "{corpus}", "--steps", "1"], "--steps 1"),
    (["evaluate", "--pred", "{corpus}", "--truth", "{corpus}", "--regions", "{corpus}"],
     "--regions {corpus}"),
], ids=["train-steps", "evaluate-regions"])
def test_a_manifest_with_a_removed_flag_is_a_usage_error(tmp_path, corpus, capsys, argv,
                                                         removed):
    out = tmp_path / "out"
    manifest = tmp_path / "manifest.json"
    argv = [arg.format(corpus=corpus) for arg in argv] + ["--out", str(out)]
    manifest.write_text(json.dumps({"argv": argv}))
    assert dispatch(["--replay", str(manifest)]) == 2
    assert f"unrecognized arguments: {removed.format(corpus=corpus)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("write, message", [
    (None, ": No such file or directory"),
    (lambda path: path.write_text("[1"), " is not valid JSON: "),
    (lambda path: path.write_text("[]"), " holds a list, not a JSON object"),
    (lambda path: path.write_text('{"command": "phantom"}'), ": holds no argv list of strings"),
    (lambda path: path.write_text('{"argv": "phantom"}'), ": holds no argv list of strings"),
    (lambda path: path.write_text(json.dumps({"argv": ["--replay", str(path)]})),
     ": its argv holds --replay"),
    (lambda path: path.write_text(json.dumps({"argv": ["--repl", str(path)]})),
     ": its argv holds --replay"),
], ids=["missing", "not-json", "list", "no-argv", "argv-string", "replays-itself",
        "abbreviated"])
def test_a_bad_replay_manifest_exits_one_naming_it(tmp_path, capsys, write, message):
    manifest = tmp_path / "manifest.json"
    if write is not None:
        write(manifest)
    assert dispatch(["--replay", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}{message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, flag, message", [
    (["phantom", "--seed", "-1"], "--seed", "must be >= 0, got -1"),
    (["phantom", "--seed", "0", "--count", "0"], "--count", "must be >= 1, got 0"),
    (["phantom", "--seed", "1.5"], "--seed", "expected an integer, got '1.5'"),
    (["separate", "--ckpt", "k", "--input", "i", "--seed", "-1"], "--seed", "must be >= 0"),
    (["sweep-tau", "--ckpt", "k", "--data", "d", "--seed", "-3"], "--seed", "must be >= 0"),
    (["sweep-tau", "--ckpt", "k", "--data", "d", "--taus", "120,"], "--taus",
     "expected comma-separated integers, got '120,'"),
    (["train", "--data", "d", "--log-every", "-1"], "--log-every", "must be >= 0, got -1"),
    (["phantom", "--seed", "0", "--size", "0"], "--size", "must be >= 4, got 0"),
], ids=["phantom-seed", "phantom-count", "phantom-float-seed", "separate-seed",
        "sweep-tau-seed", "sweep-tau-taus", "train-log-every", "phantom-size"])
def test_a_bad_integer_flag_is_a_usage_error_naming_it(tmp_path, capsys, argv, flag,
                                                       message):
    out = tmp_path / "out"
    assert dispatch(argv + ["--out", str(out)]) == 2
    assert f"error: argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_no_command_exits_two():
    assert dispatch([]) == 2


def test_runtime_error_exits_one(tmp_path, capsys):
    rc = dispatch(["separate", "--ckpt", str(tmp_path / "nope"),
                   "--input", str(tmp_path / "nope.tsr"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_ckpt_on_a_corpus_directory_names_the_missing_checkpoint_json(tmp_path, corpus,
                                                                      capsys):
    """A corpus holds a run manifest.json, which is not checkpoint metadata."""
    rc = dispatch(["separate", "--ckpt", str(corpus), "--input",
                   str(corpus / "p0000_dual.tsr"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"{corpus} has no checkpoint.json" in capsys.readouterr().err


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


MANIFEST_KEYS = ["command", "argv", "config", "seed", "version", "inputs", "outputs",
                 "checkpoint_sha", "wall_clock_s"]


@pytest.mark.parametrize("command", ["phantom", "train", "lbp", "separate", "evaluate",
                                     "sweep-tau"])
def test_every_subcommand_writes_one_kind_of_manifest(tmp_path, corpus, ckpt, command):
    out, dual = tmp_path / "run", str(corpus / "p0000_dual.tsr")
    pred = _truth_as_predictions(tmp_path / "pred", corpus)
    argv = [command] + {  # each manifest lands in `out`
        "phantom": ["--seed", "3", "--count", "1", "--size", "8", "--out", str(out)],
        "train": ["--config", str(tmp_path / "cfg.json"), "--data", str(corpus),
                  "--out", str(out)],
        "lbp": ["--input", dual, "--out", str(out)],
        "separate": ["--ckpt", str(ckpt), "--input", dual, "--out", str(out)],
        "evaluate": ["--pred", str(pred), "--truth", str(corpus),
                     "--out", str(out / "metrics.csv")],
        "sweep-tau": ["--ckpt", str(ckpt), "--data", str(corpus), "--taus", "180",
                      "--out", str(out / "sweep.csv")],
    }[command]
    assert dispatch(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert manifest["argv"] == argv
    assert manifest["outputs"]
    assert "manifest.json" not in manifest["outputs"]
    assert all((out / name).is_file() for name in manifest["outputs"])
    # a replay into the same directory, now holding the first manifest too,
    # records the same outputs as its run
    assert dispatch(["--replay", str(out / "manifest.json")]) == 0
    assert json.loads((out / "manifest.json").read_text())["outputs"] == manifest["outputs"]
    read_or_written = {"train": out, "separate": ckpt, "sweep-tau": ckpt}.get(command)
    if read_or_written is None:
        assert manifest["checkpoint_sha"] is None
    else:
        meta = (read_or_written / "checkpoint.json").read_bytes()
        assert manifest["checkpoint_sha"] == hashlib.sha256(meta).hexdigest()


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


@pytest.mark.parametrize("train, message", [
    ({"lr": -1, "teacher_forcing_frac": 7}, "lr must be finite and > 0, got -1"),
    ({"beta1": 1.0}, "beta1 must be in [0, 1), got 1.0"),
    ({"steps": 0}, "steps must be >= 1"),
    ({"batch": 0}, "batch must be >= 1"),
])
def test_train_config_out_of_range_exits_one_before_training(tmp_path, corpus, capsys,
                                                             train, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": TINY["model"], "train": {**TINY["train"], **train}}))
    out = tmp_path / "ckpt"
    assert dispatch(["train", "--config", str(cfg), "--data", str(corpus),
                     "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (json.dumps({"model": TINY["model"], "trian": {"steps": 1}}), "has unknown sections trian"),
    (json.dumps([TINY]), "holds a list, not a JSON object"),
    (json.dumps({"model": [], "train": TINY["train"]}), ": model is a list, not a JSON object"),
    (json.dumps({"model": {**TINY["model"], "depth": 3}}), "has unknown model keys depth"),
    (json.dumps({"train": {"step": 1, "lr": 1e-3}}), "has unknown train keys step"),
    ('{"train": {', "is not valid JSON"),
    (None, ": No such file or directory"),
    (json.dumps({"train": {"steps": 2.5}}), ": train: steps must be an integer, got 2.5"),
    (json.dumps({"train": {"steps": True}}), ": train: steps must be an integer, got True"),
    (json.dumps({"train": {"lr": "2e-4"}}), ": train: lr must be a real number, got '2e-4'"),
    (json.dumps({"train": {"seed": -1}}), ": train: seed must be >= 0, got -1"),
], ids=["misspelt-section", "array", "model-array", "unknown-model-key", "unknown-train-key",
        "not-json", "missing", "float-steps", "bool-steps", "string-lr", "negative-seed"])
def test_train_config_file_is_checked_before_training(tmp_path, corpus, capsys, text,
                                                      message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "ckpt"
    assert dispatch(["train", "--config", str(cfg), "--data", str(corpus),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}") and message in err
    assert not out.exists()


# a wrong JSON type, or a range that only a part's own config checks
BAD_MODEL_VALUES = [
    ({"d": "4"}, "d must be an integer, got '4'"),
    ({"unet_heads": 2}, "unet_heads must be a list of integers, got 2"),
    ({"tau": 180.5}, "tau must be an integer, got 180.5"),
    ({"unet_levels": 3, "unet_heads": [1, 2, 2, 4], "unet_channels": [4, 8, 8, 16],
      "unet_blocks": [1, 1, 1, 1]}, "heads has 4 entries for 3 levels"),
]
BAD_MODEL_IDS = ["string-d", "int-heads", "float-tau", "levels-vs-lists"]


@pytest.mark.parametrize("model, message", BAD_MODEL_VALUES, ids=BAD_MODEL_IDS)
def test_bad_model_config_exits_one_naming_file_section_and_field_before_the_corpus(
        tmp_path, monkeypatch, capsys, model, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {**TINY["model"], **model}, "train": TINY["train"]}))

    def no_corpus(*args, **kwargs):
        raise AssertionError("the corpus was read before the config was checked")
    monkeypatch.setattr(cli, "load_corpus", no_corpus)
    out = tmp_path / "ckpt"
    assert dispatch(["train", "--config", str(cfg), "--data", str(tmp_path / "corpus"),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: model: {message}\n"
    assert not out.exists()


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
    shutil.copytree(corpus, regions)
    # one altered lesion mask in a copy of the corpus; every other file is the same
    save_tsr(regions / "p0000_mask_lesion_t0.tsr", background)
    lines = {}
    for name, truth in (("plain", corpus), ("regions", regions)):
        out = tmp_path / f"{name}.csv"
        assert dispatch(["evaluate", "--pred", str(pred), "--truth", str(truth),
                         "--out", str(out)]) == 0
        lines[name] = out.read_text().strip().split("\n")
    plain, altered = lines["plain"], lines["regions"]
    assert len(altered) == len(plain) == 5
    assert altered[0] == plain[0] and altered[2:] == plain[2:]
    cr_col = plain[0].split(",").index("cr")
    want = cr(pair.singles[0], background, background)
    assert altered[1].split(",")[cr_col] == f"{want:.9g}"
    assert altered[1].split(",")[cr_col] != plain[1].split(",")[cr_col]
    assert altered[1].split(",")[:cr_col] == plain[1].split(",")[:cr_col]


def test_evaluate_scores_against_the_corpus_files(tmp_path, corpus):
    pred = _truth_as_predictions(tmp_path / "pred", corpus)
    edited = tmp_path / "edited"
    shutil.copytree(corpus, edited)
    halved = load_tsr(corpus / "p0000_single0.tsr") / 2
    save_tsr(edited / "p0000_single0.tsr", halved)
    assert np.array_equal(load_corpus(edited)[0].singles[0], halved)
    lines = {}
    for truth in (corpus, edited):
        out = tmp_path / f"{truth.name}.csv"
        assert dispatch(["evaluate", "--pred", str(pred), "--truth", str(truth),
                         "--out", str(out)]) == 0
        lines[truth.name] = out.read_text().strip().split("\n")
    assert lines["edited"][1] != lines["corpus"][1]
    assert lines["edited"][2:] == lines["corpus"][2:]


@pytest.mark.parametrize("name, replacement, message", [
    ("p0001_single1.tsr", None, "No such file or directory"),
    ("p0000_mask_background_t1.tsr", None, "No such file or directory"),
    ("p0000_single0.tsr", np.ones((8, 7)),
     "has shape (8, 7), not the (H, W) (8, 8) of p0000_dual.tsr"),
    ("p0001_mask_lesion_t0.tsr", np.ones((9, 9)), "has shape (9, 9)"),
    ("p0000_dual.tsr", np.ones((2, 8, 8)), "has shape (2, 8, 8)"),
], ids=["missing-single", "missing-mask", "narrow-single", "wide-mask", "stacked-dual"])
def test_evaluate_rejects_a_missing_or_misshapen_corpus_file_naming_it(
        tmp_path, corpus, capsys, name, replacement, message):
    pred = _truth_as_predictions(tmp_path / "pred", corpus)
    if replacement is None:
        (corpus / name).unlink()
    else:
        save_tsr(corpus / name, replacement)
    out = tmp_path / "e" / "metrics.csv"
    assert dispatch(["evaluate", "--pred", str(pred), "--truth", str(corpus),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(corpus / name) in err and message in err
    assert not out.parent.exists()


@pytest.mark.parametrize("text, message", [
    ("seeds: [1]", " is not valid JSON"),
    ("[1, 2]", " holds a list, not a JSON object"),
    (None, ": No such file or directory"),
    ('{"spec": {}}', " has no seeds list"),
    ('{"seeds": 2, "spec": {}}', " has no seeds list"),
    ('{"seeds": [1, 2], "spec": {"colour": "red"}}', " has unknown spec keys colour"),
    ('{"seeds": [1, 2], "spec": {"size": "8"}}', ": spec: size must be an integer, got '8'"),
], ids=["not-json", "list", "missing", "no-seeds", "int-seeds", "unknown-spec-key",
        "string-size"])
def test_evaluate_rejects_a_bad_corpus_json_naming_it(tmp_path, corpus, capsys, text,
                                                      message):
    pred = _truth_as_predictions(tmp_path / "pred", corpus)
    if text is None:
        (corpus / "corpus.json").unlink()
    else:
        (corpus / "corpus.json").write_text(text)
    out = tmp_path / "e" / "metrics.csv"
    assert dispatch(["evaluate", "--pred", str(pred), "--truth", str(corpus),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {corpus / 'corpus.json'}{message}")
    assert not out.parent.exists()


@pytest.mark.parametrize("prediction, message", [
    (np.ones((8, 7)), ": shape mismatch (8, 7) vs (8, 8)"),
    (np.zeros((8, 8)), ": zero mean in denominator region"),
], ids=["narrow", "all-zero"])
def test_evaluate_names_the_prediction_file_a_metric_rejects(tmp_path, corpus, capsys,
                                                             prediction, message):
    pred = _truth_as_predictions(tmp_path / "pred", corpus)
    save_tsr(pred / "p0001_t1.tsr", prediction)
    out = tmp_path / "e" / "metrics.csv"
    assert dispatch(["evaluate", "--pred", str(pred), "--truth", str(corpus),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {pred / 'p0001_t1.tsr'}{message}\n"
    assert not out.parent.exists()


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
