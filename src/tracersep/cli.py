"""Command-line entry point: phantom generation, training, separation,
evaluation, texture inspection, and the texture-threshold sweep.

Once a subcommand succeeds, `dispatch` writes a manifest.json next to its
outputs; a failed run leaves none. `--replay manifest.json` re-dispatches the
recorded argv and reproduces the artifacts byte-for-byte (single-threaded).
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .evaluation import (MetricsRow, PhantomSpec, corpus_files, evaluate_pair,
                         load_corpus, save_corpus, write_metrics_csv)
from .pipeline import (ARCHIVE, META, ModelConfig, SeparationModel, TrainConfig,
                       load_checkpoint, read_config, read_json, save_checkpoint, separate,
                       train)
from .tensor import load_tsr, save_tsr
from .texture import TextureConfig, lbp_map, masked_texture, texture_mask


# ---------------------------------------------------------------------------
# PGM output (P5, big-endian sample order for 16-bit)
# ---------------------------------------------------------------------------

def _check_2d(image: np.ndarray, what: str) -> np.ndarray:
    if image.ndim != 2:
        raise ValueError(f"{what} must be one 2-D image, got shape {image.shape}")
    return image


def write_pgm16(path, image: np.ndarray) -> None:
    image = _check_2d(np.asarray(image, dtype=np.float64), "PGM output")
    lo, hi = image.min(), image.max()
    scale = 65535.0 / (hi - lo) if hi > lo else 0.0
    pix = np.rint((image - lo) * scale).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n65535\n".encode())
        fh.write(pix.tobytes())


def write_pgm8(path, values: np.ndarray) -> None:
    pix = _check_2d(np.asarray(values), "PGM output")
    if pix.max() <= 1:
        pix = pix * 255
    pix = np.clip(np.rint(pix), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pix.shape[1]} {pix.shape[0]}\n255\n".encode())
        fh.write(pix.tobytes())


# ---------------------------------------------------------------------------
# subcommands: each returns what its run manifest records, as (directory,
# config, seed, inputs, outputs, checkpoint directory read or written or None)
# ---------------------------------------------------------------------------

def cmd_phantom(args):
    out = Path(args.out)
    seeds = [args.seed + i for i in range(args.count)]
    pairs = save_corpus(out, seeds, PhantomSpec(size=args.size))
    # what this run wrote, not whatever --out already held
    outputs = [name for name, _ in corpus_files(pairs)] + ["corpus.json"]
    for idx, pair in enumerate(pairs):
        outputs.append(f"p{idx:04d}_dual.pgm")
        write_pgm16(out / outputs[-1], pair.dual)
    return (out, {"seed": args.seed, "count": args.count, "size": args.size}, args.seed,
            [], sorted(outputs), None)


TRAIN_SECTIONS = {"model": ModelConfig, "train": TrainConfig}


def _load_train_config(path) -> tuple[ModelConfig, TrainConfig]:
    """A run's configs from its JSON file, whose sections may leave out any
    field; without a file, the defaults."""
    cfg = read_json(path) if path else {}
    unknown = sorted(set(cfg) - set(TRAIN_SECTIONS))
    if unknown:
        raise ValueError(f"{path} has unknown sections {', '.join(unknown)}")
    return tuple(read_config(cls, cfg.get(section, {}), path, section)
                 for section, cls in TRAIN_SECTIONS.items())


def cmd_train(args):
    model_cfg, train_cfg = _load_train_config(args.config)
    pairs = load_corpus(args.data)
    out = Path(args.out)
    with T.precision(train_cfg.precision):
        model = SeparationModel(model_cfg)
        history = train(pairs, model, train_cfg, log_every=args.log_every)
        save_checkpoint(model, out, step=train_cfg.steps, seed=train_cfg.seed,
                        loss_tail=[list(h) for h in history[-20:]])
    return (out, {"model": model_cfg.__dict__, "train": train_cfg.__dict__}, train_cfg.seed,
            [str(args.data)], [META, ARCHIVE], out)


def cmd_separate(args):
    dual = _check_2d(load_tsr(args.input), f"input {args.input}")
    model, _ = load_checkpoint(args.ckpt)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fused, raw, prior = separate(dual, model, seed=args.seed, alpha=args.alpha,
                                 tau=args.tau)
    outputs = []
    for k, (f_img, r_img) in enumerate(zip(fused, raw)):
        for stem, img in ((f"fused_t{k}", f_img), (f"raw_t{k}", r_img)):
            save_tsr(out / f"{stem}.tsr", img)
            write_pgm16(out / f"{stem}.pgm", img)
            outputs += [f"{stem}.tsr", f"{stem}.pgm"]
    save_tsr(out / "prior.tsr", prior)
    outputs.append("prior.tsr")
    return (out, {"seed": args.seed, "alpha": args.alpha, "tau": args.tau}, args.seed,
            [str(args.input), str(args.ckpt)], outputs, args.ckpt)


def evaluate_predictions(pred_dir, truth_dir) -> list[MetricsRow]:
    rows = []
    for idx, pair in enumerate(load_corpus(truth_dir)):
        for k in range(len(pair.singles)):
            path = Path(pred_dir) / f"p{idx:04d}_t{k}.tsr"
            pred = load_tsr(path)
            try:
                rows.append(evaluate_pair(pred, pair, k, f"p{idx:04d}"))
            except (ValueError, ZeroDivisionError) as err:
                raise ValueError(f"{path}: {err}") from None
    return rows


def cmd_evaluate(args):
    rows = evaluate_predictions(args.pred, args.truth)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(rows, out)
    return out.parent, {}, None, [str(args.pred), str(args.truth)], [out.name], None


def cmd_lbp(args):
    image = _check_2d(load_tsr(args.input), f"input {args.input}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    codes = lbp_map(image)
    mask = texture_mask(codes, args.tau)
    write_pgm8(out / "lbp.pgm", codes)
    write_pgm8(out / "mask.pgm", mask)
    save_tsr(out / "masked_texture.tsr", masked_texture(image, mask))
    return (out, {"tau": args.tau}, None, [str(args.input)],
            ["lbp.pgm", "mask.pgm", "masked_texture.tsr"], None)


# run_sweep_tau separates the corpus this many images at a time, so that its
# peak memory (every image's U-net activations) does not grow with the corpus
SWEEP_CHUNK = 16


def run_sweep_tau(ckpt_dir, corpus_dir, taus: list[int], seed: int = 0):
    """Per-tau corpus separation + evaluation; returns aggregate rows."""
    for tau in taus:
        TextureConfig(tau=tau)  # rejects any out of range before anything loads
    model, _ = load_checkpoint(ckpt_dir)
    pairs = load_corpus(corpus_dir)
    duals = np.stack([pair.dual for pair in pairs])
    codes = lbp_map(duals)  # tau only thresholds the codes
    results = []
    for tau in taus:
        metric_rows = []
        for start in range(0, len(pairs), SWEEP_CHUNK):
            chunk = slice(start, start + SWEEP_CHUNK)
            # image idx starts its rollout from seed + idx, whatever its chunk
            fused, _, _ = separate(duals[chunk], model, seed=seed + start, tau=tau)
            metric_rows += [evaluate_pair(pred[i], pair, k, f"p{start + i:04d}")
                            for i, pair in enumerate(pairs[chunk]) for k, pred in enumerate(fused)]
        finite_psnr = [r.psnr_db for r in metric_rows if math.isfinite(r.psnr_db)]
        results.append({
            "tau": tau,
            "psnr_db": float(np.mean(finite_psnr)) if finite_psnr else math.inf,
            "ssim": float(np.mean([r.ssim for r in metric_rows])),
            "nrmse": float(np.mean([r.nrmse for r in metric_rows])),
            "mask_density": float(np.mean(texture_mask(codes, tau).mean(axis=(-2, -1)))),
        })
    return results


def cmd_sweep_tau(args):
    rows = run_sweep_tau(args.ckpt, args.data, args.taus, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "psnr_db", "ssim", "nrmse", "mask_density"])
        for r in rows:
            writer.writerow([r["tau"], f"{r['psnr_db']:.9g}", f"{r['ssim']:.9g}",
                             f"{r['nrmse']:.9g}", f"{r['mask_density']:.9g}"])
    return (out.parent, {"taus": args.taus, "seed": args.seed}, args.seed,
            [str(args.ckpt), str(args.data)], [out.name], args.ckpt)


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type: an integer >= low; argparse names the flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _int_list(text: str) -> list[int]:
    """An argparse type: comma-separated integers."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracersep",
        description="Dual-tracer PET separation: phantoms, training, separation, "
                    "evaluation, texture tools.")
    parser.add_argument("--replay", metavar="MANIFEST",
                        help="re-run the command recorded in a run manifest")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("phantom", help="generate a synthetic phantom corpus")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--count", type=_int_at_least(1), default=4)
    p.add_argument("--size", type=_int_at_least(4), default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("train", help="train a separation model on a corpus")
    p.add_argument("--config", help="JSON object with 'model' and 'train' sections, which "
                                   "hold every setting; defaults without it")
    p.add_argument("--data", required=True)
    p.add_argument("--log-every", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="separate a dual-tracer image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="score predictions against a corpus")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("lbp", help="write LBP map, mask, and masked texture")
    p.add_argument("--input", required=True)
    p.add_argument("--tau", type=int, default=180)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lbp)

    p = sub.add_parser("sweep-tau", help="texture-threshold sweep over a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--taus", type=_int_list, default="120,150,180,200")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_tau)

    return parser


def _recorded_argv(path) -> list[str]:
    """The argv that the run manifest at path recorded."""
    argv = read_json(path).get("argv")
    if not (isinstance(argv, list) and all(isinstance(arg, str) for arg in argv)):
        raise ValueError(f"{path}: holds no argv list of strings")
    return argv


def dispatch(argv: list[str], replaying=None) -> int:
    """Run argv's subcommand, then write its manifest.json: a run that fails
    leaves none. replaying is the manifest argv was recorded in, if any."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.replay:
        try:
            if replaying is not None:
                raise ValueError(f"{replaying}: its argv holds --replay")
            recorded = _recorded_argv(args.replay)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        return dispatch(recorded, replaying=args.replay)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    started = time.time()
    try:
        directory, config, seed, inputs, outputs, ckpt = args.func(args)
        sha = None if ckpt is None else hashlib.sha256(
            (Path(ckpt) / META).read_bytes()).hexdigest()
        manifest = {"command": args.command, "argv": argv, "config": config, "seed": seed,
                    "version": __version__, "inputs": inputs, "outputs": outputs,
                    "checkpoint_sha": sha, "wall_clock_s": round(time.time() - started, 3)}
        (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    except Exception as exc:  # runtime failure, not usage
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
