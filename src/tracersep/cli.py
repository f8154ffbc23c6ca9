"""Command-line entry point: phantom generation, training, separation,
evaluation, texture inspection, and the texture-threshold sweep.

Every run writes a manifest.json next to its outputs; `--replay manifest.json`
re-dispatches the recorded argv and reproduces the artifacts byte-for-byte
(single-threaded).
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
from .evaluation import (MetricsRow, PhantomPair, PhantomSpec, evaluate_pair,
                         load_corpus, save_corpus, write_metrics_csv)
from .pipeline import (ARCHIVE, META, ModelConfig, SeparationModel, TrainConfig,
                       load_checkpoint, save_checkpoint, separate, train)
from .tensor import load_tsr, save_tsr
from .texture import lbp_map, masked_texture, texture_mask


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
# run manifests
# ---------------------------------------------------------------------------

def _write_manifest(directory: Path, command: str, argv: list[str], config: dict,
                    seed, inputs: list[str], outputs: list[str], started: float,
                    checkpoint_sha: str | None = None) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "argv": argv,
        "config": config,
        "seed": seed,
        "version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "checkpoint_sha": checkpoint_sha,
        "wall_clock_s": round(time.time() - started, 3),
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _ckpt_sha(ckpt_dir: Path) -> str:
    return hashlib.sha256((ckpt_dir / META).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phantom(args, argv) -> int:
    started = time.time()
    out = Path(args.out)
    seeds = [args.seed + i for i in range(args.count)]
    spec = PhantomSpec(size=args.size)
    pairs = save_corpus(out, seeds, spec)
    for idx, pair in enumerate(pairs):
        write_pgm16(out / f"p{idx:04d}_dual.pgm", pair.dual)
    outputs = sorted(p.name for p in out.iterdir())
    _write_manifest(out, "phantom", argv,
                    {"seed": args.seed, "count": args.count, "size": args.size},
                    args.seed, [], outputs, started)
    return 0


def _load_train_config(args) -> tuple[ModelConfig, TrainConfig]:
    file_cfg = {}
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text())
    # explicit CLI flags win over the file; each config checks the merged values
    def merged(section: str, names: tuple) -> dict:
        flags = {n: getattr(args, n) for n in names if getattr(args, n) is not None}
        return {**file_cfg.get(section, {}), **flags}

    return (ModelConfig(**merged("model", ("tau",))),
            TrainConfig(**merged("train", ("steps", "lr", "batch", "seed", "precision"))))


def cmd_train(args, argv) -> int:
    started = time.time()
    model_cfg, train_cfg = _load_train_config(args)
    pairs = load_corpus(args.data)
    out = Path(args.out)
    with T.precision(train_cfg.precision):
        model = SeparationModel(model_cfg)
        history = train(pairs, model, train_cfg, log_every=args.log_every)
        save_checkpoint(model, out, step=train_cfg.steps, seed=train_cfg.seed,
                        loss_tail=[list(h) for h in history[-20:]])
    _write_manifest(out, "train", argv,
                    {"model": model_cfg.__dict__, "train": train_cfg.__dict__},
                    train_cfg.seed, [str(args.data)], [META, ARCHIVE], started,
                    checkpoint_sha=_ckpt_sha(out))
    return 0


def cmd_separate(args, argv) -> int:
    started = time.time()
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
    _write_manifest(out, "separate", argv,
                    {"seed": args.seed, "alpha": args.alpha, "tau": args.tau},
                    args.seed, [str(args.input), str(args.ckpt)], outputs, started,
                    checkpoint_sha=_ckpt_sha(Path(args.ckpt)))
    return 0


def _load_region_masks(regions_dir: Path, idx: int, pair: PhantomPair) -> dict:
    masks = {}
    for name in pair.region_masks:
        path = regions_dir / f"p{idx:04d}_mask_{name}.tsr"
        masks[name] = load_tsr(path) if path.exists() else pair.region_masks[name]
    return masks


def evaluate_predictions(pred_dir, truth_dir, regions_dir=None) -> list[MetricsRow]:
    pred_dir = Path(pred_dir)
    pairs = load_corpus(truth_dir)
    rows = []
    for idx, pair in enumerate(pairs):
        if regions_dir is not None:
            pair.region_masks = _load_region_masks(Path(regions_dir), idx, pair)
        for k in range(len(pair.singles)):
            pred = load_tsr(pred_dir / f"p{idx:04d}_t{k}.tsr")
            rows.append(evaluate_pair(pred, pair, k, f"p{idx:04d}"))
    return rows


def cmd_evaluate(args, argv) -> int:
    started = time.time()
    rows = evaluate_predictions(args.pred, args.truth, args.regions)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(rows, out)
    _write_manifest(out.parent, "evaluate", argv, {},
                    None, [str(args.pred), str(args.truth)], [out.name], started)
    return 0


def cmd_lbp(args, argv) -> int:
    started = time.time()
    image = _check_2d(load_tsr(args.input), f"input {args.input}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    codes = lbp_map(image)
    mask = texture_mask(codes, args.tau)
    write_pgm8(out / "lbp.pgm", codes)
    write_pgm8(out / "mask.pgm", mask)
    save_tsr(out / "masked_texture.tsr", masked_texture(image, mask))
    _write_manifest(out, "lbp", argv, {"tau": args.tau}, None, [str(args.input)],
                    ["lbp.pgm", "mask.pgm", "masked_texture.tsr"], started)
    return 0


# run_sweep_tau separates the corpus this many images at a time, so that its
# peak memory (every image's U-net activations) does not grow with the corpus
SWEEP_CHUNK = 16


def run_sweep_tau(ckpt_dir, corpus_dir, taus: list[int], seed: int = 0):
    """Per-tau corpus separation + evaluation; returns aggregate rows."""
    for tau in taus:
        if not 0 <= tau <= 255:
            raise ValueError(f"tau {tau} outside [0, 255]")
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


def cmd_sweep_tau(args, argv) -> int:
    started = time.time()
    taus = [int(t) for t in args.taus.split(",")]
    rows = run_sweep_tau(args.ckpt, args.data, taus, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "psnr_db", "ssim", "nrmse", "mask_density"])
        for r in rows:
            writer.writerow([r["tau"], f"{r['psnr_db']:.9g}", f"{r['ssim']:.9g}",
                             f"{r['nrmse']:.9g}", f"{r['mask_density']:.9g}"])
    _write_manifest(out.parent, "sweep-tau", argv, {"taus": taus, "seed": args.seed},
                    args.seed, [str(args.ckpt), str(args.data)], [out.name], started,
                    checkpoint_sha=_ckpt_sha(Path(args.ckpt)))
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracersep",
        description="Dual-tracer PET separation: phantoms, training, separation, "
                    "evaluation, texture tools.")
    parser.add_argument("--replay", metavar="MANIFEST",
                        help="re-run the command recorded in a run manifest")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("phantom", help="generate a synthetic phantom corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("train", help="train a separation model on a corpus")
    p.add_argument("--config", help="JSON config with 'model' and 'train' sections")
    p.add_argument("--data", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--precision", choices=["f32", "f64"])
    p.add_argument("--tau", type=int)
    p.add_argument("--log-every", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="separate a dual-tracer image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="score predictions against a corpus")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--regions", default=None)
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
    p.add_argument("--taus", default="120,150,180,200")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_tau)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.replay:
        recorded = json.loads(Path(args.replay).read_text())["argv"]
        return dispatch(recorded)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args, argv)
    except Exception as exc:  # runtime failure, not usage
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
