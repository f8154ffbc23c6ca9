"""Joint training, end-to-end separation, and checkpoint persistence."""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .diffusion import (Denoiser, DenoiserConfig, build_schedule, denoise_full,
                        forward_sample, loss_dm)
from .evaluation import PhantomPair
from .latent import LpebConfig, PriorEncoder, extract_condition, extract_msp
from .tensor import Adam, Parameter, Tensor, make_rng, no_grad
from .texture import TextureConfig, fuse, image_mask, masked_texture
from .transformer import UNet, UNetConfig, unet_forward


@dataclass
class ModelConfig:
    d: int = 256
    n_tracers: int = 2
    lpeb_width: int = 64
    lpeb_res_blocks: int = 2
    denoiser_hidden: int = 64
    diffusion_steps: int = 4
    beta_start: float = 0.1
    beta_end: float = 0.99
    unet_levels: int = 4
    unet_heads: list = field(default_factory=lambda: [1, 2, 4, 8])
    unet_channels: list = field(default_factory=lambda: [48, 96, 192, 384])
    unet_blocks: list = field(default_factory=lambda: [3, 5, 6, 6])
    gdfn_expansion: float = 2.0
    tau: int = 180
    alpha: float = 0.9
    init_seed: int = 0

    def texture(self) -> TextureConfig:
        return TextureConfig(tau=self.tau, alpha=self.alpha)


@dataclass
class TrainConfig:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8
    steps: int = 2000
    batch: int = 4
    seed: int = 0
    precision: str = "f32"
    teacher_forcing_frac: float = 0.0

    def __post_init__(self):
        if self.steps < 1 or self.batch < 1:
            raise ValueError("steps and batch must be >= 1")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"unknown precision {self.precision!r}")


class SeparationModel:
    """All parameter groups plus the schedule and texture configuration."""

    def __init__(self, cfg: ModelConfig, filled: bool = True):
        """filled=False builds every parameter unfilled (see `tensor.unfilled`):
        nothing is drawn or written, and load_checkpoint reads each into place."""
        self.cfg = cfg
        rng = make_rng(cfg.init_seed)
        lpeb = LpebConfig(width=cfg.lpeb_width, res_blocks=cfg.lpeb_res_blocks,
                          d=cfg.d, n_heads=cfg.n_tracers)
        cond_cfg = LpebConfig(width=cfg.lpeb_width, res_blocks=cfg.lpeb_res_blocks,
                              d=cfg.d, n_heads=1)
        with contextlib.nullcontext() if filled else T.unfilled():
            self.msp_encoder = PriorEncoder(lpeb, rng, "msp")
            self.cond_encoder = PriorEncoder(cond_cfg, rng, "cond")
            self.denoiser = Denoiser(
                DenoiserConfig(d=cfg.d, n_tracers=cfg.n_tracers,
                               hidden=cfg.denoiser_hidden, steps=cfg.diffusion_steps),
                rng, "denoiser")
            self.unet = UNet(
                UNetConfig(levels=cfg.unet_levels, heads=list(cfg.unet_heads),
                           channels=list(cfg.unet_channels), blocks=list(cfg.unet_blocks),
                           gdfn_expansion=cfg.gdfn_expansion, n_tracers=cfg.n_tracers,
                           d=cfg.d),
                rng, "unet")
        if filled:
            # Start every latent-modulation path inert. The transformer then
            # behaves identically whether it sees a training rollout or an
            # inference rollout, and only learns to read the latent once the
            # denoiser produces consistent ones.
            for blocks in self.unet.enc_blocks + self.unet.dec_blocks:
                for blk in blocks:
                    for mod in (blk.mod1, blk.mod2):
                        mod.w.data[:] = 0.0
        self.schedule = build_schedule(cfg.diffusion_steps, cfg.beta_start, cfg.beta_end)
        self.texture = cfg.texture()

    def parameters(self) -> list[Parameter]:
        return (self.msp_encoder.parameters() + self.cond_encoder.parameters()
                + self.denoiser.parameters() + self.unet.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


def loss_tm(separated: list[Tensor], targets: list[np.ndarray],
            texture_cfg: TextureConfig) -> Tensor:
    """Per-tracer L1 on images plus L1 on ground-truth-masked textures."""
    if len(separated) != len(targets):
        raise ValueError(f"{len(separated)} predictions vs {len(targets)} targets")
    total = None
    for pred, truth in zip(separated, targets):
        if pred.data.shape != truth.shape:
            raise ValueError(f"shape mismatch {pred.data.shape} vs {truth.shape}")
        mask = image_mask(truth, texture_cfg.tau)
        term = T.mean(T.abs_(pred - Tensor(truth)))
        term = term + T.mean(T.abs_(pred * Tensor(mask) - Tensor(truth * mask)))
        total = term if total is None else total + term
    return total


def _first_nonfinite(root: Tensor) -> str:
    """Name of the earliest node, in evaluation order, with a non-finite value."""
    for node in T.topological_order(root):
        if not np.all(np.isfinite(node.data)):
            return getattr(node, "name", node.op)
    return root.op


def _item_losses(pair: PhantomPair, model: SeparationModel,
                 rng: np.random.Generator, teacher_forcing: bool):
    cfg = model.cfg
    sched = model.schedule
    dual = pair.dual
    latent = extract_msp(dual, pair.singles, model.msp_encoder)
    u_dual = masked_texture(dual, image_mask(dual, model.texture.tau))
    condition = extract_condition(dual, u_dual, model.cond_encoder)

    # noise-prediction term at a uniformly sampled step
    t = int(rng.integers(1, sched.T + 1))
    eps = Tensor(rng.standard_normal((cfg.d, cfg.n_tracers)))
    noisy = forward_sample(latent, sched, t, eps)
    eps_hat = model.denoiser(noisy, t, condition)
    dm = T.mean(T.abs_(eps_hat - eps))

    # full rollout from step T; its endpoint feeds the transformer
    eps_top = Tensor(rng.standard_normal((cfg.d, cfg.n_tracers)))
    rolled = denoise_full(forward_sample(latent, sched, sched.T, eps_top),
                          condition, model.denoiser, sched)
    # the rollout chases the prior, not the other way around, so the target
    # is detached from the encoder graph
    dm = dm + loss_dm(rolled, Tensor(latent.data.copy()))

    latent_for_unet = latent if teacher_forcing else rolled
    preds = unet_forward(dual, u_dual, latent_for_unet, model.unet)
    tm = loss_tm(preds, pair.singles, model.texture)
    return dm, tm


def train_step(batch: list[PhantomPair], model: SeparationModel, optimizer: Adam,
               cfg: TrainConfig, rng: np.random.Generator, step: int,
               total_steps: int) -> tuple[float, float, float]:
    """One joint update; returns (loss_total, loss_dm, loss_tm)."""
    teacher = step < cfg.teacher_forcing_frac * total_steps
    dm_sum = None
    tm_sum = None
    for pair in batch:
        dm, tm = _item_losses(pair, model, rng, teacher)
        dm_sum = dm if dm_sum is None else dm_sum + dm
        tm_sum = tm if tm_sum is None else tm_sum + tm
    inv = 1.0 / len(batch)
    dm_sum = dm_sum * inv
    tm_sum = tm_sum * inv
    total = dm_sum + tm_sum
    if not np.isfinite(total.data):
        raise FloatingPointError(
            f"non-finite loss at step {step}; first non-finite tensor: "
            f"{_first_nonfinite(total)}")
    optimizer.zero_grad()
    total.backward()
    optimizer.step()
    dm_val = float(dm_sum.data)
    tm_val = float(tm_sum.data)
    return dm_val + tm_val, dm_val, tm_val


def train(pairs: list[PhantomPair], model: SeparationModel, cfg: TrainConfig,
          log_every: int = 0) -> list[tuple[float, float, float]]:
    """Full-corpus training loop; returns the per-step loss trajectory."""
    optimizer = Adam(model.parameters(), lr=cfg.lr, beta1=cfg.beta1,
                     beta2=cfg.beta2, eps=cfg.eps)
    rng = make_rng(cfg.seed)
    history = []
    for step in range(cfg.steps):
        batch = [pairs[int(i)] for i in
                 rng.choice(len(pairs), size=min(cfg.batch, len(pairs)), replace=False)]
        losses = train_step(batch, model, optimizer, cfg, rng, step, cfg.steps)
        history.append(losses)
        if log_every and (step + 1) % log_every == 0:
            print(f"step {step + 1}: total={losses[0]:.6f} "
                  f"dm={losses[1]:.6f} tm={losses[2]:.6f}")
    return history


def separate(dual: np.ndarray, model: SeparationModel, seed: int,
             alpha: float | None = None, tau: int | None = None):
    """Full inference: condition -> latent rollout -> U-net -> fusion.

    Returns (fused images, raw images, latent prior estimate).
    """
    cfg = model.cfg
    tau = model.texture.tau if tau is None else tau
    alpha = model.texture.alpha if alpha is None else alpha
    TextureConfig(tau=tau, alpha=alpha)  # rejects either out of range before any stage runs
    rng = make_rng(seed)
    with no_grad():
        u_dual = masked_texture(dual, image_mask(dual, tau))
        condition = extract_condition(dual, u_dual, model.cond_encoder)
        start = Tensor(rng.standard_normal((cfg.d, cfg.n_tracers)))
        latent_hat = denoise_full(start, condition, model.denoiser, model.schedule)
        preds = unet_forward(dual, u_dual, latent_hat, model.unet)
    raw = [p.data.copy() for p in preds]
    fused = [fuse(r, masked_texture(r, image_mask(r, tau)), alpha) for r in raw]
    return fused, raw, latent_hat.data.copy()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# format 3: one archive of .tsr records; format 2 kept one blob per tensor
CHECKPOINT_FORMAT = 3
META, ARCHIVE = "checkpoint.json", "arrays.tsrs"


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(model: SeparationModel, path, optimizer: Adam | None = None,
                    step: int = 0, seed: int = 0,
                    loss_tail: list | None = None) -> None:
    """Write checkpoint.json and the archive of the parameters, then, with an
    optimizer, Adam's m and v, each in `model.parameters()` order."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    params = model.parameters()
    arrays = [p.data for p in params]
    adam_state = None
    if optimizer is not None:
        arrays += [optimizer.m[p.name] for p in params] + [optimizer.v[p.name] for p in params]
        adam_state = {"t": optimizer.t, "lr": optimizer.lr, "beta1": optimizer.beta1,
                      "beta2": optimizer.beta2, "eps": optimizer.eps}
    hasher = hashlib.sha256()
    with open(root / ARCHIVE, "wb") as fh:
        for arr in arrays:
            T.write_tsr_record(fh, arr, hasher)
    meta = {"format": CHECKPOINT_FORMAT, "model": asdict(model.cfg),
            "names": [p.name for p in params], "step": step, "seed": seed,
            "loss_tail": loss_tail or [], "adam": adam_state, "sha256": hasher.hexdigest()}
    (root / META).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _read_meta(root: Path) -> dict:
    """checkpoint.json, checked for its format and keys before anything is
    built or read."""
    for meta_path in (root / META, root / "manifest.json"):  # formats 1 and 2 used the latter
        if meta_path.is_file():
            break
    else:
        raise CheckpointError(f"{root} has neither {META} nor manifest.json")
    meta = json.loads(meta_path.read_text())
    found = meta.get("format")
    if found != CHECKPOINT_FORMAT:
        raise CheckpointError(f"checkpoint format {found}, expected {CHECKPOINT_FORMAT}")
    missing = [key for key in ("model", "names", "adam", "sha256") if key not in meta]
    if missing:
        raise CheckpointError(f"{meta_path.name} lacks {', '.join(missing)}")
    unknown = sorted(set(meta["model"]) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise CheckpointError(f"{meta_path.name} has unknown model keys {', '.join(unknown)}")
    return meta


def load_checkpoint(path) -> tuple[SeparationModel, Adam | None]:
    """The model, and its Adam state if one was saved, from a checkpoint directory.

    The model is built unfilled, so no random init is drawn. The archive is
    read once, each record straight into the parameter or Adam buffer it
    fills, and its sha256 is taken over the bytes read.
    """
    root = Path(path)
    meta = _read_meta(root)
    model = SeparationModel(ModelConfig(**meta["model"]), filled=False)
    params = model.parameters()
    names = [p.name for p in params]
    saved, ours = meta["names"] + [None], names + [None]
    if saved != ours:
        i = next(i for i, pair in enumerate(zip(saved, ours)) if pair[0] != pair[1])
        raise CheckpointError(f"parameter names differ from the model's at entry {i}: "
                              f"checkpoint has {saved[i]!r}, model has {ours[i]!r}")
    adam = meta["adam"]
    n = len(params)
    arrays = [p.data for p in params] + ([np.empty_like(p.data) for p in params * 2]
                                         if adam else [])
    if not (root / ARCHIVE).is_file():
        raise CheckpointError(f"missing archive {root / ARCHIVE}")
    hasher = hashlib.sha256()
    with open(root / ARCHIVE, "rb") as fh:
        for i, into in enumerate(arrays):
            p = params[i % n]
            what = f"{ARCHIVE} record {i} ({p.name}{('', ' m', ' v')[i // n]})"
            try:
                arr = T.read_tsr_record(fh, out=into, hasher=hasher)
            except ValueError as err:
                raise CheckpointError(f"{what}: {err}") from None
            if arr.shape != into.shape:
                raise CheckpointError(f"{what} has shape {arr.shape}, but parameter "
                                      f"{p.name} has shape {into.shape}")
            if arr is not into:
                into[...] = arr  # saved in the other precision
        extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise CheckpointError(f"{ARCHIVE} has {extra} bytes after its {len(arrays)} records")
    if hasher.hexdigest() != meta["sha256"]:
        raise CheckpointError(f"sha256 digest mismatch for {ARCHIVE}")
    optimizer = None
    if adam:
        optimizer = Adam(params, lr=adam["lr"], beta1=adam["beta1"], beta2=adam["beta2"],
                         eps=adam["eps"], m=dict(zip(names, arrays[n:2 * n])),
                         v=dict(zip(names, arrays[2 * n:])))
        optimizer.t = adam["t"]
    return model, optimizer
