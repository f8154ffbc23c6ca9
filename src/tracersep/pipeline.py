"""Joint training, end-to-end separation, and checkpoint persistence."""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .diffusion import (Denoiser, DenoiserConfig, build_schedule, denoise_full,
                        forward_sample, loss_dm)
from .latent import LpebConfig, PriorEncoder, extract_condition, extract_msp
from .tensor import Adam, Tensor, make_rng, no_grad
from .texture import TextureConfig, fuse, image_mask, masked_texture
from .transformer import UNet, UNetConfig, unet_forward

if TYPE_CHECKING:  # evaluation imports read_config from here, so no import back at run time
    from .evaluation import PhantomPair


# what a field's annotation admits; bool is an Integral, and numpy's integer
# and floating scalars are registered as Integral and Real
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a real number"),
          "str": (str, "a string")}


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def check_types(config) -> None:
    """Reject the first field of dataclass `config` whose value its
    annotation (int, float, str or list[int]) does not admit, naming it."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "list[int]":
            what = "a list of integers"
            ok = isinstance(value, list) and all(_is(v, numbers.Integral) for v in value)
        else:
            kind, what = _KINDS[f.type]
            ok = _is(value, kind)
        if not ok:
            raise ValueError(f"{f.name} must be {what}, got {value!r}")


def read_json(path) -> dict:
    """The JSON object in the file at path. Every error names the file."""
    try:
        value = json.loads(Path(path).read_text())
    except OSError as err:
        raise ValueError(f"{path}: {err.strerror or err}") from None
    except ValueError as err:  # not JSON, or not UTF-8
        raise ValueError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path} holds a {type(value).__name__}, not a JSON object")
    return value


def read_config(cls, values, where, section: str):
    """A `cls` config from `values`, the JSON `section` of the file `where`,
    which may leave out any field. Every error names the file and the section."""
    if not isinstance(values, dict):
        raise ValueError(f"{where}: {section} is a {type(values).__name__}, "
                         f"not a JSON object")
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{where} has unknown {section} keys {', '.join(unknown)}")
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"{where}: {section}: {err}") from None


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
    unet_heads: list[int] = field(default_factory=lambda: [1, 2, 4, 8])
    unet_channels: list[int] = field(default_factory=lambda: [48, 96, 192, 384])
    unet_blocks: list[int] = field(default_factory=lambda: [3, 5, 6, 6])
    gdfn_expansion: float = 2.0
    tau: int = 180
    alpha: float = 0.9
    init_seed: int = 0

    def __post_init__(self):
        check_types(self)
        # beta_start 0 makes alpha_bar 1 at step 1, where reverse_step cannot
        # remove a nonzero noise estimate
        for name, ok, want in (("init_seed", self.init_seed >= 0, ">= 0"),
                               ("beta_start", self.beta_start > 0, "> 0")):
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)}")
        self.parts()  # each part's config checks its own ranges

    def parts(self):
        """The configs of the prior encoder, the condition encoder, the
        denoiser, the U-net and the texture condition, then the schedule."""
        lpeb = dict(width=self.lpeb_width, res_blocks=self.lpeb_res_blocks, d=self.d)
        return (LpebConfig(**lpeb, n_heads=self.n_tracers), LpebConfig(**lpeb, n_heads=1),
                DenoiserConfig(d=self.d, n_tracers=self.n_tracers,
                               hidden=self.denoiser_hidden, steps=self.diffusion_steps),
                UNetConfig(levels=self.unet_levels, heads=list(self.unet_heads),
                           channels=list(self.unet_channels), blocks=list(self.unet_blocks),
                           gdfn_expansion=self.gdfn_expansion, n_tracers=self.n_tracers, d=self.d),
                TextureConfig(tau=self.tau, alpha=self.alpha),
                build_schedule(self.diffusion_steps, self.beta_start, self.beta_end))


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
        check_types(self)
        # comparisons with NaN are false, so a NaN fails every check
        for name, ok, want in (
                ("steps", self.steps >= 1, ">= 1"),
                ("batch", self.batch >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0"),
                ("lr", 0 < self.lr < math.inf, "finite and > 0"),
                ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                ("eps", self.eps > 0, "> 0"),
                ("teacher_forcing_frac", 0 <= self.teacher_forcing_frac <= 1, "in [0, 1]")):
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"unknown precision {self.precision!r}")


class SeparationModel(T.Module):
    """All parameter groups plus the schedule and texture configuration."""

    def __init__(self, cfg: ModelConfig, filled: bool = True):
        """filled=False leaves the initial weights unwritten, for load_checkpoint to fill."""
        self.cfg = cfg
        rng = make_rng(cfg.init_seed) if filled else None
        msp, cond, denoiser, unet, self.texture, self.schedule = cfg.parts()
        self.msp_encoder = PriorEncoder(msp, rng, "msp")
        self.cond_encoder = PriorEncoder(cond, rng, "cond")
        self.denoiser = Denoiser(denoiser, rng, "denoiser")
        self.unet = UNet(unet, rng, "unet")
        if filled:
            # Start every latent-modulation path inert. The transformer then
            # behaves identically whether it sees a training rollout or an
            # inference rollout, and only learns to read the latent once the
            # denoiser produces consistent ones.
            for blocks in self.unet.enc_blocks + self.unet.dec_blocks:
                for blk in blocks:
                    for mod in (blk.mod1, blk.mod2):
                        mod.w.data[:] = 0.0


def loss_tm(separated: list[Tensor], targets: list[np.ndarray], masks) -> Tensor:
    """Per-tracer L1 on images plus L1 on ground-truth-masked textures.

    masks holds the targets' texture masks, one per target. Predictions,
    targets and masks are (..., H, W); each mean runs over all their
    elements, so a batch gives the mean of its items' losses.
    """
    if len(separated) != len(targets):
        raise ValueError(f"{len(separated)} predictions vs {len(targets)} targets")
    total = None
    for pred, truth, mask in zip(separated, targets, masks):
        if pred.data.shape != truth.shape:
            raise ValueError(f"shape mismatch {pred.data.shape} vs {truth.shape}")
        # mask is 0/1, so |diff * mask| is |pred * mask - truth * mask| bit for bit
        diff = pred - Tensor(truth)
        term = T.mean(T.abs_(diff)) + T.mean(T.abs_(diff * Tensor(mask)))
        total = term if total is None else total + term
    return total


def _first_nonfinite(root: Tensor) -> str:
    """Name of the earliest node, in evaluation order, with a non-finite value."""
    for node in T.topological_order(root):
        if not np.all(np.isfinite(node.data)):
            return getattr(node, "name", node.op)
    return root.op


def _pair_masks(pair: PhantomPair, tau: int) -> np.ndarray:
    """Texture masks (1 + n_tracers, H, W) of a pair's dual and singles at tau,
    computed on first use and kept on the pair. Each image is masked on its
    own, so these are bytewise the masks of any stack the image is in."""
    masks = pair._texture_masks.get(tau)
    if masks is None:
        masks = image_mask(np.stack([pair.dual, *pair.singles]), tau)
        pair._texture_masks[tau] = masks
    return masks


def _batch_losses(batch: list[PhantomPair], model: SeparationModel,
                  rng: np.random.Generator, teacher_forcing: bool):
    """(loss_dm, loss_tm), each the mean over the batch of the items' terms,
    from one graph over the whole batch.

    The draws stay per item: t, eps and eps_top of the first item, then of
    the second, and so on.
    """
    cfg = model.cfg
    sched = model.schedule
    dual = np.stack([pair.dual for pair in batch])
    singles = [np.stack(images) for images in zip(*(pair.singles for pair in batch))]
    latent = extract_msp(dual, singles, model.msp_encoder)
    masks = np.stack([_pair_masks(pair, model.texture.tau) for pair in batch])
    u_dual = masked_texture(dual, masks[:, 0])
    condition = extract_condition(dual, u_dual, model.cond_encoder)

    draws = [(int(rng.integers(1, sched.T + 1)),
              rng.standard_normal((cfg.d, cfg.n_tracers)),
              rng.standard_normal((cfg.d, cfg.n_tracers))) for _ in batch]
    t, eps, eps_top = (np.stack(column) for column in zip(*draws))

    # noise-prediction term at a uniformly sampled step per item
    eps = Tensor(eps)
    noisy = forward_sample(latent, sched, t, eps)
    dm = loss_dm(model.denoiser(noisy, t, condition), eps)

    # full rollout from step T; its endpoint feeds the transformer
    rolled = denoise_full(forward_sample(latent, sched, sched.T, Tensor(eps_top)),
                          condition, model.denoiser, sched)
    # the rollout chases the prior, not the other way around, so the target
    # is detached from the encoder graph
    dm = dm + loss_dm(rolled, Tensor(latent.data.copy()))

    latent_for_unet = latent if teacher_forcing else rolled
    preds = unet_forward(dual, u_dual, latent_for_unet, model.unet)
    tm = loss_tm(preds, singles, masks[:, 1:].swapaxes(0, 1))
    return dm, tm


def _item_losses(pair: PhantomPair, model: SeparationModel,
                 rng: np.random.Generator, teacher_forcing: bool):
    """(loss_dm, loss_tm) of one pair: the batch of one."""
    return _batch_losses([pair], model, rng, teacher_forcing)


def train_step(batch: list[PhantomPair], model: SeparationModel, optimizer: Adam,
               cfg: TrainConfig, rng: np.random.Generator, step: int,
               total_steps: int) -> tuple[float, float, float]:
    """One joint update over one graph for the whole batch; returns
    (loss_total, loss_dm, loss_tm), each the mean over the batch."""
    if not batch:
        raise ValueError("train_step needs a non-empty batch")
    teacher = step < cfg.teacher_forcing_frac * total_steps
    dm, tm = _batch_losses(batch, model, rng, teacher)
    total = dm + tm
    if not np.isfinite(total.data):
        raise FloatingPointError(
            f"non-finite loss at step {step}; first non-finite tensor: "
            f"{_first_nonfinite(total)}")
    optimizer.zero_grad()
    total.backward()
    optimizer.step()
    dm_val = float(dm.data)
    tm_val = float(tm.data)
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

    dual is (..., H, W); item i of its flattened leading axes starts its rollout
    from make_rng(seed + i). Returns (fused images, raw images, latent prior
    estimate): one (..., H, W) array per tracer and the (..., d, n) latent.
    """
    cfg = model.cfg
    tau = model.texture.tau if tau is None else tau
    alpha = model.texture.alpha if alpha is None else alpha
    TextureConfig(tau=tau, alpha=alpha)  # rejects either out of range before any stage runs
    lead = dual.shape[:-2]
    with no_grad():
        u_dual = masked_texture(dual, image_mask(dual, tau))
        condition = extract_condition(dual, u_dual, model.cond_encoder)
        starts = [make_rng(seed + i).standard_normal((cfg.d, cfg.n_tracers))
                  for i in range(int(np.prod(lead)))]
        start = Tensor(np.reshape(starts, lead + (cfg.d, cfg.n_tracers)))
        latent_hat = denoise_full(start, condition, model.denoiser, model.schedule)
        preds = unet_forward(dual, u_dual, latent_hat, model.unet)
    raw = np.stack([p.data for p in preds])  # (n, ..., H, W)
    fused = fuse(raw, masked_texture(raw, image_mask(raw, tau)), alpha)
    return list(fused), list(raw), latent_hat.data


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# format 3: one archive of .tsr records; format 2 kept one blob per tensor
CHECKPOINT_FORMAT = 3
META, ARCHIVE = "checkpoint.json", "arrays.tsrs"


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(model: SeparationModel, path, step: int = 0, seed: int = 0,
                    loss_tail: list | None = None) -> None:
    """Write the archive of the parameters, in `model.parameters()` order,
    and checkpoint.json."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    params = model.parameters()
    hasher = hashlib.sha256()
    with open(root / ARCHIVE, "wb") as fh:
        for p in params:
            T.write_tsr_record(fh, p.data, hasher)
    meta = {"format": CHECKPOINT_FORMAT, "model": asdict(model.cfg),
            "names": [p.name for p in params], "step": step, "seed": seed,
            "loss_tail": loss_tail or [], "sha256": hasher.hexdigest()}
    (root / META).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _read_meta(root: Path) -> tuple[dict, ModelConfig]:
    """checkpoint.json and its model config, checked before anything is built
    or read."""
    meta_path = root / META
    if not meta_path.is_file():
        raise CheckpointError(f"{root} has no {META}")
    try:
        meta = read_json(meta_path)
    except ValueError as err:
        raise CheckpointError(str(err)) from None
    found = meta.get("format")
    if found != CHECKPOINT_FORMAT:
        raise CheckpointError(f"checkpoint format {found}, expected {CHECKPOINT_FORMAT}")
    missing = [key for key in ("model", "names", "sha256") if key not in meta]
    if missing:
        raise CheckpointError(f"{meta_path} lacks {', '.join(missing)}")
    if not isinstance(meta["names"], list):
        raise CheckpointError(f"{meta_path}: names is not a list")
    try:
        return meta, read_config(ModelConfig, meta["model"], meta_path, "model")
    except ValueError as err:
        raise CheckpointError(str(err)) from None


def load_checkpoint(path) -> tuple[SeparationModel, dict]:
    """The model from a checkpoint directory, and its parsed checkpoint.json.

    The model is built unfilled, so no random init is drawn. The archive is
    read once, each record straight into the parameter it fills, and its
    sha256 is taken over the bytes read.
    """
    root = Path(path)
    meta, cfg = _read_meta(root)
    model = SeparationModel(cfg, filled=False)
    params = model.parameters()
    saved, ours = meta["names"] + [None], [p.name for p in params] + [None]
    if saved != ours:
        i = next(i for i, pair in enumerate(zip(saved, ours)) if pair[0] != pair[1])
        raise CheckpointError(f"parameter names differ from the model's at entry {i}: "
                              f"checkpoint has {saved[i]!r}, model has {ours[i]!r}")
    if not (root / ARCHIVE).is_file():
        raise CheckpointError(f"missing archive {root / ARCHIVE}")
    hasher = hashlib.sha256()
    with open(root / ARCHIVE, "rb") as fh:
        for i, p in enumerate(params):
            what = f"{ARCHIVE} record {i} ({p.name})"
            try:
                arr = T.read_tsr_record(fh, out=p.data, hasher=hasher)
            except ValueError as err:
                raise CheckpointError(f"{what}: {err}") from None
            if arr.shape != p.data.shape:
                raise CheckpointError(f"{what} has shape {arr.shape}, but parameter "
                                      f"{p.name} has shape {p.data.shape}")
            if arr is not p.data:
                p.data[...] = arr  # saved in the other precision
        extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise CheckpointError(f"{ARCHIVE} has {extra} bytes after its {len(params)} records")
    if hasher.hexdigest() != meta["sha256"]:
        raise CheckpointError(f"sha256 digest mismatch for {ARCHIVE}")
    return model, meta
