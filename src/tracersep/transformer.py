"""Transposed-attention transformer blocks assembled into a U-net.

Attention runs over the channel axis: per head a (C/h) x (C/h) map mixes
channels. Queries, keys and values come from one fused projection, as in
Restormer: a 1x1 pointwise conv to 3C channels (`qkv_pw`, C x 3C) and one
3x3 depthwise conv over all 3C (`qkv_dw`), whose output is split into q | k
| v along the channel axis. The gated feed-forward network likewise runs
one `project_in` chain (`in_pw`, C x 2h, then `in_dw` over 2h) and splits
it into a GELU-activated gate and a linear value. The latent modulation in
front of each sub-block is one linear map to 2C channels split into scale |
shift (see `latent.ModulationParams`). Residuals bypass the prior
modulation, so zeroed output projections reduce every block to identity.
Feature maps are (..., H, W, C) and latents (..., L): any leading axes are a
batch, each item attended to and modulated on its own.

In a training graph a block is 12 op nodes and its 11 parameters: per
modulation a `linear` and a `layer_norm` that applies scale | shift; per
sub-block the 1x1 and depthwise convs, then `channel_attention` or `geglu`,
then the output 1x1, which adds the residual in place. With a hidden width
h, the arrays the graph keeps for a block are 11 C-channel maps and 6
h-channel ones: the two modulated maps, the 3C pointwise and depthwise
outputs, the attention's output, the two residual sums, the 2h pointwise
and depthwise outputs, and the gate's output and its phi. Each array is
read by some backward. Before these ops were fused a block was 43 op
nodes, and it also kept the normalized maps, their scaled copies, the
output 1x1s before the residual add, and gelu(gate).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .latent import ModulationParams, modulate
from .tensor import Parameter, Tensor

GAMMA_EPS = 1e-8


@dataclass
class UNetConfig:
    levels: int = 4
    heads: list = field(default_factory=lambda: [1, 2, 4, 8])
    channels: list = field(default_factory=lambda: [48, 96, 192, 384])
    blocks: list = field(default_factory=lambda: [3, 5, 6, 6])
    gdfn_expansion: float = 2.0
    n_tracers: int = 2
    d: int = 256

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"need at least one level, got {self.levels}")
        for name, lst, low in (("heads", self.heads, 1), ("channels", self.channels, 1),
                               ("blocks", self.blocks, 0)):
            if len(lst) != self.levels:
                raise ValueError(f"{name} has {len(lst)} entries for {self.levels} levels")
            if min(lst) < low:
                raise ValueError(f"{name} must each be >= {low}, got {lst}")
        for h, c in zip(self.heads, self.channels):
            if c % h:
                raise ValueError(f"{h} heads do not divide {c} channels")
        for c in self.channels[1:]:
            if c % 4:
                raise ValueError("channels above level 0 must be divisible by 4")
        if self.gdfn_expansion < 1.0:
            raise ValueError("gdfn expansion must be >= 1")

    @property
    def latent_dim(self) -> int:
        return self.d * self.n_tracers


class AttentionParams(T.Module):
    """Fused q|k|v projection (1x1 then depthwise 3x3 over 3C), output 1x1, gamma."""

    def __init__(self, channels: int, heads: int, rng: np.random.Generator,
                 prefix: str):
        self.heads = heads
        std = (1.0 / channels) ** 0.5
        self.qkv_pw, self.qkv_dw = T.fused_normal_params(
            rng, [((channels, channels), std, f"{prefix}.qkv_pw"),
                  ((3, 3, channels), 1.0 / 3.0, f"{prefix}.qkv_dw")], 3)
        self.out_pw = T.normal_param(rng, (channels, channels), std, f"{prefix}.out_pw")
        self.gamma = T.ones_param((heads, 1, 1), f"{prefix}.gamma")


class FeedForwardParams(T.Module):
    """Fused gate|value project_in (1x1 then depthwise 3x3 over 2h), output 1x1."""

    def __init__(self, channels: int, expansion: float, rng: np.random.Generator,
                 prefix: str):
        hidden = max(1, round(expansion * channels))
        self.hidden = hidden
        std = (1.0 / channels) ** 0.5
        self.in_pw, self.in_dw = T.fused_normal_params(
            rng, [((channels, hidden), std, f"{prefix}.in_pw"),
                  ((3, 3, hidden), 1.0 / 3.0, f"{prefix}.in_dw")], 2)
        self.out_pw = T.normal_param(rng, (hidden, channels), (1.0 / hidden) ** 0.5,
                                     f"{prefix}.out_pw")


class BlockParams(T.Module):
    def __init__(self, channels: int, heads: int, latent_dim: int, expansion: float,
                 rng: np.random.Generator, prefix: str):
        self.mod1 = ModulationParams(latent_dim, channels, rng, f"{prefix}.mod1")
        self.attn = AttentionParams(channels, heads, rng, f"{prefix}.attn")
        self.mod2 = ModulationParams(latent_dim, channels, rng, f"{prefix}.mod2")
        self.ffn = FeedForwardParams(channels, expansion, rng, f"{prefix}.ffn")


def _project(m: Tensor, pw: Parameter, dw: Parameter) -> Tensor:
    """One 1x1 then depthwise 3x3 chain."""
    return T.conv2d(T.conv2d(m, pw, "pointwise_1x1"), dw, "depthwise_3x3")


def attention_map(m: Tensor, params: AttentionParams) -> Tensor:
    """Per-head channel attention map (..., heads, C/h, C/h); rows sum to 1.
    It is for inspection and records no graph."""
    return T.attention_weights(_project(m, params.qkv_pw, params.qkv_dw), params.gamma,
                               GAMMA_EPS)


def mdta(m: Tensor, params: AttentionParams, residual: Tensor | None = None) -> Tensor:
    """Multi-head transposed attention; residual defaults to the input itself."""
    y = T.channel_attention(_project(m, params.qkv_pw, params.qkv_dw), params.gamma,
                            GAMMA_EPS)
    return T.conv2d(y, params.out_pw, "pointwise_1x1",
                    residual=m if residual is None else residual)


def gdfn(m: Tensor, params: FeedForwardParams, residual: Tensor | None = None) -> Tensor:
    """Gated feed-forward: GELU(gate) * val for gate | val = dw(pw(m)), then a
    1x1, plus residual."""
    y = T.geglu(_project(m, params.in_pw, params.in_dw))
    return T.conv2d(y, params.out_pw, "pointwise_1x1",
                    residual=m if residual is None else residual)


def transformer_block(m: Tensor, latent_flat: Tensor, params: BlockParams) -> Tensor:
    """modulate -> attention -> modulate -> feed-forward, residuals off the
    unmodulated features."""
    m = mdta(modulate(m, latent_flat, params.mod1), params.attn, residual=m)
    m = gdfn(modulate(m, latent_flat, params.mod2), params.ffn, residual=m)
    return m


class UNet(T.Module):
    """Encoder-decoder over transformer blocks with pixel (un)shuffle resampling."""

    def __init__(self, cfg: UNetConfig, rng: np.random.Generator, prefix: str = "unet"):
        self.cfg = cfg
        ch = cfg.channels
        ldim = cfg.latent_dim
        self.conv_in = T.normal_param(rng, (3, 3, 2, ch[0]), (2.0 / 18) ** 0.5,
                                      f"{prefix}.conv_in.k")
        self.conv_in_b = T.zeros_param((ch[0],), f"{prefix}.conv_in.b")
        self.enc_blocks = []
        for lvl in range(cfg.levels):
            self.enc_blocks.append([
                BlockParams(ch[lvl], cfg.heads[lvl], ldim, cfg.gdfn_expansion, rng,
                            f"{prefix}.enc{lvl}.block{j}")
                for j in range(cfg.blocks[lvl])
            ])
        self.down = []
        for lvl in range(cfg.levels - 1):
            self.down.append(T.normal_param(rng, (4 * ch[lvl], ch[lvl + 1]),
                                            (1.0 / (4 * ch[lvl])) ** 0.5,
                                            f"{prefix}.down{lvl}.pw"))
        self.up = []
        self.skip_fuse = []
        self.dec_blocks = []
        for lvl in range(cfg.levels - 1):
            self.up.append(T.normal_param(rng, (ch[lvl + 1] // 4, ch[lvl]),
                                          (4.0 / ch[lvl + 1]) ** 0.5,
                                          f"{prefix}.up{lvl}.pw"))
            self.skip_fuse.append(T.normal_param(rng, (2 * ch[lvl], ch[lvl]),
                                                 (1.0 / (2 * ch[lvl])) ** 0.5,
                                                 f"{prefix}.fuse{lvl}.pw"))
            self.dec_blocks.append([
                BlockParams(ch[lvl], cfg.heads[lvl], ldim, cfg.gdfn_expansion, rng,
                            f"{prefix}.dec{lvl}.block{j}")
                for j in range(cfg.blocks[lvl])
            ])
        # small output init keeps early predictions near zero
        self.conv_out = T.normal_param(rng, (3, 3, ch[0], cfg.n_tracers), 1e-3,
                                       f"{prefix}.conv_out.k")
        self.conv_out_b = T.zeros_param((cfg.n_tracers,), f"{prefix}.conv_out.b")

    def forward(self, dual: np.ndarray, masked_dual: np.ndarray,
                latent_flat: Tensor) -> Tensor:
        cfg = self.cfg
        h, w = dual.shape[-2:]
        factor = 2 ** (cfg.levels - 1)
        if h % factor or w % factor:
            raise ValueError(f"{h}x{w} input not divisible by {factor}")
        if dual.shape != masked_dual.shape:
            raise ValueError("dual and masked texture shapes differ")
        x = Tensor(np.stack([dual, masked_dual], axis=-1))
        x = T.conv2d(x, self.conv_in, "full_3x3", self.conv_in_b)
        skips = []
        for lvl in range(cfg.levels - 1):
            for blk in self.enc_blocks[lvl]:
                x = transformer_block(x, latent_flat, blk)
            skips.append(x)
            x = T.conv2d(T.pixel_unshuffle(x, 2), self.down[lvl], "pointwise_1x1")
        for blk in self.enc_blocks[-1]:
            x = transformer_block(x, latent_flat, blk)
        for lvl in range(cfg.levels - 2, -1, -1):
            x = T.conv2d(T.pixel_shuffle(x, 2), self.up[lvl], "pointwise_1x1")
            x = T.conv2d(T.concat([x, skips[lvl]], axis=-1), self.skip_fuse[lvl],
                         "pointwise_1x1")
            for blk in self.dec_blocks[lvl]:
                x = transformer_block(x, latent_flat, blk)
        return T.conv2d(x, self.conv_out, "full_3x3", self.conv_out_b)


def unet_forward(dual: np.ndarray, masked_dual: np.ndarray, latent: Tensor,
                 unet: UNet) -> list[Tensor]:
    """Separated tracer images (..., H, W), one per output channel.

    dual and masked_dual are (..., H, W) and latent (..., d, n), with the
    same leading axes.
    """
    flat = T.reshape(latent, latent.data.shape[:-2] + (-1,))
    out = unet.forward(dual, masked_dual, flat)
    return [T.channel(out, k) for k in range(unet.cfg.n_tracers)]
