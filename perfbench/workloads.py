"""The three benchmark workloads.

Each is a closed loop with one caller: the next operation starts only after
the previous one returned. Inputs come from ``evaluation.gen_phantom`` with
seeds derived from the workload seed; training phantoms use even seeds and
held-out phantoms odd seeds, so the two never overlap.

* ``train_toy`` repeats ``pipeline.train_step`` on the acceptance gate's toy
  configuration. It is the only workload that runs the autograd backward
  pass and the optimizer.
* ``separate_full`` repeats ``pipeline.separate`` on 64x64 phantoms with the
  full-scale default model. The large-channel conv path and checkpoint I/O
  dominate; texture and the denoiser are under 1% of a call.
* ``sweep_toy`` repeats ``cli.run_sweep_tau`` over a toy checkpoint and a
  held-out corpus on disk. Images are small, so per-op Python overhead
  dominates; this is where cross-image batching and texture or denoiser
  work show, and ``separate_full`` is where they should not.
"""
from __future__ import annotations

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# Package functions are called through their modules, so that a traced run,
# which patches module attributes, sees every call the workload makes.
from tracersep import cli, evaluation, pipeline, tensor, texture
from tracersep.evaluation import PhantomSpec
from tracersep.pipeline import ModelConfig, SeparationModel, TrainConfig

# The acceptance gate's toy configuration (tests/test_acceptance.py);
# perfbench/tests checks that the two stay equal.
TOY_MODEL = dict(d=32, n_tracers=2, lpeb_width=32, denoiser_hidden=256,
                 diffusion_steps=4, unet_levels=2, unet_heads=[1, 2],
                 unet_channels=[8, 16], unet_blocks=[1, 1],
                 gdfn_expansion=4.0, init_seed=2)
TOY_TRAIN = dict(lr=2e-4, beta1=0.9, beta2=0.99, steps=2000, batch=4, seed=0,
                 teacher_forcing_frac=0.0)

N_TRAIN = 4        # phantoms in the toy training set, as in the acceptance gate
N_HELDOUT = 8      # held-out phantoms per separate_full / sweep_toy run
SWEEP_TAUS = (120, 150, 180, 200)
LOSS_TAIL = 10     # train_loss_final averages the last this many steps


def train_seeds(seed: int, n: int = N_TRAIN) -> list[int]:
    return [2 * (n * seed + i) for i in range(n)]


def heldout_seeds(seed: int, n: int = N_HELDOUT) -> list[int]:
    return [2 * (n * seed + i) + 1 for i in range(n)]


def _finite(arr) -> bool:
    return bool(np.all(np.isfinite(arr)))


class Workload:
    """One closed-loop workload.

    ``prepare`` makes the inputs and is not timed. ``setup`` is the program's
    own set-up that a user pays before the first operation (``setup_s``).
    ``op`` is one operation; ``check`` returns the problems found in its
    output. ``items_per_op`` converts operation times to per-item times.
    """

    name = ""
    items_per_op = 1
    n_setups = 5
    n_saves = 5
    # per-workload report name -> generic end-to-end metric name
    named: dict[str, str] = {}

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = Path(work)
        self.model = None

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        return []

    def finish(self) -> list[str]:
        """Checks over the whole run."""
        return []

    def extra_metrics(self) -> dict:
        """Workload-specific report values: name -> (value, unit, samples)."""
        return {}

    def save(self, dest: Path) -> None:
        pipeline.save_checkpoint(self.model, dest)


class TrainToy(Workload):
    """Each set-up builds a fresh model and optimizer and takes its first step;
    the loop keeps training the first round's model, so its loss trajectory
    spans the whole run."""

    name = "train_toy"
    n_setups = 9
    named = {"train_step_ms_p50": "op_ms_p50", "train_step_ms_p90": "op_ms_p90"}

    def prepare(self) -> None:
        spec = PhantomSpec(size=32)
        self.pairs = [evaluation.gen_phantom(s, spec) for s in train_seeds(self.seed)]
        self.cfg = TrainConfig(**TOY_TRAIN)
        self.main = None

    def setup(self) -> None:
        cfg = self.cfg
        model = SeparationModel(ModelConfig(**TOY_MODEL))
        self.current = SimpleNamespace(
            model=model, rng=tensor.make_rng(self.seed), losses=[],
            opt=tensor.Adam(model.parameters(), lr=cfg.lr, beta1=cfg.beta1,
                            beta2=cfg.beta2, eps=cfg.eps))
        if self.main is None:
            self.main = self.current
        self.model = self.main.model  # the model save_checkpoint writes

    def op(self):
        st, cfg = self.current, self.cfg
        self.current = self.main
        # batch sampling as in pipeline.train
        idx = st.rng.choice(len(self.pairs), size=min(cfg.batch, len(self.pairs)),
                            replace=False)
        batch = [self.pairs[int(i)] for i in idx]
        return st, pipeline.train_step(batch, st.model, st.opt, cfg, st.rng,
                                       len(st.losses), cfg.steps)

    def check(self, out) -> list[str]:
        st, losses = out
        st.losses.append(losses[0])
        if not all(math.isfinite(v) for v in losses):
            return [f"non-finite loss at step {len(st.losses)}: {losses}"]
        return []

    def finish(self) -> list[str]:
        losses = self.main.losses
        if len(losses) <= LOSS_TAIL:
            return [f"only {len(losses)} steps; need more than {LOSS_TAIL} "
                    "to compare the final loss with the first"]
        if not self.final_loss() < losses[0]:
            return [f"final loss {self.final_loss():.6f} not below first-step loss "
                    f"{losses[0]:.6f}"]
        return []

    def final_loss(self) -> float:
        return float(np.mean(self.main.losses[-LOSS_TAIL:]))

    def extra_metrics(self) -> dict:
        n = len(self.main.losses)
        return {"train_loss_final": (self.final_loss(), "loss", min(LOSS_TAIL, n)),
                "train_steps": (n, "count", 1)}


class SeparateFull(Workload):
    name = "separate_full"
    n_setups = 5
    n_saves = 3
    named = {"separate_first_ms": "first_op_ms", "separate_ms_p50": "op_ms_p50",
             "separate_ms_p90": "op_ms_p90", "ckpt_save_s": "ckpt_save_s"}

    def prepare(self) -> None:
        # timing does not depend on the weights, so an untrained model will do
        self.ckpt = self.work / "ckpt"
        pipeline.save_checkpoint(SeparationModel(ModelConfig()), self.ckpt)
        spec = PhantomSpec(size=64)
        self.duals = [evaluation.gen_phantom(s, spec).dual for s in heldout_seeds(self.seed)]
        self.seeds = heldout_seeds(self.seed)
        self.first_out = {}
        self.calls = 0

    def setup(self) -> None:
        self.model = None  # release the previous model before loading the next
        self.model, _ = pipeline.load_checkpoint(self.ckpt)

    def op(self):
        k = self.calls % len(self.duals)
        self.calls += 1
        return k, pipeline.separate(self.duals[k], self.model, seed=self.seeds[k])

    def check(self, out) -> list[str]:
        k, (fused, raw, latent) = out
        return check_separation(self.duals[k], fused, raw, latent, self.model,
                                self.first_out.setdefault(k, (fused, raw, latent)))


def check_separation(dual, fused, raw, latent, model, first) -> list[str]:
    """Shape, finiteness, fusion identity and same-seed determinism."""
    cfg = model.cfg
    tau, alpha = model.texture.tau, model.texture.alpha
    problems = []
    if len(fused) != cfg.n_tracers or len(raw) != cfg.n_tracers:
        problems.append(f"{len(fused)} fused / {len(raw)} raw images for "
                        f"{cfg.n_tracers} tracers")
    for k, (f, r) in enumerate(zip(fused, raw)):
        if f.shape != dual.shape or r.shape != dual.shape:
            problems.append(f"tracer {k}: shapes {f.shape}/{r.shape} vs {dual.shape}")
            continue
        if not (_finite(f) and _finite(r)):
            problems.append(f"tracer {k}: non-finite output")
            continue
        expected = alpha * r + (1.0 - alpha) * texture.masked_texture(
            r, texture.image_mask(r, tau))
        if not np.allclose(f, expected, rtol=1e-6, atol=1e-12):
            problems.append(f"tracer {k}: fused != alpha*raw + (1-alpha)*masked texture")
    if latent.shape != (cfg.d, cfg.n_tracers) or not _finite(latent):
        problems.append(f"latent shape {latent.shape} or non-finite values")
    f0, r0, l0 = first
    same = (all(np.array_equal(a, b) for a, b in zip(fused, f0))
            and all(np.array_equal(a, b) for a, b in zip(raw, r0))
            and np.array_equal(latent, l0))
    if not same:
        problems.append("same input and seed gave a different separation")
    return problems


class SweepToy(Workload):
    name = "sweep_toy"
    n_setups = 9
    items_per_op = N_HELDOUT * len(SWEEP_TAUS)
    named = {"sweep_images_per_s": "ops_per_s", "sweep_image_ms_p50": "op_ms_p50",
             "sweep_image_ms_p90": "op_ms_p90"}

    def prepare(self) -> None:
        self.ckpt = self.work / "ckpt"
        self.corpus = self.work / "corpus"
        pipeline.save_checkpoint(SeparationModel(ModelConfig(**TOY_MODEL)), self.ckpt)
        pairs = evaluation.save_corpus(self.corpus, heldout_seeds(self.seed), PhantomSpec(size=32))
        self.density = {tau: float(np.mean([float(texture.image_mask(p.dual, tau).mean())
                                            for p in pairs]))
                        for tau in SWEEP_TAUS}
        self.first_rows = None

    def setup(self) -> None:
        # what run_sweep_tau loads before its first image
        self.model, _ = pipeline.load_checkpoint(self.ckpt)
        evaluation.load_corpus(self.corpus)

    def op(self):
        return cli.run_sweep_tau(self.ckpt, self.corpus, list(SWEEP_TAUS), seed=self.seed)

    def check(self, rows) -> list[str]:
        problems = []
        if [r["tau"] for r in rows] != list(SWEEP_TAUS):
            return [f"sweep returned taus {[r['tau'] for r in rows]}"]
        for r in rows:
            if not all(math.isfinite(r[key]) for key in ("psnr_db", "ssim", "nrmse")):
                problems.append(f"tau {r['tau']}: non-finite quality metric {r}")
            if not math.isclose(r["mask_density"], self.density[r["tau"]],
                                rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"tau {r['tau']}: mask_density {r['mask_density']} != "
                                f"image_mask mean {self.density[r['tau']]}")
        if self.first_rows is None:
            self.first_rows = rows
        elif rows != self.first_rows:
            problems.append("same corpus and seed gave different sweep rows")
        return problems


WORKLOADS = {w.name: w for w in (TrainToy, SeparateFull, SweepToy)}
