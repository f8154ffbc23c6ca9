"""Runs one workload: set-up, a timed closed loop, checkpoint saves, checks.

An untraced run gives the end-to-end metrics. A traced run alternates
untraced and traced operations in the same loop, so the tracing overhead is
measured pairwise on the same inputs, and reports per-layer self time and
call counts from the traced operations.
"""
from __future__ import annotations

import resource
import shutil
import sys
import time
import traceback

from . import stats
from .tracer import (UNTRACED, Tracer, package_modules, traced_callables,
                     wrapped_sites)

# End-to-end metrics bounded in BENCHMARK.json: name -> unit. Per-item times
# divide an operation's time by the workload's items_per_op.
END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "ops_per_s": "1/s", "peak_rss_mb": "MB"}

# Layers whose self time is reported per item in the traced run's JSON: each
# of them runs in the operations of every workload.
SELF_TIME_LAYERS = (
    "texture.image_mask", "texture.lbp_map", "latent.extract_condition",
    "latent.modulate",
    "diffusion.denoise_full", "diffusion.denoiser", "transformer.unet_forward",
    "transformer.mdta", "transformer.gdfn", "tensor.conv2d.pointwise_1x1",
    "tensor.conv2d.depthwise_3x3", "tensor.conv2d.full_3x3", "tensor.matmul",
    "tensor.gelu", "tensor.layer_norm", "tensor.softmax", UNTRACED,
)
# Layers whose call count per item is reported; zero where a workload
# never calls the layer.
CALL_COUNT_LAYERS = (
    "tensor.backward", "tensor.conv2d.pointwise_1x1", "tensor.conv2d.depthwise_3x3",
    "tensor.conv2d.full_3x3", "tensor.matmul", "tensor.gelu", "tensor.layer_norm",
    "tensor.softmax", "tensor.adam_step", "tensor.save_tsr", "tensor.load_tsr",
    "texture.image_mask", "texture.fuse", "latent.extract_condition",
    "latent.extract_msp", "latent.modulate", "diffusion.denoise_full",
    "diffusion.denoiser", "transformer.unet_forward", "transformer.mdta",
    "transformer.gdfn", "pipeline.train_step", "pipeline.separate",
    "pipeline.loss_tm", "pipeline.load_checkpoint", "pipeline.save_checkpoint",
    "evaluation.evaluate_pair", "evaluation.load_corpus",
)
MAX_TRACEBACKS = 3


class Run:
    """Times and checks operations, counting every attempt and failure."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            if len(self.failures) < 20:
                self.failures.append(p)

    def attempt(self, fn, kind: str | None = None, check=None):
        """Run fn once; returns its duration in seconds, or None if it failed.

        With a tracer and a kind, the call is traced as one operation.
        """
        self.attempted += 1
        try:
            if self.tracer is not None and kind is not None:
                with self.tracer.operation(kind) as box:
                    out = fn()
                dur = box["wall"]
            else:
                t0 = time.perf_counter()
                out = fn()
                dur = time.perf_counter() - t0
            problems = check(out) if check is not None else []
        except Exception:  # a failed operation is counted, and the loop goes on
            if self.failed < MAX_TRACEBACKS:
                traceback.print_exc(file=sys.stderr)
            self.fail([traceback.format_exc(limit=1).strip().splitlines()[-1]])
            return None
        if problems:
            self.fail(problems)
            return None
        return dur


def measure(workload, seconds: float, trace: bool) -> dict:
    """Run the workload; returns timings, counts and the tracer (if any).

    The timed loop is split into ``n_setups`` rounds of ``seconds / n_setups``
    each. A round starts with a set-up and its first operation, so set-up and
    first-operation samples are spread over the run like the loop samples,
    instead of all falling into its first seconds.
    """
    w = workload
    modules = package_modules()
    tracer = Tracer(traced_callables(modules)) if trace else None
    if not trace and wrapped_sites(modules):
        raise RuntimeError(f"untraced run found wrapped functions: "
                           f"{wrapped_sites(modules)}")
    run = Run(tracer)
    w.prepare()

    setup_s, first_s, op_s, traced_s = [], [], [], []
    i = 0
    for _ in range(w.n_setups):
        dur = run.attempt(w.setup, "setup")
        if dur is None:
            raise RuntimeError("set-up failed: " + "; ".join(run.failures))
        setup_s.append(dur)
        dur = run.attempt(w.op, "first", w.check)
        if dur is not None:
            first_s.append(dur)
        start = time.perf_counter()
        n = 0
        # at least one untraced and one traced operation per round
        while n < 2 or time.perf_counter() - start < seconds / w.n_setups:
            traced = trace and i % 2 == 1
            dur = run.attempt(w.op, "op" if traced else None, w.check)
            if dur is not None:
                (traced_s if traced else op_s).append(dur)
            i += 1
            n += 1

    save_s = []
    for r in range(w.n_saves):
        dest = w.work / f"save{r}"
        dur = run.attempt(lambda: w.save(dest), "save")
        shutil.rmtree(dest, ignore_errors=True)
        if dur is not None:
            save_s.append(dur)

    problems = w.finish()
    if problems:
        run.attempted += 1
        run.fail(problems)
    if not trace and wrapped_sites(modules):
        raise RuntimeError("wrapped functions appeared during an untraced run")
    return {"setup_s": setup_s, "first_s": first_s, "op_s": op_s,
            "traced_s": traced_s, "save_s": save_s,
            "attempted": run.attempted, "failed": run.failed,
            "failures": run.failures, "tracer": tracer}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, m: dict) -> dict:
    """name -> {"value", "unit", "n"} for every bounded end-to-end metric."""
    items = workload.items_per_op
    op_ms = [t * 1000.0 / items for t in m["op_s"]]
    values = {
        "setup_s": (stats.median(m["setup_s"]), len(m["setup_s"])),
        "op_ms_p50": (stats.percentile(op_ms, 50.0), len(op_ms)),
        "op_ms_p90": (stats.percentile(op_ms, 90.0), len(op_ms)),
        "ops_per_s": (items * len(op_ms) / sum(m["op_s"]), len(op_ms)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    return {name: {"value": v, "unit": END_TO_END[name], "n": n}
            for name, (v, n) in values.items()}


def reported_only(workload, m: dict) -> dict:
    """Printed and recorded, but not bounded in BENCHMARK.json, because their
    spread between runs on a shared two-core machine is wider than a usable
    bound: the first operation after each set-up has only 5-9 samples per
    run, and save time is dominated by the kernel's file creation."""
    return {
        "first_op_ms": {"value": stats.median(m["first_s"]) * 1000.0 / workload.items_per_op,
                        "unit": "ms", "n": len(m["first_s"])},
        "ckpt_save_s": {"value": stats.median(m["save_s"]), "unit": "s",
                        "n": len(m["save_s"])},
    }


def per_layer(workload, m: dict) -> dict:
    """Per-item self seconds and call counts from the traced operations."""
    tracer = m["tracer"]
    per = workload.items_per_op * len(m["traced_s"])
    rows = {r["layer"]: r for r in tracer.table("op")}
    out = {}
    for layer in SELF_TIME_LAYERS:
        row = rows.get(layer)
        out[f"{layer}.self_s"] = {"value": (row["self_s"] if row else 0.0) / per,
                                  "unit": "s"}
    for layer in CALL_COUNT_LAYERS:
        row = rows.get(layer)
        out[f"{layer}.calls"] = {"value": (row["calls"] if row else 0) / per,
                                 "unit": "count"}
    return out


def overhead(m: dict) -> float:
    """Traced over untraced median operation time, minus one."""
    return stats.median(m["traced_s"]) / stats.median(m["op_s"]) - 1.0


MIN_SHARE = 0.001  # table rows below this share of wall time are folded together


def trace_report(workload, m: dict) -> list[str]:
    """Self-time tables, one per operation kind, and the tracing overhead."""
    tracer = m["tracer"]
    lines = [f"tracing overhead: {overhead(m) * 100:+.1f}% (median traced operation "
             f"{stats.median(m['traced_s']) * 1000:.2f} ms over "
             f"{len(m['traced_s'])} ops vs untraced {stats.median(m['op_s']) * 1000:.2f} ms "
             f"over {len(m['op_s'])} ops)"]
    for kind in ("setup", "first", "op", "save"):
        walls = tracer.walls.get(kind)
        if not walls:
            continue
        n = len(walls)
        wall = sum(walls)
        rows = tracer.table(kind)
        lines.append("")
        lines.append(f"[{workload.name}] {kind}: {n} traced operation(s), wall "
                     f"{wall / n * 1000:.3f} ms per operation")
        lines.append(f"  {'layer':40s} {'calls/op':>10s} {'self ms/op':>11s} "
                     f"{'share':>7s} {'incl ms/op':>11s} {'MB/op':>8s}")
        shown = 0.0
        hidden = []
        for r in rows:
            share = r["self_s"] / wall if wall else 0.0
            if share < MIN_SHARE and r["layer"] != UNTRACED:
                hidden.append(r)
                continue
            shown += r["self_s"]
            mb = f"{r['bytes'] / n / 1e6:8.2f}" if r["bytes"] else ""
            lines.append(f"  {r['layer']:40s} {r['calls'] / n:10.2f} "
                         f"{r['self_s'] / n * 1000:11.3f} {share * 100:6.1f}% "
                         f"{r['total_s'] / n * 1000:11.3f} {mb}")
        if hidden:
            rest = sum(r["self_s"] for r in hidden)
            lines.append(f"  {'(' + str(len(hidden)) + ' layers under 0.1% each)':40s} "
                         f"{sum(r['calls'] for r in hidden) / n:10.2f} "
                         f"{rest / n * 1000:11.3f} {rest / wall * 100:6.1f}%")
            shown += rest
        lines.append(f"  {'sum of self times':40s} {'':10s} {shown / n * 1000:11.3f} "
                     f"{shown / wall * 100:6.1f}%  (wall {wall / n * 1000:.3f} ms)")
    return lines
