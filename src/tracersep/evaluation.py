"""Quality metrics and the synthetic dual-tracer phantom corpus.

Phantoms stand in for clinical scans: tracer 0 is a set of smooth focal
blobs, tracer 1 a ring/shell pattern, the dual image their exact sum.
"""
from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .pipeline import check_types, read_config, read_json
from .tensor import load_tsr, make_rng, save_tsr


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _check_pair(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty image")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return x, y


def psnr(x: np.ndarray, y_reference: np.ndarray) -> float:
    """20 log10(Max(reference) / RMSE), +inf for identical images."""
    x, y = _check_pair(x, y_reference)
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(float(y.max()) / math.sqrt(mse))


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Global single-window SSIM with population statistics.

    The stabilizers are (0.01 R)^2 and (0.03 R)^2 with R the reference
    dynamic range; a constant reference falls back to R = 1 so the
    constant-vs-constant case is well defined (and equals 1).
    """
    x, y = _check_pair(x, y)
    r = float(y.max() - y.min()) or 1.0
    c1, c2 = (0.01 * r) ** 2, (0.03 * r) ** 2
    mx, my = float(x.mean()), float(y.mean())
    vx, vy = float(x.var()), float(y.var())
    cov = float(((x - mx) * (y - my)).mean())
    return ((2 * mx * my + c1) * (2 * cov + c2)
            / ((mx * mx + my * my + c1) * (vx + vy + c2)))


def nrmse(x: np.ndarray, y: np.ndarray) -> float:
    """RMSE normalized by the reference dynamic range."""
    x, y = _check_pair(x, y)
    rng = float(y.max() - y.min())
    if rng == 0.0:
        raise ValueError("constant reference image has zero dynamic range")
    return math.sqrt(float(np.mean((x - y) ** 2))) / rng


def cr(image: np.ndarray, region_a: np.ndarray, region_b: np.ndarray) -> float:
    """Contrast ratio: max over region_a / mean over region_b."""
    image = np.asarray(image, dtype=np.float64)
    a = np.asarray(region_a, dtype=bool)
    b = np.asarray(region_b, dtype=bool)
    if not a.any() or not b.any():
        raise ValueError("empty region mask")
    denom = float(image[b].mean())
    if denom == 0.0:
        raise ZeroDivisionError("zero mean in denominator region")
    return float(image[a].max()) / denom


def cov(image: np.ndarray, region: np.ndarray) -> float:
    """Coefficient of variation: population std / mean over the region."""
    image = np.asarray(image, dtype=np.float64)
    r = np.asarray(region, dtype=bool)
    if not r.any():
        raise ValueError("empty region mask")
    vals = image[r]
    m = float(vals.mean())
    if m == 0.0:
        raise ZeroDivisionError("zero mean over region")
    return float(vals.std()) / m


# ---------------------------------------------------------------------------
# phantom generation
# ---------------------------------------------------------------------------

@dataclass
class PhantomSpec:
    size: int = 32
    n_tracers: int = 2
    n_blobs: int = 3
    background: float = 0.05

    def __post_init__(self):
        check_types(self)
        if self.size < 4:
            raise ValueError("phantom size too small")
        if self.n_tracers < 1:
            raise ValueError("need at least one tracer")
        if self.n_blobs < 1:
            raise ValueError("need at least one blob")


@dataclass
class PhantomPair:
    dual: np.ndarray
    singles: list
    region_masks: dict  # "{name}_t{k}" -> binary array


def _blob_pattern(rng: np.random.Generator, spec: PhantomSpec) -> np.ndarray:
    s = spec.size
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    img = np.zeros((s, s))
    margin = s / 6.0
    for _ in range(spec.n_blobs):
        cy = rng.uniform(margin, s - margin)
        cx = rng.uniform(margin, s - margin)
        sig = rng.uniform(s / 16.0, s / 8.0)
        amp = rng.uniform(0.4, 1.0)
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sig * sig))
    return img


def _ring_pattern(rng: np.random.Generator, spec: PhantomSpec) -> np.ndarray:
    s = spec.size
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64)
    cy = rng.uniform(0.4 * s, 0.6 * s)
    cx = rng.uniform(0.4 * s, 0.6 * s)
    r0 = rng.uniform(0.22 * s, 0.32 * s)
    sig = rng.uniform(s / 24.0, s / 14.0)
    phase = rng.uniform(0, 2 * np.pi)
    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    theta = np.arctan2(yy - cy, xx - cx)
    return (np.exp(-((dist - r0) ** 2) / (2 * sig * sig))
            * (1.0 + 0.3 * np.cos(2 * theta + phase)))


def gen_phantom(seed: int, spec: PhantomSpec | None = None) -> PhantomPair:
    """Deterministic phantom pair: singles, exact-sum dual, region masks."""
    spec = spec or PhantomSpec()
    rng = make_rng(seed)
    singles = []
    masks = {}
    for k in range(spec.n_tracers):
        pattern = _blob_pattern(rng, spec) if k % 2 == 0 else _ring_pattern(rng, spec)
        pattern *= (1.0 - spec.background) / pattern.max()
        single = pattern + spec.background
        singles.append(single)
        masks[f"lesion_t{k}"] = (single >= 0.6 * single.max()).astype(np.float64)
        masks[f"background_t{k}"] = (pattern <= 0.02).astype(np.float64)
    dual = np.sum(singles, axis=0)
    return PhantomPair(dual=dual, singles=singles, region_masks=masks)


# ---------------------------------------------------------------------------
# corpus persistence and reports
# ---------------------------------------------------------------------------

def _image_files(idx: int, n_tracers: int) -> tuple[str, list[str], dict[str, str]]:
    """The .tsr file names of corpus image idx: dual, singles, region masks by name."""
    stem = f"p{idx:04d}"
    return (f"{stem}_dual.tsr", [f"{stem}_single{k}.tsr" for k in range(n_tracers)],
            {name: f"{stem}_mask_{name}.tsr" for k in range(n_tracers)
             for name in (f"lesion_t{k}", f"background_t{k}")})


def corpus_files(pairs: list[PhantomPair]) -> Iterator[tuple[str, np.ndarray]]:
    """(file name, array) of each .tsr file save_corpus writes for these pairs."""
    for idx, pair in enumerate(pairs):
        dual, singles, masks = _image_files(idx, len(pair.singles))
        yield dual, pair.dual
        yield from zip(singles, pair.singles)
        for name, file in masks.items():
            yield file, pair.region_masks[name]


def save_corpus(out_dir, seeds: list[int], spec: PhantomSpec | None = None) -> list[PhantomPair]:
    """Write the corpus_files of the seeds' phantoms and a corpus.json."""
    spec = spec or PhantomSpec()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = [gen_phantom(seed, spec) for seed in seeds]
    for name, array in corpus_files(pairs):
        save_tsr(out / name, array)
    manifest = {"seeds": [int(s) for s in seeds], "spec": asdict(spec)}
    (out / "corpus.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return pairs


def load_corpus(corpus_dir) -> list[PhantomPair]:
    """Read the corpus's .tsr files; corpus.json gives the image and tracer counts."""
    root = Path(corpus_dir)
    path = root / "corpus.json"
    manifest = read_json(path)
    if not isinstance(manifest.get("seeds"), list):
        raise ValueError(f"{path} has no seeds list")
    spec = read_config(PhantomSpec, manifest.get("spec", {}), path, "spec")
    pairs = []
    for idx in range(len(manifest["seeds"])):
        dual, singles, masks = _image_files(idx, spec.n_tracers)
        images = {name: load_tsr(root / name) for name in (dual, *singles, *masks.values())}
        h_w = images[dual].shape[-2:]
        for name, image in images.items():
            if image.ndim != 2 or image.shape != h_w:
                raise ValueError(f"{root / name} has shape {image.shape}, not the (H, W) "
                                 f"{h_w} of {dual}")
        pairs.append(PhantomPair(dual=images[dual], singles=[images[n] for n in singles],
                                 region_masks={k: images[n] for k, n in masks.items()}))
    return pairs


@dataclass
class MetricsRow:
    phantom_id: str
    tracer: int
    psnr_db: float
    ssim: float
    nrmse: float
    cr: float
    cov: float


def evaluate_pair(pred: np.ndarray, pair: PhantomPair, tracer: int,
                  phantom_id: str) -> MetricsRow:
    truth = pair.singles[tracer]
    lesion = pair.region_masks[f"lesion_t{tracer}"]
    background = pair.region_masks[f"background_t{tracer}"]
    return MetricsRow(
        phantom_id=phantom_id,
        tracer=tracer,
        psnr_db=psnr(pred, truth),
        ssim=ssim(pred, truth),
        nrmse=nrmse(pred, truth),
        cr=cr(pred, lesion, background),
        cov=cov(pred, background),
    )


def write_metrics_csv(rows: list[MetricsRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phantom_id", "tracer", "psnr_db", "ssim", "nrmse", "cr", "cov"])
        for r in rows:
            writer.writerow([
                r.phantom_id, r.tracer, f"{r.psnr_db:.9g}", f"{r.ssim:.9g}",
                f"{r.nrmse:.9g}", f"{r.cr:.9g}", f"{r.cov:.9g}",
            ])
