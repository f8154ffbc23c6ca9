"""Tests of the benchmark's own logic: statistics, self time, inputs, checks,
compare verdicts, and that untraced runs call the package's own functions."""
import ast
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import compare, runner, stats, tracer, workloads

REPO = Path(__file__).resolve().parents[2]


# -- percentiles and sample counts -------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 7, 40, 101])
@pytest.mark.parametrize("q", [0.0, 25.0, 50.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy(n, q):
    xs = list(np.random.default_rng(n).uniform(0, 10, n))
    assert stats.percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)),
                                                    rel=1e-12)


def test_samples_beyond_counts_strictly_larger_samples():
    for n in (5, 20, 40, 100, 1000):
        xs = list(range(n))
        for q in stats.TAIL_CANDIDATES:
            cut = stats.percentile(xs, q)
            assert stats.samples_beyond(n, q) == sum(1 for x in xs if x > cut)


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50.0), (37, 50.0), (38, 75.0), (91, 75.0),
    (92, 90.0), (100, 90.0), (1000, 99.0)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    xs = list(range(n))
    if expected is not None:
        cut = stats.percentile(xs, expected)
        assert sum(1 for x in xs if x > cut) >= stats.MIN_BEYOND


def test_quartiles_match_statistics_quantiles():
    import statistics
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert stats.quartiles(xs) == tuple(statistics.quantiles(xs, n=4))
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_end_to_end_uses_loop_samples_per_item():
    w = types.SimpleNamespace(items_per_op=4)
    m = {"setup_s": [0.3, 0.1, 0.2], "first_s": [0.8, 0.4, 0.4],
         "op_s": [0.4, 0.8, 0.4, 0.4, 1.2], "save_s": [0.05]}
    e2e = runner.end_to_end(w, m)
    assert set(e2e) == set(runner.END_TO_END)
    assert e2e["setup_s"] == {"value": 0.2, "unit": "s", "n": 3}
    extra = runner.reported_only(w, m)
    assert extra["first_op_ms"]["value"] == pytest.approx(100.0)
    assert extra["ckpt_save_s"] == {"value": 0.05, "unit": "s", "n": 1}
    assert e2e["op_ms_p50"]["value"] == pytest.approx(100.0)
    assert e2e["op_ms_p50"]["n"] == 5           # first operations are not loop samples
    assert e2e["op_ms_p90"]["value"] == pytest.approx(260.0)
    assert e2e["ops_per_s"]["value"] == pytest.approx(20 / 3.2)


# -- self time ---------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _fake_layers(clock):
    ns = types.SimpleNamespace()

    def inner():
        clock.t += 3.0

    def outer():
        clock.t += 1.0
        ns.inner()       # looked up at call time, like a module global
        clock.t += 2.0
        ns.inner()

    ns.inner, ns.outer = inner, outer
    sites = [(ns, "inner", inner, "m.inner"), (ns, "outer", outer, "m.outer")]
    return ns, sites


def test_self_time_subtracts_nested_child_spans():
    clock = FakeClock()
    ns, sites = _fake_layers(clock)
    tr = tracer.Tracer(sites, clock=clock)
    with tr.operation("op") as box:
        clock.t += 0.5
        ns.outer()
        clock.t += 0.25
    rows = {r["layer"]: r for r in tr.table("op")}
    assert rows["m.outer"]["self_s"] == 3.0
    assert rows["m.outer"]["total_s"] == 9.0
    assert rows["m.inner"] == {"layer": "m.inner", "calls": 2, "self_s": 6.0,
                               "total_s": 6.0, "bytes": 0}
    assert rows[tracer.UNTRACED]["self_s"] == 0.75
    assert box["wall"] == 9.75 == sum(r["self_s"] for r in rows.values())
    spans = tr.dump()["spans"]
    by_name = {s["name"]: s for s in spans}
    assert by_name["m.outer"]["parent"] == by_name[tracer.UNTRACED]["id"]
    assert [s["parent"] for s in spans if s["name"] == "m.inner"] == \
        [by_name["m.outer"]["id"]] * 2
    assert {s["op"] for s in spans} == {0}


def test_wrappers_exist_only_inside_an_operation():
    clock = FakeClock()
    ns, sites = _fake_layers(clock)
    originals = (ns.inner, ns.outer)
    tr = tracer.Tracer(sites, clock=clock)
    with tr.operation("op"):
        assert hasattr(ns.outer, "__perfbench_original__")
    assert (ns.inner, ns.outer) == originals


def test_package_patch_sites_cover_names_imported_by_other_modules():
    modules = tracer.package_modules()
    sites = tracer.traced_callables(modules)
    where = {(getattr(o, "__name__", ""), a) for o, a, _, _ in sites}
    for owner, attr in [("tracersep.pipeline", "unet_forward"),
                        ("tracersep.pipeline", "image_mask"),
                        ("tracersep.cli", "separate"),
                        ("tracersep.cli", "load_checkpoint"),
                        ("tracersep.transformer", "modulate"),
                        ("tracersep.tensor", "matmul"),
                        ("Tensor", "backward"), ("Adam", "step"),
                        ("Denoiser", "__call__")]:
        assert (owner, attr) in where
    assert not tracer.wrapped_sites(modules)


# -- untraced runs call the package itself -------------------------------------

class ProbeWorkload(workloads.Workload):
    """Tiny workload that records whether it sees wrapped package functions."""

    name = "probe"
    n_setups = 1
    n_saves = 0

    def setup(self):
        self.seen = []

    def op(self):
        from tracersep import pipeline, texture
        self.seen.append(hasattr(pipeline.image_mask, "__perfbench_original__"))
        return texture.image_mask(np.arange(16.0).reshape(4, 4))

    def check(self, out):
        return [] if out.shape == (4, 4) else ["bad mask shape"]


def test_untraced_run_executes_unpatched_package_functions(tmp_path):
    w = ProbeWorkload(0, tmp_path)
    m = runner.measure(w, seconds=0.01, trace=False)
    assert m["failed"] == 0 and m["tracer"] is None
    assert len(w.seen) >= 3 and not any(w.seen)


def test_traced_run_patches_only_traced_operations(tmp_path):
    w = ProbeWorkload(0, tmp_path)
    m = runner.measure(w, seconds=0.01, trace=True)
    assert m["failed"] == 0
    # setup and first op are traced, then the loop alternates untraced, traced
    assert w.seen[0] is True and w.seen[1] is False and w.seen[2] is True
    assert not tracer.wrapped_sites(tracer.package_modules())
    rows = {r["layer"]: r for r in m["tracer"].table("op")}
    assert rows["texture.image_mask"]["calls"] == len(m["traced_s"])
    assert rows["texture.lbp_map"]["calls"] == len(m["traced_s"])


# -- inputs --------------------------------------------------------------------

def test_training_and_heldout_seeds_never_overlap():
    train = {s for seed in range(50) for s in workloads.train_seeds(seed)}
    held = {s for seed in range(50) for s in workloads.heldout_seeds(seed)}
    assert not train & held
    assert len(train) == 50 * workloads.N_TRAIN
    assert len(held) == 50 * workloads.N_HELDOUT


def test_same_seed_gives_identical_inputs(tmp_path):
    def train_inputs(seed):
        w = workloads.TrainToy(seed, tmp_path)
        w.prepare()
        return [p.dual for p in w.pairs] + [s for p in w.pairs for s in p.singles]

    a, b, c = train_inputs(3), train_inputs(3), train_inputs(4)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def sweep_inputs(seed, where):
        w = workloads.SweepToy(seed, tmp_path / where)
        w.prepare()
        return {p.name: p.read_bytes() for p in sorted((w.work / "corpus").iterdir())}

    assert sweep_inputs(3, "x") == sweep_inputs(3, "y")
    assert sweep_inputs(3, "x") != sweep_inputs(4, "z")


def test_toy_config_matches_acceptance_gate():
    tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("TOY_MODEL", "TOY_TRAIN")):
            found[node.targets[0].id] = {k.arg: ast.literal_eval(k.value)
                                         for k in node.value.keywords}
    assert found == {"TOY_MODEL": workloads.TOY_MODEL, "TOY_TRAIN": workloads.TOY_TRAIN}


# -- output checks ---------------------------------------------------------------

def _fake_separation():
    from tracersep.texture import image_mask, masked_texture
    model = types.SimpleNamespace(cfg=types.SimpleNamespace(n_tracers=2, d=3),
                                  texture=types.SimpleNamespace(tau=180, alpha=0.9))
    rng = np.random.default_rng(0)
    dual = rng.uniform(0, 1, (8, 8))
    raw = [rng.uniform(0, 1, (8, 8)).astype(np.float32) for _ in range(2)]
    fused = [0.9 * r + 0.1 * masked_texture(r, image_mask(r, 180)) for r in raw]
    return dual, fused, raw, np.zeros((3, 2)), model


def test_separation_check_accepts_consistent_output():
    dual, fused, raw, latent, model = _fake_separation()
    first = ([f.copy() for f in fused], [r.copy() for r in raw], latent.copy())
    assert workloads.check_separation(dual, fused, raw, latent, model, first) == []


def test_separation_check_flags_fusion_determinism_and_nonfinite():
    dual, fused, raw, latent, model = _fake_separation()
    first = ([f.copy() for f in fused], [r.copy() for r in raw], latent.copy())
    bad = [fused[0] * 1.01, fused[1]]
    problems = workloads.check_separation(dual, bad, raw, latent, model, first)
    assert any("fused" in p for p in problems)
    assert any("different separation" in p for p in problems)
    nan_raw = [raw[0].copy(), raw[1]]
    nan_raw[0][0, 0] = np.nan
    problems = workloads.check_separation(dual, fused, nan_raw, latent, model, first)
    assert any("non-finite" in p for p in problems)
    problems = workloads.check_separation(dual[:4], fused, raw, latent, model, first)
    assert any("shapes" in p for p in problems)


def test_sweep_check_flags_wrong_mask_density(tmp_path):
    w = workloads.SweepToy(0, tmp_path)
    w.density = {tau: 0.25 for tau in workloads.SWEEP_TAUS}
    w.first_rows = None
    rows = [{"tau": t, "psnr_db": 1.0, "ssim": 0.5, "nrmse": 0.1, "mask_density": 0.25}
            for t in workloads.SWEEP_TAUS]
    assert w.check(rows) == []
    rows[1] = dict(rows[1], mask_density=0.3)
    assert any("mask_density" in p for p in w.check(rows))


def test_train_finish_requires_loss_to_fall():
    w = workloads.TrainToy(0, Path("."))
    w.main = types.SimpleNamespace(losses=[1.0] + [0.5] * workloads.LOSS_TAIL)
    assert w.finish() == []
    w.main.losses = [1.0] + [1.5] * workloads.LOSS_TAIL
    assert w.finish()
    w.main.losses = [1.0] * workloads.LOSS_TAIL
    assert w.finish()
    assert w.check((w.main, (float("nan"), 0.0, 0.0)))


# -- BENCHMARK.json ---------------------------------------------------------------

def test_benchmark_json_lists_what_the_runner_reports():
    import json
    cfg = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in cfg["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in cfg["end_to_end"]} == \
        runner.END_TO_END
    assert [m["name"] for m in cfg["per_layer"]] == \
        [f"{layer}.self_s" for layer in runner.SELF_TIME_LAYERS] + \
        [f"{layer}.calls" for layer in runner.CALL_COUNT_LAYERS]
    setup_bound = next(m["bound"] for m in cfg["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in cfg["end_to_end"])


# -- compare verdicts --------------------------------------------------------------

def _verdict(base, change, better="lower", bound=0.1):
    return compare.verdict(base, change, list(zip(base, change)), better, bound)


def test_compare_verdicts():
    base = [100.0 + i * 0.1 for i in range(10)]
    assert _verdict(base, [x * 0.8 for x in base]) == "improved"
    assert _verdict(base, [x * 1.02 for x in base]) == "no worse"
    assert _verdict(base, [x * 1.3 for x in base]) == "worse"
    assert _verdict(base, [x * 1.3 for x in base], better="higher") == "improved"
    noisy = [80.0, 120.0] * 5
    assert _verdict(noisy, noisy) == "unresolved"
    # a spread wider than the bound still resolves when every change run is better
    assert _verdict(noisy, [10.0] * 10) == "improved"
    # fewer than ten pairs never claims a gain
    assert _verdict(base[:5], [x * 0.8 for x in base[:5]]) == "no worse"


def test_compare_reads_result_sets(tmp_path):
    import json
    for side, scale in (("a", 1.0), ("b", 0.5)):
        d = tmp_path / side
        d.mkdir()
        for seed in range(10):
            rec = {"env": {"workload": "w", "seed": seed, "trace": 0},
                   "metrics": {"op_ms_p50": {"value": scale * (10 + seed * 0.01),
                                             "unit": "ms"}}}
            (d / f"w-seed{seed}-trace0.json").write_text(json.dumps(rec))
    config = {"end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower",
                              "bound": 0.1}]}
    lines, ok = compare.compare(tmp_path / "a", tmp_path / "b", config)
    assert ok and "improved" in lines[-1] and "10/10" in lines[-1]
