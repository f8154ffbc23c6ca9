"""Compare two result sets, for example the parent commit and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the run records that ``run.py --out DIR`` writes, one
per (workload, seed). Runs are paired by workload and seed. For every
end-to-end metric in BENCHMARK.json the report gives each side's median and
quartiles, the pairs the change won, and a verdict:

* improved: the change wins at least nine tenths of at least ten pairs
  (ties count for neither) and the medians differ, in the better direction,
  by more than the base's interquartile range;
* worse: the change's median is worse than the base's by more than the
  metric's bound;
* unresolved: either side's spread (interquartile range over median) is
  wider than the bound, unless every run of the change reads better than
  every run of the base;
* no worse: otherwise.

Exit code 1 if any verdict is worse or unresolved.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(directory) -> dict:
    """{workload: {seed: metrics}} from the untraced run records in a directory."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        env = rec.get("env", {})
        if env.get("trace") or "workload" not in env:
            continue
        out.setdefault(env["workload"], {})[env["seed"]] = {
            k: v["value"] for k, v in rec["metrics"].items()}
    return out


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def spread(values) -> float:
    q1, med, q3 = stats.quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    """Classify one metric on one workload; see the module docstring."""
    b_q1, b_med, b_q3 = stats.quartiles(base)
    c_med = stats.quartiles(change)[1]
    wins = sum(1 for b, c in pairs if _better(c, b, better))
    all_better = all(_better(c, b, better) for c in change for b in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and _better(c_med, b_med, better) and abs(c_med - b_med) > b_q3 - b_q1):
        return "improved"
    worse_by = (c_med - b_med) if better == "lower" else (b_med - c_med)
    if worse_by > bound * abs(b_med):
        return "worse"
    return "no worse"


def compare(base_dir, change_dir, config: dict) -> tuple[list[str], bool]:
    base, change = load_results(base_dir), load_results(change_dir)
    lines, ok = [], True
    for workload in sorted(set(base) | set(change)):
        seeds = sorted(set(base.get(workload, {})) & set(change.get(workload, {})))
        lines.append(f"[{workload}] {len(seeds)} paired seeds")
        if not seeds:
            lines.append("  no runs on both sides")
            ok = False
            continue
        lines.append(f"  {'metric':14s} {'base median [Q1, Q3]':>34s} "
                     f"{'change median [Q1, Q3]':>34s} {'change':>8s} {'won':>7s}  verdict")
        for m in config["end_to_end"]:
            name = m["name"]
            b = [base[workload][s][name] for s in seeds]
            c = [change[workload][s][name] for s in seeds]
            pairs = list(zip(b, c))
            v = verdict(b, c, pairs, m["better"], m["bound"])
            ok &= v in ("improved", "no worse")
            bq, cq = stats.quartiles(b), stats.quartiles(c)
            wins = sum(1 for x, y in pairs if _better(y, x, m["better"]))
            rel = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else float("nan")
            lines.append(
                f"  {name:14s} {bq[1]:12.5g} [{bq[0]:9.5g}, {bq[2]:9.5g}] "
                f"{cq[1]:12.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] {rel:+7.1f}% "
                f"{wins:3d}/{len(pairs):<3d}  {v} (bound {m['bound']:g}, "
                f"{m['better']} is better)")
    return lines, ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="compare two perfbench result sets")
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(args.base, args.change, config)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
