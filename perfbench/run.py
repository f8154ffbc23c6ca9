"""Benchmark launcher.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. It imports tracersep from ./src, pins the BLAS
thread count before numpy loads, runs one workload per process and prints a
human-readable report followed, on the last line, by one JSON object with
the keys correct, attempted, failed and metrics. The full record of the run
(environment, sample counts, failures) goes to .perfbench/results/. With
--trace 1 the metrics are per-layer, the self-time tables are printed and
the first operations' spans go to .perfbench/spans/. Exit code 0 means every
operation and output check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

# With one BLAS thread the full-scale separate is far steadier than with two
# on a two-core machine, and one never exceeds nproc.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("train_toy", "separate_full", "sweep_toy")


def parse_args(argv):
    p = argparse.ArgumentParser(description="tracersep benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed loop (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="directory for the run record (default .perfbench/results)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_package():
    """Import tracersep from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import tracersep
    if Path(tracersep.__file__).resolve().parent != (SRC / "tracersep").resolve():
        raise SystemExit(f"perfbench: imported tracersep from {tracersep.__file__}, "
                         f"not from {SRC}")
    return tracersep


def git_sha() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads_in_effect() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args, seconds) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "platform": platform.platform(),
    }


def bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        n = f"(n={m['n']})" if "n" in m else ""
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} {n}")


def run_one(args, seconds: float) -> int:
    import_package()
    from perfbench import runner
    from perfbench.workloads import WORKLOADS

    env = environment(args, seconds)
    print(f"perfbench {args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}")
    print(f"env: git {env['git_sha'] or '-'} src {env['src_sha256'][:12]} "
          f"nproc {env['nproc']} python {env['python']} numpy {env['numpy']} "
          f"blas {env['blas']['name']} {env['blas']['version']} threads pinned "
          f"{env['blas_threads_pinned']} in effect {env['blas_threads_in_effect']}")
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    record = {"env": env, "correct": False, "attempted": 1, "failed": 1,
              "failures": [], "metrics": {}}
    try:
        m = runner.measure(workload, seconds, bool(args.trace))
    except Exception:  # report the failed run instead of a traceback alone
        traceback.print_exc(file=sys.stderr)
        record["failures"].append(traceback.format_exc(limit=1).strip().splitlines()[-1])
        m = None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if m is not None:
        record.update(attempted=m["attempted"], failed=m["failed"],
                      failures=m["failures"], correct=m["failed"] == 0)
        if args.trace:
            record["metrics"] = runner.per_layer(workload, m)
            record["tracing_overhead"] = runner.overhead(m)
            for line in runner.trace_report(workload, m):
                print(line)
            spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                         **m["tracer"].dump()}) + "\n")
            print(f"spans of the first operations of each kind: "
                  f"{spans.relative_to(ROOT)}")
        else:
            e2e = runner.end_to_end(workload, m)
            record["metrics"] = e2e
            extra = runner.reported_only(workload, m)
            record["reported_only"] = extra
            named = {name: {**e2e, **extra}[generic]
                     for name, generic in workload.named.items()}
            for name, (value, unit, n) in workload.extra_metrics().items():
                named[name] = {"value": value, "unit": unit, "n": n}
            named["setup_s"] = e2e["setup_s"]
            named["peak_rss_mb"] = e2e["peak_rss_mb"]
            named["error_rate"] = {"value": m["failed"] / m["attempted"],
                                   "unit": "ratio", "n": m["attempted"]}
            record["named"] = named
            print_metrics("end-to-end (bounded in BENCHMARK.json):", e2e)
            print_metrics("also reported (not bounded):", extra)
            print_metrics(f"{args.workload} metrics:", named)
            tail = runner.stats.tail_percentile(e2e["op_ms_p50"]["n"])
            print(f"  (with n={e2e['op_ms_p50']['n']}, the highest percentile with "
                  f"at least {runner.stats.MIN_BEYOND} samples beyond it is "
                  f"{'p%g' % tail if tail else 'none'})")
    for f in record["failures"]:
        print(f"FAILED: {f}")
    out_dir = Path(args.out) if args.out else OUT / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


def run_all(args, seconds: float) -> int:
    """Each workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        print()
        code = code or proc.returncode
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return code or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    # numpy reads these when it loads, so they are set before anything imports it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "tracersep" / "__init__.py").is_file():
        print(f"perfbench: no tracersep sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else bench_config()["run_seconds"]
    if args.workload == "all":
        return run_all(args, seconds)
    return run_one(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
