#!/usr/bin/env python3
"""Benchmark of pcgl: three exact-computation workloads, checked by oracles.

    python3 perfbench/run.py --workload enum-3x3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                     # every workload, one after another

Run it from the root of a checkout; it imports `pcgl` from `src/` there.
The workloads, the metric names and units and the run length are those of
BENCHMARK.json.  `--seconds` must equal its `run_seconds`: the length of a
run is fixed by each workload's round count, so it is the same on every
commit.

A run is a fixed sequence of fresh child interpreters, started one after
another.  Each child imports `pcgl` and makes one set-up; the first
`rounds` children of the workload then run one timed round each and check
its outputs, untimed.  So every set-up and every round is the first of its
kind in its process, as in a one-shot `pcgl` command, and nothing that a
process-global cache keeps from an earlier set-up or round can speed it up.
Each child is a single-threaded closed loop with one caller.  End-to-end
times are scaled by the machine-speed ruler of `ruler.py`.

With `--trace 0` the last line of standard output is the JSON result with
the end-to-end metrics.  With `--trace 1` one child runs an untraced round
and another the same round traced; the run prints the per-layer table
and the tracing overhead, checks that both gave the same outputs, and
writes the spans under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from ruler import REFERENCE_S, Ruler  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SMOKE, WORKLOADS, fixture_checks  # noqa: E402
from towers import FIXTURE_HPRIME_COUNTS  # noqa: E402

# Set-ups per run, each in a child of its own; `setup_s` is their median.
SETUPS = 5
# op_tail_ms.  Every round has at least 400 operations, so at least 20 lie
# beyond it.  A higher percentile lands, on enum-3x3, on the steep top of the
# latency distribution (a handful of d-searches from 3.4 s down to 0.13 s)
# and swings by 20 % between identical runs.
TAIL_PERCENTILE = 95
# A run, all its children included, ends within this many seconds.
RUN_TIMEOUT_S = 170
clock = time.perf_counter


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        print(f"error: no {path}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    return json.loads(path.read_text())


SPEC = load_spec()


def pcgl_sources() -> Path:
    """`src/` of the checkout; exit 2 when `src/pcgl` is not there."""
    src = ROOT / "src"
    if not (src / "pcgl" / "__init__.py").is_file():
        print(f"error: no pcgl sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    return src


def import_pcgl():
    """Import `pcgl` and `pcgl.cli` from the checkout's `src/`."""
    src = pcgl_sources()
    sys.path.insert(0, str(src))
    pcgl = importlib.import_module("pcgl")
    importlib.import_module("pcgl.cli")
    if src.resolve() not in Path(pcgl.__file__).resolve().parents:
        print(f"error: imported pcgl from {pcgl.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return pcgl


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def percentile(values, pct: float) -> float:
    """Percentile with the default (exclusive) method of statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=400)[round(pct * 4) - 1]


def digest(signature) -> str:
    return hashlib.sha256(json.dumps(signature, sort_keys=True).encode()).hexdigest()


# -- one child ---------------------------------------------------------------

def child(name: str, smoke: bool, mode: str, seed: int, k: int) -> dict:
    """What one child process measures.  `mode` is `setup` (set-up only),
    `round` (set-up, a ruler-scaled timed round and its checks) or `traced`
    (set-up and a traced round).  `k` is the set-up's index in the run; it
    is part of the draw, so no two set-ups of a run are the same."""
    wl = workload(name, smoke)
    ruler = Ruler()
    ruler.sample()
    ruler.sample()
    t0 = clock()
    pcgl = import_pcgl()
    state = wl.setup(pcgl, seed, k, OUT / "work")
    t1 = clock()
    ruler.sample()
    rec = {"setup_s_measured": t1 - t0, "failures": [], "attempted": 0}
    if mode == "setup":
        ruler.sample()
        rec["setup_s"] = (t1 - t0) * ruler.factors([(t0 + t1) / 2])[0]
        return rec
    gc.collect()
    ruler.sample()
    if mode == "traced":
        tracer = Tracer()
        tracer.install(pcgl)
        gc.collect()
        try:
            rnd = wl.run_round(pcgl, state, tracer)
        finally:
            tracer.uninstall()
    else:
        rnd = wl.run_round(pcgl, state, ruler=ruler)
    ruler.sample()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec["setup_s"] = (t1 - t0) * ruler.factors([(t0 + t1) / 2])[0]
    rec["round_s_measured"] = rnd.seconds
    rec["ops"] = wl.ops(rnd)
    rec["attempted"] = rec["ops"]
    rec["signature"] = digest(wl.signature(rnd))
    # The round scaled by the ruler samples around it (the first, cold one
    # left out), which both modes take at the same points, so the tracing
    # overhead compares like with like.  A traced round takes no samples
    # inside, so that no ruler time falls in a span.
    around = ruler.durations[1:4] + ruler.durations[-1:]
    rec["round_s_around"] = rnd.seconds * REFERENCE_S / statistics.median(around)
    if mode == "traced":
        stats = tracer.aggregate()
        names = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_ratio"]
        rec["metrics"] = tracer.per_layer(names, stats, rnd.seconds, rnd.stdout_bytes)
        rec["seconds"] = stats
        spans = OUT / f"spans-{'smoke-' if smoke else ''}{name}.tsv"
        tracer.write_spans(spans)
        rec["spans_file"] = str(spans.relative_to(ROOT))
        return rec
    latencies = [lat * f for lat, f in zip(rnd.latencies, ruler.factors(rnd.ends))]
    rec["latencies"] = latencies
    rec["round_s"] = sum(latencies)
    rec["peak_rss_mb"] = rss_mb
    rec["failures"] = wl.check(pcgl, state, rnd)
    if k == 0:
        rec["failures"] += fixture_checks(pcgl)
        rec["attempted"] += len(FIXTURE_HPRIME_COUNTS)
    rec["ruler_s"] = ruler.durations
    return rec


def spawn(name: str, mode: str, seed: int, k: int, smoke: bool, deadline: float) -> dict:
    """Run `child` in a fresh interpreter, stopped at time.monotonic() ==
    `deadline`, and return its record."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
            "--workload", name, "--seed", str(seed), "--index", str(k)]
    if smoke:
        argv.append("--smoke")
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"failures": [f"{mode} child {k}: the run took over {RUN_TIMEOUT_S} s"],
                "attempted": 1}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"{mode} child {k} exited with code {proc.returncode}"],
                "attempted": 1}
    return json.loads(lines[-1])


def workload(name: str, smoke: bool):
    return (SMOKE if smoke else WORKLOADS)[name]()


# -- one run -----------------------------------------------------------------

def metadata(seed, load_before, samples: dict) -> dict:
    return {
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in os.getloadavg()],
        "seed": seed,
        "samples": samples,
        "host_note": (f"shared {os.cpu_count()}-core machine, no CPU pinning and no "
                      "frequency control; wall times include other tenants' noise"),
        "loop": "closed loop, one caller, single-threaded, a fresh interpreter per set-up",
    }


def result(records, seed, load_before, metrics: dict, samples: dict, units: dict) -> dict:
    failures = [f for rec in records for f in rec["failures"]]
    attempted = sum(rec["attempted"] for rec in records)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "fail_share": len(failures) / attempted,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "meta": metadata(seed, load_before, samples),
        "failures": failures,
    }


def measure(name: str, seed: int, smoke: bool = False) -> dict:
    """Untraced run: the end-to-end metrics, in ruler-scaled time."""
    load_before = os.getloadavg()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    rounds = workload(name, smoke).rounds
    records = [spawn(name, "round" if k < rounds else "setup", seed, k, smoke, deadline)
               for k in range(max(rounds, SETUPS))]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    ran = [rec for rec in records[:rounds] if "round_s" in rec]
    setups = [rec["setup_s"] for rec in records if "setup_s" in rec]
    if len(ran) < rounds or len(setups) < len(records):
        return result(records, seed, load_before, {}, {}, {})
    latencies = [x for rec in ran for x in rec["latencies"]]
    metrics = {
        "run_s": statistics.median(rec["round_s"] for rec in ran),
        "ops_per_s": sum(rec["ops"] for rec in ran) / sum(rec["round_s"] for rec in ran),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_tail_ms": percentile(latencies, TAIL_PERCENTILE) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"] for rec in ran),
    }
    ruler_s = [d for rec in ran for d in rec["ruler_s"]]
    samples = {
        "rounds": len(ran),
        "round_s_scaled": [round(rec["round_s"], 4) for rec in ran],
        "round_s_measured": [round(rec["round_s_measured"], 4) for rec in ran],
        "op_latencies": len(latencies),
        "tail_percentile": TAIL_PERCENTILE,
        "setups": len(setups),
        "setup_s_scaled": [round(s, 4) for s in setups],
        "setup_s_measured": [round(rec["setup_s_measured"], 4) for rec in records],
        "ruler_samples_in_rounds": len(ruler_s),
        "ruler_s": {"reference": REFERENCE_S, "min": round(min(ruler_s), 5),
                    "median": round(statistics.median(ruler_s), 5),
                    "max": round(max(ruler_s), 5)},
    }
    return result(records, seed, load_before, metrics, samples, units)


def measure_traced(name: str, seed: int, smoke: bool = False) -> dict:
    """An untraced and a traced child on the same inputs: the per-layer metrics."""
    load_before = os.getloadavg()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    plain = spawn(name, "round", seed, 0, smoke, deadline)
    traced = spawn(name, "traced", seed, 0, smoke, deadline)
    records = [plain, traced]
    if "round_s" not in plain or "metrics" not in traced:
        return result(records, seed, load_before, {}, {}, {})
    if traced["signature"] != plain["signature"]:
        traced["failures"].append("traced outputs differ from the untraced round")
    traced["attempted"] += 1
    values = {**traced["metrics"],
              "trace.overhead_ratio": traced["round_s_around"] / plain["round_s_around"] - 1}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    samples = {"untraced_round_s": round(plain["round_s_measured"], 4),
               "traced_round_s": round(traced["round_s_measured"], 4),
               "spans_file": traced["spans_file"]}
    out = result(records, seed, load_before, values, samples, units)
    out["seconds"] = traced["seconds"]
    return out


def report(name: str, traced: bool, res: dict) -> None:
    """Human-readable lines, then the result as the last line."""
    print(f"workload {name}: {WORKLOADS[name].seed_note}")
    if res["metrics"]:
        print(f"  {res['meta']['loop']}; {res['meta']['host_note']}")
    for key, m in res["metrics"].items():
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_share':<44} {res['fail_share']:>14.6g} share "
          f"({res['failed']} of {res['attempted']})")
    for msg in res["failures"][:20]:
        print(f"  FAILED: {msg}")
    print(json.dumps({"meta": res["meta"]}))
    OUT.mkdir(parents=True, exist_ok=True)
    kind = "traced" if traced else "untraced"
    (OUT / f"result-{name}-{kind}.json").write_text(json.dumps(res, indent=1))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*names, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                   help="must equal run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "round", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds != SPEC["run_seconds"]:
        p.error(f"--seconds must be {SPEC['run_seconds']}, the run_seconds of BENCHMARK.json: "
                "the length of a run is fixed by the workloads' round counts")
    pcgl_sources()
    if args.child:
        rec = child(args.workload, args.smoke, args.child, args.seed, args.index)
        print(json.dumps(rec))
        return 0
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        if args.trace:
            res = measure_traced(name, args.seed)
        else:
            res = measure(name, args.seed)
        report(name, bool(args.trace), res)
        status = status or (0 if res["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
