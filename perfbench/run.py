"""Benchmark runner for the chaincodes package.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Every time is CPU time of this process (time.process_time): the
workloads are single-threaded and CPU-bound and do no I/O, so CPU time is
what the wall clock would show on an unshared core, without the time a
shared virtual machine's CPU is taken away by its host.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones.  A traced run first runs the same
workload and seed untraced in a child interpreter, to measure the tracing
overhead, and writes its spans and aggregates under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Gate, build_ring  # noqa: E402

CLOCK = time.process_time
SETUP_REPEATS = 25
WALL_LIMIT = 1.3  # stop at this multiple of --seconds of wall time, whatever the CPU time
TAIL_BEYOND = 10
HELD_OUT_SEED = 9001
PROBE_METRIC = "probe.seed_failures.failed"

MODULES = ("chain", "fieldcodes", "ringcodes", "lifting", "enumeration", "oracle", "tables", "cli")


# ---------------------------------------------------------------------------
# set-up: imports plus ring construction, repeated in fresh module objects
# ---------------------------------------------------------------------------


def import_package() -> SimpleNamespace:
    for name in [m for m in sys.modules if m == "chaincodes" or m.startswith("chaincodes.")]:
        del sys.modules[name]
    importlib.import_module("chaincodes")
    return SimpleNamespace(**{m: importlib.import_module(f"chaincodes.{m}") for m in MODULES})


def set_up(workload_cls):
    """Median set-up time over SETUP_REPEATS; the last package import is kept."""
    times = []
    for _ in range(SETUP_REPEATS):
        # the previous repeat's modules are garbage; collecting them inside
        # the timed region moved single set-up times by a third
        gc.collect()
        started = CLOCK()
        pkg = import_package()
        specs = {label: build_ring(pkg, label) for label in workload_cls.rings}
        times.append(CLOCK() - started)
    gc.collect()
    return pkg, specs, statistics.median(times)


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------


class Meter:
    """Program time of the run: operations plus untimed-op program work."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.busy = 0.0

    def frame(self, name: str):
        return self.tracer.request(name) if self.tracer else nullcontext()

    @contextmanager
    def program(self, name: str):
        started = CLOCK()
        try:
            with self.frame(name):
                yield
        finally:
            self.busy += CLOCK() - started


def measure(workload, seconds: float, tracer) -> dict:
    meter = Meter(tracer)
    wall = time.perf_counter()
    gate = Gate()
    latencies = []
    failures = []
    attempted = items = 0
    stream = workload.stream(meter)
    while meter.busy < seconds and time.perf_counter() - wall < WALL_LIMIT * seconds:
        op = next(stream)
        attempted += 1
        started = CLOCK()
        try:
            with meter.frame("bench.op"):
                result = workload.execute(op)
        except Exception as exc:  # every failure is counted, never filtered
            meter.busy += CLOCK() - started
            failures.append(failure(workload, op, exc))
            continue
        elapsed = CLOCK() - started
        meter.busy += elapsed
        latencies.append(elapsed)
        items += workload.items(op, result)
        workload.check(op, result, gate)
    return {
        "wall": time.perf_counter() - wall,
        "busy": meter.busy,
        "attempted": attempted,
        "latencies": latencies,
        "failures": failures,
        "items": items,
        "gate": gate,
    }


def failure(workload, op, exc: Exception) -> dict:
    error = type(exc).__name__
    return {
        "query": op.key,
        "error": error,
        "message": str(exc)[:300],
        "known_at_seed": workload.known_failure(op, error),
    }


def probe_seed_failures(workload, gate) -> dict:
    """Run once, untimed and outside any traced operation, every query that
    failed at the snapshot's commit.  Each is either still a failure of the
    same class, or now answers and goes through the workload's gates."""
    ops = getattr(workload, "seed_failures", ())
    failures = []
    for op in ops:
        try:
            workload.check(op, workload.execute(op), gate)
        except Exception as exc:
            failures.append(failure(workload, op, exc))
    return {"attempted": len(ops), "failures": failures}


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 0.0, ordered[-1] if ordered else float("nan")
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def end_to_end(run: dict, setup_s: float) -> dict:
    ok = len(run["latencies"])
    _, tail_s = tail(run["latencies"])
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / run["busy"], "1/s"),
        "items_per_s": (run["items"] / run["busy"], "items/s"),
        "latency_p50_ms": (1000.0 * statistics.median(run["latencies"]), "ms"),
        "latency_tail_ms": (1000.0 * tail_s, "ms"),
        "success_ratio": (ok / run["attempted"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tr, pkg, workload, overhead: float) -> dict:
    st = tr.stats

    def calls(name):
        return st[name].calls

    def busy(name):
        return st[name].busy

    def count(name, key):
        return st[name].counts[key]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    sigma = "fieldcodes.sigma_doubly_even"
    m[f"{sigma}.calls"] = (calls(sigma), "count")
    m[f"{sigma}.busy_s"] = (busy(sigma), "s")
    m[f"{sigma}.cache_hits"] = (count(sigma, "cache_hits"), "count")
    m[f"{sigma}.cache_misses"] = (count(sigma, "cache_misses"), "count")
    for fn in ("count_so_type", "count_sd_type", "total_counts"):
        m[f"enumeration.{fn}.calls"] = (calls(f"enumeration.{fn}"), "count")
        m[f"enumeration.{fn}.busy_s"] = (busy(f"enumeration.{fn}"), "s")
    m["enumeration.self_s"] = (tr.layer_self["enumeration"], "s")
    m["cli.main.self_s"] = (tr.layer_self["cli"], "s")
    m["chain.ring_build.busy_s"] = (busy("chain.ring_build"), "s")
    bf = "oracle.brute_force_code_count"
    m[f"{bf}.calls"] = (calls(bf), "count")
    m[f"{bf}.busy_s"] = (busy(bf), "s")
    m["oracle.self_s"] = (tr.layer_self["oracle"], "s")
    candidates = getattr(workload, "candidates", 0)
    m["oracle.candidates"] = (candidates, "count")
    m["oracle.accept_ratio"] = (ratio(getattr(workload, "codes", 0), candidates), "ratio")
    for caller in ("oracle", "lifting"):
        so = f"ringcodes.is_self_orthogonal_ring.from_{caller}"
        m[f"{so}.calls"] = (calls(so), "count")
        m[f"{so}.busy_s"] = (busy(so), "s")
        m[f"{so}.true_ratio"] = (ratio(count(so, "true"), calls(so)), "ratio")
    for caller in ("oracle", "lifting"):
        sd = f"ringcodes.is_self_dual_ring.from_{caller}"
        m[f"{sd}.calls"] = (calls(sd), "count")
        m[f"{sd}.busy_s"] = (busy(sd), "s")
    m["ringcodes.code_signature.calls"] = (calls("ringcodes.code_signature"), "count")
    m["ringcodes.code_signature.busy_s"] = (busy("ringcodes.code_signature"), "s")
    for fn in ("enumerate_so_chains", "validate_chain", "base_lift", "lift_once",
               "construct_self_orthogonal"):
        name = f"lifting.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.yielded"] = (count(name, "yielded"), "count")
    m["lifting.validate_chain.rejected"] = (count("lifting.validate_chain", "rejected"), "count")
    m["lifting.self_s"] = (tr.layer_self["lifting"], "s")
    stage_codes = count("lifting.base_lift", "yielded") + count("lifting.lift_once", "yielded")
    m["lifting.accept_ratio"] = (
        ratio(stage_codes, calls("ringcodes.is_self_orthogonal_ring.from_lifting")), "ratio"
    )
    deep = "ringcodes.satisfies_deep_orthogonality"
    m[f"{deep}.calls"] = (calls(deep), "count")
    m[f"{deep}.busy_s"] = (busy(deep), "s")
    m["fieldcodes.enumerate_subspaces.busy_s"] = (busy("fieldcodes.enumerate_subspaces"), "s")
    for fn in ("to_u_adic", "from_u_adic"):
        info = getattr(pkg.chain, fn).cache_info()
        m[f"chain.{fn}.cache_hits"] = (info.hits, "count")
        m[f"chain.{fn}.cache_misses"] = (info.misses, "count")
        m[f"chain.{fn}.cache_size"] = (info.currsize, "count")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def print_failures(fails) -> None:
    classes = {}
    for f in fails:
        key = (f["error"], f["known_at_seed"])
        classes.setdefault(key, []).append(f["query"])
    for (error, known), queries in sorted(classes.items()):
        tag = "known at seed" if known else "NEW"
        print(f"  {error} x{len(queries)} ({tag}), e.g. {queries[0]}")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def package_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else a source digest."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        digest = hashlib.sha256()
        for path in sorted((SRC / "chaincodes").glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        return f"not a git checkout; src/chaincodes sha256 {digest.hexdigest()[:16]}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def print_facts(args) -> None:
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"cpu={cpu_model()!r}")
    print(f"package commit: {package_commit()}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} (held-out seed for checking claims: {HELD_OUT_SEED})")


def print_run(workload, run: dict) -> None:
    gate = run["gate"]
    fails = run["failures"]
    print(f"operations: attempted={run['attempted']} ok={len(run['latencies'])} "
          f"failed={len(fails)} failed_ratio={len(fails) / run['attempted']:.6f} "
          f"program_cpu_s={run['busy']:.3f} wall_s={run['wall']:.3f}")
    print(f"items: {run['items']} {workload.item_unit}")
    pct, _ = tail(run["latencies"])
    print(f"latency tail: p{pct:.3f} over {len(run['latencies'])} successful operations "
          f"({TAIL_BEYOND} samples beyond it)")
    print_failures(fails)
    probe = run["probe"]
    if probe["attempted"]:
        print(f"seed-failure probe (run once, untimed): attempted={probe['attempted']} "
              f"failed={len(probe['failures'])}")
        print_failures(probe["failures"])
    print(f"correctness gate: {gate.checked} checks, {len(gate.mismatches)} mismatches")
    for line in gate.mismatches[:10]:
        print(f"  MISMATCH {line}")
    if hasattr(workload, "units_checked"):
        print(f"lift units checked against total_counts: {workload.units_checked}")


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")


def write_out(name: str, doc) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)


def untraced_ops_per_s(args) -> float:
    """ops_per_s of the same workload and seed, untraced, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chaincodes" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print_facts(args)
    baseline = untraced_ops_per_s(args) if args.trace else None
    cls = WORKLOADS[args.workload]
    pkg, specs, setup_s = set_up(cls)
    workload = cls(pkg, specs, random.Random(args.seed))
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr, pkg)
    run = measure(workload, args.seconds, tr)
    if not run["latencies"]:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    metrics = end_to_end(run, setup_s)
    if tr is not None:
        traced = metrics["ops_per_s"][0]
        metrics = per_layer(tr, pkg, workload, traced / baseline)
    # after the metrics: the probe must not move the counters they read
    run["probe"] = probe_seed_failures(workload, run["gate"])
    if tr is not None:
        metrics[PROBE_METRIC] = (len(run["probe"]["failures"]), "count")
    print_run(workload, run)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_out(f"failures-{stem}.json", {"stream": run["failures"],
                                        "seed_failure_probe": run["probe"]["failures"]})
    if tr is not None:
        path = OUT / f"trace-{stem}.json"
        tr.dump(path, {"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "untraced_ops_per_s": baseline,
                       "traced_ops_per_s": traced})
        print(f"ops_per_s traced {traced:.6g} vs untraced {baseline:.6g}; "
              f"trace written to {path.relative_to(ROOT)}")
    print_metrics(metrics)
    result = {
        "correct": not run["gate"].mismatches,
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
