"""Seeded benchmark for lowerprev: one workload a run, closed loop, one client.

    python3 perfbench/run.py --workload powerset-decide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics
untraced, with every time scaled to a reference speed (see README.md);
with ``--trace 1`` it runs the workload's first sessions three times in
fresh child processes (traced, untraced, traced again) and reports the
per-layer metrics of the first traced pass, the tracing overhead, and
any deterministic count that differs between the two traced passes.
Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import Checker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("powerset-decide", "gamble-extend", "lattice-scan", "cli-documents")
SETUP_REPEATS = 3
SETUP_REPEATS_BEFORE = 2
WALL_CAP_S = 120  # stop starting sessions after this long, whatever --seconds says
CHILD_TIMEOUT_S = 50

# Counts that must repeat exactly between two traced passes of one seed.
DETERMINISTIC = (
    "simplex.solve_calls", "simplex.cells", "simplex.rows_max", "simplex.bits_max",
    "simplex.infeasible_share", "gambles.closure_elements", "monotone.calls",
    "monotone.domain_max", "consistency.norm_cache_hit_ratio",
)
END_TO_END = {
    "queries_per_s": "1/s", "query_p50_ms": "ms", "query_p90_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name == "simplex.bits_max":
        return "bits"
    return "count"


def load_workload(name: str, workdir: Path, in_process: bool):
    """Import the library and the workload; returns (workload, import CPU
    seconds at the reference speed)."""
    before = harness.reference_seconds()
    start = harness.cpu_seconds()
    importlib.import_module("lowerprev")
    if name == "cli-documents":
        importlib.import_module("lowerprev.cli")
    import_s = harness.cpu_seconds() - start
    import_s *= harness.speed_scale(before, harness.reference_seconds())
    if name == "cli-documents":
        from clidocs import CliWorkload

        return CliWorkload(ROOT, workdir, in_process), import_s
    from workloads import LIBRARY_WORKLOADS

    return LIBRARY_WORKLOADS[name], import_s


def warm_up(workload, seed: int, rep: int, checker: Checker) -> list[harness.Record]:
    records: list[harness.Record] = []
    for case in workload.warmup_cases(seed, rep):
        harness.run_session(workload.chain(case, checker), checker, records)
    return records


def failures_by_reason(records) -> dict[str, int]:
    reasons: dict[str, int] = {}
    for r in records:
        if r.failure is not None:
            reasons[r.failure] = reasons.get(r.failure, 0) + 1
    return reasons


def unexpected(reasons: dict[str, int]) -> int:
    """Failures other than the recorded known ones."""
    return sum(n for reason, n in reasons.items() if not reason.startswith("known:"))


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    The reference loop then runs where the queries run, CLI children
    included, and no query moves to a CPU of another speed mid-way.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = harness.digest(
        (p.name, p.read_bytes()) for p in sorted((SRC / "lowerprev").rglob("*")) if p.is_file()
        and "__pycache__" not in p.parts
    )
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "pinned_to": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": commit, "src_digest": src, "seed": seed,
    }


def end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    workload, import_s = load_workload(name, workdir, in_process=False)
    checker = Checker()
    setups = []
    warm_records: list[harness.Record] = []

    def set_up(rep: int) -> list:
        before = harness.reference_seconds()
        start = harness.cpu_seconds()
        cases = [workload.case(seed, i) for i in range(len(workload.cycle))]
        warm_records.extend(warm_up(workload, seed, rep, checker))
        elapsed = harness.cpu_seconds() - start
        setups.append(elapsed * harness.speed_scale(before, harness.reference_seconds()))
        return cases

    # Set-up is repeated before and after the loop, so its median spans the run.
    for rep in range(SETUP_REPEATS_BEFORE):
        first = set_up(rep)
    inputs = harness.digest(first)
    later = (workload.case(seed, i) for i in itertools.count(len(first)))
    chains = (workload.chain(case, checker) for case in itertools.chain(first, later))
    records, ends = harness.run_loop(chains, checker, seconds, len(workload.cycle), WALL_CAP_S)
    for rep in range(SETUP_REPEATS_BEFORE, SETUP_REPEATS):
        set_up(rep)

    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if name == "cli-documents" else resource.RUSAGE_SELF
    )
    metrics = harness.summarize(records, ends)
    measured = harness.summarize(records, ends, scaled=False)
    speed = statistics.median(r.scale for r in records)
    metrics["setup_s"] = import_s + statistics.median(setups)
    metrics["peak_rss_mb"] = usage.ru_maxrss / 1024
    reasons = failures_by_reason(records)
    failed = sum(reasons.values())
    n = len(records)
    lines = [
        f"workload {name}",
        f"inputs digest {inputs} (sessions 0-{len(first) - 1}; session i depends on seed and i only)",
        f"queries_per_s {metrics['queries_per_s']:.4f} 1/s ({len(ends)} cycles of "
        f"{len(workload.cycle)} sessions; {n} queries)",
        f"query_p50_ms {metrics['query_p50_ms']:.3f} ms (n={n})",
        f"query_p90_ms {metrics['query_p90_ms']:.3f} ms (n={n}, "
        f"{harness.samples_beyond(n, harness.TAIL_PERCENTILE)} beyond)",
        f"setup_s {metrics['setup_s']:.4f} s (import {import_s:.4f} s + median of "
        f"{SETUP_REPEATS} set-ups: {', '.join(f'{s:.3f}' for s in setups)})",
        f"failed_ratio {failed / n:.4f} ratio ({failed}/{n})",
        f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB"
        + (" (largest child)" if name == "cli-documents" else ""),
        f"times above are CPU times at the reference speed; unscaled: queries_per_s "
        f"{measured['queries_per_s']:.4f}, query_p50_ms {measured['query_p50_ms']:.3f}, "
        f"query_p90_ms {measured['query_p90_ms']:.3f} (median scale {speed:.3f})",
    ]
    lines += [f"failure x{count}: {reason}" for reason, count in sorted(reasons.items())]
    warm_failed = failures_by_reason(warm_records)
    lines += [f"warm-up failure x{c}: {r}" for r, c in sorted(warm_failed.items())]
    return {
        "lines": lines,
        "correct": unexpected(reasons) == 0 and unexpected(warm_failed) == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END.items()},
    }


def trace_pass(name: str, seed: int, traced: bool, workdir: Path) -> dict:
    """One pass over the workload's first sessions, in this (fresh) process."""
    workload, _ = load_workload(name, workdir, in_process=True)
    checker = Checker()
    warm_up(workload, seed, 0, checker)
    from tracing import Tracer

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    cases = [workload.case(seed, i) for i in range(workload.trace_sessions)]
    generate_ms = (time.perf_counter() - start) * 1000
    before = norm_cache_counts()
    records: list[harness.Record] = []
    for case in cases:
        harness.run_session(workload.chain(case, checker), checker, records,
                            tracer.query if tracer is not None else None, calibrate=True)
    result = {
        "queries_per_s": len(records) / sum(r.scaled for r in records),
        "attempted": len(records),
        "failures": failures_by_reason(records),
    }
    if tracer is not None:
        tracer.uninstall()
        after = norm_cache_counts()
        hits = after[0] - before[0]
        lookups = hits + after[1] - before[1]
        metrics = tracer.layer_metrics()
        metrics["consistency.norm_cache_hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["sampling.generate_ms"] = generate_ms
        result["metrics"] = metrics
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    return result


def norm_cache_counts() -> tuple[int, int]:
    """Hits and misses of the norm cache, (0, 0) if the library has none."""
    from lowerprev import consistency

    cached = getattr(consistency, "_norm_analysis", None)
    if cached is None:
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def cli_import_ms(repeats: int = 3) -> float:
    """Median cumulative import time of lowerprev.cli, from ``-X importtime``."""
    env = harness.child_env(SRC)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lowerprev.cli"],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "lowerprev.cli":
                samples.append(int(parts[1]) / 1000)
    return statistics.median(samples)


def run_child_pass(name: str, seed: int, mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--pass", mode],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(name: str, seed: int) -> dict:
    # The untraced pass runs between the traced ones, so a drift in machine
    # speed cancels in the overhead ratio.
    first = run_child_pass(name, seed, "traced")
    plain = run_child_pass(name, seed, "plain")
    second = run_child_pass(name, seed, "traced")
    metrics = dict(first["metrics"])
    metrics["cli.import_ms"] = cli_import_ms() if name == "cli-documents" else 0.0
    traced_rate = (first["queries_per_s"] + second["queries_per_s"]) / 2
    metrics["trace.overhead_ratio"] = traced_rate / plain["queries_per_s"]
    mismatches = [k for k in DETERMINISTIC if first["metrics"][k] != second["metrics"][k]]
    reasons = first["failures"]
    lines = [f"workload {name} (traced pass over the first sessions; "
             f"{first['attempted']} queries, spans in {OUT.name}/)"]
    lines += [f"{k} {v} {layer_unit(k)}" for k, v in sorted(metrics.items())]
    lines += [f"failure x{c}: {r}" for r, c in sorted(reasons.items())]
    lines += [f"count mismatch between traced passes: {k} {first['metrics'][k]} != "
              f"{second['metrics'][k]}" for k in mismatches]
    if not mismatches:
        lines.append(f"deterministic counts repeat exactly: {', '.join(DETERMINISTIC)}")
    return {
        "lines": lines,
        "correct": unexpected(reasons) == 0 and not mismatches,
        "attempted": first["attempted"],
        "failed": sum(reasons.values()),
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="pass_mode", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)  # internal: one pass in a child process
    args = parser.parse_args(argv)

    if not (SRC / "lowerprev" / "__init__.py").is_file():
        print(f"no lowerprev sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.pass_mode is not None:
            print(json.dumps(trace_pass(args.workload, args.seed, args.pass_mode == "traced", workdir)))
            return 0
        if args.trace:
            result = traced_run(args.workload, args.seed)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result.pop("lines"):
        print(line)
    print("environment " + json.dumps(environment(args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
