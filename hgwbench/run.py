"""hgw benchmark runner: runs one workload for a fixed time and prints its metrics.

Usage, from the root of a checkout:

    python3 hgwbench/run.py --workload census42 --seed 1 --seconds 30 --trace 0

Each repetition is a fresh interpreter (rep.py), started one at a time, so
hgw's module caches start cold as they do for a CLI user. Repetitions run
while the next one is expected to end within ``--seconds`` (at least one).
Without tracing, ``SETUP_PROBES`` interpreters that only set up precede each
repetition, so ``setup_s`` (a fraction of a second) is the median of several
samples spread over the run.
Children get PYTHONHASHSEED=0, so set iteration order, and with it the work
done, is the same in every repetition.

The host's speed drifts by a third and more over seconds to minutes, and CPU
time drifts with it. So each repetition also times a fixed pure-Python chunk
every 0.04 s while its workload runs (rep.SpeedProbe). ``ref_wall_s`` and
``ref_cpu_s`` scale the measured ``wall_s`` and ``cpu_s`` to a host on which
that chunk takes ``REF_CHUNK_S``: ``ref_wall_s = wall_s * REF_CHUNK_S /
mean chunk time``. The raw ``wall_s`` and ``cpu_s`` are printed too.

With ``--trace 0`` the result holds the median of each end-to-end metric
over the repetitions; with ``--trace 1`` every repetition is an untraced and
a traced interpreter, and the result holds the per-layer metrics of the
traced ones plus the tracing overhead. Human-readable lines come first; the
last stdout line is the JSON result. The exit code is not 0, with no
result, if a repetition cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".hgwbench_out"
RUN_LIMIT_S = 170.0  # every repetition must end by then
SETUP_PROBES = 2

# the probe chunk's time on the 2-vCPU Xeon VM the benchmark was built on, in its faster phases
REF_CHUNK_S = 0.0012

END_TO_END_UNITS = {"ref_wall_s": "s", "ref_cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
REP_METRICS = ("ref_wall_s", "ref_cpu_s", "peak_rss_mib")  # one value per full repetition
RAW_METRICS = ("wall_s", "cpu_s", "probe_chunk_s")  # printed and stamped, not gated


class RepError(RuntimeError):
    """A repetition could not run (as opposed to an op failing its check)."""


def run_rep(workload: str, seed: int, deadline: float, *options: str) -> dict:
    """One repetition in a fresh interpreter, with rep.py's extra ``options``."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
           *options]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RepError("no time left for a repetition")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RepError(f"repetition exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["setup_done"] - started
    if "wall_s" in rep:
        speed = REF_CHUNK_S / rep["probe_chunk_s"]
        rep["ref_wall_s"] = rep["wall_s"] * speed
        rep["ref_cpu_s"] = rep["cpu_s"] * speed
    return rep


def source_digest() -> str:
    """sha256 over hgw's source files, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # not a clone (e.g. an exported tree)
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(args, reps: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "hgw": reps[0]["hgw"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def median_layers(reps: list[dict]) -> dict[str, float]:
    names = reps[0]["layers"].keys()
    return {name: statistics.median(r["layers"][name] for r in reps) for name in names}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("census42", "enum24", "verify_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hgw" / "__init__.py").is_file():
        print(f"hgw sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    try:
        while True:
            for _ in range(0 if args.trace else SETUP_PROBES):
                probe = run_rep(args.workload, args.seed, deadline, "--setup-only")
                setups.append(probe["setup_s"])
            plain.append(run_rep(args.workload, args.seed, deadline))
            setups.append(plain[-1]["setup_s"])
            if args.trace:
                spans = OUT_DIR / f"spans_{args.workload}_seed{args.seed}_{len(traced)}.json"
                traced.append(run_rep(args.workload, args.seed, deadline, "--spans", str(spans)))
            elapsed = time.monotonic() - start
            # start another repetition only if it should end within --seconds
            if elapsed + elapsed / len(plain) > args.seconds:
                break
    except RepError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    gap_ops = sum(r["gap_ops"] for r in reps)
    for r in reps:
        for failure in r["failures"]:
            print(f"FAILED {failure}", file=sys.stderr)

    meta = stamp(args, reps)
    meta["repetitions"] = len(plain)
    meta["samples"] = {k: [r[k] for r in plain] for k in REP_METRICS + RAW_METRICS}
    meta["samples"]["setup_s"] = setups
    print("meta " + json.dumps(meta, sort_keys=True))

    e2e = {k: statistics.median(r[k] for r in plain) for k in REP_METRICS}
    e2e["setup_s"] = statistics.median(setups)
    raw = {k: statistics.median(r[k] for r in plain) for k in RAW_METRICS}
    print(f"workload {args.workload}: {len(plain)} repetitions, medians; "
          f"{attempted} ops attempted, {failed} failed, {gap_ops} hit the coverage gap")
    for name, value in e2e.items():
        print(f"  {name:<14} {value:12.4f} {END_TO_END_UNITS[name]}")
    for name, value in raw.items():
        print(f"  {name:<14} {value:12.6f} s (as measured, not scaled)")
    print(f"  {'error_rate':<14} {failed / attempted:12.4f} ratio (failed / attempted ops)")
    print(f"  {'gap_rate':<14} {gap_ops / attempted:12.4f} ratio (coverage-gap / attempted ops)")

    if args.trace:
        metrics = median_layers(traced)
        base = e2e["ref_wall_s"]
        traced_wall = statistics.median(r["ref_wall_s"] for r in traced)
        metrics["trace.untraced_ref_wall_s"] = base
        metrics["trace.overhead_ref_s"] = traced_wall - base
        metrics["trace.overhead_ratio"] = (traced_wall - base) / base
        metrics["coverage.gap_ops"] = statistics.median(r["gap_ops"] for r in plain)
        print(f"  tracing overhead {traced_wall - base:.3f} s = "
              f"{(traced_wall - base) / base:.2%} of untraced ref_wall_s {base:.3f} s")
        result_metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
