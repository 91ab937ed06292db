"""One repetition of a workload in a fresh interpreter, so hgw's caches start cold.

Usage (normally started by run.py, with ``src`` on PYTHONPATH):

    python3 hgwbench/rep.py --workload census42 --seed 1 [--spans PATH | --setup-only]

Set-up (imports plus input generation) ends at the monotonic time reported
as ``setup_done``; with ``--setup-only`` the repetition stops there. The timed
region runs every operation; outputs are checked against reference.json
after it. The last stdout line is one JSON object.

During the timed region a ``SpeedProbe`` times a fixed pure-Python chunk
every ``PROBE_PERIOD_S`` seconds, so the host's speed over the same seconds
is known (see run.py). Its time is taken out of ``wall_s`` and ``cpu_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import time
import traceback
from pathlib import Path

import numpy

import hgw
import workloads

HERE = Path(__file__).resolve().parent
PROBE_PERIOD_S = 0.04
PROBE_ITERATIONS = 4000  # about 1.2 ms per chunk, so the probe costs about 3%


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def probe_chunk(n: int = PROBE_ITERATIONS) -> int:
    """A fixed amount of interpreter work: dict stores, tuple builds, int ops."""
    table: dict[int, tuple[int, int]] = {}
    acc = 0
    for i in range(n):
        table[i & 1023] = (i, acc)
        acc += len(table) ^ i
    return acc


class SpeedProbe:
    """Runs ``probe_chunk`` from a SIGALRM handler every ``PROBE_PERIOD_S`` of
    wall time, between the workload's bytecodes, and sums the chunks' time."""

    def __init__(self) -> None:
        self.chunks = 0
        self.wall = 0.0
        self.cpu = 0.0

    def _tick(self, signum, frame) -> None:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        probe_chunk()
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - cpu0
        self.chunks += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def check(ops, outcomes, reference: dict) -> tuple[list[str], int]:
    """Compare each output with the reference; returns (failures, gap ops)."""
    failures: list[str] = []
    gaps = 0
    for op, (output, error) in zip(ops, outcomes):
        if error is not None:
            if workloads.is_gap(op, error):
                gaps += 1
            else:
                where = traceback.extract_tb(error.__traceback__)[-1]
                failures.append(f"{op.name}: {type(error).__name__}: {error} "
                                f"(at {Path(where.filename).name}:{where.lineno} in {where.name})")
            continue
        output = json.loads(json.dumps(output))
        if op.key in reference:
            if output != reference[op.key]:
                failures.append(f"{op.name}: output {output} != reference {reference[op.key]}")
        elif not (op.may_hit_gap and all(output.values())):
            failures.append(f"{op.name}: no reference output")
    return failures, gaps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spans", type=Path,
                      help="trace hgw's layers and write the spans to this file")
    mode.add_argument("--setup-only", action="store_true",
                      help="stop after set-up; only setup_done is reported")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    outcomes = []
    probe = SpeedProbe()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    probe.start()
    for op in ops:
        try:
            outcomes.append((op.run(), None))
        except Exception as exc:  # an op's failure is a result, not a crash
            outcomes.append((None, exc))
    probe.stop()
    wall = time.perf_counter() - t0 - probe.wall
    cpu = _cpu_seconds() - cpu0 - probe.cpu
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    failures, gaps = check(ops, outcomes, reference[args.workload])
    result = {
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_chunk_s": probe.wall / probe.chunks,
        "probe_chunks": probe.chunks,
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(ops),
        "failed": len(failures),
        "gap_ops": gaps,
        "failures": failures,
        "numpy": numpy.__version__,
        "hgw": hgw.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(args.spans, {"workload": args.workload, "seed": args.seed, "wall_s": wall})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
