"""loggate benchmark: three workloads through the pipeline's public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload train-default --seed 7 --seconds 15 --trace 0

Workloads (BENCHMARK.json says why each exists):

- train-default: `pipeline.train` on the `default` preset, 500 messages
  per label, two classifier epochs.
- diagnose-10x: a 20,000-message `default` corpus split 0.1/0.0/0.9. Set-up
  trains on the 2,000-message train split; each round reruns
  `pipeline.preprocess` into a fresh directory, then
  `pipeline.evaluate(run, "test")` over the 18,000 test messages.
- ablate-joint: `pipeline.run_ablation` on the `joint` preset, 500 messages
  per label, two classifier epochs.

The corpus is generated with `loggate.synth` during set-up. Its seed is
`--corpus-seed` if given, else the workload's pinned seed (7 for
train-default, 11 for ablate-joint), else `--seed` (default 7). The
program only reads the file.

Rounds repeat until `--seconds` have passed (at least one). With
`--trace 0` every workload reports the same end-to-end metrics: `round_s`
(the seconds of one round's timed calls: `pipeline.train`;
`pipeline.preprocess` plus `pipeline.evaluate`; `pipeline.run_ablation`)
and `macro_f1` (the test macro-F1 those calls produced; the `full` mode's
for ablate-joint) as medians over rounds, `setup_s` and `peak_rss_mb`.
Times are host-normalized seconds (bench_clock.py); the raw wall times of
every call, and the workload's own figures (ingest seconds, diagnosed
messages per second, the gate margin), are listed in the informational
line.
With `--trace 1` untraced and traced rounds alternate; the per-layer
metrics are per-round averages over the traced rounds in raw seconds,
the block timings come from one fixed batch, and `trace.overhead_s` is
the median traced round minus the median untraced round, both
host-normalized. The spans are written to
`.perfbench_traces/<workload>-seed<seed>.tsv`. Informational lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Pin the BLAS pools before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_traces"
WORKLOAD_NAMES = ("train-default", "diagnose-10x", "ablate-joint")
MAX_FAILURES_SHOWN = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed of workloads that do not pin one")
    parser.add_argument("--corpus-seed", type=int, default=None,
                        help="corpus seed for any workload, overriding the above")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus and one epoch; checks wiring, not speed")
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _rounds(seconds: float, rounds):
    """Yield round indices until `seconds` have passed; `rounds` is the minimum."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < rounds or time.perf_counter() < deadline:
        yield index
        index += 1


def run_untraced(workload, ops, setup_s: float, seconds: float) -> dict:
    from bench_workloads import END_TO_END

    for _ in _rounds(seconds, 1):
        workload.round(ops)
    ops.add("setup_s", setup_s)
    ops.add("peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    # A metric no round could sample (every call raised) is left out; the
    # run then reports failures and is not correct.
    return {name: _metric(statistics.median(ops.samples[name]), unit)
            for name, unit in END_TO_END.items() if ops.samples[name]}


def run_traced(workload, ops, seconds: float, work: Path, spans_path: Path,
               info: dict) -> dict:
    import bench_blocks
    from bench_trace import Tracer

    tracer = Tracer()
    walls = {False: [], True: []}
    # Alternate so both kinds see the same drift in machine load.
    for index in _rounds(seconds, 2):
        traced = index % 2 == 1
        if traced:
            with tracer.attached():
                seconds_taken = ops.clock.time(lambda: workload.round(ops))[0]
        else:
            seconds_taken = ops.clock.time(lambda: workload.round(ops))[0]
        walls[traced].append(seconds_taken)
    tracer.write_spans(spans_path)
    metrics, absent = tracer.metrics()
    try:
        metrics.update(bench_blocks.block_timings(work))
    except Exception as exc:  # a changed block interface: report, keep the run
        info["block_error"] = f"{type(exc).__name__}: {exc}"
        absent += bench_blocks.METRICS
    untraced, traced = (statistics.median(walls[k]) for k in (False, True))
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    info.update(absent=absent, spans=len(tracer.spans),
                spans_file=str(spans_path.relative_to(ROOT)),
                untraced_round_s=untraced, traced_round_s=traced,
                trace_overhead_share=(traced - untraced) / untraced)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loggate" / "__init__.py").is_file():
        print(f"error: loggate sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bench_clock import HostClock
    from bench_workloads import Operations, SPECS, make_workload

    spec = SPECS[args.workload]
    corpus_seed = args.corpus_seed
    if corpus_seed is None:
        corpus_seed = spec.corpus_seed if spec.corpus_seed is not None else args.seed
    info = {"workload": args.workload, "seed": args.seed, "corpus_seed": corpus_seed,
            "trace": args.trace, "smoke": args.smoke, "machine": machine_info(),
            "src_lines": src_lines()}
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    clock = HostClock()
    try:
        with clock:
            workload = make_workload(args.workload, work, corpus_seed, args.smoke,
                                     clock)
            setup_s = workload.setup()
            ops = Operations(clock)
            if args.trace:
                spans_path = TRACE_ROOT / f"{args.workload}-seed{args.seed}.tsv"
                metrics = run_traced(workload, ops, args.seconds, work, spans_path,
                                     info)
            else:
                metrics = run_untraced(workload, ops, setup_s, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    info.update(ops_total=ops.attempted, ops_failed=ops.failed,
                failures=ops.failures[:MAX_FAILURES_SHOWN],
                raw_wall_s=dict(ops.walls), samples=dict(ops.samples))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
