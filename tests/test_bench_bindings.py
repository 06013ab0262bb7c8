"""The benchmark's bindings into the program stay attached.

`perfbench/` traces public functions under the names callers look them
up by, and times each block through its public signature. A refactor
that renames or re-signs one of them would silently turn the matching
per-layer metrics absent; these checks fail instead. They only read
`perfbench/`; the smoke run writes under the git-ignored
`.perfbench_work/` and removes what it wrote.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import bench_blocks  # noqa: E402
import bench_trace  # noqa: E402


def test_every_traced_binding_attaches():
    assert bench_trace.Tracer().absent == set()


def test_block_timings_report_every_block_metric(tmp_path):
    timings = bench_blocks.block_timings(tmp_path, repeats=1)
    missing = [name for name in bench_blocks.METRICS if name not in timings]
    assert not missing


def test_smoke_run_emits_every_declared_metric(monkeypatch):
    # run.py pins the BLAS thread variables when imported; undo that for
    # the processes later tests start.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    import run
    import smoke

    run.WORK_ROOT.mkdir(exist_ok=True)
    # Under run.ROOT, which traced runs name their spans file relative to.
    traces = Path(tempfile.mkdtemp(prefix="smoke-traces-", dir=run.WORK_ROOT))
    monkeypatch.setattr(run, "TRACE_ROOT", traces)
    try:
        assert smoke.main() == 0
    finally:
        shutil.rmtree(traces, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
