"""The benchmark's bindings into the program stay attached.

`perfbench/` traces public functions under the names callers look them
up by, and times each block through its public signature. A refactor
that renames or re-signs one of them would silently turn the matching
per-layer metrics absent; these checks fail instead. They only read
`perfbench/`.
"""

import sys
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
