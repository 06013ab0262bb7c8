"""Tiny-size smoke run of the benchmark: wiring, not speed or quality.

Runs every workload once untraced and once traced on a few messages per
label with one epoch, in this process, and asserts that every metric
BENCHMARK.json names is emitted with its unit on each workload. Quality
floors are expected to fail at this size, so `correct` is not asserted. Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

EXPECTED_KEYS = {"correct", "attempted", "failed", "metrics"}


def _result(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seconds", "0",
                         "--trace", str(trace), "--smoke"])
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == EXPECTED_KEYS, f"result keys {sorted(result)}"
    assert result["attempted"] >= 1, f"{workload}: no operation attempted"
    return result["metrics"]


def _assert_emitted(where: str, emitted: dict, expected: dict) -> None:
    missing = sorted(set(expected) - set(emitted))
    assert not missing, f"{where}: metrics not emitted: {missing}"
    wrong = {n: emitted[n]["unit"] for n in expected
             if emitted[n]["unit"] != expected[n]}
    assert not wrong, f"{where}: wrong units {wrong}"


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOAD_NAMES)

    sys.path.insert(0, str(run.SRC))
    from bench_workloads import END_TO_END

    assert END_TO_END == end_to_end, \
        f"reported {END_TO_END}, declared {end_to_end}"
    for name in run.WORKLOAD_NAMES:
        _assert_emitted(f"{name} trace 0", _result(name, 0), end_to_end)
        _assert_emitted(f"{name} trace 1", _result(name, 1), per_layer)
        print(f"{name}: {len(end_to_end)} end-to-end and {len(per_layer)} per-layer "
              f"metrics emitted with their units")
    return 0


if __name__ == "__main__":
    sys.exit(main())
