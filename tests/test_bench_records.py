"""Every committed benchmark record BENCH_<n>.json at the repository root
holds what a speed claim needs: for each workload that BENCHMARK.json
declares, at least 3 runs of the parent and of the change, and their
median for each end-to-end metric; plus the core count, the numpy
version, the BLAS thread count, the seeds and the run length.  Every run
is correct with no failed item: a record with failed runs cannot back a
claim.

A record looks like

    {"parent": "<commit>", "command": "python3 perfbench/run.py ...",
     "seconds": 10, "seeds": [1, 2, 3], "nproc": 2, "numpy": "2.4.6",
     "blas_threads": 1,
     "workloads": {"construct": {"parent": {"runs": [{"seed": 1,
         "correct": true, "failed": 0, "setup_s": ..., ...}, ...],
         "median": {"setup_s": ..., ...}}, "change": {...}}, ...}}
"""

import json
import statistics
from numbers import Real
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_fields(path):
    rec = json.loads(path.read_text())
    assert isinstance(rec["nproc"], int) and rec["nproc"] >= 1
    assert isinstance(rec["numpy"], str) and rec["numpy"]
    assert isinstance(rec["blas_threads"], int) and rec["blas_threads"] >= 1
    assert isinstance(rec["seconds"], Real) and rec["seconds"] > 0
    seeds = rec["seeds"]
    assert len(seeds) >= 3 and all(isinstance(s, int) for s in seeds)
    assert set(WORKLOADS) <= set(rec["workloads"])
    for name in WORKLOADS:
        for side in ("parent", "change"):
            block = rec["workloads"][name][side]
            runs = block["runs"]
            assert len(runs) >= 3, (name, side)
            assert sorted(r["seed"] for r in runs) == sorted(seeds), (name, side)
            assert all(r["correct"] is True and r["failed"] == 0
                       for r in runs), (name, side)
            for metric in METRICS:
                values = [r[metric] for r in runs]
                assert all(isinstance(v, Real) for v in values), (name, side, metric)
                assert block["median"][metric] == pytest.approx(
                    statistics.median(values)), (name, side, metric)
