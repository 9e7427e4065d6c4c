"""mmsplab benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` next to this directory, never from an
installed copy.  After set-up, the workload's item list runs in whole passes,
each item starting when the previous verdict is back, until ``--seconds`` of
item time is measured.  Every output is checked (untimed).  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end with ``--trace 0`` and per layer with ``--trace 1``.
Run records (environment, every item, failures by kind, spans) go to
``.bench_results/``.  See README.md for workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

BLAS_THREADS = 1          # at or below nproc; one client uses one core
SETUP_SAMPLES = 3         # set-ups per run: this process plus two children
CHILD_TIMEOUT_S = 170

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB")]

# traced runs alternate untraced (U) and traced (T) passes as U T T U, so
# warm-up effects fall on both sides of the overhead ratio
TRACE_PATTERN = (False, True, True, False)


class MissingProgram(Exception):
    pass


def pin_environment() -> None:
    """Fix BLAS threads and clear program settings; before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MMSPLAB_QUIET"] = "1"
    for var in ("MMSPLAB_TOWER_CAP", "MMSPLAB_PURE_NUMPY"):
        os.environ.pop(var, None)


def check_program() -> Path:
    pkg = SRC / "mmsplab"
    if not (pkg / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {pkg}")
    return pkg


def import_program():
    """Import mmsplab from this checkout's src/ or raise MissingProgram."""
    pkg = check_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mmsplab
    if Path(mmsplab.__file__).resolve().parent != pkg.resolve():
        raise MissingProgram(f"mmsplab imported from {mmsplab.__file__}, not {pkg}")
    return mmsplab


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment() -> dict:
    import importlib.util
    import platform

    import numpy as np
    from mmsplab import _accel

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmsplab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_pinned": BLAS_THREADS},
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "accel_backend": _accel.backend_name(),
        "caches": _cache_sizes(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# set-up, passes, metrics
# ---------------------------------------------------------------------------

def setup_workload(name: str, seed: int, tiny: bool, workdir: str):
    import workloads

    if name == "simulate":
        return workloads.setup_simulate(seed, tiny, workdir)
    return workloads.WORKLOADS[name](seed, tiny)


def _setup_samples(name: str, seed: int, tiny: bool, count: int) -> list[float]:
    """Set-up time of `count` fresh processes, one after the other."""
    out = []
    for _ in range(count):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def _run_item(item, errors):
    from mmsplab.errors import TooLarge

    try:
        return item.run(), None
    except TooLarge:
        return None, "size_guard"
    except Exception as exc:  # the benchmark keeps running and records the kind
        errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
        return None, type(exc).__name__


def _check(item, out, status):
    if status is not None:
        return status
    try:
        return "ok" if item.check(out) else "wrong_output"
    except Exception as exc:
        return f"check_{type(exc).__name__}"


def run_passes(items, seconds: float, tracer=None):
    """Whole passes over `items` until `seconds` of item time is measured.

    Returns (records, passes, errors): records are (pass, label, latency_s,
    status); passes are (item seconds, traced); errors are exception texts.  Checks run after each pass with the
    trace wrappers removed, so they are neither timed nor traced.
    """
    import workloads

    records, passes, errors = [], [], []
    measured = 0.0
    nitem = 0
    while True:
        traced = tracer is not None and TRACE_PATTERN[len(passes) % len(TRACE_PATTERN)]
        if traced:
            tracer.cur_phase = len(passes) + 1
            tracer.install()
        outs = []
        try:
            for item in items:
                workloads.clear_memos()
                if tracer is not None:
                    tracer.cur_item = nitem
                nitem += 1
                t0 = perf_counter()
                out, status = _run_item(item, errors)
                outs.append((item, out, status, perf_counter() - t0))
        finally:
            if traced:
                tracer.remove()
        wall = sum(o[3] for o in outs)
        for item, out, status, dt in outs:
            records.append((len(passes) + 1, item.label, dt, _check(item, out, status)))
        passes.append((wall, traced))
        measured += wall
        enough = len(passes) >= (len(TRACE_PATTERN) if tracer is not None else 1)
        if measured >= seconds and enough:
            return records, passes, errors


def nearest_rank(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many values lie beyond its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def failure_summary(records) -> dict:
    by_kind: dict[str, int] = {}
    for _, _, _, status in records:
        if status != "ok":
            by_kind[status] = by_kind.get(status, 0) + 1
    failed = sum(by_kind.values())
    return {"attempted": len(records), "failed": failed,
            "failed_frac": failed / len(records) if records else 0.0,
            "by_kind": by_kind}


def end_to_end(records, passes, setup_s, tail_pct) -> tuple[dict, dict]:
    lat = [dt if status == "ok" else math.inf for _, _, dt, status in records]
    tail, beyond = nearest_rank(lat, tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(w for w, _ in passes),
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"tail_percentile": tail_pct, "items_beyond_tail": beyond,
            "items": len(lat), "passes": len(passes), "setup_samples_s": setup_s}
    return metrics, info


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        setup_samples: int = SETUP_SAMPLES, inject=None) -> dict:
    """One benchmark run; returns the result line plus the run record."""
    check_program()
    samples = [] if trace else _setup_samples(name, seed, tiny, setup_samples - 1)
    t0 = perf_counter()
    import_program()
    import tracer as tracing

    tracer = tracing.Tracer() if trace else None
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS)
    try:
        if tracer is not None:
            tracer.install()
        try:
            wl = setup_workload(name, seed, tiny, workdir)
        finally:
            if tracer is not None:
                tracer.remove()
        samples.append(perf_counter() - t0)
        if inject is not None:
            inject(wl)
        records, passes, errors = run_passes(wl.items, seconds, tracer)
        defects = [] if trace else run_known_defects(wl.known_defects)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = failure_summary(records)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "tiny": tiny, "environment": environment(), "failures": failures,
              "errors": errors[:20],
              "items": [{"pass": p, "label": lb, "latency_s": dt, "status": st}
                        for p, lb, dt, st in records]}
    if trace:
        traced = [w for w, t in passes if t]
        untraced = [w for w, t in passes if not t]
        metrics = tracer.layer_metrics(len(traced), wl.tower_setup_s)
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"]
        units = dict(tracing.layer_metric_names())
        tracer.write(RESULTS / f"{name}-seed{seed}-spans.npz")
    else:
        metrics, info = end_to_end(records, passes, samples, wl.tail_pct)
        units = dict(END_TO_END)
        record["end_to_end"] = info
        record["known_defects"] = failure_summary(defects)
        record["known_defects"]["items"] = [{"label": lb, "status": st}
                                            for _, lb, _, st in defects]
    record["metrics"] = metrics
    with open(RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    result = {"correct": failures["failed"] == 0, "attempted": failures["attempted"],
              "failed": failures["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return {"result": result, "record": record}


def run_known_defects(items):
    """Known-wrong inputs, run once and untimed; a fix shows as status ok."""
    import workloads

    out = []
    for item in items:
        workloads.clear_memos()
        res, status = _run_item(item, [])
        out.append((0, item.label, 0.0, _check(item, res, status)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["construct", "audit-quantum", "verify-classical", "simulate"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_environment()
    try:
        if args.setup_only:
            t0 = perf_counter()
            import_program()
            RESULTS.mkdir(exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="setup-", dir=RESULTS)
            try:
                setup_workload(args.workload, args.seed, args.tiny, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup_s": perf_counter() - t0}))
            return 0
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    rec, res = out["record"], out["result"]
    env = rec["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} threads={BLAS_THREADS} "
          f"numba={'yes' if env['numba_installed'] else 'absent'} commit={env['commit']}")
    fl = rec["failures"]
    print(f"# items {fl['attempted']} failed {fl['failed']} "
          f"failed_frac {fl['failed_frac']:.4f} by kind {fl['by_kind']}")
    if "end_to_end" in rec:
        e2e = rec["end_to_end"]
        print(f"# passes {e2e['passes']}; item_tail_ms is p{e2e['tail_percentile']:g} "
              f"with {e2e['items_beyond_tail']} of {e2e['items']} items beyond it")
        kd = rec["known_defects"]
        if kd["attempted"]:
            print(f"# known defects (untimed): {kd['attempted']} attempted, "
                  f"{kd['failed']} failed, by kind {kd['by_kind']}")
    for k, v in res["metrics"].items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
