"""Layer tracing from outside the program.

Wrappers are installed around the public functions of each layer module
(and around numpy's LAPACK eigensolvers) for the duration of a traced pass,
then removed, so no source file of the program changes.  A function is
replaced in every ``mmsplab`` module namespace that holds it, which covers
names imported with ``from .linalg import rank``; methods are replaced on
their class.

Each call becomes a span: boundary name, start, end, parent span, phase
(0 = set-up, k = pass k) and item id.  Spans are appended to compact arrays
in memory and written out once, when the run ends.  A span's self time is
its duration minus the durations of its direct children; calls are strictly
nested because one client runs items back to back in one thread.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from math import comb
from time import perf_counter

import numpy as np

# (boundary, module, attribute path, size function or None).  The size
# function maps the call's arguments to the boundary's size counter.


def _ax_cells(ctx, a, b):
    return int(np.prod(np.broadcast_shapes(np.shape(a)[:-1], np.shape(b)[:-1])))


def _mat_cells(m, *_a, **_k):
    return m.rows * m.cols


def _minors_bound(m, *_a, **_k):
    return comb(m.rows, m.cols) if m.cols <= m.rows else 0


def _hist_cells(gr, fr, t):
    return t.q ** fr.shape[1] * t.q ** gr.shape[0]


def _dim2(amps, keep):
    kept = int(np.prod([amps.shape[k] for k in keep])) if len(keep) else 1
    return kept * kept


def _eig_dim(a, *_a, **_k):
    return np.shape(a)[-1]


TARGETS = [
    ("fields.ax_mul", "mmsplab.fields", "FieldCtx.ax_mul", _ax_cells),
    ("fields.inv", "mmsplab.fields", "FieldCtx.inv", None),
    ("linalg.rank", "mmsplab.linalg", "rank", _mat_cells),
    ("linalg.is_mds", "mmsplab.linalg", "is_mds", _minors_bound),
    ("linalg.rref", "mmsplab.linalg", "rref", None),
    ("linalg.solve", "mmsplab.linalg", "solve", None),
    ("linalg.nullspace", "mmsplab.linalg", "nullspace", None),
    ("linalg.dual_and_completion", "mmsplab.linalg", "dual_and_completion", None),
    ("accel.gf_share_hist", "mmsplab._accel", "gf_share_hist", _hist_cells),
    ("accel.gf_rank", "mmsplab._accel", "gf_rank", None),
    ("accel.gf_is_mds", "mmsplab._accel", "gf_is_mds", None),
    ("access.symplectify_structure", "mmsplab.access", "symplectify_structure", None),
    ("mmsp.is_mmsp", "mmsplab.mmsp", "is_mmsp", None),
    ("mmsp.classify", "mmsplab.mmsp", "classify", None),
    ("constructions.build_amt", "mmsplab.constructions", "build_amt", None),
    ("constructions.build_amx", "mmsplab.constructions", "build_amx", None),
    ("constructions.verify_amt", "mmsplab.constructions", "verify_amt", None),
    ("constructions.verify_amx", "mmsplab.constructions", "verify_amx", None),
    ("classical.css_audit", "mmsplab.classical", "css_audit", None),
    ("classical.spir_audit", "mmsplab.classical", "spir_audit", None),
    ("classical.css_run", "mmsplab.classical", "css_run", None),
    ("classical.spir_run", "mmsplab.classical", "spir_run", None),
    ("qstate.apply_weyl", "mmsplab.qstate", "apply_weyl", None),
    ("qstate.frame_for", "mmsplab.qstate", "frame_for", None),
    ("qstate.displaced_measurement_for", "mmsplab.qstate",
     "displaced_measurement_for", None),
    ("qstate.reduce_state", "mmsplab.qstate", "reduce_state", _dim2),
    ("qstate.probabilities", "mmsplab.qstate",
     "DisplacedMeasurement.probabilities", None),
    ("lapack.eigh", "numpy.linalg", "eigh", _eig_dim),
    ("lapack.eigvalsh", "numpy.linalg", "eigvalsh", _eig_dim),
    ("qprotocols.outcome_distribution", "mmsplab.qprotocols",
     "EaEngine.outcome_distribution", None),
    ("qprotocols.trace_distance", "mmsplab.qprotocols", "trace_distance", None),
    ("qprotocols.share_components", "mmsplab.qprotocols",
     "EaEngine.share_components", None),
    ("qprotocols.symp_track", "mmsplab.qprotocols", "symp_track", None),
    ("qprotocols.DispDecoder.decode", "mmsplab.qprotocols", "DispDecoder.decode", None),
    ("qprotocols.coset_rep", "mmsplab.qprotocols", "coset_rep", None),
    ("fixtures.make_pools", "mmsplab.fixtures", "make_pools", None),
    ("fixtures.mutate_negative", "mmsplab.fixtures", "mutate_negative", None),
    ("cli.main", "mmsplab.cli", "main", None),
]

# counted, never timed: sets yielded by the access-structure iterators
SUBSET_ITERATORS = ("accept_iter", "reject_iter")

# boundaries reported as <name>.calls and <name>.self_s; the two rank kinds
# come from one wrapper that looks at the field representation
TIMED = ["fields.ax_mul", "fields.inv", "linalg.rank.poly", "linalg.rank.tabled"] + [
    name for name, *_ in TARGETS
    if name not in ("fields.ax_mul", "fields.inv", "linalg.rank",
                    "constructions.verify_amt", "constructions.verify_amx")]

# boundaries that only set-up calls; reported as set-up totals
SETUP_LAYERS = ("fixtures.make_pools", "fixtures.mutate_negative")

SIZES = {
    "fields.ax_mul.cells": "fields.ax_mul",
    "linalg.rank.poly.cells": "linalg.rank.poly",
    "linalg.rank.tabled.cells": "linalg.rank.tabled",
    "linalg.is_mds.minors_bound": "linalg.is_mds",
    "accel.gf_share_hist.cells": "accel.gf_share_hist",
    "qstate.reduce_state.dim2": "qstate.reduce_state",
    "lapack.eigh.dim": "lapack.eigh",
    "lapack.eigvalsh.dim": "lapack.eigvalsh",
}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in TIMED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in SIZES]
    out += [("fields.tower_setup_s", "s"), ("access.subsets", "count"),
            ("constructions.retries", "count"),
            ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
            ("trace.overhead", "ratio")]
    return out


class Tracer:
    """Span store plus the patch set that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.phase = array("q")
        self.item = array("q")
        self.size = array("d")
        self._stack: list[int] = []
        self.cur_phase = 0
        self.cur_item = -1
        self.subsets: dict[int, int] = {}
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _call(self, nid: int, size: float, fn, args, kwargs):
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self.cur_phase)
        self.item.append(self.cur_item)
        self.size.append(size)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.start[idx] = t0
            self.end[idx] = t1
            self._stack.pop()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, name: str, fn, size_fn, method: bool):
        nid = self._name_id(name)
        call = self._call
        if name == "fields.ax_mul":
            def ax_mul(ctx, a, b):
                if ctx.kind != "poly":
                    return fn(ctx, a, b)
                return call(nid, _ax_cells(ctx, a, b), fn, (ctx, a, b), {})
            return ax_mul
        if name == "linalg.rank":
            poly, tabled = self._name_id("linalg.rank.poly"), self._name_id("linalg.rank.tabled")

            def rank(m):
                return call(poly if m.ctx.kind == "poly" else tabled,
                            _mat_cells(m), fn, (m,), {})
            return rank
        if size_fn is None:
            def plain(*args, **kwargs):
                return call(nid, 0.0, fn, args, kwargs)
            return plain
        skip = 1 if method else 0

        def sized(*args, **kwargs):
            return call(nid, size_fn(*args[skip:], **kwargs), fn, args, kwargs)
        return sized

    def _count_iter(self, fn):
        counts = self.subsets

        def it(structure):
            for s in fn(structure):
                counts[self.cur_phase] = counts.get(self.cur_phase, 0) + 1
                yield s
        return it

    def install(self) -> None:
        """Replace every target; undone by :meth:`remove`."""
        # import every target module first: a module imported while patches
        # are live would bind wrappers by name and keep them after remove()
        for _, modname, _, _ in TARGETS:
            importlib.import_module(modname)
        mods = [m for k, m in list(sys.modules.items())
                if (k == "mmsplab" or k.startswith("mmsplab.")) and m is not None]
        for name, modname, path, size_fn in TARGETS:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, size_fn, True), orig)
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(name, orig, size_fn, False)
            for holder in {id(m): m for m in mods + [mod]}.values():
                for attr, val in list(vars(holder).items()):
                    if val is orig:
                        self._set(holder, attr, wrapped, orig)
        access = importlib.import_module("mmsplab.access").AccessStructure
        for meth in SUBSET_ITERATORS:
            orig = access.__dict__[meth]
            self._set(access, meth, self._count_iter(orig), orig)

    def _set(self, holder, attr, new, orig):
        setattr(holder, attr, new)
        self._restore.append((holder, attr, orig))

    def remove(self) -> None:
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, passes: int, tower_setup_s: float) -> dict[str, float]:
        """Means over the traced passes; set-up totals for the set-up layers."""
        nid = np.frombuffer(self.nid, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        phase = np.frombuffer(self.phase, dtype=np.int64)
        size = np.frombuffer(self.size)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_t = dur - child
        scale = np.where(phase == 0, 0.0, 1.0 / max(passes, 1))
        out: dict[str, float] = {}
        for name in TIMED:
            sel = nid == self._ids[name] if name in self._ids else np.zeros(len(nid), bool)
            w = (phase == 0).astype(float) if name in SETUP_LAYERS else scale
            out[f"{name}.calls"] = float((w * sel).sum())
            out[f"{name}.self_s"] = float((w * self_t * sel).sum())
        for metric, name in SIZES.items():
            sel = nid == self._ids[name] if name in self._ids else np.zeros(len(nid), bool)
            out[metric] = float((scale * size * sel).sum())
        out["fields.tower_setup_s"] = float(tower_setup_s)
        out["access.subsets"] = float(
            sum(v for ph, v in self.subsets.items() if ph) / max(passes, 1))
        out["constructions.retries"] = self._retries(nid, parent, scale)
        return out

    def _retries(self, nid, parent, scale) -> float:
        """Verifications beyond the first inside each build call."""
        builds = [self._ids[n] for n in ("constructions.build_amt", "constructions.build_amx")
                  if n in self._ids]
        verifies = [self._ids[n] for n in ("constructions.verify_amt",
                                           "constructions.verify_amx") if n in self._ids]
        if not builds or not verifies:
            return 0.0
        is_build = np.isin(nid, builds)
        vpar = parent[np.isin(nid, verifies) & (parent >= 0)]
        vpar = vpar[is_build[vpar]]
        per_build = np.bincount(vpar, minlength=len(nid))
        extra = np.maximum(per_build - 1, 0)
        return float((extra * scale).sum())

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.nid, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            phase=np.frombuffer(self.phase, dtype=np.int64),
            item=np.frombuffer(self.item, dtype=np.int64), size=np.frombuffer(self.size))
