"""The four benchmark workloads.

Each workload turns a seed into a fixed list of items.  An item is one call
into the program that ends in a verdict a user waits for (one bundle built,
one audit, one predicate sweep, one protocol run) plus an untimed check of
that verdict.  The item list has the same shapes for every seed: the seed
draws the inputs (matrices, messages, files, pools; for construct, whose
builders take no input, the order), while the shapes that set the cost stay
fixed, so different seeds measure the same amount of work.

Sizes are chosen so that no operation fails on a correct program, with one
exception kept on purpose: ``simulate`` also probes, untimed, the inputs on
which the program is known to be wrong, and reports them item by item.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from itertools import combinations
from time import perf_counter
from typing import Callable

import numpy as np

from mmsplab import classical as cl
from mmsplab import cli
from mmsplab import constructions as con
from mmsplab import fields
from mmsplab import fixtures as fx
from mmsplab import mmsp
from mmsplab import qprotocols as qp
from mmsplab import qstate as qs
from mmsplab.access import make_threshold, symplectify_structure
from mmsplab.linalg import MatGF, VecGF

# Per-input memo caches of the program.  A user's CLI call starts in a fresh
# process with these empty, so they are emptied before every item; field
# contexts and their tower data are set-up and stay warm.
MEMO_CACHES = ((con, "_AMT_CACHE"), (con, "_AMX_CACHE"), (qs, "_FRAMES"))

# Largest share-histogram array (int64 cells) a classical item may allocate:
# 8 MiB, small next to the process, so peak memory does not hinge on which
# seeded items reach the large histograms.
HIST_CELL_LIMIT = 1024 * 1024


def clear_memos() -> None:
    for mod, name in MEMO_CACHES:
        cache = getattr(mod, name, None)
        if cache is not None:
            cache.clear()


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    items: list[Item]
    tail_pct: float
    tower_setup_s: float = 0.0
    known_defects: list[Item] = field(default_factory=list)


# ---------------------------------------------------------------------------
# construct: theorem-level builders over poly tower fields
# ---------------------------------------------------------------------------

def _construct_tuples(tiny: bool) -> list[tuple]:
    """Every admissible tuple at n = 3 plus fixed picks at n = 4 and n = 5.

    The picks keep a pass near 6 s while keeping the degree-512 field
    (cq 3 2 4 builds over GF(3^512)) and tuples at n = 4 and 5.  Tuples at
    n <= 2 and qqmds with r = n do almost no work; left in, their few-ms
    latencies would put the median on the noisiest items.  The tiny
    self-test set is the n = 2 tuples.
    """
    ns = (2,) if tiny else (3,)
    out = []
    for n in ns:
        for r in range(1, n + 1):
            for t in range(1, r):
                out.append(("ea", r, t, n))
                if 2 * r > n:
                    out.append(("cq", r, t, n))
                if 2 * r >= n + 1:
                    out.append(("qq", r, t, n))
        out += [("qqmds", r, n) for r in range(1, n) if 2 * r > n]
    if not tiny:
        out += [("cq", 3, 2, 4), ("qq", 3, 1, 4), ("qqmds", 3, 4),
                ("qq", 3, 2, 5), ("qqmds", 4, 5)]
    return out


def _construct_item(spec) -> Item:
    label = " ".join(str(v) for v in spec)
    if spec[0] == "qqmds":
        _, r, n = spec
        return Item(label, lambda: con.construct_qqmds(r, n),
                    lambda out: bool(mmsp.is_qqmds(*out)))
    cls, r, t, n = spec
    build = {"ea": lambda: con.construct_eammsp(r, t, n, min(2 * t, n)),
             "cq": lambda: con.construct_cqmmsp(r, t, n),
             "qq": lambda: con.construct_qqmmsp(r, t, n)}[cls]
    return Item(label, build, lambda b: bool(mmsp.classify(b, r, t, n).ok))


def setup_construct(seed: int, tiny: bool) -> Workload:
    t0 = perf_counter()
    depth_cap = 5 if tiny else con.DEPTH_CAP
    for depth in range(1, depth_cap + 1):
        ctx = fields.tower_build(3, depth)
        for j in range(1, depth + 1):
            ctx.level_gen(j)
            ctx.pick_fresh(j, 1)
        ctx.trace(ctx.one)  # builds the field's lazy trace form
    tower_s = perf_counter() - t0
    specs = _construct_tuples(tiny)
    order = np.random.default_rng(seed).permutation(len(specs))  # the builders take no input
    items = [_construct_item(specs[i]) for i in order]
    return Workload(items=items, tail_pct=66.0, tower_setup_s=tower_s)


# ---------------------------------------------------------------------------
# audit-quantum: exhaustive audits against the dense oracle
# ---------------------------------------------------------------------------

# (protocol, pool kind, n, preferred (r, t, y1, y2, x) signatures, positives,
# with negatives).  Audit cost follows the signature, so each slot takes its
# positives round-robin over fixed signatures; make_pools offers them for
# nearly every seed, and the next matching bundle stands in.  The n = 3 SS
# slots audit positives only: a negative stops at its first failing check,
# so its cost moves with the seed and would move the tail percentile.
AUDIT_SLOTS = [
    ("eass", "ea", 2, [(2, 1, 2, 0, 1), (2, 1, 1, 1, 1), (2, 1, 2, 1, 1)], 4, True),
    ("cqss", "cq", 2, [(2, 1, 2, 0, 1), (2, 1, 2, 1, 1)], 4, True),
    ("easpir", "ea", 2, [(2, 1, 2, 0, 1), (2, 1, 1, 1, 1), (2, 1, 2, 1, 1)], 4, True),
    ("cqspir", "cq", 2, [(2, 1, 2, 0, 1), (2, 1, 2, 1, 1)], 4, True),
    ("qqss", "qq", 2, [(2, 1, 1, 1, 2)], 2, True),
    ("qqss", "qq", 3, [(3, 1, 2, 1, 2), (3, 1, 2, 0, 2), (2, 1, 2, 0, 2)], 4, True),
    ("eass", "ea", 3, [(3, 1, 2, 1, 1), (3, 1, 3, 1, 1), (3, 1, 3, 1, 2)], 2, False),
    ("cqss", "cq", 3, [(3, 1, 3, 1, 1), (3, 1, 3, 0, 1), (3, 1, 3, 1, 2)], 2, False),
]
AUDIT_POOL = 16


def _sig(bundle, fs) -> tuple:
    return (fs.r, fs.t, bundle.y1, bundle.y2, bundle.x)


def _picks(cands, prefs, count: int) -> list:
    """`count` distinct candidates, signatures taken round-robin from
    `prefs`; any other preferred signature, then any candidate, stands in."""
    out, used = [], set()

    def take(ok):
        for i, (bundle, fs) in enumerate(cands):
            if i not in used and ok(_sig(bundle, fs)):
                used.add(i)
                out.append((bundle, fs))
                return True
        return False

    for k in range(count):
        sig = prefs[k % len(prefs)]
        if not (take(lambda s: s == sig) or take(lambda s: s in prefs) or take(lambda s: True)):
            out.append(out[k % len(out)] if out else cands[0])
    return out


def _audit(protocol: str, bundle, fs):
    if protocol == "qqss":
        return qp.audit_qqss(bundle, fs)
    if protocol.endswith("spir"):
        return qp.audit_spir(bundle, fs, nfiles=2, protocol=protocol)
    return qp.audit_ss(bundle, fs, protocol=protocol)


def audit_item(label: str, protocol: str, bundle, fs, secure: bool,
               convert: bool = False) -> Item:
    """One audit; correct when it matches the classification and its
    security verdict is the one the input was drawn for."""
    def run():
        b = qp.convert_flow5(bundle, nfiles=2) if convert else bundle
        return _audit(protocol, b, fs)
    return Item(label, run,
                lambda rep: bool(rep.matches_classify) and rep.secure == secure)


def setup_audit_quantum(seed: int, tiny: bool) -> Workload:
    slots = [(p, k, n, prefs, 1, neg) for p, k, n, prefs, _, neg in AUDIT_SLOTS
             if n == 2] if tiny else AUDIT_SLOTS
    pools = {}
    for _, kind, n, *_ in slots:
        if (kind, n) not in pools:
            pools[kind, n] = fx.make_pools(kind, AUDIT_POOL, seed=seed * 100 + n,
                                           n_values=(n,))
    items = []
    for i, (protocol, kind, n, prefs, count, with_neg) in enumerate(slots):
        pos, neg = pools[kind, n]
        for j, (bundle, fs) in enumerate(_picks(pos, prefs, count)):
            tag = f"{protocol} n={n} sig={_sig(bundle, fs)} #{j}"
            items.append(audit_item(f"{tag} pos", protocol, bundle, fs, True))
            if not with_neg:
                continue
            # mutate_negative finds no negative for these QQ bundles (none in
            # 30 tries), so QQ negatives come from the pool
            mut = (None if kind == "qq"
                   else fx.mutate_negative(bundle, fs, seed=seed * 1000 + 10 * i + j))
            neg_b, neg_fs = (mut, fs) if mut is not None else _picks(
                neg, [_sig(bundle, fs)], j + 1)[j]
            items.append(audit_item(f"{tag} neg", protocol, neg_b, neg_fs, False))
    ex1, ex2, ex3 = fx.example1(), fx.example2(), fx.example3(3)
    items += [audit_item("example1 eass", "eass", ex1.bundle, ex1.access, True),
              audit_item("example2 cqss", "cqss", ex2.bundle, ex2.access, True),
              audit_item("example3 eass", "eass", ex3.bundle, ex3.access, True)]
    if not tiny:
        qq1 = mmsp.make_bundle("qq", ex1.g1, None, ex1.f, n=3)
        ea2 = _picks(pools["ea", 2][0], [(2, 1, 2, 0, 1)], 1)[0]
        items += [audit_item("example1 qqss", "qqss", qq1, ex1.access, True),
                  audit_item("flow5 pool n=2", "eass", ea2[0], ea2[1], True,
                             convert=True)]
    return Workload(items=items, tail_pct=90.0)


# ---------------------------------------------------------------------------
# verify-classical: predicates and classical audits over tabled fields
# ---------------------------------------------------------------------------

# (p, r) of each field and the (n, r, t) threshold shapes run over it.  Every
# shape keeps the largest share histogram within HIST_CELL_LIMIT (checked at
# set-up), so no item allocates more than tens of MB.
CLASSICAL_FIELDS = {
    (2, 1): [(3, 2, 1), (4, 3, 1), (5, 3, 2), (6, 4, 2), (6, 3, 1)],
    (2, 2): [(3, 2, 1), (4, 2, 1), (5, 3, 1), (6, 3, 2)],
    (5, 1): [(3, 2, 1), (4, 3, 2), (5, 3, 2), (6, 2, 1)],
    (7, 1): [(3, 2, 1), (4, 2, 1), (5, 3, 2)],
    (2, 3): [(3, 2, 1), (4, 3, 2), (4, 2, 1)],
    (3, 2): [(3, 2, 1), (4, 3, 2), (3, 3, 2)],
}
CLASSICAL_REPEATS = 4


def hist_cells(q: int, n: int, r: int, t: int, nfiles: int = 2) -> int:
    """Largest int64 array the CSS and SPIR audits allocate for a shape:
    q^x * q^|subset| for the CSS histograms, q^(nfiles*x) * q^n for the SPIR
    server sweep, q^t * n for the randomness image."""
    x = r - t
    return max(q ** x * q ** n, q ** (nfiles * x) * q ** n, q ** t * n)


def _classical_item(label, g, f, fs, r, t) -> Item:
    n = fs.n

    def run():
        direct = mmsp.is_mmsp(g, f, fs)
        via = mmsp.is_threshold_mmsp_via_mds(g, f, r, t)
        agree = all(mmsp.a1_a2_agree(g, f, s) and mmsp.b1_b2_agree(g, f, s)
                    for k in range(n + 1) for s in combinations(range(1, n + 1), k))
        css = cl.css_audit(cl.CssProtocol(g=g, f=f, access=fs))
        spir = cl.spir_audit(cl.SpirProtocol(g=g, f=f, nfiles=2, access=fs))
        return direct, via, agree, css, spir

    def check(out):
        direct, via, agree, css, spir = out
        return (direct == via and agree and bool(css.matches_mmsp)
                and bool(spir.matches_mmsp))
    return Item(label, run, check)


def setup_verify_classical(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng(seed)
    items = []
    for (p, r_deg), shapes in CLASSICAL_FIELDS.items():
        ctx = fields.field_build(p, r_deg)
        for n, r, t in shapes[:1] if tiny else shapes:
            if hist_cells(ctx.q, n, r, t) > HIST_CELL_LIMIT:
                raise ValueError(f"shape {(ctx.q, n, r, t)} exceeds the histogram limit")
            fs = make_threshold(r, t, n)
            for rep in range(1 if tiny else CLASSICAL_REPEATS):
                g = MatGF(ctx, rng.integers(0, ctx.q, size=(n, t)).astype(np.int64))
                f = MatGF(ctx, rng.integers(0, ctx.q, size=(n, r - t)).astype(np.int64))
                items.append(_classical_item(f"GF({ctx.q}) n={n} r={r} t={t} #{rep}",
                                             g, f, fs, r, t))
    return Workload(items=items, tail_pct=97.0)


# ---------------------------------------------------------------------------
# simulate: one-shot protocol runs through the CLI
# ---------------------------------------------------------------------------

SPIR = ("easpir", "cqspir", "feaspir")
SYMPLECTIC_RUNS = 4       # seeded runs per (bundle, flavour) on the symplectic track


def _cli_simulate(args: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["simulate"] + args)
    report = json.loads(buf.getvalue())
    report["exit_code"] = code
    return report


def _random_mmsp(ctx, rng, n: int, r: int, t: int, y: int, x: int, symplectic: bool):
    """Seeded (G, F) that is an MMSP for the (r, t, n) threshold."""
    rows = 2 * n if symplectic else n
    fs = make_threshold(r, t, n)
    target = symplectify_structure(fs) if symplectic else fs
    for _ in range(2000):
        g = MatGF(ctx, rng.integers(0, ctx.q, size=(rows, y)).astype(np.int64))
        f = MatGF(ctx, rng.integers(0, ctx.q, size=(rows, x)).astype(np.int64))
        if mmsp.is_mmsp(g, f, target):
            return g, f, fs
    raise RuntimeError(f"no MMSP found over GF({ctx.q}) for {(n, r, t, y, x)}")


class _Simulator:
    """Writes bundle and structure JSON once, then builds CLI items."""

    def __init__(self, workdir: str, rng):
        self.dir = workdir
        self.rng = rng
        self.saved: dict = {}

    def save(self, bundle, fs) -> tuple[str, str]:
        key = (id(bundle), id(fs))
        if key not in self.saved:
            k = len(self.saved)
            paths = (os.path.join(self.dir, f"bundle{k}.json"),
                     os.path.join(self.dir, f"structure{k}.json"))
            for path, obj in zip(paths, (bundle.to_json(), fs.to_json())):
                with open(path, "w") as fh:
                    json.dump(obj, fh)
            self.saved[key] = (bundle, fs, paths)  # holding them keeps ids unique
        return self.saved[key][2]

    def item(self, label: str, protocol: str, bundle, fs,
             backend: str = "symplectic") -> Item:
        """A CLI simulate call whose every accept-set outcome must be the sent
        message (SS) or the k-th file (SPIR)."""
        bpath, spath = self.save(bundle, fs)
        ctx, x = bundle.ctx, bundle.x
        q = ctx.q if ctx.kind == "tabled" else ctx.p
        seed = int(self.rng.integers(0, 2**31))
        args = ["--protocol", protocol, "--bundle", bpath, "--structure", spath,
                "--seed", str(seed), "--backend", backend]
        if protocol in SPIR:
            files = [int(v) for v in self.rng.integers(0, q, size=2 * x)]
            k = int(self.rng.integers(1, 3))
            args += ["--files-data", ",".join(map(str, files)), "--k", str(k), "--files", "2"]
            want = files[(k - 1) * x: k * x]
        elif protocol == "qqss":
            want = None
        else:
            msg = [int(v) for v in self.rng.integers(0, q, size=x)]
            args += ["--message", ",".join(map(str, msg))]
            want = (VecGF.from_ints(ctx, msg).tolist() if protocol == "css" else msg)

        def check(rep):
            if rep["exit_code"] != 0:
                return False
            out = rep["transcript"]["outcome"]
            if protocol == "qqss":
                fid = [s["fidelity_with_input"] for s in rep["transcript"]["steps"]
                       if s["step"] == "decode"]
                return out == "recovered" and len(fid) == 1 and abs(fid[0] - 1) < 1e-9
            return bool(out) and all(v == want for v in out.values())
        return Item(f"{protocol}/{backend} {label}", lambda: _cli_simulate(args), check)


def _cspir_item(label, g, f, fs, rng) -> Item:
    """Classical SPIR has no CLI flavour; it runs through classical.spir_run."""
    ctx, x = f.ctx, f.cols
    files = [int(v) for v in rng.integers(0, ctx.q, size=2 * x)]
    k = int(rng.integers(1, 3))
    seed = int(rng.integers(0, 2**31))
    proto = cl.SpirProtocol(g=g, f=f, nfiles=2, access=fs)
    fv = VecGF.from_ints(ctx, files)
    want = VecGF.from_ints(ctx, files[(k - 1) * x: k * x]).tolist()
    return Item(f"cspir {label}", lambda: cl.spir_run(proto, fv, k, seed),
                lambda tr: bool(tr.outcome) and all(v == want for v in tr.outcome.values()))


def setup_simulate(seed: int, tiny: bool, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    sim = _Simulator(workdir, rng)
    pools = {}
    for kind, n in (("ea", 2), ("ea", 3), ("cq", 2), ("cq", 3), ("qq", 2)):
        pools[kind, n] = fx.make_pools(kind, 2, seed=seed * 100 + n, n_values=(n,))[0]
    gf5, gf9 = fields.field_build(5, 1), fields.field_build(3, 2)
    plain5 = _random_mmsp(gf5, rng, 3, 2, 1, 1, 1, symplectic=False)
    plain9 = _random_mmsp(gf9, rng, 3, 2, 1, 1, 1, symplectic=False)
    fe5 = _random_mmsp(gf5, rng, 2, 2, 1, 2, 1, symplectic=True)
    fe9 = _random_mmsp(gf9, rng, 2, 2, 1, 2, 1, symplectic=True)
    # dense GF(5) runs use n = 1: at n = 2 one dense run costs as much as a
    # hundred symplectic ones, and dense runs are to stay a minority
    fe5_dense = _random_mmsp(gf5, rng, 1, 1, 0, 1, 1, symplectic=True)

    def fe_bundle(g, f, fs):
        empty = MatGF.zeros(f.ctx, f.rows, 0)
        return mmsp.make_bundle("ea", empty, g, f, n=fs.n), fs

    def plain_bundle(g, f, fs):
        return mmsp.make_bundle("plain", g, None, f, n=fs.n), fs

    t0 = perf_counter()
    towers = {"ea 2 1 2": (con.construct_eammsp(2, 1, 2, 2), make_threshold(2, 1, 2)),
              "cq 2 1 3": (con.construct_cqmmsp(2, 1, 3), make_threshold(2, 1, 3)),
              "qq 2 1 3": (con.construct_qqmmsp(2, 1, 3), make_threshold(2, 1, 3))}
    tower_s = perf_counter() - t0

    runs = 1 if tiny else SYMPLECTIC_RUNS
    fe5b, fe5d, fe9b = fe_bundle(*fe5), fe_bundle(*fe5_dense), fe_bundle(*fe9)
    items = []
    for kind, proto_ss, proto_spir in (("ea", "eass", "easpir"), ("cq", "cqss", "cqspir")):
        for n in (2, 3):
            for i, (b, fs) in enumerate(pools[kind, n]):
                if tiny and (n == 3 or i):
                    continue
                for proto in (proto_ss, proto_spir):
                    items += [sim.item(f"F3 n={n} #{i}", proto, b, fs) for _ in range(runs)]
                    if n == 2 and i == 0:
                        items.append(sim.item(f"F3 n={n} #{i}", proto, b, fs, "dense"))
    items += [sim.item(f"F3 n=2 #{i}", "qqss", b, fs, "dense")
              for i, (b, fs) in enumerate(pools["qq", 2][:1 if tiny else 2])]
    for label, proto, (b, fs) in (("GF(5) n=2", "feass", fe5b), ("GF(5) n=2", "feaspir", fe5b),
                                  ("GF(9) n=2", "feass", fe9b),
                                  ("F3 n=2 #0", "feaspir", pools["ea", 2][0]),
                                  ("GF(5) n=3", "css", plain_bundle(*plain5)),
                                  ("GF(9) n=3", "css", plain_bundle(*plain9))):
        items += [sim.item(label, proto, b, fs) for _ in range(runs)]
    items += [sim.item("GF(5) n=1", proto, *fe5d, backend="dense")
              for proto in ("feass", "feaspir")]
    for label, g, f, fs in (("GF(5) n=3", *plain5), ("GF(9) n=3", *plain9)):
        items += [_cspir_item(label, g, f, fs, rng) for _ in range(runs // 2 or 1)]

    # inputs on which the program is known to be wrong: run untimed and
    # reported item by item, so a fix shows as an item turning ok
    defects = [sim.item(f"GF(9) n=2 run {i}", "feaspir", *fe9b) for i in range(20)]
    defects += [sim.item("tower ea 2 1 2 GF(3^32)", proto, *towers["ea 2 1 2"])
                for proto in ("eass", "feass", "easpir")]
    defects += [sim.item("tower cq 2 1 3 GF(3^128)", proto, *towers["cq 2 1 3"])
                for proto in ("cqss", "css")]
    # CSS over a tower field draws its randomness as integers, not field
    # cells, and decodes wrongly for some seeds
    defects += [sim.item(f"tower {label} run {i}", "css", *towers[label])
                for label in ("ea 2 1 2", "qq 2 1 3") for i in range(5)]
    return Workload(items=items, tail_pct=99.0, tower_setup_s=tower_s,
                    known_defects=defects)


WORKLOADS = {
    "construct": setup_construct,
    "audit-quantum": setup_audit_quantum,
    "verify-classical": setup_verify_classical,
    "simulate": setup_simulate,
}
