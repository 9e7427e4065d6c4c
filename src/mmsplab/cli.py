"""Command-line surface: verify matrices and bundles, construct span
programs, simulate protocols, run security audits, compute rates, and
cross-validate the two simulation backends.

Inputs are JSON files (bundle / access-structure schemas documented in the
README); every command emits a machine-readable JSON report on stdout plus
a human-readable summary on stderr.  Exit codes: 0 success, 1 failed
verification/audit, 2 malformed input, 3 size guard tripped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import numpy as np

from . import constructions as con
from . import fixtures as fx
from . import qprotocols as qp
from .access import (AccessStructure, make_explicit, structure_from_json,
                     symplectify_structure, validate)
from .classical import CssProtocol, SpirProtocol, css_audit, css_run, spir_audit
from .errors import (BadIndex, ClassMismatch, DimensionMismatch, IndexOutOfRange,
                     MmsplabError, NotQualified, OutOfRange, TooLarge)
from .linalg import VecGF
from .mmsp import MmspBundle, bundle_from_json, mmsp_failure, rate
from .qstate import _enum_vecs, check_dense

REPORT_SCHEMA = 1


def _emit(report: dict, code: int) -> int:
    report = {"schema": REPORT_SCHEMA, **report}
    try:
        print(json.dumps(report, indent=2, sort_keys=True, default=str), flush=True)
    except BrokenPipeError:
        # stdout closed early (`mmsplab fixtures | head`): exit 2 quietly, with
        # fd 1 on devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    if os.environ.get("MMSPLAB_QUIET") != "1":
        for line in report.get("summary", []):
            print(line, file=sys.stderr)
    return code


class _BadInput(Exception):
    """Carries the error of an input that cannot be read or used (exit 2)."""


def _int_list(text: str) -> list[int]:
    """A comma-separated list of integers (an argparse type)."""
    return [int(v) for v in text.split(",")]


def _load_inputs(args) -> tuple[MmspBundle, AccessStructure]:
    """The bundle and the access structure of a command (one accept set
    when --subset names it); the structure must be on the bundle's parties,
    with every set inside them, a SPIR command needs --files >= 1 and
    --k in 1..--files, and a QQ run needs an accept set to decode on."""
    try:
        with open(args.bundle) as fh:
            bundle = bundle_from_json(json.load(fh))
        with open(args.structure) as fh:
            fs = structure_from_json(json.load(fh))
    except TooLarge:
        raise
    except (OSError, KeyError, TypeError, ValueError, MmsplabError) as exc:
        raise _BadInput(exc) from exc
    if getattr(args, "subset", None):
        fs = make_explicit(fs.n, [args.subset], [[]])
    if fs.n != bundle.n:
        raise _BadInput(DimensionMismatch(
            f"structure on {fs.n} parties, bundle on {bundle.n}"))
    ground = frozenset(range(1, fs.n + 1))
    if fs.kind == "explicit" and not all(s <= ground for s in fs.accept_sets + fs.reject_sets):
        raise _BadInput(IndexOutOfRange(f"a set lies outside 1..{fs.n}"))
    if getattr(args, "protocol", "").endswith("spir"):
        if args.files < 1:
            raise _BadInput(BadIndex(f"--files {args.files} is below 1"))
        if not 1 <= getattr(args, "k", 1) <= args.files:
            raise _BadInput(BadIndex(f"--k {args.k} outside 1..{args.files}"))
    if (args.cmd == "simulate" and args.protocol == "qqss"
            and next(iter(fs.accept_iter()), None) is None):
        raise _BadInput(NotQualified("a qqss run needs an accept set"))
    return bundle, fs


def _entries(bundle: MmspBundle, vals: list[int], length: int, flag: str) -> list[int]:
    """vals, when it holds `length` entries that from_int reads back as
    themselves (0..q-1 on tabled fields, 0..p-1 on poly fields)."""
    ctx = bundle.ctx
    top = ctx.q if ctx.kind == "tabled" else ctx.p
    if len(vals) != length:
        raise _BadInput(DimensionMismatch(f"{flag} needs {length} entries, got {len(vals)}"))
    if not all(0 <= v < top for v in vals):
        raise _BadInput(OutOfRange(f"{flag} entries must lie in 0..{top - 1}"))
    return vals


def _target(bundle: MmspBundle, fs: AccessStructure) -> AccessStructure:
    """The structure the span-program predicates read for this bundle."""
    return fs if bundle.cls == "plain" else symplectify_structure(fs)


def cmd_verify(args) -> int:
    bundle, fs = _load_inputs(args)
    ok_struct, diags = validate(fs)
    failure = mmsp_failure(bundle.g_stack(), bundle.f, _target(bundle, fs))
    counterexample = None if failure is None else {"kind": failure[0],
                                                   "set": sorted(failure[1])}
    checks = [{"name": "structure-valid", "ok": ok_struct, "detail": diags},
              {"name": "mmsp", "ok": failure is None, "detail": counterexample}]
    ok = ok_struct and failure is None
    return _emit({
        "command": "verify",
        "checks": checks,
        "ok": ok,
        "summary": [f"{c['name']}: {'ok' if c['ok'] else 'FAIL'}" for c in checks],
    }, 0 if ok else 1)


def cmd_construct(args) -> int:
    if args.cls == "ea":
        y1 = args.y1 if args.y1 is not None else min(2 * args.t, args.n)
        bundle = con.construct_eammsp(args.r, args.t, args.n, y1, args.p)
    elif args.cls == "cq":
        bundle = con.construct_cqmmsp(args.r, args.t, args.n, args.p)
    else:
        bundle = con.construct_qqmmsp(args.r, args.t, args.n, args.p)
    payload = bundle.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return _emit({
        "command": "construct",
        "ok": True,
        "bundle": payload if not args.out else {"written": args.out},
        "verified": bundle.params.get("verified", []),
        "summary": [f"constructed {args.cls} ({args.r},{args.t},{args.n}) "
                    f"with {len(bundle.params.get('verified', []))} checks"],
    }, 0)


def cmd_rate(args) -> int:
    val = rate(args.kind, args.r, args.t, args.n)
    return _emit({
        "command": "rate", "kind": args.kind,
        "r": args.r, "t": args.t, "n": args.n,
        "rate": str(val),
        "summary": [f"rate {args.kind}({args.r},{args.t},{args.n}) = {val}"],
    }, 0)


def cmd_audit(args) -> int:
    bundle, fs = _load_inputs(args)
    proto = args.protocol
    if proto == "css":
        rep = css_audit(CssProtocol(g=bundle.g_stack(), f=bundle.f,
                                    access=_target(bundle, fs)))
    elif proto == "cspir":
        rep = spir_audit(SpirProtocol(g=bundle.g_stack(), f=bundle.f, nfiles=args.files,
                                      access=_target(bundle, fs)))
    elif proto == "qqss":
        rep = qp.audit_qqss(bundle, fs)
    elif proto.endswith("spir"):
        rep = qp.audit_spir(bundle, fs, nfiles=args.files, protocol=proto)
    else:
        rep = qp.audit_ss(bundle, fs, protocol=proto)
    payload = rep.to_json()
    ok = rep.ok and rep.secure
    return _emit({
        "command": "audit", "protocol": proto, "report": payload,
        "ok": ok,
        "summary": [f"{proto} audit: secure={payload['secure']} "
                    f"matches_predicate={rep.ok}"],
    }, 0 if ok else 1)


def cmd_simulate(args) -> int:
    bundle, fs = _load_inputs(args)
    proto, seed, backend = args.protocol, args.seed, args.backend
    if proto.endswith("spir"):
        files = _entries(bundle, args.files_data, bundle.x * args.files, "--files-data")
    elif proto != "qqss":
        m = VecGF.from_ints(bundle.ctx, _entries(bundle, args.message, bundle.x, "--message"))
    if proto == "css":
        tr = css_run(CssProtocol(g=bundle.g_stack(), f=bundle.f, access=_target(bundle, fs)),
                     m, seed)
    elif proto == "qqss":
        check_dense(bundle.ctx, bundle.n)  # before the q^x' x q^x' input
        d = bundle.ctx.q ** (bundle.x // 2)
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        tr, _ = qp.run_qqss(bundle, rho, seed, sorted(next(iter(fs.accept_iter()))))
    elif proto.endswith("spir"):
        tr = qp.run_spir(bundle, files, args.k, seed, fs, args.files, proto, backend)
    else:
        tr = qp.run_ss(bundle, m, seed, fs, proto, backend)
    digest = tr.digest()
    ok = proto != "qqss" or tr.outcome == "recovered"
    return _emit({
        "command": "simulate", "protocol": proto, "seed": seed,
        "transcript": {"steps": tr.steps, "outcome": tr.outcome, "digest": digest},
        "ok": ok,
        "summary": [f"{proto} run {'complete' if ok else 'did not recover its input'}; "
                    f"digest {digest[:16]}"],
    }, 0 if ok else 1)


def cmd_crosscheck(args) -> int:
    bundle, fs = _load_inputs(args)
    if bundle.cls == "plain":
        raise ClassMismatch("crosscheck needs an ea, cq or qq bundle, got plain")
    ctx, q = bundle.ctx, bundle.ctx.q
    engine = qp.EaEngine(g1=bundle.g1, g2=bundle.g2, f=bundle.f)
    decoders = [(sorted(a), qp.DispDecoder(bundle.g1, bundle.g2, bundle.f, sorted(a)))
                for a in fs.accept_iter()]
    mismatches = []
    total = 0
    for m in _enum_vecs(q, bundle.x):
        disps = engine.message_displacements(m)  # F m + G2 u2, u2 in _enum_vecs order
        comps = engine.share_components(disps)
        for sub, dec in decoders:
            dist = engine.coset_distribution(sub, comps, dec)
            for u2, x in zip(_enum_vecs(q, bundle.y2), disps):
                total += 1
                rep, _ = dec.track(VecGF(ctx, x))
                if bundle.y2 == 0 and abs(dist.get(rep, 0.0) - 1.0) > 1e-9:
                    mismatches.append({"m": m.tolist(), "set": sub})
                elif bundle.y2 and dist.get(rep, 0.0) <= 0:
                    mismatches.append({"m": m.tolist(), "u2": u2.tolist(), "set": sub})
    ok = not mismatches
    return _emit({
        "command": "crosscheck", "cases": total, "mismatches": mismatches,
        "ok": ok,
        "summary": [f"dense vs symplectic agreement on {total} cases: "
                    f"{'ok' if ok else 'MISMATCH'}"],
    }, 0 if ok else 1)


def cmd_fixtures(args) -> int:
    out = {}
    for ex in fx.all_examples():
        out[ex.name] = {
            "bundle": ex.bundle.to_json(),
            "access": ex.access.to_json(),
        }
        if ex.rate is not None:
            out[ex.name]["rate"] = str(ex.rate)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
    return _emit({
        "command": "fixtures",
        "fixtures": out if not args.out else {"written": args.out},
        "ok": True,
        "summary": [f"{len(out)} embedded fixtures emitted"],
    }, 0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mmsplab", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="verify a bundle against a structure")
    v.add_argument("bundle")
    v.add_argument("structure")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("construct", help="build a verified bundle")
    c.add_argument("cls", choices=["ea", "cq", "qq"])
    c.add_argument("r", type=int)
    c.add_argument("t", type=int)
    c.add_argument("n", type=int)
    c.add_argument("p", type=int, nargs="?", default=3)
    c.add_argument("--y1", type=int, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_construct)

    r = sub.add_parser("rate", help="closed-form protocol rate")
    r.add_argument("kind", choices=["css", "cqss", "qqss", "eass",
                                    "cqspir", "easpir"])
    r.add_argument("r", type=int)
    r.add_argument("t", type=int)
    r.add_argument("n", type=int)
    r.set_defaults(fn=cmd_rate)

    a = sub.add_parser("audit", help="exhaustive security audit")
    a.add_argument("protocol", choices=["css", "cspir", "feass", "eass",
                                        "cqss", "qqss", "easpir", "cqspir",
                                        "feaspir"])
    a.add_argument("bundle")
    a.add_argument("structure")
    a.add_argument("--files", type=int, default=2)
    a.set_defaults(fn=cmd_audit)

    s = sub.add_parser("simulate", help="run one protocol execution")
    s.add_argument("--protocol", required=True,
                   choices=["css", "cqss", "qqss", "feass", "eass",
                            "cqspir", "feaspir", "easpir"])
    s.add_argument("--bundle", required=True)
    s.add_argument("--structure", required=True)
    s.add_argument("--message", type=_int_list, default="0")
    s.add_argument("--files-data", dest="files_data", type=_int_list, default="0,0")
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--files", type=int, default=2)
    s.add_argument("--subset", type=_int_list, default=None)
    s.add_argument("--backend", choices=["dense", "symplectic"],
                   default="dense")
    s.add_argument("--seed", type=int, required=True)
    s.set_defaults(fn=cmd_simulate)

    x = sub.add_parser("crosscheck", help="dense vs symplectic agreement")
    x.add_argument("bundle")
    x.add_argument("structure")
    x.set_defaults(fn=cmd_crosscheck)

    f = sub.add_parser("fixtures", help="emit the embedded worked examples")
    f.add_argument("--out", default=None)
    f.set_defaults(fn=cmd_fixtures)

    return p


# Built once per process: argparse converts string defaults into each
# namespace and never changes the parser, so repeated main() calls share it.
PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command; every package error becomes a JSON report: inputs
    that cannot be read or used and outputs that cannot be written exit 2,
    a size guard 3, any other error 1.  May be called repeatedly in one
    process."""
    args = PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except _BadInput as exc:
        err, code = exc.args[0], 2
    except OSError as exc:  # an --out path that cannot be written
        err, code = exc, 2
    except TooLarge as exc:
        err, code = exc, 3
    except MmsplabError as exc:
        err, code = exc, 1
    error = f"{type(err).__name__}: {err}"
    return _emit({"command": args.cmd, "ok": False, "error": error,
                  "summary": [f"{args.cmd} failed: {error}"]}, code)


if __name__ == "__main__":
    sys.exit(main())
