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
from .access import structure_from_json, symplectify_structure, validate
from .classical import CssProtocol, SpirProtocol, css_audit, spir_audit
from .errors import MmsplabError, TooLarge
from .mmsp import bundle_from_json, mmsp_failure, rate

REPORT_SCHEMA = 1


def _emit(report: dict, code: int) -> int:
    report = {"schema": REPORT_SCHEMA, **report}
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    if os.environ.get("MMSPLAB_QUIET") != "1":
        for line in report.get("summary", []):
            print(line, file=sys.stderr)
    return code


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_verify(args) -> int:
    try:
        bundle = bundle_from_json(_load_json(args.bundle))
        fs = structure_from_json(_load_json(args.structure))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return _emit({"error": f"parse: {exc}", "summary": [f"parse error: {exc}"]}, 2)
    checks = []
    ok_struct, diags = validate(fs)
    checks.append({"name": "structure-valid", "ok": ok_struct, "detail": diags})
    target = fs if bundle.cls == "plain" else symplectify_structure(fs)
    try:
        failure = mmsp_failure(bundle.g_stack(), bundle.f, target)
    except TooLarge as exc:
        return _emit({"error": f"TooLarge: {exc}", "summary": [str(exc)]}, 3)
    verdict = failure is None
    counterexample = None if verdict else {"kind": failure[0], "set": sorted(failure[1])}
    checks.append({"name": "mmsp", "ok": verdict, "detail": counterexample})
    ok = ok_struct and verdict
    return _emit({
        "command": "verify",
        "checks": checks,
        "ok": ok,
        "summary": [f"{c['name']}: {'ok' if c['ok'] else 'FAIL'}" for c in checks],
    }, 0 if ok else 1)


def cmd_construct(args) -> int:
    try:
        if args.cls == "ea":
            y1 = args.y1 if args.y1 is not None else min(2 * args.t, args.n)
            bundle = con.construct_eammsp(args.r, args.t, args.n, y1, args.p)
        elif args.cls == "cq":
            bundle = con.construct_cqmmsp(args.r, args.t, args.n, args.p)
        elif args.cls == "qq":
            bundle = con.construct_qqmmsp(args.r, args.t, args.n, args.p)
        else:
            return _emit({"error": f"unknown class {args.cls}"}, 2)
    except MmsplabError as exc:
        return _emit({"command": "construct", "ok": False,
                      "error": f"{type(exc).__name__}: {exc}",
                      "summary": [f"construction failed: {exc}"]}, 1)
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
    try:
        val = rate(args.kind, args.r, args.t, args.n)
    except MmsplabError as exc:
        return _emit({"error": str(exc), "summary": [str(exc)]}, 1)
    return _emit({
        "command": "rate", "kind": args.kind,
        "r": args.r, "t": args.t, "n": args.n,
        "rate": str(val),
        "summary": [f"rate {args.kind}({args.r},{args.t},{args.n}) = {val}"],
    }, 0)


def cmd_audit(args) -> int:
    try:
        bundle = bundle_from_json(_load_json(args.bundle))
        fs = structure_from_json(_load_json(args.structure))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return _emit({"error": f"parse: {exc}"}, 2)
    try:
        if args.protocol == "css":
            rep = css_audit(CssProtocol(g=bundle.g_stack(), f=bundle.f,
                                        access=fs if bundle.cls == "plain"
                                        else symplectify_structure(fs)))
            payload = rep.to_json()
            ok = rep.matches_mmsp and rep.secure
        elif args.protocol == "cspir":
            rep = spir_audit(SpirProtocol(
                g=bundle.g_stack(), f=bundle.f, nfiles=args.files,
                access=fs if bundle.cls == "plain"
                else symplectify_structure(fs)))
            payload = rep.to_json()
            ok = rep.matches_mmsp and rep.secure
        elif args.protocol in ("eass", "cqss", "feass"):
            rep = qp.audit_ss(bundle, fs, protocol=args.protocol)
            payload = rep.to_json()
            ok = rep.matches_classify and rep.secure
        elif args.protocol == "qqss":
            rep = qp.audit_qqss(bundle, fs)
            payload = rep.to_json()
            ok = rep.matches_classify and rep.secure
        elif args.protocol in ("easpir", "cqspir", "feaspir"):
            rep = qp.audit_spir(bundle, fs, nfiles=args.files,
                                protocol=args.protocol)
            payload = rep.to_json()
            ok = rep.matches_classify and rep.secure
        else:
            return _emit({"error": f"unknown protocol {args.protocol}"}, 2)
    except TooLarge as exc:
        return _emit({"error": f"TooLarge: {exc}", "summary": [str(exc)]}, 3)
    except MmsplabError as exc:
        return _emit({"error": f"{type(exc).__name__}: {exc}"}, 1)
    return _emit({
        "command": "audit", "protocol": args.protocol, "report": payload,
        "ok": ok,
        "summary": [f"{args.protocol} audit: secure={payload['secure']} "
                    f"matches_predicate={payload.get('matches_classify', payload.get('matches_mmsp'))}"],
    }, 0 if ok else 1)


def cmd_simulate(args) -> int:
    try:
        bundle = bundle_from_json(_load_json(args.bundle))
        fs = structure_from_json(_load_json(args.structure))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return _emit({"error": f"parse: {exc}"}, 2)
    ctx = bundle.ctx
    try:
        if args.subset:
            chosen = [int(v) for v in args.subset.split(",")]
            from .access import make_explicit
            fs = make_explicit(fs.n, [chosen], [[]])
        if args.protocol in ("feass", "eass", "cqss"):
            from .linalg import VecGF
            m = VecGF.from_ints(ctx, [int(v) for v in args.message.split(",")])
            if args.protocol == "feass":
                tr = qp.run_feass(bundle.g_stack(), bundle.f, m, args.seed, fs,
                                  backend=args.backend)
            elif args.protocol == "eass":
                tr = qp.run_eass(bundle, m, args.seed, fs, backend=args.backend)
            else:
                tr = qp.run_cqss(bundle, m, args.seed, fs, backend=args.backend)
        elif args.protocol in ("feaspir", "easpir", "cqspir"):
            files = np.array([int(v) for v in args.files_data.split(",")],
                             dtype=np.int64)
            runner = {"easpir": qp.run_easpir, "cqspir": qp.run_cqspir}.get(
                args.protocol)
            if runner is None:
                tr = qp.run_feaspir(bundle.g_stack(), bundle.f, files, args.k,
                                    args.seed, fs, args.files,
                                    backend=args.backend)
            else:
                tr = runner(bundle, files, args.k, args.seed, fs, args.files,
                            backend=args.backend)
        elif args.protocol == "css":
            from .classical import css_run
            from .linalg import VecGF
            target = fs if bundle.cls == "plain" else symplectify_structure(fs)
            m = VecGF.from_ints(ctx, [int(v) for v in args.message.split(",")])
            tr = css_run(CssProtocol(g=bundle.g_stack(), f=bundle.f,
                                     access=target), m, args.seed)
        elif args.protocol == "qqss":
            d = ctx.q ** (bundle.x // 2)
            rho = np.zeros((d, d), dtype=complex)
            rho[0, 0] = 1.0
            subset = sorted(next(iter(fs.accept_iter())))
            tr, rec = qp.run_qqss(bundle, rho, args.seed, subset)
        else:
            return _emit({"error": f"unknown protocol {args.protocol}"}, 2)
    except TooLarge as exc:
        return _emit({"error": f"TooLarge: {exc}"}, 3)
    except MmsplabError as exc:
        return _emit({"error": f"{type(exc).__name__}: {exc}"}, 1)
    return _emit({
        "command": "simulate", "protocol": args.protocol, "seed": args.seed,
        "transcript": {"steps": tr.steps, "outcome": tr.outcome,
                       "digest": tr.digest()},
        "ok": True,
        "summary": [f"{args.protocol} run complete; digest {tr.digest()[:16]}"],
    }, 0)


def cmd_crosscheck(args) -> int:
    try:
        bundle = bundle_from_json(_load_json(args.bundle))
        fs = structure_from_json(_load_json(args.structure))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        return _emit({"error": f"parse: {exc}"}, 2)
    try:
        engine = qp.EaEngine(g1=bundle.g1, g2=bundle.g2, f=bundle.f)
    except TooLarge as exc:
        return _emit({"error": f"TooLarge: {exc}"}, 3)
    q = bundle.ctx.q
    mismatches = []
    total = 0
    for mi in range(q**bundle.x):
        m = np.array([(mi // q**i) % q for i in range(bundle.x)],
                     dtype=np.int64)
        comps = engine.share_components(engine.message_displacements(m))
        for a in fs.accept_iter():
            dec = qp.DispDecoder(bundle.g1, bundle.g2, bundle.f, sorted(a))
            dist = engine.coset_distribution(sorted(a), comps, dec)
            for u2 in ([np.zeros(bundle.y2, dtype=np.int64)] if bundle.y2 == 0
                       else [np.array([(ui // q**i) % q
                                       for i in range(bundle.y2)], dtype=np.int64)
                             for ui in range(q**bundle.y2)]):
                total += 1
                rep, _ = qp.symp_track(bundle, m, u2, sorted(a))
                if bundle.y2 == 0 and abs(dist.get(rep, 0.0) - 1.0) > 1e-9:
                    mismatches.append({"m": m.tolist(), "set": sorted(a)})
                elif bundle.y2 and dist.get(rep, 0.0) <= 0:
                    mismatches.append({"m": m.tolist(), "u2": u2.tolist(),
                                       "set": sorted(a)})
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
    s.add_argument("--message", default="0")
    s.add_argument("--files-data", dest="files_data", default="0,0")
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--files", type=int, default=2)
    s.add_argument("--subset", default=None)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
