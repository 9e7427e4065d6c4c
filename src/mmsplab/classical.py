"""Executable linear CSS and CSPIR protocols with exhaustive security audits.

Audits enumerate the dealer/server randomness exhaustively (never sampling),
compare share and query distributions as exact multisets, and cross-check
every verdict against the span-program predicates.  Each sweep lists the
multisets of all its sets as sorted share codes with one call of the subset
kernel (_accel.gf_coset_codes), which enumerates G u once; two multisets are
equal iff their sorted codes are.  The quantum SPIR audit runs the same
server-secrecy sweep.  Feasibility is guarded by q^(x+y) <= 10^6 (and
q^(x*f+y) <= 10^6 for the SPIR server sweep), checked before any sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import _accel
from .access import AccessStructure
from .errors import (
    BadIndex,
    DimensionMismatch,
    NotQualified,
    TooLarge,
)
from .linalg import (
    MatGF,
    VecGF,
    restrict,
    subset_rows,
)
from .mmsp import SpanDecoder, is_mmsp, rejects_one

AUDIT_LIMIT = 10**6


@dataclass(frozen=True)
class CssProtocol:
    """Linear CSS: shares Z = F m + G u over the ground set [nbar]."""

    g: MatGF
    f: MatGF
    access: AccessStructure

    def __post_init__(self):
        if self.g.rows != self.f.rows:
            raise DimensionMismatch("G and F row counts differ")
        if self.access.n != self.g.rows:
            raise DimensionMismatch("access structure ground set != share count")

    @property
    def ctx(self):
        return self.f.ctx

    @property
    def nbar(self) -> int:
        return self.f.rows

    @property
    def x(self) -> int:
        return self.f.cols

    @property
    def y(self) -> int:
        return self.g.cols


@dataclass(frozen=True)
class SpirProtocol(CssProtocol):
    """Standard-form linear CSPIR with f files of x symbols each; the
    answers to a standard query are a CSS share of the target file."""

    nfiles: int
    # optional non-standard query override: per file index k, an explicit
    # nbar x (x * nfiles) query matrix (used by audits as a negative control)
    fixed_query: Optional[list[MatGF]] = None

    def __post_init__(self):
        super().__post_init__()
        shapes = [(self.nbar, self.x * self.nfiles)] * self.nfiles
        if self.fixed_query is not None and [(q.rows, q.cols) for q in self.fixed_query] != shapes:
            raise DimensionMismatch("fixed_query must be nfiles matrices of nbar x (x*nfiles)")


@dataclass
class Transcript:
    """Replayable protocol trace: same seed, same transcript."""

    protocol: str
    seed: int
    steps: list = field(default_factory=list)
    outcome: Optional[object] = None

    def log(self, name: str, **payload):
        self.steps.append({"step": name, **payload})

    def digest(self) -> str:
        blob = json.dumps(self.steps, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# CSS operations
# ---------------------------------------------------------------------------

def css_share(p: CssProtocol, m: VecGF, u: VecGF) -> VecGF:
    """Z = F m + G u."""
    if len(m) != p.x or len(u) != p.y:
        raise DimensionMismatch("message/randomness lengths")
    return (p.f @ m) + (p.g @ u)


def css_decode(p: CssProtocol, subset: Iterable[int], z: VecGF) -> Optional[VecGF]:
    """The unique m with z - P_A F m in Im(P_A G); None when not unique."""
    sub = sorted(set(int(s) for s in subset))
    if not p.access.is_accept(sub):
        raise NotQualified(f"{sub} is not a qualified set")
    dec = SpanDecoder(p.g, p.f, sub)
    if len(z) != len(sub):
        raise DimensionMismatch("restricted share length")
    return dec.decode_one(z.a)


def _codes(g: MatGF, f: MatGF, sets: list, query: bool = False):
    """Sorted codes[i] of s_i + G u over every u on each 1-based row set, in
    order, from one kernel call: s_i is F m for every message m, or with
    query=True one of the columns 0, F_1, ..., F_x of a standard query."""
    t = g.ctx.tables()
    if t is None:
        raise TooLarge("audits need a small tabled field")
    shifts = (np.concatenate([np.zeros((1, f.rows), dtype=np.int64), f.a.T]) if query
              else _accel.gf_span(f.a, t))
    return _accel.gf_coset_codes(g.a, shifts, [subset_rows(s, g.rows) for s in sets], t)


def _marginals_equal(g: MatGF, f: MatGF, sets: list) -> list[bool]:
    """For each 1-based row set, whether the restricted standard query
    columns have file-independent multisets over every u: column c of block j
    is F_c + G u under file j and G u otherwise, so each F column's multiset
    must be the zero column's."""
    return [bool((c[1:] == c[0]).all()) for c in _codes(g, f, sets, query=True)]


def _clash(codes: np.ndarray) -> Optional[tuple[int, int, int]]:
    """(code, m, m') for the smallest share code that two messages m < m'
    reach, m and m' the first two that do; None when no code is shared.
    Each message's shares form a coset of the image of G on the set, so two
    messages share a code iff their cosets, and so their smallest codes, are
    equal."""
    order = np.argsort(codes[:, 0], kind="stable")
    least = codes[order, 0]
    dup = np.flatnonzero(least[1:] == least[:-1])
    if dup.size == 0:
        return None
    i = dup[0]
    return int(least[i]), int(order[i]), int(order[i + 1])


@dataclass
class AuditReport:
    protocol: str
    correct: bool
    secret: bool
    matches_mmsp: bool
    details: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)

    @property
    def secure(self) -> bool:
        return self.correct and self.secret

    @property
    def ok(self) -> bool:
        return self.matches_mmsp

    def to_json(self) -> dict:
        return {
            "protocol": self.protocol,
            "correct": self.correct,
            "secret": self.secret,
            "secure": self.secure,
            "matches_mmsp": self.matches_mmsp,
            "details": self.details,
            "counterexamples": self.counterexamples,
        }


def css_audit(p: CssProtocol) -> AuditReport:
    """Exhaustive correctness + exact-multiset secrecy, cross-checked against
    the span-program verdict."""
    ctx = p.ctx
    if ctx.q ** (p.x + p.y) > AUDIT_LIMIT:
        raise TooLarge("audit needs q^(x+y) <= 1e6")
    details, cex = [], []
    accept, reject = ([sorted(s) for s in sets]
                      for sets in (p.access.accept_iter(), p.access.reject_iter()))
    codes = _codes(p.g, p.f, accept + reject)
    correct = True
    for a, c in zip(accept, codes):
        # correctness: no share code reachable from two different messages
        clash = _clash(c)
        details.append([f"correct@{a}", clash is None])
        if clash is not None:
            code, *ms = clash
            cex.append({"set": a, "kind": "correctness",
                        "messages": ms, "share_code": code})
            correct = False
    secret = True
    for b, c in zip(reject, codes):
        bad = np.flatnonzero((c != c[0]).any(axis=1))
        details.append([f"secret@{b}", bad.size == 0])
        if bad.size:
            cex.append({"set": b, "kind": "secrecy", "message": int(bad[0])})
            secret = False
    verdict = correct and secret
    mmsp_verdict = is_mmsp(p.g, p.f, p.access)
    return AuditReport(protocol="css", correct=correct, secret=secret,
                       matches_mmsp=(verdict == mmsp_verdict),
                       details=details, counterexamples=cex)


def css_run(p: CssProtocol, m: VecGF, seed: int) -> Transcript:
    """One seeded execution: share, then decode on every qualified set."""
    rng = np.random.default_rng(seed)
    tr = Transcript(protocol="css", seed=seed)
    u = VecGF(p.ctx, p.ctx.random_cells(rng, p.y)) if p.y else VecGF.zeros(p.ctx, 0)
    z = css_share(p, m, u)
    tr.log("share", message=m.tolist(), randomness=u.tolist(), shares=z.tolist())
    return _decode_and_log(p, z, tr)


def _decode_and_log(p: CssProtocol, z: VecGF, tr: Transcript) -> Transcript:
    """Decode the restriction of z on every qualified set; log and keep the
    outcomes."""
    outcomes = {}
    for a in p.access.accept_iter():
        dec = css_decode(p, a, restrict(z, a))
        outcomes[str(sorted(a))] = dec.tolist() if dec is not None else None
    tr.log("decode", outcomes=outcomes)
    tr.outcome = outcomes
    return tr


# ---------------------------------------------------------------------------
# CSPIR operations
# ---------------------------------------------------------------------------

def _file_index(p: SpirProtocol, k: int) -> int:
    if not 1 <= k <= p.nfiles:
        raise BadIndex(f"file index {k} outside 1..{p.nfiles}")
    return k


def spir_query(p: SpirProtocol, k: int, u_q: MatGF) -> MatGF:
    """Standard form Q^(k) = F E_k + G U_Q."""
    _file_index(p, k)
    if u_q.rows != p.y or u_q.cols != p.x * p.nfiles:
        raise DimensionMismatch("U_Q must be y x (x*nfiles)")
    gu, lo = (p.g @ u_q).a, (k - 1) * p.x
    return MatGF(p.ctx, np.concatenate(
        [gu[:, :lo], p.ctx.ax_add(gu[:, lo: lo + p.x], p.f.a), gu[:, lo + p.x:]], axis=1))


def spir_run(p: SpirProtocol, files: VecGF, k: int, seed: int) -> Transcript:
    """One seeded retrieval of file k, decoded on every qualified set."""
    rng = np.random.default_rng(seed)
    tr = Transcript(protocol="cspir", seed=seed)
    u_q = MatGF(p.ctx, p.ctx.random_cells(rng, p.y, p.x * p.nfiles))
    q = p.fixed_query[_file_index(p, k) - 1] if p.fixed_query else spir_query(p, k, u_q)
    u_s = VecGF(p.ctx, p.ctx.random_cells(rng, p.y)) if p.y else VecGF.zeros(p.ctx, 0)
    shared = p.g @ u_s
    answers = q @ files + shared
    tr.log("query", k=k, query_digest=hashlib.sha256(q.a.tobytes()).hexdigest())
    tr.log("answers", answers=answers.tolist())
    return _decode_and_log(p, answers, tr)


def _seeded_queries(p: SpirProtocol) -> list[MatGF]:
    """The standard queries Q^(1) .. Q^(f) under one seeded U_Q, not U_Q = 0:
    a server-secrecy sweep over them tests that G u absorbs G U_Q fv."""
    u_q = p.ctx.random_cells(np.random.default_rng(20241), p.y, p.x * p.nfiles)
    return [spir_query(p, k, MatGF(p.ctx, u_q)) for k in range(1, p.nfiles + 1)]


def _answers_secret(p: SpirProtocol, queries: list[MatGF]) -> list[bool]:
    """For each file k, whether the answers Q^(k) fv + G u over every u have
    one multiset for all file vectors fv with one m_k."""
    t, q = p.ctx.tables(), p.ctx.q
    out = []
    for k, qmat in enumerate(queries, 1):
        # sorted codes of Q fv + G u over exhaustive u, axes (files after
        # k, m_k, files before k, code): every m_k row is its first one
        codes = _accel.gf_share_hist(p.g.a, qmat.a, t)
        codes = codes.reshape(-1, q ** p.x, q ** ((k - 1) * p.x), codes.shape[-1])
        out.append(bool((codes == codes[:1, :, :1]).all()))
    return out


def spir_audit(p: SpirProtocol) -> AuditReport:
    """Correctness, user secrecy (exact query marginals), and server secrecy
    (structural span condition + exhaustive answer distributions)."""
    ctx = p.ctx
    if ctx.q ** (p.x + p.y) > AUDIT_LIMIT or ctx.q ** (p.x * p.nfiles) > AUDIT_LIMIT:
        raise TooLarge("audit needs q^(x+y) and q^(x*f) <= 1e6")
    if ctx.q ** (p.x * p.nfiles + p.y) > AUDIT_LIMIT:
        raise TooLarge("server-secrecy sweep needs q^(x*f+y) <= 1e6")
    details, cex = [], []
    # correctness: answers are a CSS share of m_k with effective randomness
    accept = [sorted(a) for a in p.access.accept_iter()]
    correct = True
    for a, c in zip(accept, _codes(p.g, p.f, accept)):
        ok = _clash(c) is None
        details.append([f"correct@{a}", ok])
        if not ok:
            correct = False
            cex.append({"set": a, "kind": "correctness"})
    # user secrecy: restricted query columns have k-independent distributions
    # (on the empty set every check holds)
    reject = [sorted(b) for b in p.access.reject_iter()]
    if p.fixed_query is not None:
        user = [all(np.array_equal(restrict(p.fixed_query[0], sub).a,
                                   restrict(p.fixed_query[k - 1], sub).a)
                    for k in range(2, p.nfiles + 1)) for sub in reject]
    else:
        user = _marginals_equal(p.g, p.f, reject) if p.nfiles > 1 else [True] * len(reject)
    user_secret = all(user)
    for sub, ok in zip(reject, user):
        details.append([f"user-secret@{sub}", ok])
        if not ok:
            cex.append({"set": sub, "kind": "user-secrecy"})
    # server secrecy, structural (span condition on off-target blocks)
    server_secret = True
    queries = p.fixed_query if p.fixed_query is not None else _seeded_queries(p)
    for k in range(1, p.nfiles + 1):
        off = [c for c in range(p.x * p.nfiles) if c // p.x != k - 1]
        # every off-target query column lies in span(G) on all rows
        ok = rejects_one(p.g, MatGF(ctx, queries[k - 1].a[:, off]), range(1, p.nbar + 1))
        details.append([f"server-secret-span@k={k}", ok])
        if not ok:
            server_secret = False
            cex.append({"k": k, "kind": "server-secrecy-span"})
    # server secrecy, empirical: answer distribution depends only on m_k
    if server_secret:
        for k, ok in enumerate(_answers_secret(p, queries), 1):
            details.append([f"server-secret-dist@k={k}", ok])
            if not ok:
                server_secret = False
                cex.append({"k": k, "kind": "server-secrecy-dist"})
    secret = user_secret and server_secret
    verdict = correct and secret
    mmsp_verdict = is_mmsp(p.g, p.f, p.access)
    return AuditReport(protocol="cspir", correct=correct, secret=secret,
                       matches_mmsp=(verdict == mmsp_verdict),
                       details=details, counterexamples=cex)
