"""Quantum protocol runners and exhaustive desk-scale security audits.

Two runners, run_ss and run_spir, take the flavor as an argument, as the
audits do, and one entanglement-pair engine drives FEASS, EASS, CQSS and the
SPIR family: the initial resource is |Phi[0, G1]> (y1 = n gives the product
stabilizer state, which is the CQ setting), the dealer or the servers
displace the D registers by a classical phase-space vector, and the decoder
is the displaced-basis measurement on (D[A], E[A]) followed by classical
span-program decoding of the outcome.  The FE flavors run and audit any
bundle of 2n rows as (G1|G2, F) with G1 emptied: the fully entangled state.

The QQ protocols encode the message space into the code subspace along a
symplectically normalized frame extracted from F and decode with the
teleportation-style channel built from the dense-coding measurement.

Audits enumerate protocol randomness exhaustively, compare reduced states
at trace distance 1e-9, and cross-check every verdict against the
span-program classification.  Secrecy states are held as amplitude factors
and compared by distances_from, which factors the reference state once per
set; the QQ channel is one precomputed Kraus tensor, one block per G2
randomization.  A symplectic-track backend propagates displacements
classically (any q, prime powers included) and is cross-validated against
the dense oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import qstate as qs
from .access import AccessStructure, symplectify, symplectify_structure
from .classical import SpirProtocol, Transcript, _marginals_equal, spir_query
from .errors import ClassMismatch, NonStandardQuery, TooLarge
from .linalg import (
    MatGF,
    VecGF,
    hstack,
    restrict,
    rref,
    symp_gram,
)
from .mmsp import MmspBundle, SpanDecoder, is_mmsp, make_bundle
from .qstate import (
    Channel,
    DisplacedMeasurement,
    EIG_CUTOFF,
    Povm,
    _enum_vecs,
    apply_sw,
    apply_weyl,
    choi_fidelity_identity,
    frame_for,
    joint_eigenvector,
    mutual_info_dims,
    reduce_factor,
    vn_entropy,
)

TRACE_TOL = 1e-9


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    w = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.abs(w).sum())


def distances_from(ref: list) -> Callable[[list], float]:
    """The trace distance from the mixture ref, given as [(w, A), ...] for
    sum_i w_i A_i A_i^dag, as a function of another such mixture.  One thin
    SVD of ref's stack [sqrt(w_i) A_i] gives its support: eigenvectors U and
    eigenvalues lam above EIG_CUTOFF.  Another stack is B = U C + Y with
    Y = Q' R' orthogonal to U, and in the basis [U | Q'] the difference is
    diag(lam, 0) - X X^dag with X = [C; R'], no wider than both stacks.
    Dropping R' and the cut eigenvalues moves the distance by at most
    cut/2 + |C| |Y| + |Y|^2 / 2 (Frobenius norms); below EIG_CUTOFF, X = C."""
    u, s, _ = np.linalg.svd(np.concatenate([np.sqrt(w) * f for w, f in ref], axis=1),
                            full_matrices=False)
    keep = s**2 > EIG_CUTOFF
    u, lam, cut = u[:, keep], s[keep] ** 2, (s[~keep] ** 2).sum()

    def distance(mix: list) -> float:
        b = np.concatenate([np.sqrt(w) * f for w, f in mix], axis=1)
        x = u.conj().T @ b
        y = b - u @ x
        ny = np.linalg.norm(y)
        if cut / 2 + np.linalg.norm(x) * ny + ny**2 / 2 >= EIG_CUTOFF:
            x = np.vstack([x, np.linalg.qr(y, mode="r")])
        m = -(x @ x.conj().T)
        m[:len(lam), :len(lam)] += np.diag(lam)
        return float(0.5 * np.abs(np.linalg.eigvalsh(m)).sum())
    return distance


# ---------------------------------------------------------------------------
# classical displacement decoding (shared by both backends)
# ---------------------------------------------------------------------------

def coset_rep(g: MatGF, zs: np.ndarray) -> list[tuple]:
    """Canonical representatives of z + Im(g), one per row z of cells in zs:
    the pivot coordinates of the column space are eliminated in order."""
    if g.cols:
        red, piv, rk = rref(g.transpose())  # rows = canonical column-space basis
        # each row is zero on the other rows' pivots: subtract z[pivot] times it
        shift = MatGF(g.ctx, zs[:, piv]) @ MatGF(g.ctx, red.a[:rk])
        zs = (MatGF(g.ctx, zs) - shift).a
    return [tuple(g.ctx.cell_to_token(c) for c in z) for z in zs]


class DispDecoder(SpanDecoder):
    """Decode a displacement measured on a symplectified subset back to the
    message coordinates, modulo Im(P (G1|G2))."""

    def __init__(self, g1: MatGF, g2: MatGF, f: MatGF, subset: Sequence[int]):
        sympl = symplectify(subset, f.rows // 2)
        super().__init__(hstack([g1, g2]), f, sympl)
        self.pg1 = restrict(g1, sympl)

    def decode(self, z: Sequence[int]) -> Optional[VecGF]:
        """The unique m for one label z of integers, read by from_int."""
        return self.decode_one(VecGF.from_ints(self.ctx, z).a)

    def track(self, x: VecGF) -> tuple[tuple, Optional[VecGF]]:
        """The symplectic track of a full displacement x: the canonical
        coset representative of P x modulo Im(P G1), and the decoded
        message (None when not unique)."""
        z = x.a[self.rows]
        return coset_rep(self.pg1, z[None])[0], self.decode_one(z)


def _displacements(g: MatGF, base: np.ndarray) -> np.ndarray:
    """base + G u over every u in _enum_vecs order, one row of cells each."""
    ctx = g.ctx
    offsets = g @ MatGF(ctx, _enum_vecs(ctx.q, g.cols).T)
    return ctx.ax_add(np.asarray(base)[None], np.swapaxes(offsets.a, 0, 1))


def _indices(ctx, cells: np.ndarray) -> list[int]:
    """The index sum_i c_i p^i of every cell (the cell itself when tabled)."""
    return [sum(c * ctx.p**i for i, c in enumerate(ctx.coeffs(ctx.cell_to_token(cell))))
            for cell in cells]


# ---------------------------------------------------------------------------
# the entanglement-pair engine (dense backend)
# ---------------------------------------------------------------------------

class EaEngine:
    """Dense simulation core shared by the SS and SPIR runners/audits."""

    def __init__(self, g1: MatGF, g2: MatGF, f: MatGF):
        ctx = f.ctx
        self.ctx, self.q = ctx, ctx.q
        self.n = f.rows // 2
        if self.q ** (2 * self.n) > qs.DENSE_DIM_LIMIT:
            raise TooLarge("dense backend refuses q^(2n) beyond 2^14")
        self.g1, self.g2, self.f = g1, g2, f
        self.frame = frame_for(g1)
        self.base = self.frame.resource([0] * g1.cols)
        self._dms: dict = {}

    def message_displacements(self, m: np.ndarray) -> np.ndarray:
        """All displacements F m + G2 u2 over exhaustive u2, one per row."""
        mv = VecGF(self.ctx, np.asarray(m, dtype=np.int64))
        return _displacements(self.g2, (self.f @ mv).a)

    def message_cases(self) -> list:
        """(m, share mixture of F m + G2 u2) for every message m."""
        return [(tuple(m.tolist()), self.share_components(self.message_displacements(m)))
                for m in _enum_vecs(self.q, self.f.cols)]

    def share_components(self, disp_list: Iterable[np.ndarray]):
        regs = list(range(self.n))
        disp_list = list(disp_list)
        w = 1.0 / len(disp_list)
        return [(w, apply_weyl(self.base, self.q, list(x), regs))
                for x in disp_list]

    def dm_for(self, subset: Sequence[int]) -> DisplacedMeasurement:
        key = tuple(sorted(subset))
        if key not in self._dms:
            self._dms[key] = qs.displaced_measurement_for(self.g1, key)
        return self._dms[key]

    def outcome_distribution(self, subset: Sequence[int], components) -> np.ndarray:
        """Born distribution over z in F_q^(2|A|) plus a complement tail."""
        sub = sorted(subset)
        keep = [s - 1 for s in sub] + [self.n + s - 1 for s in sub]
        # Born probabilities are linear in the mixture: each component enters
        # through its (kept x traced) factor, one column per traced basis state
        return self.dm_for(sub).probabilities(
            [(w, reduce_factor(amps, keep)) for w, amps in components])

    def _fold(self, subset: Sequence[int], components, keys_of) -> dict:
        """Outcome distribution folded by keys_of, which maps the rows of
        measured label cells to one key each; the complement tail is None."""
        probs = self.outcome_distribution(subset, components)
        dm = self.dm_for(sorted(subset))
        hit = np.nonzero(~(probs < 1e-12))[0]
        inner = hit[hit < dm.nout]
        keys = keys_of(np.stack(np.unravel_index(inner, (dm.q,) * (2 * dm.n_act)), axis=-1))
        keys += [None] * (len(hit) - len(inner))  # the complement tail
        out: dict = {}
        for key, idx in zip(keys, hit):
            out[key] = out.get(key, 0.0) + float(probs[idx])
        return out

    def decoded_distribution(self, subset: Sequence[int], components,
                             decoder: DispDecoder) -> dict:
        """Outcome distribution folded onto decoded messages."""
        def keys_of(zs):
            msgs, ok = decoder.decode_all(zs)
            return [tuple(m.tolist()) if good else None for m, good in zip(msgs, ok)]
        return self._fold(subset, components, keys_of)

    def coset_distribution(self, subset: Sequence[int], components,
                           decoder: DispDecoder) -> dict:
        """Outcome distribution folded onto Im(P G1)-cosets."""
        return self._fold(subset, components, lambda zs: coset_rep(decoder.pg1, zs))

    def secrecy_state(self, subset: Sequence[int], components) -> list:
        """The reduced state on D[B] (x) E-full of the given mixture, as its
        [(w, factor), ...] pairs (see distances_from)."""
        keep = [s - 1 for s in sorted(subset)] + list(range(self.n, 2 * self.n))
        return [(w, reduce_factor(amps, keep)) for w, amps in components]

    def secrecy_states_equal(self, subset: Sequence[int], mixtures) -> bool:
        """Whether every mixture leaves the same state on D[B] (x) E-full."""
        states = (self.secrecy_state(subset, comps) for comps in mixtures)
        distance = distances_from(next(states))
        return all(distance(s) < TRACE_TOL for s in states)


def _flavor_bundle(bundle: MmspBundle, protocol: str) -> MmspBundle:
    """The bundle a flavor runs on: the fully entangled flavors (fe*) run
    (G1|G2, F) with G1 emptied, on any bundle of 2n rows; the others run the
    bundle as given, which must be of their class."""
    if protocol.startswith("fe"):
        if bundle.cls == "plain":
            raise ClassMismatch(f"{protocol} needs an ea, cq or qq bundle, got plain")
        return make_bundle("ea", None, bundle.g_stack(), bundle.f)
    expect = protocol[:2]
    if bundle.cls != expect:
        raise ClassMismatch(f"{protocol} needs {'an' if expect == 'ea' else 'a'} "
                            f"{expect} bundle, got {bundle.cls}")
    return bundle


def decoded_distributions(bundle: MmspBundle, base: VecGF,
                          access: AccessStructure) -> dict:
    """The exact decoded distribution of the share displacement base + G2 u2
    (u2 exhaustive) on every accept set, keyed by the set."""
    engine = EaEngine(g1=bundle.g1, g2=bundle.g2, f=bundle.f)
    comps = engine.share_components(_displacements(bundle.g2, base.a))
    return {str(sorted(a)): engine.decoded_distribution(
        sorted(a), comps, DispDecoder(bundle.g1, bundle.g2, bundle.f, sorted(a)))
        for a in access.accept_iter()}


def _decode_sets(bundle: MmspBundle, base: VecGF, rng, access: AccessStructure,
                 backend: str) -> tuple[Optional[list], dict]:
    """Decode the share displacement base + G2 u2 on every accept set.

    On the symplectic track one u2 is drawn from rng and returned (as
    indices); on the dense oracle u2 is exhaustive, one Born sample is drawn
    per set, and None is returned in its place."""
    ctx = bundle.ctx
    outcomes = {}
    if backend == "symplectic":
        u2 = ctx.random_cells(rng, bundle.y2)
        x = base + bundle.g2 @ VecGF(ctx, u2)
        for a in access.accept_iter():
            dec = DispDecoder(bundle.g1, bundle.g2, bundle.f, sorted(a))
            m = dec.decode_one(x.a[dec.rows])
            outcomes[str(sorted(a))] = None if m is None else _indices(ctx, m.a)
        return _indices(ctx, u2), outcomes
    for key, dist in decoded_distributions(bundle, base, access).items():
        labels = sorted(dist, key=lambda k: (k is None, k))
        pvals = np.array([dist[k] for k in labels])
        pick = labels[int(rng.choice(len(labels), p=pvals / pvals.sum()))]
        outcomes[key] = list(pick) if pick is not None else None
    return None, outcomes


# ---------------------------------------------------------------------------
# symplectic-track backend
# ---------------------------------------------------------------------------

def symp_track(bundle: MmspBundle, m: np.ndarray, u2: np.ndarray,
               subset: Sequence[int]):
    """Outcome of the displaced-basis measurement, predicted classically:
    the canonical coset representative of P_Abar(F m + G2 u2), plus the
    decoded message.  m and u2 hold field cells (element indices on tabled
    fields).  Works for any field, including prime powers."""
    ctx = bundle.ctx
    x = (bundle.f @ VecGF(ctx, np.asarray(m, dtype=np.int64))
         + bundle.g2 @ VecGF(ctx, np.asarray(u2, dtype=np.int64)))
    return DispDecoder(bundle.g1, bundle.g2, bundle.f, subset).track(x)


# ---------------------------------------------------------------------------
# secret-sharing runners
# ---------------------------------------------------------------------------

def run_ss(bundle: MmspBundle, m: VecGF, seed: int, access: AccessStructure,
           protocol: str = "eass", backend: str = "dense") -> Transcript:
    """One seeded FEASS, EASS or CQSS run of message m on every accept set."""
    bundle = _flavor_bundle(bundle, protocol)
    tr = Transcript(protocol=protocol, seed=seed)
    u2, outcomes = _decode_sets(bundle, bundle.f @ m, np.random.default_rng(seed),
                                access, backend)
    if u2 is None:
        tr.log("decode", outcomes=outcomes)
    else:
        tr.log("symplectic-track", u2=u2, outcomes=outcomes)
    tr.outcome = outcomes
    return tr


def run_modified_eass(bundle: MmspBundle, m: VecGF, seed: int,
                      access: AccessStructure) -> Transcript:
    """The proof-device variant: uniform |Phi[y, G1]> mixture as the initial
    state and the plain Bell-basis decoder.  Returns the full decoded
    distribution per accept set (used for the equivalence property)."""
    if bundle.cls not in ("ea", "cq"):
        raise ClassMismatch("modified protocol needs an EA/CQ bundle")
    engine = EaEngine(g1=bundle.g1, g2=bundle.g2, f=bundle.f)
    q, n, y1 = engine.q, engine.n, bundle.y1
    disps = engine.message_displacements(m.a)
    comps = []
    wy = 1.0 / (q**y1 * len(disps))
    for y in _enum_vecs(q, y1):
        base = engine.frame.resource(list(y))
        for x in disps:
            comps.append((wy, apply_weyl(base, q, list(x), list(range(n)))))
    feass = EaEngine(g1=MatGF.zeros(bundle.ctx, 2 * n, 0), g2=bundle.g2, f=bundle.f)
    tr = Transcript(protocol="modified-eass", seed=seed)
    tr.outcome = {str(sorted(a)): feass.decoded_distribution(
        sorted(a), comps, DispDecoder(bundle.g1, bundle.g2, bundle.f, sorted(a)))
        for a in access.accept_iter()}
    return tr


# ---------------------------------------------------------------------------
# SS audits
# ---------------------------------------------------------------------------

@dataclass
class QAuditReport:
    protocol: str
    correct: bool
    secret: bool
    matches_classify: bool
    details: list = field(default_factory=list)

    @property
    def secure(self) -> bool:
        return self.correct and self.secret

    @property
    def ok(self) -> bool:
        return self.matches_classify

    def to_json(self) -> dict:
        return {"protocol": self.protocol, "correct": self.correct,
                "secret": self.secret, "secure": self.secure,
                "matches_classify": self.matches_classify,
                "details": self.details}


def _decodes(engine: EaEngine, bundle: MmspBundle, subset: list[int],
             cases: Iterable) -> bool:
    """Every (message, share mixture) case decodes to its message with
    probability 1 on the subset; stops at the first case that does not."""
    dec = DispDecoder(bundle.g1, bundle.g2, bundle.f, subset)
    return all(engine.decoded_distribution(subset, comps, dec).get(mt, 0.0)
               >= 1 - TRACE_TOL for mt, comps in cases)


def _qreport(protocol: str, bundle: MmspBundle, access: AccessStructure,
             correct: bool, secret: bool, details: list) -> QAuditReport:
    """The audit verdicts, cross-checked against the span-program verdict."""
    cls_verdict = is_mmsp(bundle.g_stack(), bundle.f, symplectify_structure(access))
    return QAuditReport(protocol=protocol, correct=correct, secret=secret,
                        matches_classify=((correct and secret) == cls_verdict),
                        details=details)


def audit_ss(bundle: MmspBundle, access: AccessStructure,
             protocol: str = "eass") -> QAuditReport:
    """Exhaustive audit of the FEASS, EASS or CQSS protocol against the
    span-program verdict; FEASS audits (G1|G2, F) with G1 emptied, the
    protocol run_ss runs."""
    bundle = _flavor_bundle(bundle, protocol)
    engine = EaEngine(g1=bundle.g1, g2=bundle.g2, f=bundle.f)
    cases = engine.message_cases()
    details = []
    correct = True
    for a in access.accept_iter():
        ok = _decodes(engine, bundle, sorted(a), cases)
        details.append([f"correct@{sorted(a)}", ok])
        correct &= ok
    secret = True
    for b in access.reject_iter():
        ok = engine.secrecy_states_equal(sorted(b), [comps for _, comps in cases])
        details.append([f"secret@{sorted(b)}", ok])
        secret &= ok
    return _qreport(protocol, bundle, access, correct, secret, details)


# ---------------------------------------------------------------------------
# QQ protocols
# ---------------------------------------------------------------------------

def _symplectic_pairs(j: np.ndarray, q: int) -> np.ndarray:
    """S with S^T J S = [[0, -I],[I, 0]] for a nondegenerate antisymmetric
    Gram matrix J over F_q (q prime)."""
    m = j.shape[0]
    basis = [np.eye(m, dtype=np.int64)[:, i] for i in range(m)]

    def pairing(u, v):
        return int(u @ j @ v % q)

    xs, zs = [], []
    remaining = basis
    while remaining:
        u = remaining[0]
        vi = None
        for idx in range(1, len(remaining)):
            if pairing(u, remaining[idx]):
                vi = idx
                break
        if vi is None:
            raise NonStandardQuery("degenerate message-frame Gram")
        v = (remaining[vi] * pow(pairing(u, remaining[vi]), -1, q)) % q
        rest = []
        for idx, w in enumerate(remaining):
            if idx in (0, vi):
                continue
            w2 = (w - pairing(u, w) * v + pairing(v, w) * u) % q
            rest.append(w2)
        xs.append(u)   # symp(x, z) = pairing(u, v) = +1
        zs.append(v)
        remaining = rest
    cols = xs + zs
    return np.stack(cols, axis=1) % q


class QqCodec:
    """Encoding isometry and message frame for a QQ bundle.

    The message-space Weyl frame is F normalized so its quotient Gram is
    canonical; the code basis |xi_x> = SW(Ftilde_X x)|xi_0> then intertwines
    message displacements with code-space displacements exactly.
    """

    def __init__(self, bundle: MmspBundle):
        if bundle.cls != "qq":
            raise ClassMismatch("QQ codec needs a qq bundle")
        ctx = bundle.ctx
        self.bundle = bundle
        self.q, self.n = ctx.q, bundle.n
        self.xq = bundle.x // 2
        s = _symplectic_pairs(symp_gram(bundle.f, bundle.f), self.q)
        self.s = s
        self.ft = (bundle.f.a @ s) % self.q
        gens = np.concatenate([bundle.g1.a, self.ft[:, self.xq:]], axis=1)
        xi0 = joint_eigenvector(self.q, self.n, gens, [0] * gens.shape[1])
        cols = []
        # C order: the first coordinate is the most significant digit
        for x in _enum_vecs(self.q, self.xq)[:, ::-1]:
            disp = (self.ft[:, : self.xq] @ x) % self.q
            cols.append(apply_sw(xi0, self.q, list(disp),
                                 list(range(self.n))).reshape(-1))
        self.v = np.stack(cols, axis=1)  # (q^n, q^xq)


def qq_channel(bundle: MmspBundle, codec: QqCodec,
               subset: Sequence[int]) -> Channel:
    """The message-space channel: encode, randomize with G2, keep D[A].

    Each G2 randomization x contributes the Kraus block
    <a, r| W(x) V |m> / sqrt(#x) (a on D[A], r on the traced registers, m
    the message), so two products apply the channel."""
    q, n = codec.q, codec.n
    keep = [s - 1 for s in sorted(subset)]
    d_b = q ** len(keep)
    code = codec.v.reshape((q,) * n + (-1,))  # D-full registers, then message
    d_msg = code.shape[-1]
    disps = _displacements(bundle.g2, bundle.ctx.cell_zeros(2 * n))
    # rows a; columns (x, r, m) with m fastest
    kraus = np.concatenate([reduce_factor(apply_weyl(code, q, list(x), list(range(n))), keep)
                            for x in disps], axis=1) / np.sqrt(len(disps))
    kconj = kraus.conj().T
    return Channel(din=d_msg, dout=d_b,
                   fn=lambda rho: (kraus.reshape(-1, d_msg) @ rho)
                   .reshape(rho.shape[:-2] + (d_b, -1)) @ kconj)


def _decoder_factors(bundle: MmspBundle, codec: QqCodec,
                     subset: Sequence[int]) -> Iterator[np.ndarray]:
    """The factor psi_x of sigma_x = psi_x psi_x^dag on (R, D[A]), x in C
    order: the reduce_factor columns of |phi_code> on R (x) D-full displaced
    by x and each G2 randomization, stacked."""
    q, n, xq = codec.q, codec.n, codec.xq
    phi = (codec.v.T / np.sqrt(q**xq)).reshape((q**xq,) + (q,) * n)
    keep = [0] + sorted(subset)
    for x in _enum_vecs(q, 2 * xq)[:, ::-1]:
        yield np.concatenate(
            [reduce_factor(apply_weyl(phi, q, list(full), list(range(1, n + 1))), keep)
             for full in _displacements(bundle.g2, (codec.ft @ x) % q)], axis=1)


def _support_factor(psi: np.ndarray) -> np.ndarray:
    """Orthonormal basis F of the support of psi psi^dag (projector F F^dag):
    the left singular vectors with s^2 / sum s^2 > 1e-10."""
    u, s, _ = np.linalg.svd(psi, full_matrices=False)
    return u[:, s**2 > 1e-10 * (s**2).sum()]


def qq_decoder_povm(bundle: MmspBundle, codec: QqCodec,
                    subset: Sequence[int]) -> Optional[Povm]:
    """Canonical dense-coding discriminator on (R, D[A]): the support
    factors of the channel-displaced entangled states, completed implicitly
    when they span less than the space; None when they do not discriminate
    perfectly (a squared singular value of the stacked factors > 1 + 1e-8)."""
    q, xq = codec.q, codec.xq
    factors = [_support_factor(psi) for psi in _decoder_factors(bundle, codec, subset)]
    stacked = np.hstack(factors)
    if np.linalg.norm(stacked, 2) ** 2 > 1 + 1e-8:
        return None
    labels = [tuple(int(v) for v in x) for x in _enum_vecs(q, 2 * xq)[:, ::-1]]
    if stacked.shape[1] < stacked.shape[0]:
        labels.append(None)
    return Povm(labels=labels, factors=factors)


def qq_decoded_channel(bundle: MmspBundle, codec: QqCodec,
                       subset: Sequence[int]) -> Optional[Channel]:
    """Encode, randomize, keep D[A], then decode with the teleportation
    channel of the dense-coding POVM; None when that POVM is not sharp."""
    lam = qq_channel(bundle, codec, subset)
    povm = qq_decoder_povm(bundle, codec, subset)
    if povm is None:
        return None
    return qs.compose(qs.gamma_bar(codec.q, codec.xq, povm, d_b=lam.dout), lam)


def run_qqss(bundle: MmspBundle, rho_in: np.ndarray, seed: int,
             subset: Sequence[int]):
    """Encode, randomize, restrict to the subset, and decode with the
    teleportation channel; returns (Transcript, recovered density).  The
    outcome is "recovered" when the fidelity with the pure input rho_in is
    at least 1 - TRACE_TOL, else "not recovered"."""
    chan = qq_decoded_channel(bundle, QqCodec(bundle), subset)
    tr = Transcript(protocol="qqss", seed=seed, outcome="not recovered")
    tr.log("encode", subset=sorted(subset), sharp=chan is not None)
    if chan is None:
        return tr, None
    recovered = chan(rho_in)
    fid = float(np.real(np.trace(recovered @ rho_in)))
    tr.log("decode", fidelity_with_input=fid)
    if fid >= 1 - TRACE_TOL:
        tr.outcome = "recovered"
    return tr, recovered


def audit_qqss(bundle: MmspBundle, access: AccessStructure) -> QAuditReport:
    """Correctness as Choi fidelity of decode(encode(.)) with the identity on
    every accept set; secrecy as input-independence of reduced shares."""
    codec = QqCodec(bundle)
    d = codec.q**codec.xq
    details = []
    correct = True
    for a in access.accept_iter():
        chan = qq_decoded_channel(bundle, codec, sorted(a))
        if chan is None:
            details.append([f"correct@{sorted(a)}", False])
            correct = False
            continue
        fid = choi_fidelity_identity(chan)
        ok = bool(fid >= 1 - TRACE_TOL)
        details.append([f"correct@{sorted(a)} fid={fid:.12f}", ok])
        correct &= ok
    # secrecy: reduced state on D[B] independent of the input state; exact
    # over the full operator basis: the restriction channel is constant iff
    # its Choi matrix factors as I/d (x) sigma
    secret = True
    for b in access.reject_iter():
        if not b:
            details.append(["secret@[]", True])
            continue
        lam = qq_channel(bundle, codec, sorted(b))
        choi = lam.choi()
        sigma = np.einsum("ibid->bd",
                          choi.reshape(d, lam.dout, d, lam.dout))
        target = np.kron(np.eye(d) / d, sigma)
        ok = bool(np.linalg.norm(choi - target) < TRACE_TOL)
        details.append([f"secret@{sorted(b)}", ok])
        secret &= ok
    return _qreport("qqss", bundle, access, correct, secret, details)


# ---------------------------------------------------------------------------
# dense-coding / teleportation identity checks
# ---------------------------------------------------------------------------

def teleport_decoder_fidelities(bundle: MmspBundle,
                        access: AccessStructure) -> list[float]:
    """Choi fidelity of the teleport-decoded channel on each accept set."""
    codec = QqCodec(bundle)
    chans = (qq_decoded_channel(bundle, codec, sorted(a)) for a in access.accept_iter())
    return [0.0 if c is None else choi_fidelity_identity(c) for c in chans]


def dense_coding_information_check(chan: Channel, q: int, n_prime: int) -> tuple[float, float]:
    """(I(X;BR) for dense coding, I(R;B) for the channel), in bits."""
    d = q**n_prime
    if chan.din != d:
        raise TooLarge("channel input must be q^n'")
    # sigma_RB = (id_R (x) Lambda)(phi); R-first ordering matches choi()
    sigma = chan.choi()
    i_chan = mutual_info_dims(sigma, d, chan.dout)
    # dense coding: tau_x = (id_R (x) Lambda)(W_A(x) phi) over uniform x
    taus = []
    phi = np.eye(d, dtype=np.complex128) / np.sqrt(d)  # phi[r, a]
    for x in _enum_vecs(q, 2 * n_prime)[:, ::-1]:  # C order
        fx = apply_weyl(phi.reshape((d,) + (q,) * n_prime), q, list(x),
                        list(range(1, 1 + n_prime))).reshape(d, d)
        rho_ra = np.einsum("ra,sb->rasb", fx, fx.conj()).reshape(d * d, d * d)
        tau = qs.apply_on_second(rho_ra, d, chan)
        taus.append(tau)
    avg = sum(taus) / len(taus)
    i_dense = vn_entropy(avg) - sum(vn_entropy(t) for t in taus) / len(taus)
    return float(i_dense), float(i_chan)


# ---------------------------------------------------------------------------
# SPIR runners and audits
# ---------------------------------------------------------------------------

def _spir_protocol(bundle: MmspBundle, access: AccessStructure,
                   nfiles: int) -> SpirProtocol:
    """The classical SPIR protocol (G1|G2, F) on the symplectified structure,
    whose standard query the servers apply."""
    return SpirProtocol(g=bundle.g_stack(), f=bundle.f,
                        access=symplectify_structure(access), nfiles=nfiles)


def run_spir(bundle: MmspBundle, files: np.ndarray, k: int, seed: int,
             access: AccessStructure, nfiles: int, protocol: str = "easpir",
             backend: str = "dense") -> Transcript:
    """One seeded FEASPIR, EASPIR or CQSPIR run retrieving file k of files."""
    bundle = _flavor_bundle(bundle, protocol)
    ctx = bundle.ctx
    rng = np.random.default_rng(seed)
    proto = _spir_protocol(bundle, access, nfiles)
    u_q = MatGF(ctx, ctx.random_cells(rng, proto.y, proto.x * nfiles))
    net = spir_query(proto, k, u_q) @ VecGF.from_ints(ctx, files)
    tr = Transcript(protocol=protocol, seed=seed)
    tr.log("query", k=k)
    _, outcomes = _decode_sets(bundle, net, rng, access, backend)
    tr.log("decode", outcomes=outcomes)
    tr.outcome = outcomes
    return tr


def audit_spir(bundle: MmspBundle, access: AccessStructure, nfiles: int,
               protocol: str = "easpir") -> QAuditReport:
    """Quantum SPIR audit: exhaustive correctness and server secrecy over
    the shared randomness, exact user-secrecy marginals, query-randomness
    invariance of the share state, all against the span-program verdict."""
    bundle = _flavor_bundle(bundle, protocol)
    engine = EaEngine(g1=bundle.g1, g2=bundle.g2, f=bundle.f)
    proto = _spir_protocol(bundle, access, nfiles)
    ctx, n, x, y = bundle.ctx, bundle.n, bundle.x, bundle.y1 + bundle.y2
    details = []

    def components(qmat: MatGF, fv: np.ndarray):
        """Share-state mixture for the file vector fv under query qmat."""
        return engine.share_components(
            _displacements(bundle.g2, (qmat @ VecGF(ctx, fv)).a))

    # query-randomness invariance: the share state is identical for any U_Q
    rng = np.random.default_rng(20240)
    everyone = list(range(1, n + 1))
    files0 = np.array([1] + [0] * (x * nfiles - 1), dtype=np.int64)
    inv_ok = all(engine.secrecy_states_equal(everyone, [
        components(spir_query(proto, k, MatGF(ctx, u_q)), files0)
        for u_q in [ctx.cell_zeros(y, x * nfiles)]
        + [ctx.random_cells(rng, y, x * nfiles) for _ in range(2)]])
        for k in (1, min(2, nfiles)))
    details.append(["query-randomness-invariance", inv_ok])

    # correctness: under U_Q = 0 a query for any file k displaces the shares
    # by the SS share F m_k + G2 u2, so the SS cases cover every k; the
    # server-secrecy sweep checks that the other files' Im(G) part is absorbed
    cases = engine.message_cases()
    correct = inv_ok
    for a in access.accept_iter():
        ok = _decodes(engine, bundle, sorted(a), cases)
        details.append([f"correct@{sorted(a)}", ok])
        correct &= ok

    # user secrecy: restricted query columns have k-independent multisets
    reject = [sorted(b) for b in access.reject_iter() if b]
    user = _marginals_equal(proto.g, proto.f, [symplectify(b, n) for b in reject])
    details += [[f"user-secret@{b}", ok] for b, ok in zip(reject, user)]
    user_ok = all(user)

    # server secrecy: share state depends only on m_k (exhaustive over u2), under
    # a seeded U_Q whose G1 part the stabilizer and G2 part u2 must absorb
    u_q = MatGF(ctx, ctx.random_cells(np.random.default_rng(20241), y, x * nfiles))
    queries = [spir_query(proto, k, u_q) for k in range(1, nfiles + 1)]
    shares = _displacements(bundle.g2, ctx.cell_zeros(2 * n))
    server_ok = True
    for k, qmat in enumerate(queries, 1):
        groups: dict = {}
        ok = True
        # Q fv over every file vector fv
        nets = _displacements(qmat, ctx.cell_zeros(2 * n))
        disps = ctx.ax_add(nets[:, None], shares[None])
        all_reps = coset_rep(bundle.g1, disps.reshape((-1,) + disps.shape[2:]))
        for i, fv in enumerate(_enum_vecs(ctx.q, x * nfiles)):
            reps = tuple(sorted(all_reps[i * len(shares):(i + 1) * len(shares)]))
            mk = tuple(int(v) for v in fv[(k - 1) * x: k * x])
            if groups.setdefault(mk, reps) != reps:
                ok = False
                break
        details.append([f"server-secret@k={k}", ok])
        server_ok &= ok
    # dense spot check of one server-secrecy comparison
    if server_ok and nfiles >= 2 and x * nfiles <= 6:
        fv1 = np.zeros(x * nfiles, dtype=np.int64)
        fv2 = fv1.copy()
        fv2[-1] = 1  # differs only off-target
        okd = engine.secrecy_states_equal(
            everyone, [components(queries[0], fv) for fv in (fv1, fv2)])
        details.append(["server-secret-dense-spot", okd])
        server_ok &= okd

    return _qreport(protocol, bundle, access, correct, user_ok and server_ok, details)


# ---------------------------------------------------------------------------
# SPIR-to-SS conversion (EASPIR -> EASS)
# ---------------------------------------------------------------------------

def convert_flow5(bundle: MmspBundle, nfiles: int) -> MmspBundle:
    """The converted protocol fixes K = 1 and file vector (m, 0, ..., 0); for
    standard linear queries this is structurally the EASS protocol with the
    same (G1, G2, F)."""
    if bundle.cls not in ("ea", "cq"):
        raise NonStandardQuery("conversion needs a standard linear EA bundle")
    return MmspBundle(cls=bundle.cls, g1=bundle.g1, g2=bundle.g2, f=bundle.f,
                      n=bundle.n, params=dict(bundle.params,
                                              converted_from="easpir",
                                              nfiles=nfiles))


def flow5_equivalence(bundle: MmspBundle, nfiles: int,
                      access: AccessStructure) -> bool:
    """Converted-protocol transcript distributions (exhaustive over the
    query randomness image and dealer randomness) equal the direct EASS
    distributions, per message and accept set."""
    _flavor_bundle(bundle, "eass" if bundle.cls == "ea" else "cqss")
    engine = EaEngine(g1=bundle.g1, g2=bundle.g2, f=bundle.f)
    ctx, q, x = bundle.ctx, engine.q, bundle.x
    decoders = [(sorted(a), DispDecoder(bundle.g1, bundle.g2, bundle.f, sorted(a)))
                for a in access.accept_iter()]
    for m in _enum_vecs(q, x):
        # converted: displacement F m + G w + G2 u2, w = U_Q (m,0..0) uniform
        # over F_q^y when m != 0, and w = 0 when m = 0
        fm = (bundle.f @ VecGF(ctx, m)).a
        mids = _displacements(bundle.g_stack(), fm) if m.any() else fm[None]
        conv_comps = engine.share_components(
            np.concatenate([_displacements(bundle.g2, mid) for mid in mids]))
        direct_comps = engine.share_components(engine.message_displacements(m))
        for sub, dec in decoders:
            d1 = engine.coset_distribution(sub, conv_comps, dec)
            d2 = engine.coset_distribution(sub, direct_comps, dec)
            keys = set(d1) | set(d2)
            if any(abs(d1.get(kk, 0.0) - d2.get(kk, 0.0)) > 1e-9
                   for kk in keys):
                return False
    return True
