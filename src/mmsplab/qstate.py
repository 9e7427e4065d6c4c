"""Exact dense-state oracle for odd prime local dimension q.

Holds only what the protocols and audits run: Weyl displacements applied to
amplitude arrays, the stabilizer projectors and entangled code resources of
self-column-orthogonal matrices over F_q, reductions, displaced-basis
measurements, the factored POVM of the teleportation-style QQ decoder,
channels, and the von Neumann entropies of the dense-coding information
check.  States carry shape (q,)*m amplitude arrays; register order for
protocol states is [D_1..D_n, E_1..E_n].  A mixed state is held as its
amplitude factors, [(w, psi), ...] for sum_i w_i psi_i psi_i^dag, with each
psi from reduce_factor.

Group phases use the symmetric alignment SW(a,b) = w^(ab/2) X(a) Z(b)
(2^{-1} taken mod p), under which SW(v)SW(w) = w^(-symp(v,w)/2) SW(v+w);
on an isotropic span this is an exact representation, so stabilizer
projectors need no per-generator phase hunting.  Protocol statistics are
invariant under the alignment choice (runs conjugate by plain Weyls).

Every stabilizer object comes from one group average, stabilizer_projector:
a stabilizer state is its first nonzero column (joint_eigenvector), and the
resource |Phi[y, G1]> = sum_x |x,y> (x) conj|x,y> is the vectorized
projector P_y onto the y-eigenspace of G1's group, so G1 is never completed
to a Lagrangian.  W(a, b) is monomial, its one nonzero in column k sitting
at row k + a, so the average is one scatter of the (row, value) table of
all group elements, and weyl_matrix reads the same table.

Displaced-basis measurements {W(z) sigma W(z)^dag} are evaluated without
materializing the operator family or any density matrix: sigma and the
measured mixture are both held as amplitude factors (sigma = psi psi^dag),
and the probabilities of all z come from one batched overlap matrix between
the two factors, whose shifted diagonals (the X part) are transformed by one
product with the character table w^(-b.k) (the Z part).  No
eigendecomposition is needed, which keeps the full-set decoders at n = 3
fast.  POVMs are factors too: the QQ decoder's elements are thin-SVD support
factors, the completion is implicit, and gamma_bar reads the factors as
Kraus terms with the one dense-coding correction W(a, b), so no dense POVM
and no block size remain.  A Channel maps a stack (..., d, d) of inputs in
one call, so its Choi matrix is one application to all d^2 units |i><j|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadRegisters,
    IncompletePovm,
    NonPrimeLocalDim,
    NotMaximalIsotropic,
    NoFixedVector,
    TooLarge,
)
from .fields import _is_prime
from .linalg import MatGF, is_self_col_orth, rank

DENSE_DIM_LIMIT = 1 << 14
POVM_TOL = 1e-10
EIG_CUTOFF = 1e-12


def check_dense(ctx, n: int) -> None:
    """Refuse the dense oracle on n register pairs before it allocates:
    TooLarge when q^(2n) exceeds DENSE_DIM_LIMIT, NonPrimeLocalDim unless q
    is an odd prime (r = 1), where 2^-1 and the operation tables exist."""
    if ctx.q ** (2 * n) > DENSE_DIM_LIMIT:
        raise TooLarge("dense backend refuses q^(2n) beyond 2^14")
    if ctx.r != 1 or not _is_prime(ctx.q) or ctx.q == 2:
        raise NonPrimeLocalDim("dense oracle needs odd prime q with r = 1")


def _omega_powers(q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(q) / q)


# ---------------------------------------------------------------------------
# Weyl operators
# ---------------------------------------------------------------------------

def apply_weyl(amps: np.ndarray, q: int, disp: Sequence[int],
               regs: Sequence[int]) -> np.ndarray:
    """Apply W(a_i, b_i) on each register in regs; disp = (a... | b...)."""
    k = len(regs)
    om = _omega_powers(q)
    out = amps
    for idx, axis in enumerate(regs):
        ai, bi = int(disp[idx]) % q, int(disp[k + idx]) % q
        if bi:
            shape = [1] * out.ndim
            shape[axis] = q
            out = out * om[(np.arange(q) * bi) % q].reshape(shape)
        if ai:
            out = np.roll(out, ai, axis=axis)
    return out


def aligned_phase(q: int, disp: Sequence[int]) -> complex:
    """Phase making SW(v) = phase * W(v) a representation on isotropic spans."""
    k = len(disp) // 2
    inv2 = pow(2, -1, q)
    s = sum(int(disp[i]) * int(disp[k + i]) for i in range(k)) % q
    return _omega_powers(q)[(inv2 * s) % q]


def apply_sw(amps: np.ndarray, q: int, disp: Sequence[int],
             regs: Sequence[int]) -> np.ndarray:
    return aligned_phase(q, disp) * apply_weyl(amps, q, disp, regs)


def _weyl_columns(q: int, n: int, disps: np.ndarray) -> tuple:
    """Row index k + a and value prod_i w^(b_i k_i) (taken over b_i != 0 in
    register order, as apply_weyl multiplies) of the one nonzero in column k
    of W(a, b), for each row (a | b) of disps: two (len(disps), q^n) arrays."""
    om = _omega_powers(q)
    kvec = np.indices((q,) * n).reshape(n, -1)
    a, b = disps[:, :n, None], disps[:, n:]
    rows = np.ravel_multi_index(tuple(np.moveaxis((kvec + a) % q, 1, 0)), (q,) * n)
    vals = np.ones(rows.shape, dtype=np.complex128)
    for i in range(n):
        hit = b[:, i] != 0
        vals[hit] = vals[hit] * om[b[hit, i, None] * kvec[i] % q]
    return rows, vals


def weyl_matrix(q: int, n: int, disp: Sequence[int]) -> np.ndarray:
    """Dense q^n x q^n matrix of the n-register displacement operator."""
    d = q**n
    (rows,), (vals,) = _weyl_columns(q, n, np.asarray(disp, dtype=np.int64)[None] % q)
    out = np.zeros((d, d), dtype=np.complex128)
    out[rows, np.arange(d)] = vals
    return out


# ---------------------------------------------------------------------------
# stabilizer projectors of commuting aligned Weyl families
# ---------------------------------------------------------------------------

def _enum_vecs(q: int, k: int) -> np.ndarray:
    """Every vector of F_q^k as a row of element indices, little-endian:
    row i holds the base-q digits of i."""
    return np.arange(q**k)[:, None] // q ** np.arange(k) % q


def stabilizer_projector(q: int, n: int, gens: np.ndarray,
                         phases: Sequence[int]) -> np.ndarray:
    """The group sum sum_c w^(-c.phases) SW(gens c) over c in F_q^k, which
    is q^k times the projector onto the joint eigenspace where every
    SW(gens[:, i]) has eigenvalue w^(phases[i]); callers fold the q^-k into
    their own normalization, so each entry is rounded once.

    gens: 2n x k integer matrix with isotropic, independent columns, on
    whose span SW is an exact representation.
    """
    om = _omega_powers(q)
    d = q**n
    cs = _enum_vecs(q, gens.shape[1])
    disps = cs @ gens.T % q
    rows, vals = _weyl_columns(q, n, disps)
    aligned = om[pow(2, -1, q) * (disps[:, :n] * disps[:, n:]).sum(axis=1) % q]
    group = om[cs @ np.asarray(phases, dtype=np.int64) % q].conjugate()
    # one scatter in c order: each cell sums its terms in enumeration order
    acc = np.zeros(d * d, dtype=np.complex128)
    np.add.at(acc, rows * d + np.arange(d), group[:, None] * (aligned[:, None] * vals))
    return acc.reshape(d, d)


def joint_eigenvector(q: int, n: int, gens: np.ndarray,
                      phases: Sequence[int]) -> np.ndarray:
    """Unit vector with SW(gens[:, i])-eigenvalue w^(phases[i]) for all i:
    the first nonzero column of stabilizer_projector, normalized, with its
    global phase fixed deterministically."""
    for col in stabilizer_projector(q, n, gens, phases).T:
        nrm = np.linalg.norm(col)
        if nrm > 1e-8:
            v = col / nrm
            nz = np.flatnonzero(np.abs(v) > 1e-9)[0]
            return (v * (np.abs(v[nz]) / v[nz])).reshape((q,) * n)
    raise NoFixedVector("no joint eigenvector found (phase alignment failed)")


class StabFrame:
    """Stabilizer resources of a self-column-orthogonal G1 over prime F_q.

    |Phi[y, G1]> = sum_x |x,y> (x) conj|x,y> over any eigenbasis |x,y> of
    the y-eigenspace (SW(g_j)-eigenvalue w^(y_j)) is the vectorized
    projector P_y onto that eigenspace, so no completion of G1 and no
    per-vector phase choice is needed.
    """

    def __init__(self, g1: MatGF):
        check_dense(g1.ctx, g1.rows // 2)
        if g1.rows % 2:
            raise NotMaximalIsotropic("expected 2n rows")
        if g1.cols and rank(g1) != g1.cols:
            raise NotMaximalIsotropic("G1 has dependent columns")
        if not is_self_col_orth(g1):
            raise NotMaximalIsotropic("G1 is not self-column-orthogonal")
        self.q = g1.ctx.q
        self.n = g1.rows // 2
        self.y1 = g1.cols
        self._lag_int = g1.a.astype(np.int64)
        self._res: dict = {}

    def resource(self, y: Sequence[int]) -> np.ndarray:
        """|Phi[y, G1]> amplitudes on 2n registers [D..., E...]:
        P_y / sqrt(q^(n - y1)), rows on D and columns on E."""
        y = tuple(int(v) % self.q for v in y)
        if y not in self._res:
            q, n = self.q, self.n
            psum = stabilizer_projector(q, n, self._lag_int, y)  # q^y1 P_y
            self._res[y] = psum.reshape((q,) * (2 * n)) / np.sqrt(q ** (n + self.y1))
        return self._res[y]


_FRAMES: dict = {}


def frame_for(g1: MatGF) -> StabFrame:
    key = (id(g1.ctx), g1.a.shape, g1.a.tobytes())
    if key not in _FRAMES:
        _FRAMES[key] = StabFrame(g1)
    return _FRAMES[key]


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def reduce_factor(amps: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """The (kept x traced) amplitude matrix psi of a pure state, kept
    registers in sorted order; its reduction to them is psi psi^dag.
    Registers may differ in size; the traced ones flatten in axis order."""
    m = amps.ndim
    keep = sorted(keep)
    if any(not 0 <= k < m for k in keep) or len(set(keep)) != len(keep):
        raise BadRegisters(f"keep={keep} invalid for {m} registers")
    drop = [i for i in range(m) if i not in keep]
    kept = int(np.prod([amps.shape[k] for k in keep]))
    return np.transpose(amps, keep + drop).reshape(kept, -1)


def reduce_state(amps: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Density matrix of a pure state on the kept registers (sorted order)."""
    psi = reduce_factor(amps, keep)
    return psi @ psi.conj().T


# ---------------------------------------------------------------------------
# displaced-basis measurements
# ---------------------------------------------------------------------------

class DisplacedMeasurement:
    """The outcome family {W_A(z) sigma W_A(z)^dag : z in F_q^(2 n_act)}.

    sigma acts on (n_act displaced registers) x (a rest factor) and is given
    by an amplitude factor psi with sigma = psi psi^dag (see reduce_factor).
    The thin SVD of psi keeps sigma's support as weighted singular vectors;
    Born probabilities of a mixture of factors are then one batched overlap
    matrix, a gather of its shifted diagonals and one character-table
    product (the DFT over the displaced registers), never
    materializing the q^(2 n_act) operators.  The family is normalized so the
    elements sum to the projector onto their joint support; states outside
    the support feed a complement outcome labeled None.
    """

    # complex entries per batched overlap block; bounds the working memory
    # of probabilities() independently of the number of pieces
    BLOCK_CELLS = 1 << 18

    def __init__(self, q: int, n_act: int, factor: np.ndarray, rest_dim: int):
        self.q, self.n_act, self.rest = q, n_act, rest_dim
        d = factor.shape[0]
        if d != q**n_act * rest_dim:
            raise BadRegisters("sigma dimension mismatch")
        self.d = d
        u, s, _ = np.linalg.svd(factor.reshape(d, -1), full_matrices=False)
        sel = s**2 > EIG_CUTOFF
        vecs = u[:, sel]  # descending: largest singular vector first
        k = q**n_act
        # sigma on its support as sum_i lambda_i |phi_i><phi_i|; row (i, k)
        # of this (I k, rest) matrix holds conj(sqrt(lambda_i) phi_i[k, :])
        self._nphi = vecs.shape[1]
        self._phi_rows = np.ascontiguousarray(
            (vecs * s[sel]).conj().T).reshape(self._nphi * k, rest_dim)
        kvec = np.indices((q,) * n_act).reshape(n_act, -1)
        # _shift[a, k] = flat index of k + a (componentwise mod q)
        self._shift = np.ravel_multi_index(
            (kvec[:, :, None] + kvec[:, None, :]) % q, (q,) * n_act)
        # the character table _dft[b, k] = w^(-b.k), the DFT over the k axes
        self._dft = _omega_powers(q)[-(kvec.T @ kvec) % q]
        self.nout = q ** (2 * n_act)
        # the family sums to lam times the projector onto its joint support;
        # calibrate lam against sigma's own top eigenvector, which lies in
        # the support by construction (input-independent, deterministic)
        self._lam = 1.0
        total = self.probabilities([(1.0, vecs[:, 0])])[:-1].sum()
        if total <= 1e-12:
            raise IncompletePovm("degenerate displaced family")
        if vecs.shape[1] > 1:
            other = self.probabilities([(1.0, vecs[:, -1])])[:-1].sum()
            if abs(other - total) > 1e-8 * total:
                raise IncompletePovm(
                    "displacement family does not tile its support uniformly")
        self._lam = float(total)

    def probabilities(self, components: list) -> np.ndarray:
        """Born distribution over z (+ complement tail) for the mixture
        sum_j w_j psi_j psi_j^dag given as [(w_j, psi_j), ...]; psi_j is a
        pure amplitude array or any factor that reshapes to (d, columns)."""
        q, n = self.q, self.n_act
        k, rest = q**n, self.rest
        cols = np.concatenate(
            [np.sqrt(w) * np.asarray(f).reshape(self.d, -1)
             for w, f in components], axis=1)
        nphi = self._nphi
        # <W(a,b) phi_i | psi_p> = sum_k w^{-b.k} sum_r conj(phi_i[k,r])
        #   psi_p[k+a, r]: overlaps M[i,k,k',p], gathered at k' = k + a, then
        # one product with the character table over k gives the b axis
        acc = np.zeros(q ** (2 * n), dtype=np.float64)
        step = max(1, self.BLOCK_CELLS // (nphi * k * k))
        for lo in range(0, cols.shape[1], step):
            psi = cols[:, lo:lo + step].reshape(k, rest, -1)
            npsi = psi.shape[-1]
            m = (self._phi_rows @ psi.transpose(1, 0, 2).reshape(rest, -1)) \
                .reshape(nphi, k, k, npsi)
            g = self._dft @ m[:, np.arange(k), self._shift, :]  # (I, a, b, P)
            acc += (g.real**2 + g.imag**2).sum(axis=(0, -1)).reshape(-1)
        probs = acc / self._lam
        tail = max(0.0, 1.0 - probs.sum())
        return np.concatenate([probs, [tail]])


def displaced_measurement_for(g1: MatGF, subset: Sequence[int]) -> DisplacedMeasurement:
    """The decoder measurement on (D[A], E[A]): base sigma is the reduction
    of |Phi[0, G1]>, passed as its factor, and displacements act on the D[A]
    registers."""
    fr = frame_for(g1)
    n, q = fr.n, fr.q
    sub = sorted(int(s) for s in subset)
    keep = [s - 1 for s in sub] + [n + s - 1 for s in sub]
    psi = reduce_factor(fr.resource([0] * fr.y1), keep)
    # register order after reduce: D[A] then E[A]
    return DisplacedMeasurement(q, len(sub), psi, rest_dim=q ** len(sub))


# ---------------------------------------------------------------------------
# explicit small POVMs (for teleportation-style decoding)
# ---------------------------------------------------------------------------

@dataclass
class Povm:
    """Labeled positive operators held as factors, no element formed: element
    k is F_k F_k^dag with factors[k] = F_k of shape (d, r_k).  A trailing None
    label (no factor) is the implicit completion I - sum_k F_k F_k^dag;
    without it the elements must sum to the identity within 1e-10 d."""

    labels: list
    factors: list

    def __post_init__(self):
        if self.labels[-1] is not None:
            f = np.hstack(self.factors)
            if np.linalg.norm(f @ f.conj().T - np.eye(len(f))) > POVM_TOL * len(f):
                raise IncompletePovm("POVM elements do not sum to the identity")


# ---------------------------------------------------------------------------
# entropic metrics
# ---------------------------------------------------------------------------

def vn_entropy(rho: np.ndarray) -> float:
    """von Neumann entropy in bits."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > EIG_CUTOFF]
    return float(-(w * np.log2(w)).sum())


def mutual_info_dims(rho: np.ndarray, da: int, db: int) -> float:
    """I(A;B) for an explicit (da x db) x (da x db) bipartite density."""
    t = rho.reshape(da, db, da, db)
    ra = np.einsum("ibjb->ij", t)
    rb = np.einsum("aiaj->ij", t)
    return vn_entropy(ra) + vn_entropy(rb) - vn_entropy(rho)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

@dataclass
class Channel:
    """A TP-CP map as a matrix function with explicit dimensions; fn maps a
    stack (..., din, din) of inputs to the stack (..., dout, dout)."""

    din: int
    dout: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.fn(rho)

    def choi(self) -> np.ndarray:
        """(1/din) sum_{ij} |i><j| (x) L(|i><j|): apply_on_second of the
        unnormalized maximally entangled sum_{ij} |ii><jj|."""
        e = np.eye(self.din, dtype=np.complex128).reshape(-1)
        return apply_on_second(np.outer(e, e), self.din, self) / self.din


def apply_on_second(rho_ra: np.ndarray, d_r: int, chan: Channel) -> np.ndarray:
    """(id (x) Lambda) acting on an (R, A) density with A = channel input,
    as one application of Lambda to the stack of (r, r') blocks."""
    d_a, d_o = chan.din, chan.dout
    blocks = rho_ra.reshape(d_r, d_a, d_r, d_a).transpose(0, 2, 1, 3)
    out = chan(blocks.reshape(d_r * d_r, d_a, d_a)).reshape(d_r, d_r, d_o, d_o)
    return out.transpose(0, 2, 1, 3).reshape(d_r * d_o, d_r * d_o)


def compose(after: Channel, before: Channel) -> Channel:
    if after.din != before.dout:
        raise BadRegisters("channel dimensions do not compose")
    return Channel(din=before.din, dout=after.dout,
                   fn=lambda rho: after.fn(before.fn(rho)))


def choi_fidelity_identity(chan: Channel) -> float:
    """Entanglement fidelity with the identity channel (1.0 iff identity on
    the maximally entangled input)."""
    d = chan.din
    c = chan.choi()
    phi = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        phi[i * d + i] = 1.0
    phi /= np.sqrt(d)
    return float((phi.conj() @ c @ phi).real)


def gamma_bar(q: int, n_out: int, povm: Povm, d_b: int) -> Channel:
    """Teleportation-style decoder: measure the POVM on (R, B) against a
    fresh maximally entangled (R, A) pair and apply the label's correction
    unitary on A.

    Labels are displacement tuples (a | b) in F_q^(2 n_out) of the perfect
    dense-coding family, whose displacements act on the channel-input half
    B; the correction is W(a, b).  A None label (the completion element)
    receives no correction.

    Each column of F_k, read as a d_a x d_b matrix A_j, is the Kraus term
    U_k conj(A_j) / sqrt(d_a); the completion adds tr(rho) I / d_a - sum_j
    conj(A_j) rho A_j^T / d_a.  All terms sum once into a (d_a^2, d_b^2)
    matrix on row-major vec(rho); no POVM element is formed, no block size.
    """
    d_a = q**n_out

    def transfer(kraus: np.ndarray) -> np.ndarray:  # sum_j K_j (.) K_j^dag
        x = kraus.transpose(1, 2, 0).reshape(d_a * d_b, -1)
        g = (x @ x.conj().T).reshape(d_a, d_b, d_a, d_b)
        return g.transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)

    kraus = [f.T.conj().reshape(-1, d_a, d_b) / np.sqrt(d_a) for f in povm.factors]
    corrected = [weyl_matrix(q, n_out, label) @ k
                 for label, k in zip(povm.labels, kraus)]
    t = transfer(np.concatenate(corrected))
    if povm.labels[-1] is None:
        t += np.outer(np.eye(d_a), np.eye(d_b)) / d_a - transfer(np.concatenate(kraus))
    return Channel(din=d_b, dout=d_a, fn=lambda rho: (
        rho.reshape(rho.shape[:-2] + (-1,)) @ t.T).reshape(rho.shape[:-2] + (d_a, d_a)))
