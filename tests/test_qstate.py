"""Dense quantum oracle: Weyl algebra, stabilizer machinery, measurements,
partial traces, entropic metrics, teleportation channel."""

import numpy as np
import pytest

from conftest import bell_povm, wide_ea_pools
from mmsplab import qstate as qs
from mmsplab.errors import NonPrimeLocalDim, NotMaximalIsotropic
from mmsplab.fields import field_build
from mmsplab.fixtures import example1, example2
from mmsplab.linalg import MatGF, is_self_col_orth

F3 = field_build(3, 1)
Q = 3
OMEGA = np.exp(2j * np.pi / 3)


def _w(a, b):
    return qs.weyl_matrix(Q, 1, [a, b])


def test_weyl_identity_and_nonprime():
    assert np.allclose(_w(0, 0), np.eye(3))
    # the dense oracle refuses F_2 (q = 2 has no 2^-1 for the aligned
    # phases) and every prime-power field, before building anything
    for p, r in ((2, 1), (2, 2), (3, 2)):
        g1 = MatGF.from_ints(field_build(p, r), [[1], [0]])
        with pytest.raises(NonPrimeLocalDim):
            qs.frame_for(g1)


def test_weyl_commutation_exhaustive():
    # W(a,b) W(c,d) = w^(cb - ad) W(c,d) W(a,b): the sign follows from
    # Z(b) X(c) = w^(bc) X(c) Z(b) with the stated operator definitions
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    lhs = _w(a, b) @ _w(c, d)
                    rhs = OMEGA ** ((c * b - a * d) % 3) * (_w(c, d) @ _w(a, b))
                    assert np.allclose(lhs, rhs)


def test_weyl_order():
    for a in range(3):
        for b in range(3):
            m = np.linalg.matrix_power(_w(a, b), 3)
            assert np.allclose(m / m[0, 0], np.eye(3))  # phase times identity


def test_stabilizer_pure_x_and_z():
    n = 2
    ix = MatGF.zeros(F3, 2 * n, n)
    for i in range(n):
        ix.a[i, i] = 1
    st = qs.joint_eigenvector(Q, n, ix.a, [0] * n)
    assert np.allclose(st, np.full((Q,) * n, 1 / Q))
    iz = MatGF.zeros(F3, 2 * n, n)
    for i in range(n):
        iz.a[n + i, i] = 1
    st = qs.joint_eigenvector(Q, n, iz.a, [0] * n)
    want = np.zeros((Q,) * n)
    want[0, 0] = 1
    assert np.allclose(st, want)


def test_stabilizer_example2_generator_fixed():
    ex = example2()
    gens = ex.g1.a  # y1 = n = 3: 27-dim state
    st = qs.joint_eigenvector(Q, 3, gens, [0, 0, 0])
    for j in range(3):
        moved = qs.apply_sw(st, Q, gens[:, j], [0, 1, 2])
        assert np.linalg.norm(moved - st) < 1e-10


def test_stabilizer_rejects_non_isotropic():
    bad = MatGF.from_ints(F3, [[1, 0], [0, 0], [0, 1], [0, 0]])
    with pytest.raises(NotMaximalIsotropic):
        qs.frame_for(bad)


def test_ea_resource_flavors():
    n = 2
    empty = MatGF.zeros(F3, 2 * n, 0)
    res = qs.frame_for(empty).resource([])
    want = np.zeros((Q,) * 4, dtype=complex)
    for i in range(Q):
        for j in range(Q):
            want[i, j, i, j] = 1 / Q
    assert np.allclose(res, want)
    # y1 = n: product of a stabilizer state and a fixed user state
    iz = MatGF.zeros(F3, 2 * n, n)
    for i in range(n):
        iz.a[n + i, i] = 1
    prod = qs.frame_for(iz).resource([0, 0])
    mat = prod.reshape(Q**n, Q**n)
    s = np.linalg.svd(mat, compute_uv=False)
    assert (s > 1e-9).sum() == 1


def test_ea_resource_example1_schmidt_rank():
    ex = example1()
    res = qs.frame_for(ex.g1).resource([0, 0])
    s = np.linalg.svd(res.reshape(27, 27), compute_uv=False)
    assert (s > 1e-9).sum() == 3


def _resource_cases():
    cases = [("example1", example1().g1), ("example2", example2().g1)]
    cases += [(label, b.g1) for label, b, _ in wide_ea_pools()]
    return [pytest.param(g1, id=label) for label, g1 in cases]


@pytest.mark.parametrize("g1", _resource_cases())
def test_resource_is_the_eigenspace_projector(g1):
    """For every y, |Phi[y, G1]> has unit norm, is an SW(g_j)-eigenvector
    with eigenvalue w^(y_j) on the D registers, and has Schmidt rank
    q^(n - y1) across D | E."""
    q, n, y1 = g1.ctx.q, g1.rows // 2, g1.cols
    om = np.exp(2j * np.pi / q)
    fr = qs.frame_for(g1)
    for y in qs._enum_vecs(q, y1):
        res = fr.resource(y)
        assert abs(np.linalg.norm(res) - 1) < 1e-12
        for j in range(y1):
            moved = qs.apply_sw(res, q, g1.a[:, j], list(range(n)))
            assert np.linalg.norm(moved - om ** y[j] * res) < 1e-10
        s = np.linalg.svd(res.reshape(q**n, q**n), compute_uv=False)
        assert (s > 1e-9).sum() == q ** (n - y1)


def test_xzp_reduction():
    n = 2
    empty = MatGF.zeros(F3, 2 * n, 0)
    res = qs.frame_for(empty).resource([])
    rng = np.random.default_rng(0)
    phi = np.zeros((Q, Q), dtype=complex)
    for i in range(Q):
        phi[i, i] = 1 / np.sqrt(Q)
    for _ in range(6):
        x = rng.integers(0, Q, size=2 * n)
        amps = qs.apply_weyl(res, Q, list(x), list(range(n)))
        rho = qs.reduce_state(amps, [1, n + 1])
        bell = qs.apply_weyl(phi, Q, [x[1], x[n + 1]], [0]).reshape(-1)
        assert np.linalg.norm(rho - np.outer(bell, bell.conj())) < 1e-10
        # the dropped side is maximally mixed
        rest = qs.reduce_state(amps, [0])
        assert np.linalg.norm(rest - np.eye(Q) / Q) < 1e-10


def test_displaced_measurement_point_mass():
    n = 2
    empty = MatGF.zeros(F3, 2 * n, 0)
    res = qs.frame_for(empty).resource([])
    dm = qs.displaced_measurement_for(empty, [1, 2])
    rng = np.random.default_rng(1)
    for _ in range(6):
        x = rng.integers(0, Q, size=2 * n)
        amps = qs.apply_weyl(res, Q, list(x), list(range(n)))
        probs = dm.probabilities([(1.0, amps)])
        top = int(probs.argmax())
        assert probs[top] > 1 - 1e-9
        assert dm.label(top) == tuple(int(v) % Q for v in x)


def test_displaced_measurement_uniform_mixture():
    n = 1
    empty = MatGF.zeros(F3, 2 * n, 0)
    res = qs.frame_for(empty).resource([])
    dm = qs.displaced_measurement_for(empty, [1])
    comps = []
    for zi in range(Q**2):
        z = [zi % Q, zi // Q]
        comps.append((1.0 / Q**2,
                      qs.apply_weyl(res, Q, z, [0])))
    probs = dm.probabilities(comps)
    assert np.allclose(probs[:-1], 1.0 / Q**2, atol=1e-10)


@pytest.mark.parametrize("block_cells", [qs.DisplacedMeasurement.BLOCK_CELLS, 1])
@pytest.mark.parametrize("case", [
    # (G1, n, subset, whether the family leaves part of the space uncovered)
    ("empty n=1", 1, [1], False),
    ("example1", 3, [2], False),
    ("example1", 3, [1, 3], False),
    ("example2", 3, [1], False),
    ("example2", 3, [2, 3], True),
])
def test_displaced_measurement_brute_force_born_rule(case, block_cells,
                                                     monkeypatch):
    """The batched probabilities equal Tr[E_z rho] with the elements
    E_z = (W(z) (x) I) sigma (W(z) (x) I)^dag / lam built explicitly, for
    mixtures of unnormalised factors; the tail is Tr[(I - sum E_z) rho]."""
    name, n, sub, has_tail = case
    monkeypatch.setattr(qs.DisplacedMeasurement, "BLOCK_CELLS", block_cells)
    g1 = {"empty n=1": MatGF.zeros(F3, 2, 0), "example1": example1().g1,
          "example2": example2().g1}[name]
    k = len(sub)
    keep = [s - 1 for s in sub] + [n + s - 1 for s in sub]
    psi = qs.reduce_factor(qs.frame_for(g1).resource([0] * g1.cols), keep)
    sigma = psi @ psi.conj().T
    d, rest = sigma.shape[0], Q**k
    if k < n:
        assert np.linalg.matrix_rank(sigma, tol=1e-9) > 1
    elems = []
    for zi in range(Q ** (2 * k)):
        z = np.unravel_index(zi, (Q,) * (2 * k))
        w = np.kron(qs.weyl_matrix(Q, k, z), np.eye(rest))
        elems.append(w @ sigma @ w.conj().T)
    lam = np.linalg.eigvalsh(sum(elems)).max()
    elems = [e / lam for e in elems]
    tail_op = np.eye(d) - sum(elems)

    rng = np.random.default_rng(len(keep) + 7 * g1.cols)
    pieces = []
    for cols in (1, 3, 2):
        f = rng.normal(size=(d, cols)) + 1j * rng.normal(size=(d, cols))
        pieces.append((float(rng.uniform(0.2, 2.0)), f))
    pieces.append((0.5, psi))  # a piece inside the support
    tr = sum(w * np.linalg.norm(f) ** 2 for w, f in pieces)
    pieces = [(w / tr, f) for w, f in pieces]
    rho = sum(w * f @ f.conj().T for w, f in pieces)

    want = [np.trace(e @ rho).real for e in elems]
    want.append(np.trace(tail_op @ rho).real)
    dm = qs.DisplacedMeasurement(Q, k, psi, rest_dim=rest)
    got = dm.probabilities(pieces)
    assert np.abs(got - np.array(want)).max() < 1e-12
    assert (want[-1] > 1e-3) == has_tail


def _weyl_by_rolls(q, n, disp):
    """W(a, b) built as weyl_matrix built it before the monomial table:
    apply_weyl (phase, then np.roll per register) on the identity."""
    d = q**n
    eye = np.eye(d, dtype=np.complex128).reshape((q,) * n + (d,))
    return qs.apply_weyl(eye, q, disp, list(range(n))).reshape(d, d)


def _group_sum_reference(q, n, gens, phases):
    """The group sum as one accumulated term per element, in c order."""
    om = np.exp(2j * np.pi * np.arange(q) / q)
    acc = np.zeros((q**n, q**n), dtype=np.complex128)
    for c in qs._enum_vecs(q, gens.shape[1]):
        disp = (gens @ c) % q
        ph = om[int(c @ np.asarray(phases)) % q].conjugate()
        acc = acc + ph * (qs.aligned_phase(q, disp) * _weyl_by_rolls(q, n, disp))
    return acc


def _isotropic_gens(q, n, k, rng):
    """k independent isotropic columns: a random basis of the Lagrangian
    span of [I; S] for a random symmetric S, each register then turned by
    the symplectic swap (a, b) -> (-b, a) at random."""
    s = rng.integers(0, q, size=(n, n))
    lag = np.vstack([np.eye(n, dtype=np.int64), (s + s.T) % q])
    while True:
        mix = rng.integers(0, q, size=(n, n))
        if round(np.linalg.det(mix)) % q:
            break
    g = lag @ mix % q
    for i in np.flatnonzero(rng.integers(0, 2, size=n)):
        g[[i, n + i]] = (-g[n + i]) % q, g[i].copy()
    return g[:, :k]


@pytest.mark.parametrize("q", [3, 5, 7])
def test_stabilizer_projector_matches_group_sum_bytes(q):
    """The scatter of monomial entries is the accumulated group sum byte
    for byte (same products, same order per cell), for every n <= 3 the
    dense oracle admits and k = 0..n; weyl_matrix equals the rolled
    identity entry for entry."""
    rng = np.random.default_rng(q)
    for n in range(1, 4):
        if q ** (2 * n) > qs.DENSE_DIM_LIMIT:
            continue
        for k in range(n + 1):
            gens = _isotropic_gens(q, n, k, rng)
            assert is_self_col_orth(MatGF.from_ints(field_build(q, 1), gens.tolist()))
            phases = rng.integers(0, q, size=k)
            got = qs.stabilizer_projector(q, n, gens, phases)
            assert got.tobytes() == _group_sum_reference(q, n, gens, phases).tobytes()
        for _ in range(3):
            disp = rng.integers(0, q, size=2 * n)
            assert np.array_equal(qs.weyl_matrix(q, n, disp), _weyl_by_rolls(q, n, disp))


def _probabilities_by_fftn(dm, components):
    """Born distribution with the DFT over the k axes taken by np.fft.fftn,
    blocked as DisplacedMeasurement.probabilities blocks it."""
    q, n = dm.q, dm.n_act
    k, rest, nphi = q**n, dm.rest, dm._nphi
    cols = np.concatenate([np.sqrt(w) * np.asarray(f).reshape(dm.d, -1)
                           for w, f in components], axis=1)
    acc = np.zeros(q ** (2 * n))
    step = max(1, dm.BLOCK_CELLS // (nphi * k * k))
    for lo in range(0, cols.shape[1], step):
        psi = cols[:, lo:lo + step].reshape(k, rest, -1)
        npsi = psi.shape[-1]
        m = (dm._phi_rows @ psi.transpose(1, 0, 2).reshape(rest, -1)) \
            .reshape(nphi, k, k, npsi)
        c = m[:, np.arange(k), dm._shift, :].reshape((nphi,) + (q,) * (2 * n) + (npsi,))
        g = np.fft.fftn(c, axes=tuple(range(1 + n, 1 + 2 * n)))
        acc += (np.abs(g) ** 2).sum(axis=(0, -1)).reshape(-1)
    probs = acc / dm._lam
    return np.concatenate([probs, [max(0.0, 1.0 - probs.sum())]])


@pytest.mark.parametrize("blocks", ["one", "two columns", "one column"])
@pytest.mark.parametrize("sub", [[2], [1, 3], [1, 2, 3]], ids=lambda s: f"n_act={len(s)}")
def test_probabilities_character_table_matches_fftn(sub, blocks, monkeypatch):
    """On example 1's decoder measurements at n_act = 1, 2, 3 (rest
    q^n_act > 1), the character-table product gives the fftn distribution
    within 1e-12, in one block and split into several."""
    g1 = example1().g1
    keep = [s - 1 for s in sub] + [3 + s - 1 for s in sub]
    dm = qs.displaced_measurement_for(g1, sub)
    k = Q ** len(sub)
    cells = {"one": qs.DisplacedMeasurement.BLOCK_CELLS,
             "two columns": 2 * dm._nphi * k * k, "one column": 1}[blocks]
    monkeypatch.setattr(qs.DisplacedMeasurement, "BLOCK_CELLS", cells)
    rng = np.random.default_rng(len(sub))
    d = dm.d
    pieces = [(0.5, qs.reduce_factor(qs.frame_for(g1).resource([0] * g1.cols), keep))]
    for cols in (1, 4, 2):
        f = rng.normal(size=(d, cols)) + 1j * rng.normal(size=(d, cols))
        pieces.append((float(rng.uniform(0.2, 2.0)) / np.linalg.norm(f) ** 2, f))
    want = _probabilities_by_fftn(dm, pieces)
    assert np.abs(dm.probabilities(pieces) - want).max() < 1e-12
    assert dm.rest > 1 and want[:-1].max() > 1e-3


def test_reduce_factor_mixed_register_sizes():
    """A (d_r, q, q, q) tensor, as the QQ decoder passes with d_r = q^(x/2):
    the kept dimension is the product of the kept axes' sizes, and the
    factor reproduces the explicit partial trace."""
    rng = np.random.default_rng(2)
    v = rng.normal(size=(9, Q, Q, Q)) + 1j * rng.normal(size=(9, Q, Q, Q))
    v /= np.linalg.norm(v)
    psi = qs.reduce_factor(v, [0, 2])
    assert psi.shape == (27, 9)
    want = np.einsum("abcd,ebfd->acef", v, v.conj()).reshape(27, 27)
    assert np.linalg.norm(psi @ psi.conj().T - want) < 1e-12
    psi = qs.reduce_factor(v, [1, 3])
    want = np.einsum("abcd,aecf->bdef", v, v.conj()).reshape(9, 9)
    assert psi.shape == (9, 27)
    assert np.linalg.norm(psi @ psi.conj().T - want) < 1e-12
    # keeping everything returns the pure state's projector
    flat = v.reshape(-1)
    assert np.linalg.norm(qs.reduce_state(v, [0, 1, 2, 3])
                          - np.outer(flat, flat.conj())) < 1e-12


def test_entropies_and_relative_entropy():
    phi = np.zeros(Q * Q, dtype=complex)
    for i in range(Q):
        phi[i * Q + i] = 1 / np.sqrt(Q)
    rho = np.outer(phi, phi.conj())
    assert abs(qs.mutual_info_dims(rho, Q, Q) - 2 * np.log2(3)) < 1e-9


def test_teleportation_identity_and_negative_control():
    """The dense-coding family displaced on the channel-input half,
    corrected with W(a, b), teleports exactly; a random complete POVM
    does not."""
    for q, n in ((3, 1), (5, 1), (3, 2)):
        ch = qs.gamma_bar(q, n, bell_povm(q, n), d_b=q**n)
        assert abs(qs.choi_fidelity_identity(ch) - 1) < 1e-9
    rng = np.random.default_rng(5)
    d = Q * Q
    amats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(6)]
    tot = sum(a @ a.conj().T for a in amats)
    w, v = np.linalg.eigh(tot)
    isq = (v * w**-0.5) @ v.conj().T
    # elements isq a a^dag isq, summing to the identity, as factors isq a
    labels = [(i % 3, i // 3) for i in range(6)]
    povm = qs.Povm(labels=labels, factors=[isq @ a for a in amats])
    ch2 = qs.gamma_bar(Q, 1, povm, d_b=Q)
    assert qs.choi_fidelity_identity(ch2) < 0.9


def test_alignment_covariance():
    """The stabilizer frame is unique up to a Weyl displacement: displacing
    the base state and the measurement base together leaves the decoded
    statistics unchanged."""
    from mmsplab import qprotocols as qp
    from mmsplab.fixtures import example1

    ex = example1()
    engine = qp.EaEngine(g1=ex.g1, g2=MatGF.zeros(F3, 6, 0), f=ex.f)
    m = np.array([1, 2], dtype=np.int64)
    comps = engine.share_components(engine.message_displacements(m))
    sub = [2, 3]
    dec = qp.DispDecoder(ex.g1, MatGF.zeros(F3, 6, 0), ex.f, sub)
    base = engine.decoded_distribution(sub, comps, dec)

    shift = np.array([1, 0, 2, 0, 1, 1], dtype=np.int64)
    shifted_base = qs.apply_weyl(engine.frame.resource([0, 0]), Q,
                                 list(shift), [0, 1, 2])
    comps2 = [(w, qs.apply_weyl(shifted_base, Q, list(x), [0, 1, 2]))
              for (w, _), x in zip(comps, engine.message_displacements(m))]
    keep = [s - 1 for s in sub] + [3 + s - 1 for s in sub]
    psi2 = qs.reduce_factor(shifted_base, keep)
    dm2 = qs.DisplacedMeasurement(Q, len(sub), psi2, rest_dim=Q ** len(sub))
    pieces = []
    for w, a in comps2:
        rho = qs.reduce_state(a, keep)
        ev, vec = np.linalg.eigh(rho)
        for lam, v in zip(ev, vec.T):
            if lam > 1e-12:
                pieces.append((w * lam, v))
    probs = dm2.probabilities(pieces)
    shifted = {}
    for idx, p in enumerate(probs):
        if p < 1e-12:
            continue
        label = dm2.label(idx) if idx < dm2.nout else None
        if label is None:
            continue
        mm = dec.decode(label)  # shifts of base and measurement cancel
        key = tuple(int(v) for v in mm.a) if mm is not None else None
        shifted[key] = shifted.get(key, 0.0) + float(p)
    assert set(base) == set(shifted)
    for k in base:
        assert abs(base[k] - shifted[k]) < 1e-9
