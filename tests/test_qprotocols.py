"""Protocol runners, audits, conversions, and the symplectic-track backend."""

import json

import numpy as np
import pytest

from conftest import bell_povm, depolarizing_channel, identity_channel, wide_ea_pools
from mmsplab import classical as cl
from mmsplab import cli
from mmsplab import qprotocols as qp
from mmsplab import qstate as qs
from mmsplab.access import make_threshold, symplectify_structure
from mmsplab.classical import spir_query
from mmsplab.errors import (BadIndex, ClassInvariantViolated, ClassMismatch, NonPrimeLocalDim,
                            TooLarge)
from mmsplab.fields import field_build
from mmsplab.fixtures import example1, example2, example3
from mmsplab.linalg import MatGF, VecGF
from mmsplab.mmsp import is_mmsp, make_bundle

F3 = field_build(3, 1)


@pytest.fixture(scope="module")
def ex1():
    return example1()


@pytest.fixture(scope="module")
def ex2():
    return example2()


def test_eass_run_both_backends(ex1):
    m = VecGF.from_ints(F3, [1, 2])
    tr = qp.run_ss(ex1.bundle, m, seed=3, access=ex1.access)
    assert all(v == [1, 2] for v in tr.outcome.values())
    tr2 = qp.run_ss(ex1.bundle, m, seed=3, access=ex1.access,
                    backend="symplectic")
    assert tr2.outcome == tr.outcome


CLASS_REFUSALS = [(flavor, example, call)
                  for flavor, example in (("eass", "ex2"), ("easpir", "ex2"),
                                          ("cqss", "ex1"), ("cqspir", "ex1"))
                  for call in ("dense", "symplectic", "audit")]
CLASS_REFUSALS += [("flow5", "ex1qq", "equivalence"), ("modified-eass", "ex1qq", "run")]


@pytest.mark.parametrize("flavor,example,call", CLASS_REFUSALS,
                         ids=["-".join(c) for c in CLASS_REFUSALS])
def test_run_class_mismatch(flavor, example, call, ex1, ex2):
    """A flavor refuses a bundle of another class in its runner on either
    backend and in its audit; the conversion check and the modified EASS
    refuse a QQ bundle."""
    bundle, access = {"ex1": (ex1.bundle, ex1.access), "ex2": (ex2.bundle, ex2.access),
                      "ex1qq": (make_bundle("qq", ex1.g1, None, ex1.f, n=3),
                                ex1.access)}[example]
    m = VecGF.zeros(bundle.ctx, bundle.x)
    files = np.zeros(2 * bundle.x, dtype=np.int64)
    with pytest.raises(ClassMismatch):
        if flavor == "flow5":
            qp.flow5_equivalence(bundle, 2, access)
        elif flavor == "modified-eass":
            qp.run_modified_eass(bundle, m, 0, access)
        elif call == "audit" and flavor.endswith("spir"):
            qp.audit_spir(bundle, access, 2, protocol=flavor)
        elif call == "audit":
            qp.audit_ss(bundle, access, protocol=flavor)
        elif flavor.endswith("spir"):
            qp.run_spir(bundle, files, 1, 0, access, 2, protocol=flavor, backend=call)
        else:
            qp.run_ss(bundle, m, 0, access, protocol=flavor, backend=call)


def test_feass_runner(ex1):
    m = VecGF.from_ints(F3, [0, 1])
    tr = qp.run_ss(make_bundle("ea", ex1.g1, None, ex1.f), m, seed=5, access=ex1.access,
                   protocol="feass")
    assert all(v == [0, 1] for v in tr.outcome.values())


def _write_inputs(tmp_path, bundle, access) -> list[str]:
    paths = [tmp_path / "b.json", tmp_path / "s.json"]
    for path, obj in zip(paths, (bundle.to_json(), access.to_json())):
        path.write_text(json.dumps(obj))
    return [str(p) for p in paths]


@pytest.mark.parametrize("flavor", ["feass", "feaspir"])
def test_fe_audit_runs_the_fully_entangled_protocol(flavor, ex1, tmp_path, capsys,
                                                    monkeypatch):
    """`audit feass` / `audit feaspir` on example 1 audit (G1|G2, F) with G1
    emptied, as `simulate` runs it, not the bundle's G1 of 2 columns."""
    fe = make_bundle("ea", None, ex1.bundle.g_stack(), ex1.f)
    rep = (qp.audit_spir(fe, ex1.access, 2, protocol=flavor) if flavor.endswith("spir")
           else qp.audit_ss(fe, ex1.access, protocol=flavor))
    want = json.loads(json.dumps(rep.to_json()))
    seen = []

    class Spy(qp.EaEngine):
        def __init__(self, g1, g2, f):
            seen.append(g1.cols)
            super().__init__(g1, g2, f)

    monkeypatch.setattr(qp, "EaEngine", Spy)
    assert cli.main(["audit", flavor, *_write_inputs(tmp_path, ex1.bundle, ex1.access)]) == 0
    assert seen and set(seen) == {0}
    assert json.loads(capsys.readouterr().out)["report"] == want


@pytest.mark.parametrize("command", ["simulate", "audit"])
@pytest.mark.parametrize("cls", ["plain", "ea", "cq", "qq"])
def test_fe_runs_any_2n_row_bundle_and_refuses_plain(cls, command, ex1, ex2, tmp_path,
                                                     capsys):
    """The FE flavors run an ea, cq or qq bundle with G1 emptied; a plain
    bundle, whose rows are no register pairs, is refused up front with
    ClassMismatch (exit 1), not deep inside with IndexOutOfRange."""
    if cls == "plain":
        bundle = make_bundle("plain", ex1.bundle.g_stack(), None, ex1.f)
        access = make_threshold(4, 2, 6)
    elif cls == "qq":
        bundle, access = make_bundle("qq", ex1.g1, None, ex1.f, n=3), ex1.access
    else:
        bundle, access = (ex1.bundle, ex1.access) if cls == "ea" else (ex2.bundle, ex2.access)
    paths = _write_inputs(tmp_path, bundle, access)
    if command == "audit":
        argv = ["audit", "feass", *paths]
    else:
        argv = ["simulate", "--protocol", "feass", "--bundle", paths[0],
                "--structure", paths[1], "--message", "1,2", "--seed", "1"]
    code = cli.main(argv)
    rep = json.loads(capsys.readouterr().out)
    if cls != "plain":
        assert code == 0 and rep["ok"]
        return
    assert code == 1 and rep["ok"] is False
    assert rep["error"].startswith("ClassMismatch: ") and "feass" in rep["error"]


def test_eass_audit_example1(ex1):
    rep = qp.audit_ss(ex1.bundle, ex1.access, protocol="eass")
    assert rep.secure and rep.matches_classify


@pytest.mark.parametrize("field", ["F3", "GF(9)", "GF(3^16)"])
def test_disp_decoder_matches_solve(field):
    """Decoding through the cached row transform agrees with a fresh solve
    of [P(G) P(F)] (a, m) = z, on labels inside and outside its image."""
    from mmsplab.fields import tower_build
    from mmsplab.linalg import hstack, solve

    rng = np.random.default_rng(3)
    if field == "F3":
        ex = example1()
        g1, g2, f = ex.g1, MatGF.zeros(F3, 6, 0), ex.f
    else:
        ctx = field_build(3, 2) if field == "GF(9)" else tower_build(3, 4)
        g1 = MatGF.zeros(ctx, 6, 0)
        g2 = MatGF.from_ints(ctx, rng.integers(0, 3, size=(6, 2)).tolist())
        f = MatGF.from_ints(ctx, rng.integers(0, 3, size=(6, 1)).tolist())
    ctx = f.ctx
    seen = {True: 0, False: 0}  # labels inside / outside the image
    for sub in ([1, 2], [2, 3], [1, 2, 3]):
        dec = qp.DispDecoder(g1, g2, f, sub)
        stacked = hstack([dec.g, dec.f])
        for _ in range(40):
            z = [int(v) for v in rng.integers(0, 3, size=2 * len(sub))]
            got = dec.decode(z)
            if not dec.ok:
                assert got is None
                continue
            want = solve(stacked, VecGF.from_ints(ctx, z))
            seen[want is not None] += 1
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got.a, want.a[dec.g.cols:])
    assert seen[True] and seen[False]


def test_symplectic_runs_make_no_coset_rep(ex1, monkeypatch):
    """A symplectic SS or SPIR run decodes every accept set without the
    coset representative, which its transcript never logs."""
    m = VecGF.from_ints(ex1.bundle.ctx, [1, 2])
    files = np.array([1, 0, 2, 1], dtype=np.int64)
    want = [qp.run_ss(ex1.bundle, m, 3, ex1.access, backend="symplectic").digest(),
            qp.run_spir(ex1.bundle, files, 2, 3, ex1.access, 2,
                        backend="symplectic").digest()]

    def no_coset_rep(*args, **kwargs):
        raise AssertionError("coset_rep called")

    monkeypatch.setattr(qp, "coset_rep", no_coset_rep)
    assert want == [
        qp.run_ss(ex1.bundle, m, 3, ex1.access, backend="symplectic").digest(),
        qp.run_spir(ex1.bundle, files, 2, 3, ex1.access, 2,
                    backend="symplectic").digest()]


def test_eass_audit_needs_no_eigendecomposition(ex1, monkeypatch):
    """The displaced-measurement path of an audit runs without eigh: the
    report is unchanged with numpy.linalg.eigh made to raise."""
    want = qp.audit_ss(ex1.bundle, ex1.access, protocol="eass").to_json()

    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(qs, "_FRAMES", {})  # rebuild frames and measurements
    assert qp.audit_ss(ex1.bundle, ex1.access, protocol="eass").to_json() == want


def test_cqss_audit_example2(ex2):
    rep = qp.audit_ss(ex2.bundle, ex2.access, protocol="cqss")
    assert rep.secure and rep.matches_classify


def test_eass_audit_example3():
    ex3 = example3(3)
    rep = qp.audit_ss(ex3.bundle, ex3.access, protocol="eass")
    assert rep.secure and rep.matches_classify


def test_modified_eass_matches_eass(ex1):
    for mi in (0, 4, 7):
        m = VecGF.from_ints(F3, [mi % 3, mi // 3])
        mod = qp.run_modified_eass(ex1.bundle, m, seed=0, access=ex1.access)
        direct = qp.decoded_distributions(ex1.bundle, ex1.f @ m, ex1.access)
        for key in direct:
            d1, d2 = mod.outcome[key], direct[key]
            ks = set(d1) | set(d2)
            assert all(abs(d1.get(k, 0) - d2.get(k, 0)) < 1e-9 for k in ks)


def test_modified_eass_y1_zero_is_feass(ex1):
    empty = MatGF.zeros(F3, 6, 0)
    bundle = make_bundle("ea", empty, ex1.g1, ex1.f, n=3)
    m = VecGF.from_ints(F3, [1, 0])
    mod = qp.run_modified_eass(bundle, m, seed=0, access=ex1.access)
    direct = qp.decoded_distributions(bundle, bundle.f @ m, ex1.access)
    for key in direct:
        d1, d2 = mod.outcome[key], direct[key]
        ks = set(d1) | set(d2)
        assert all(abs(d1.get(k, 0) - d2.get(k, 0)) < 1e-9 for k in ks)


def test_backend_crossvalidation_exhaustive(ex1):
    engine = qp.EaEngine(g1=ex1.g1, g2=ex1.bundle.g2, f=ex1.f)
    for mi in range(9):
        m = np.array([mi % 3, mi // 3], dtype=np.int64)
        comps = engine.share_components(engine.message_displacements(m))
        for a in ([1, 2], [2, 3], [1, 2, 3]):
            dec = qp.DispDecoder(ex1.g1, ex1.bundle.g2, ex1.f, a)
            dist = engine.coset_distribution(a, comps, dec)
            rep, _ = qp.symp_track(ex1.bundle, m, np.zeros(0, dtype=np.int64), a)
            assert abs(dist.get(rep, 0.0) - 1.0) < 1e-9


def test_symp_track_large_field():
    # works at n = 8, q = 9, where the dense backend refuses
    f9 = field_build(3, 2, [2, 2, 1])
    rng = np.random.default_rng(0)
    g1 = MatGF.zeros(f9, 16, 0)
    g2 = MatGF(f9, rng.integers(0, 9, size=(16, 2)).astype(np.int64))
    f = MatGF(f9, rng.integers(0, 9, size=(16, 2)).astype(np.int64))
    bundle = make_bundle("ea", g1, g2, f, n=8)
    with pytest.raises(TooLarge):
        qp.EaEngine(g1=g1, g2=g2, f=f)
    m = np.array([4, 7], dtype=np.int64)
    u2 = np.array([1, 8], dtype=np.int64)
    rep, decoded = qp.symp_track(bundle, m, u2, list(range(1, 9)))
    assert decoded is not None
    assert [int(v) for v in decoded.a] == [4, 7]


def test_symp_track_zero_inputs(ex1):
    rep, decoded = qp.symp_track(ex1.bundle, np.zeros(2, dtype=np.int64),
                                 np.zeros(0, dtype=np.int64), [1, 2])
    assert all(v == 0 for v in rep)
    assert decoded is not None and all(int(v) == 0 for v in decoded.a)


def test_qqss_run_and_audit(ex1):
    bqq = make_bundle("qq", ex1.g1, None, ex1.f, n=3)
    rho = np.zeros((3, 3), dtype=complex)
    rho[2, 2] = 1.0
    tr, rec = qp.run_qqss(bqq, rho, seed=0, subset=[2, 3])
    assert np.real(np.trace(rec @ rho)) > 1 - 1e-9
    rep = qp.audit_qqss(bqq, ex1.access)
    assert rep.secure and rep.matches_classify


def test_qqss_not_recovered_when_decoding_is_broken(ex1, monkeypatch, tmp_path, capsys):
    """A decoded channel that does not return its input makes run_qqss
    report "not recovered" and `simulate --protocol qqss` report ok false
    with exit 1; the intact run recovers with exit 0."""
    bqq = make_bundle("qq", ex1.g1, None, ex1.f, n=3)
    paths = tmp_path / "b.json", tmp_path / "s.json"
    paths[0].write_text(json.dumps(bqq.to_json()))
    paths[1].write_text(json.dumps(ex1.access.to_json()))
    argv = ["simulate", "--protocol", "qqss", "--bundle", str(paths[0]),
            "--structure", str(paths[1]), "--subset", "1,2", "--seed", "0"]
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    assert qp.run_qqss(bqq, rho, seed=0, subset=[1, 2])[0].outcome == "recovered"
    assert cli.main(argv) == 0 and json.loads(capsys.readouterr().out)["ok"] is True

    decoded = qp.qq_decoded_channel
    monkeypatch.setattr(qp, "qq_decoded_channel", lambda *args: qs.compose(
        depolarizing_channel(3), decoded(*args)))
    tr, _ = qp.run_qqss(bqq, rho, seed=0, subset=[1, 2])
    assert abs(tr.steps[-1]["fidelity_with_input"] - 1 / 3) < 1e-9
    assert tr.outcome == "not recovered"
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["transcript"]["outcome"] == "not recovered"


def test_qqss_identity_code_degenerate():
    # n = x' with empty G1: encode/decode is trivially the identity
    g1 = MatGF.zeros(F3, 2, 0)
    f = MatGF.identity(F3, 2)
    bundle = make_bundle("qq", g1, None, f, n=1)
    rho = np.array([[0.5, 0.5], [0.5, 0.5], ], dtype=complex)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = rho[0, 1] = rho[1, 0] = rho[1, 1] = 0.5
    tr, rec = qp.run_qqss(bundle, rho, seed=1, subset=[1])
    assert np.linalg.norm(rec - rho) < 1e-9


def test_qqss_secrecy_reduced_states(ex1):
    bqq = make_bundle("qq", ex1.g1, None, ex1.f, n=3)
    codec = qp.QqCodec(bqq)
    lam = qp.qq_channel(bqq, codec, [1])
    states = []
    for vec in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]):
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        states.append(lam(np.outer(v, v.conj())))
    for s in states[1:]:
        assert qp.trace_distance(states[0], s) < 1e-9


def test_teleport_identity_and_information_equality(ex1):
    bqq = make_bundle("qq", ex1.g1, None, ex1.f, n=3)
    fids = qp.teleport_decoder_fidelities(bqq, ex1.access)
    assert all(f >= 1 - 1e-9 for f in fids)
    idc = qp.dense_coding_information_check(identity_channel(3), 3, 1)
    assert abs(idc[0] - 2 * np.log2(3)) < 1e-9
    assert abs(idc[1] - 2 * np.log2(3)) < 1e-9
    dep = qp.dense_coding_information_check(depolarizing_channel(3), 3, 1)
    assert abs(dep[0]) < 1e-9 and abs(dep[1]) < 1e-9
    codec = qp.QqCodec(bqq)
    lam = qp.qq_channel(bqq, codec, [1])
    i_dense, i_chan = qp.dense_coding_information_check(lam, 3, 1)
    assert abs(i_dense - i_chan) < 1e-6


def test_easpir_run_and_audit(ex1):
    files = np.array([1, 2, 0, 2], dtype=np.int64)
    for k in (1, 2):
        tr = qp.run_spir(ex1.bundle, files, k, seed=11, access=ex1.access,
                         nfiles=2)
        want = [int(v) for v in files[(k - 1) * 2: k * 2]]
        assert all(v == want for v in tr.outcome.values())
        tr2 = qp.run_spir(ex1.bundle, files, k, seed=11, access=ex1.access,
                          nfiles=2, backend="symplectic")
        assert all(v == want for v in tr2.outcome.values())
    rep = qp.audit_spir(ex1.bundle, ex1.access, nfiles=2, protocol="easpir")
    assert rep.secure and rep.matches_classify


def test_cqspir_audit_example2(ex2):
    rep = qp.audit_spir(ex2.bundle, ex2.access, nfiles=2, protocol="cqspir")
    assert rep.secure and rep.matches_classify


@pytest.mark.parametrize("cols,narrow", [((2, 3, 1), True), ((9, 20, 7), False)],
                         ids=["qr", "dense"])
def test_mixture_distance_matches_dense(cols, narrow):
    """On seeded mixtures with unequal weights, on both sides of the shape
    rule (fewer stacked columns than rows, or not), the factored distance
    is the dense trace distance; a mixture regrouped with other weights is
    at distance 0 from itself."""
    rng = np.random.default_rng(sum(cols))
    d = 27

    def mixture(widths):
        out = []
        for k in widths:
            f = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
            out.append((float(rng.uniform(0.1, 3.0)), f))
        total = sum(w * np.linalg.norm(f) ** 2 for w, f in out)
        return [(w / total, f) for w, f in out]

    def dense(mix):
        return sum(w * f @ f.conj().T for w, f in mix)

    a, b = mixture(cols), mixture(cols[::-1])
    assert (2 * sum(cols) < d) == narrow
    want = qp.trace_distance(dense(a), dense(b))
    assert want > 0.1
    assert abs(qp.distances_from(a)(b) - want) < 1e-12
    # the same state with its first piece split in two at other weights
    w0, f0 = a[0]
    split = [(w0 / 4, 2 * f0[:, :1]), (w0, f0[:, 1:])] + a[1:]
    assert qp.trace_distance(dense(a), dense(split)) < 1e-12
    assert qp.distances_from(a)(split) < 1e-12


def test_spir_secrecy_eigvalsh_width_is_factor_span(monkeypatch):
    """Every secrecy comparison of an n = 3 EASPIR audit runs eigvalsh on a
    matrix no wider than the two mixtures' summed factor width (2 q^y2 on
    D-full (x) E-full), not on the 3^6 = 729-dimensional state."""
    from mmsplab import fixtures as fx

    bundle, fs = fx.make_pools("ea", 2, seed=3, n_values=(3,))[0][0]
    widths = []
    eigvalsh = np.linalg.eigvalsh

    def recording(m):
        widths.append(m.shape[0])
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    rep = qp.audit_spir(bundle, fs, nfiles=2, protocol="easpir")
    assert rep.secure and rep.matches_classify
    assert widths and max(widths) <= 2 * 3**bundle.y2


@pytest.mark.parametrize("kind", ["ea", "cq"])
def test_spir_audits_at_n4_match_classify(kind):
    """Seeded n = 4 F_3 SPIR audits, one positive and one negative each,
    agree with the span-program verdict."""
    from mmsplab import fixtures as fx

    pos, neg = fx.make_pools(kind, 1, seed=4, n_values=(4,))
    for (bundle, fs), want in ((pos[0], True), (neg[0], False)):
        rep = qp.audit_spir(bundle, fs, nfiles=2, protocol=kind + "spir")
        assert rep.secure == want and rep.matches_classify


def test_spir_query_index_outside_files_refused(ex1):
    u_q = MatGF.zeros(F3, ex1.bundle.y1 + ex1.bundle.y2, 2 * ex1.bundle.x)
    for k in (0, 3):
        with pytest.raises(BadIndex):
            spir_query(qp._spir_protocol(ex1.bundle, ex1.access, 2), k, u_q)
    with pytest.raises(BadIndex):
        qp.run_spir(ex1.bundle, np.zeros(4, dtype=np.int64), 3, seed=0,
                    access=ex1.access, nfiles=2, backend="symplectic")


def test_spir_correctness_decodes_the_ss_cases_once(ex1, monkeypatch):
    """Under U_Q = 0 every file's query displaces the shares by the SS share
    of its message, so the correctness sweep decodes the SS cases once per
    accept set: 3 sets x 9 messages, not once more per file."""
    calls = []
    real = qp.EaEngine.decoded_distribution
    monkeypatch.setattr(qp.EaEngine, "decoded_distribution",
                        lambda self, *args: calls.append(1) or real(self, *args))
    rep = qp.audit_spir(ex1.bundle, ex1.access, nfiles=2)
    assert rep.secure and rep.matches_classify
    assert len(calls) == 27


def test_spir_server_secrecy_runs_under_seeded_query_randomness():
    """The server-secrecy sweep runs under a seeded U_Q, so it tests that
    the stabilizer absorbs G1 U_Q fv: the shared sweep over (G1|G2) passes
    on every pool positive with y1 >= 1, and the same sweep with G2 alone,
    which leaves G1 U_Q fv unabsorbed, fails on each of them."""
    from mmsplab import fixtures as fx

    pos = [(b, fs) for b, fs in fx.make_pools("ea", 4, seed=102, n_values=(2,))[0] if b.y1]
    assert len(pos) == 4
    for bundle, fs in pos:
        rep = qp.audit_spir(bundle, fs, nfiles=2)
        assert all(ok for name, ok in rep.details if name.startswith("server-secret"))
        proto = qp._spir_protocol(bundle, fs, 2)
        queries = cl._seeded_queries(proto)
        assert all(cl._answers_secret(proto, queries))
        g2_only = cl.SpirProtocol(g=bundle.g2, f=bundle.f, access=proto.access, nfiles=2)
        assert not all(cl._answers_secret(g2_only, queries))


@pytest.mark.parametrize("case", wide_ea_pools(), ids=lambda c: c[0])
def test_dense_audit_and_crosscheck_beyond_f3(case, tmp_path, capsys):
    """On seeded n = 2 EA bundles over F_5 and F_7 the dense audit's verdict
    is the span-program verdict, and the dense oracle agrees with the
    symplectic track on every message and u2."""
    _, bundle, fs = case
    rep = qp.audit_ss(bundle, fs, protocol="eass")
    assert rep.secure == is_mmsp(bundle.g_stack(), bundle.f, symplectify_structure(fs))
    assert rep.matches_classify
    assert cli.main(["crosscheck", *_write_inputs(tmp_path, bundle, fs)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cases"] == bundle.ctx.q ** (bundle.x + bundle.y2) and not out["mismatches"]


@pytest.mark.parametrize("p, r", [(3, 2), (2, 1)])
def test_qq_dense_path_refuses_other_fields(p, r):
    """The QQ dense path refuses GF(9) and F_2 with NonPrimeLocalDim, as the
    EA engine does: the dense Weyl operators compute mod q, which is not
    GF(9)'s arithmetic, so an audit of a valid bundle over it returned a
    wrong verdict, and F_2 has no 2^-1 for the aligned phases."""
    ctx = field_build(p, r)
    g1 = MatGF.from_ints(ctx, [[1], [0], [0], [0]])
    f = MatGF.from_ints(ctx, [[0, 0], [1, 0], [0, 0], [0, 1]])
    bundle = make_bundle("qq", g1, None, f, n=2)
    with pytest.raises(NonPrimeLocalDim):
        qp.audit_qqss(bundle, make_threshold(1, 0, 2))


def test_single_server_degenerate_spir():
    # one player, reject only the empty set: retrieval trivially exact
    g1 = MatGF.zeros(F3, 2, 0)
    f = MatGF.from_ints(F3, [[1], [0]])
    fs = make_threshold(1, 0, 1)
    bundle = make_bundle("ea", g1, None, f, n=1)
    files = np.array([2, 1], dtype=np.int64)
    tr = qp.run_spir(bundle, files, 2, seed=0, access=fs, nfiles=2)
    assert all(v == [1] for v in tr.outcome.values())


def test_flow5_conversion(ex1):
    conv = qp.convert_flow5(ex1.bundle, nfiles=2)
    assert conv.params.get("converted_from") == "easpir"
    assert qp.flow5_equivalence(ex1.bundle, 2, ex1.access)
    rep = qp.audit_ss(conv, ex1.access, protocol="eass")
    assert rep.secure and rep.matches_classify


def test_flow5_f1_identity(ex1):
    # f = 1 conversion is the identity reindexing of the same protocol
    assert qp.flow5_equivalence(ex1.bundle, 1, ex1.access)


def test_flow5_security_inheritance():
    from mmsplab import fixtures as fx

    pos, _ = fx.make_pools("ea", 2, seed=33, n_values=(2,))
    for bundle, fs in pos:
        spir_rep = qp.audit_spir(bundle, fs, nfiles=2, protocol="easpir")
        conv = qp.convert_flow5(bundle, nfiles=2)
        ss_rep = qp.audit_ss(conv, fs, protocol="eass")
        if spir_rep.secure:
            assert ss_rep.secure


@pytest.fixture(scope="module")
def tower32():
    """Constructed EA and CQ bundles over the poly tower field GF(3^32)."""
    from mmsplab.constructions import construct_cqmmsp, construct_eammsp

    return (construct_eammsp(2, 1, 2, 2), construct_cqmmsp(2, 1, 2),
            make_threshold(2, 1, 2))


def test_symplectic_runs_on_tower_bundles(tower32):
    """EASS, FEASS, CQSS and EASPIR run on the symplectic track over
    GF(3^32); every qualified set reports the sent elements by their index
    sum_i c_i 3^i."""
    ea, cq, fs = tower32
    ctx = ea.ctx
    m = VecGF.from_elements(ctx, [ctx.from_coeffs([2, 1]), ctx.from_coeffs([0, 0, 1])])
    want = [2 + 1 * 3, 9]
    files = np.array([1, 2, 0, 2], dtype=np.int64)
    for seed in range(3):
        runs = [qp.run_ss(ea, m, seed, fs, "eass", "symplectic"),
                qp.run_ss(ea, m, seed, fs, "feass", "symplectic"),
                qp.run_ss(cq, m, seed, fs, "cqss", "symplectic")]
        for tr in runs:
            assert tr.outcome and all(v == want for v in tr.outcome.values())
        for k in (1, 2):
            tr = qp.run_spir(ea, files, k, seed, fs, nfiles=2, backend="symplectic")
            assert tr.outcome and all(v == files[2 * k - 2: 2 * k].tolist()
                                      for v in tr.outcome.values())


def test_symplectic_feaspir_prime_power():
    """Over GF(9) the query and the net displacement use field arithmetic,
    not integers mod 9: every seeded run returns file k."""
    gf9 = field_build(3, 2)
    rng = np.random.default_rng(8)
    g = MatGF(gf9, rng.integers(0, 9, size=(4, 2)))
    f = MatGF(gf9, rng.integers(0, 9, size=(4, 1)))
    fe, fs = make_bundle("ea", None, g, f), make_threshold(2, 1, 2)
    for seed in range(30):
        files = rng.integers(0, 9, size=2)
        k = 1 + seed % 2
        tr = qp.run_spir(fe, files, k, seed, fs, 2, "feaspir", "symplectic")
        assert tr.outcome and all(v == [int(files[k - 1])] for v in tr.outcome.values())


@pytest.mark.parametrize("field", ["GF(5)", "GF(9)", "GF(3^32)"])
def test_symp_track_matches_css_decode(field, tower32):
    """The symplectic track decodes a displacement F m + G2 u2 exactly as
    classical CSS decoding of the same restricted displacement with
    randomness matrix (G1|G2), on every qualified set."""
    from mmsplab.access import symplectify
    from mmsplab.classical import CssProtocol, css_decode
    from mmsplab.linalg import restrict, restrict_vec

    rng = np.random.default_rng(12)
    if field == "GF(3^32)":
        bundle, fs = tower32[0], tower32[2]
    else:
        ctx = field_build(5, 1) if field == "GF(5)" else field_build(3, 2)
        cells = [MatGF(ctx, ctx.random_cells(rng, 6, c)) for c in (1, 1, 1)]
        bundle, fs = make_bundle("ea", *cells, n=3), make_threshold(2, 1, 3)
    ctx = bundle.ctx
    css = CssProtocol(g=bundle.g_stack(), f=bundle.f, access=symplectify_structure(fs))
    decoders = {tuple(sorted(a)): qp.DispDecoder(bundle.g1, bundle.g2, bundle.f, sorted(a))
                for a in fs.accept_iter()}
    decoded = 0
    for _ in range(10):
        m, u2 = ctx.random_cells(rng, bundle.x), ctx.random_cells(rng, bundle.y2)
        disp = bundle.f @ VecGF(ctx, m) + bundle.g2 @ VecGF(ctx, u2)
        for a in fs.accept_iter():
            sympl = sorted(symplectify(a, bundle.n))
            want = css_decode(css, sympl, restrict_vec(disp, sympl))
            _, got = qp.symp_track(bundle, m, u2, sorted(a))
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got.a, want.a) and np.array_equal(got.a, m)
                decoded += 1
            # the set's one decoder, reused across messages, tracks the full
            # displacement: CSS decoding and the coset of P_A G1
            rep2, got2 = decoders[tuple(sorted(a))].track(disp)
            assert rep2 == qp.coset_rep(restrict(bundle.g1, sympl),
                                        restrict_vec(disp, sympl).a[None])[0]
            assert (got2 is None) == (want is None)
            assert want is None or np.array_equal(got2.a, want.a)
    assert decoded


@pytest.mark.parametrize("backend", ["dense", "symplectic"])
def test_fe_runs_refuse_odd_row_count(backend):
    """(G, F) on 3 rows is no EA pair of n registers: the symplectic FEASS
    run used to return a transcript for n = 1 and the dense one raised
    NotMaximalIsotropic; the bundle an FEASS run needs is refused as
    malformed before any run."""
    ctx = field_build(3, 1)
    g, f = MatGF.from_ints(ctx, [[1], [2], [1]]), MatGF.from_ints(ctx, [[1], [2], [0]])
    m = VecGF.from_ints(ctx, [1])
    with pytest.raises(ClassInvariantViolated):
        qp.run_ss(make_bundle("ea", None, g, f), m, 0, make_threshold(1, 0, 1),
                  protocol="feass", backend=backend)


# ---------------------------------------------------------------------------
# the QQ dense oracle on factors and input stacks, against dense references
# ---------------------------------------------------------------------------

def _eigh_support_projector(psi):
    """Reference: the support projector of psi psi^dag from eigh of the
    normalized density, eigenvalues above 1e-10 kept."""
    rho = psi @ psi.conj().T
    w, v = np.linalg.eigh(rho / rho.trace().real)
    pv = v[:, w > 1e-10]
    return pv @ pv.conj().T


def _rank_one_projector(psi):
    """Reference: the support projector of a one-column factor, exact."""
    assert psi.shape[1] == 1
    return psi @ psi.conj().T / np.vdot(psi, psi).real


def _dense_decoder(bundle, subset, projector):
    """Reference: the teleport decoder on the dense path, one POVM element
    formed at a time: each support projector from projector(psi), the
    complement I - sum P_k written out when its norm exceeds 1e-10 dim, and
    the contraction against phi[r, a] on (R, A) per element, corrected with
    W(a, b).  Returns the channel on D[A]."""
    codec = qp.QqCodec(bundle)
    q, xq = codec.q, codec.xq
    d_a, d_b = q**xq, q ** len(subset)
    labels = [tuple(int(v) for v in x) for x in qs._enum_vecs(q, 2 * xq)[:, ::-1]]
    phi = np.eye(d_a, dtype=np.complex128) / np.sqrt(d_a)

    def contract(label, op, rho_b):
        u = np.eye(d_a) if label is None else qs.weyl_matrix(q, xq, list(label))
        m = np.einsum("ra,sc,...bd,sdrb->...ac", phi, phi.conj(), rho_b,
                      op.reshape(d_a, d_b, d_a, d_b), optimize=True)
        return u @ m @ u.conj().T

    def fn(rho_b):
        out, total = 0, 0
        for label, psi in zip(labels, qp._decoder_factors(bundle, codec, subset)):
            op = projector(psi)
            total = total + op
            out = out + contract(label, op, rho_b)
        comp = np.eye(d_a * d_b) - total
        if np.linalg.norm(comp) > 1e-10 * d_a * d_b:
            out = out + contract(None, comp, rho_b)
        return out

    return qs.Channel(din=d_b, dout=d_a, fn=fn)


def _choi_loop(chan):
    """Reference: the Choi matrix from one channel call per unit |i><j|."""
    d, do = chan.din, chan.dout
    c = np.zeros((d * do, d * do), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0
            c[i * do:(i + 1) * do, j * do:(j + 1) * do] = chan(e)
    return c / d


def _apply_on_second_loop(rho_ra, d_r, chan):
    """Reference: (id (x) Lambda) from one channel call per (r, r') block."""
    d_a, d_o = chan.din, chan.dout
    t = rho_ra.reshape(d_r, d_a, d_r, d_a)
    out = np.zeros((d_r, d_o, d_r, d_o), dtype=np.complex128)
    for r in range(d_r):
        for rp in range(d_r):
            out[r, :, rp, :] = chan(t[r, :, rp, :])
    return out.reshape(d_r * d_o, d_r * d_o)


def _qq_cases():
    """Example 1 as a QQ bundle, then seeded n = 2 and n = 3 QQ pools,
    two positives and two negatives each."""
    from mmsplab import fixtures as fx

    ex1 = example1()
    cases = [(make_bundle("qq", ex1.g1, None, ex1.f, n=3), ex1.access)]
    for n in (2, 3):
        pos, neg = fx.make_pools("qq", 2, seed=104, n_values=(n,))
        assert len(pos) == len(neg) == 2
        cases += pos + neg
    return cases


def _subsets(access):
    return [sorted(s) for s in list(access.accept_iter()) + list(access.reject_iter()) if s]


def test_decoder_support_projectors_match_eigh():
    """F F^dag of the SVD support factor of every decoder factor is the eigh
    projector within 1e-10, on every nonempty accept and reject set; where
    the eigh projectors are sharp, qq_decoder_povm returns their factors in
    order, with the None completion exactly when I - sum P_k is not zero."""
    for bundle, fs in _qq_cases():
        codec = qp.QqCodec(bundle)
        for subset in _subsets(fs):
            ref = [_eigh_support_projector(psi)
                   for psi in qp._decoder_factors(bundle, codec, subset)]
            for psi, want in zip(qp._decoder_factors(bundle, codec, subset), ref):
                f = qp._support_factor(psi)
                assert np.abs(f @ f.conj().T - want).max() < 1e-10
            povm = qp.qq_decoder_povm(bundle, codec, subset)
            sharp = np.linalg.eigvalsh(sum(ref)).max() <= 1 + 1e-8
            assert (povm is not None) == sharp
            if sharp:
                got = np.stack([f @ f.conj().T for f in povm.factors])
                assert np.abs(got - np.stack(ref)).max() < 1e-10
                dim = ref[0].shape[0]
                comp = np.linalg.norm(np.eye(dim) - sum(ref)) > 1e-10 * dim
                assert (povm.labels[-1] is None) == comp


def test_decoder_support_projectors_match_eigh_at_x4():
    """The x = 4 negative of the seeded n = 4 QQ pool: its (R, D[A]) space
    has dimension 729, so eigh runs on four of the 81 factors only."""
    from mmsplab import fixtures as fx

    bundle, fs = fx.make_pools("qq", 1, seed=2, n_values=(4,), p=3)[1][0]
    assert bundle.x == 4
    codec = qp.QqCodec(bundle)
    subset = sorted(next(iter(fs.accept_iter())))
    picked = [psi for i, psi in enumerate(qp._decoder_factors(bundle, codec, subset))
              if i % 27 == 0 or i == 80]
    assert len(picked) == 4
    for psi in picked:
        assert psi.shape[0] == 729
        f = qp._support_factor(psi)
        assert np.abs(f @ f.conj().T - _eigh_support_projector(psi)).max() < 1e-10


def test_factor_decoder_matches_dense_reference():
    """On every accept set where the decoder is sharp, the factor decoder
    matches the dense reference within 1e-12: the decoded channel's Choi
    matrix, and the decoder alone on random states, which also reach the
    completion.  The reference takes eigh projectors on the small QQ cases;
    on the x = 4 negative, whose 81 factors are single columns, exact
    rank-one projectors (eigh of all 81 729 x 729 densities would take
    about 40 s)."""
    from mmsplab import fixtures as fx

    x4 = fx.make_pools("qq", 1, seed=2, n_values=(4,), p=3)[1][0]
    assert x4[0].x == 4
    cases = [(c, _eigh_support_projector) for c in _qq_cases()] + [(x4, _rank_one_projector)]
    rng = np.random.default_rng(22)
    checked = []
    for (bundle, fs), projector in cases:
        codec = qp.QqCodec(bundle)
        for a in map(sorted, fs.accept_iter()):
            povm = qp.qq_decoder_povm(bundle, codec, a)
            if povm is None:
                continue
            ref = _dense_decoder(bundle, a, projector)
            lam = qp.qq_channel(bundle, codec, a)
            chan = qs.gamma_bar(codec.q, codec.xq, povm, d_b=lam.dout)
            got = qs.compose(chan, lam).choi()
            assert np.abs(got - qs.compose(ref, lam).choi()).max() < 1e-12
            # states off the decoder's supports reach the completion
            f = rng.normal(size=(2, lam.dout, 3)) + 1j * rng.normal(size=(2, lam.dout, 3))
            rho = f @ f.conj().transpose(0, 2, 1)
            assert np.abs(chan(rho) - ref(rho)).max() < 1e-12
            checked.append((bundle.x, povm.labels[-1] is None))
    assert len(checked) > 10 and (4, True) in checked and (2, False) in checked


CHANNELS = ["identity", "depolarizing", "compose", "bell-R", "qq[1]", "qq[2, 3]",
            "decoded[1, 2]", "decoded[2, 3]", "pool-decoded"]


@pytest.fixture(scope="module")
def channels():
    """The channels the package builds: identity, depolarizing, a composition, the
    QQ restriction channels and the teleport-decoded channels."""
    from mmsplab import fixtures as fx

    ex1 = example1()
    bqq = make_bundle("qq", ex1.g1, None, ex1.f, n=3)
    codec = qp.QqCodec(bqq)
    out = {"identity": identity_channel(3), "depolarizing": depolarizing_channel(3),
           "compose": qs.compose(depolarizing_channel(3), identity_channel(3)),
           "bell-R": qs.gamma_bar(3, 1, bell_povm(3, 1), d_b=3)}
    for subset in ([1], [2, 3]):
        out[f"qq{subset}"] = qp.qq_channel(bqq, codec, subset)
    for subset in ([1, 2], [2, 3]):
        out[f"decoded{subset}"] = qp.qq_decoded_channel(bqq, codec, subset)
    bundle, fs = fx.make_pools("qq", 1, seed=104, n_values=(3,))[0][0]
    a = sorted(next(iter(fs.accept_iter())))
    out["pool-decoded"] = qp.qq_decoded_channel(bundle, qp.QqCodec(bundle), a)
    assert sorted(out) == sorted(CHANNELS) and all(c is not None for c in out.values())
    return out


@pytest.mark.parametrize("name", CHANNELS)
def test_stacked_channel_matches_per_slice(channels, name):
    """Each channel maps a (k, d, d) stack slice by slice; choi() and
    apply_on_second, one call on a stack each, agree with the per-unit and
    per-block loops within 1e-12."""
    chan = channels[name]
    rng = np.random.default_rng(21)
    d = chan.din
    stack = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
    got = chan(stack)
    assert got.shape == (4, chan.dout, chan.dout)
    for s, g in zip(stack, got):
        assert np.abs(g - chan(s)).max() < 1e-12
    assert np.abs(chan.choi() - _choi_loop(chan)).max() < 1e-12
    f = rng.normal(size=(3 * d, 2)) + 1j * rng.normal(size=(3 * d, 2))
    rho_ra = f @ f.conj().T / np.trace(f @ f.conj().T)
    want = _apply_on_second_loop(rho_ra, 3, chan)
    assert np.abs(qs.apply_on_second(rho_ra, 3, chan) - want).max() < 1e-12


def test_qq_audit_verdicts_are_bools():
    """audit_qqss verdicts are Python bools, so `is` comparisons and the JSON
    report see true and false: secure on example 1 as a QQ bundle, insecure
    on the x = 4 negative of the seeded n = 4 QQ pool."""
    from mmsplab import fixtures as fx

    ex1 = example1()
    neg = fx.make_pools("qq", 1, seed=2, n_values=(4,), p=3)[1][0]
    assert neg[0].x == 4
    for (bundle, fs), want in (((make_bundle("qq", ex1.g1, None, ex1.f, n=3), ex1.access), True),
                               (neg, False)):
        rep = qp.audit_qqss(bundle, fs)
        assert rep.secure is want and rep.matches_classify is True
        js = rep.to_json()
        assert all(type(js[k]) is bool for k in ("correct", "secret", "secure", "matches_classify"))
        assert all(type(ok) is bool for _, ok in js["details"])
