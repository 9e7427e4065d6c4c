"""Classical CSS/CSPIR protocols and exhaustive audits."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from mmsplab import _accel
from mmsplab import classical as cl
from mmsplab import linalg as la
from mmsplab.access import make_threshold, symplectify, symplectify_structure
from mmsplab.errors import BadIndex, DimensionMismatch, NotQualified, TooLarge
from mmsplab.fields import field_build
from mmsplab.fixtures import example1
from mmsplab.qstate import _enum_vecs

F3 = field_build(3, 1)
F5 = field_build(5, 1)


@pytest.fixture(scope="module")
def css_ex1():
    ex = example1()
    return cl.CssProtocol(g=ex.g1, f=ex.f,
                          access=symplectify_structure(ex.access))


def test_css_share_values(css_ex1):
    m = la.VecGF.from_ints(F3, [1, 0])
    u = la.VecGF.from_ints(F3, [0, 0])
    z = cl.css_share(css_ex1, m, u)
    assert [F3.coeffs(z[i])[0] for i in range(6)] == [2, 1, 1, 1, 0, 1]
    zero = cl.css_share(css_ex1, la.VecGF.zeros(F3, 2), la.VecGF.zeros(F3, 2))
    assert zero.is_zero()


def test_css_share_linearity(css_ex1):
    rng = np.random.default_rng(2)
    for _ in range(20):
        m1 = la.VecGF(F3, rng.integers(0, 3, size=2))
        m2 = la.VecGF(F3, rng.integers(0, 3, size=2))
        u1 = la.VecGF(F3, rng.integers(0, 3, size=2))
        u2 = la.VecGF(F3, rng.integers(0, 3, size=2))
        lhs = cl.css_share(css_ex1, m1 + m2, u1 + u2)
        rhs = cl.css_share(css_ex1, m1, u1) + cl.css_share(css_ex1, m2, u2)
        assert lhs == rhs


def test_css_decode_roundtrip_exhaustive(css_ex1):
    sub = symplectify([2, 3], 3)
    for mv in _enum_vecs(3, 2):
        for uv in _enum_vecs(3, 2):
            m, u = la.VecGF(F3, mv), la.VecGF(F3, uv)
            z = cl.css_share(css_ex1, m, u)
            dec = cl.css_decode(css_ex1, sub, la.restrict(z, sub))
            assert dec == m


def test_css_decode_one_elimination(css_ex1, monkeypatch):
    """css_decode reads the verdict and the message off one elimination."""
    from mmsplab import _accel

    calls = []
    eliminate = _accel._eliminate
    monkeypatch.setattr(_accel, "_eliminate",
                        lambda *a, **k: calls.append(1) or eliminate(*a, **k))
    sub = symplectify([2, 3], 3)
    m = la.VecGF.from_ints(F3, [2, 1])
    z = cl.css_share(css_ex1, m, la.VecGF.from_ints(F3, [1, 1]))
    assert cl.css_decode(css_ex1, sub, la.restrict(z, sub)) == m
    assert len(calls) == 1


def test_css_decode_not_qualified(css_ex1):
    with pytest.raises(NotQualified):
        cl.css_decode(css_ex1, symplectify([1], 3), la.VecGF.zeros(F3, 2))


def test_css_audit_example1(css_ex1):
    rep = cl.css_audit(css_ex1)
    assert rep.secure and rep.matches_mmsp


def test_css_audit_f_equals_g(css_ex1):
    p = cl.CssProtocol(g=css_ex1.g, f=css_ex1.g, access=css_ex1.access)
    rep = cl.css_audit(p)
    assert rep.secret and not rep.correct and rep.matches_mmsp


def test_css_audit_mutated_cross_check():
    ex = example1()
    sfs = symplectify_structure(ex.access)
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = la.MatGF(F3, rng.integers(0, 3, size=(6, 2)))
        rep = cl.css_audit(cl.CssProtocol(g=ex.g1, f=f, access=sfs))
        assert rep.matches_mmsp


def test_css_audit_size_guard():
    g = la.MatGF.zeros(F5, 12, 6)
    f = la.MatGF.identity(F5, 12)
    with pytest.raises(TooLarge):
        cl.css_audit(cl.CssProtocol(g=g, f=f, access=make_threshold(12, 1, 12)))


def test_spir_audit_refuses_server_sweep_before_any_sweep(monkeypatch):
    """Over GF(9) with x = 2, y = 3 and two files, q^(x+y) = 9^5 and
    q^(x*f) = 9^4 pass the audit guard but the server-secrecy sweep's
    q^(x*f+y) = 9^7 does not: the audit is refused before the correctness
    sweep enumerates G u."""
    gf9 = field_build(3, 2)
    rng = np.random.default_rng(3)
    p = cl.SpirProtocol(g=la.MatGF(gf9, rng.integers(0, 9, size=(5, 3))),
                        f=la.MatGF(gf9, rng.integers(0, 9, size=(5, 2))),
                        nfiles=2, access=make_threshold(5, 3, 5))

    def no_span(*_a):
        raise AssertionError("a sweep ran before the size guard")
    monkeypatch.setattr(_accel, "gf_span", no_span)
    with pytest.raises(TooLarge, match="q\\^\\(x\\*f\\+y\\)"):
        cl.spir_audit(p)


def test_transcript_replay(css_ex1):
    m = la.VecGF.from_ints(F3, [2, 1])
    t1 = cl.css_run(css_ex1, m, seed=9)
    t2 = cl.css_run(css_ex1, m, seed=9)
    assert t1.digest() == t2.digest()
    t3 = cl.css_run(css_ex1, m, seed=10)
    assert t3.digest() != t1.digest()


@pytest.fixture(scope="module")
def spir5():
    g = la.MatGF.from_ints(F5, [[1], [1], [1]])
    f = la.MatGF.from_ints(F5, [[1], [2], [3]])
    return cl.SpirProtocol(g=g, f=f, nfiles=2, access=make_threshold(2, 1, 3))


def test_spir_protocol_checks_ground_set(spir5):
    """The access structure must be on the share rows, as for CSS."""
    with pytest.raises(DimensionMismatch):
        cl.SpirProtocol(g=spir5.g, f=spir5.f, nfiles=2, access=make_threshold(2, 1, 4))


def test_spir_query_forms(spir5):
    q = cl.spir_query(spir5, 1, la.MatGF.zeros(F5, 1, 2))
    assert q.col(0) == spir5.f.col(0)
    assert q.col(1).is_zero()
    with pytest.raises(BadIndex):
        cl.spir_query(spir5, 3, la.MatGF.zeros(F5, 1, 2))


def _fixed(spir5, queries):
    return cl.SpirProtocol(g=spir5.g, f=spir5.f, nfiles=2, access=spir5.access,
                           fixed_query=queries)


def test_spir_run_checks_file_index_with_fixed_query(spir5):
    """A fixed query is chosen by file index as a standard one is: k = 0
    is refused, not served file 2's query from the list's end, and k = 3
    is refused with BadIndex, not an untyped IndexError."""
    u_q = la.MatGF.zeros(F5, 1, 2)
    fixed = _fixed(spir5, [cl.spir_query(spir5, k, u_q) for k in (1, 2)])
    files = la.VecGF.from_ints(F5, [1, 2])
    for p in (spir5, fixed):
        for k in (0, 3):
            with pytest.raises(BadIndex):
                cl.spir_run(p, files, k, seed=0)
    assert cl.spir_run(fixed, files, 2, seed=0).outcome["[1, 2]"] == [[2]]


def test_spir_protocol_checks_fixed_query_shapes(spir5):
    """fixed_query must hold nfiles matrices of nbar x (x * nfiles)."""
    q1, q2 = (cl.spir_query(spir5, k, la.MatGF.zeros(F5, 1, 2)) for k in (1, 2))
    for bad in ([q1], [q1, q2, q1], [q1, la.MatGF.zeros(F5, 3, 3)],
                [q1, la.MatGF.zeros(F5, 2, 2)]):
        with pytest.raises(DimensionMismatch):
            _fixed(spir5, bad)


def test_spir_answer_reduces_to_share(spir5):
    # f = 1: the answer vector is exactly a CSS share of the single file
    p1 = cl.SpirProtocol(g=spir5.g, f=spir5.f, nfiles=1,
                         access=spir5.access)
    qm = cl.spir_query(p1, 1, la.MatGF.zeros(F5, 1, 1))
    files = la.VecGF.from_ints(F5, [4])
    css = cl.CssProtocol(g=p1.g, f=p1.f, access=p1.access)
    share = cl.css_share(css, files, la.VecGF.zeros(F5, 1))
    answers = qm @ files
    assert answers == share


def test_spir_run_exhaustive(spir5):
    for k in (1, 2):
        for fidx, fv in enumerate(_enum_vecs(5, 2)):
            files = la.VecGF(F5, fv)
            tr = cl.spir_run(spir5, files, k, seed=fidx + 100 * k)
            want = [[int(files.a[k - 1])]]
            assert all(got == want for got in tr.outcome.values())


def test_spir_audit_positive(spir5):
    rep = cl.spir_audit(spir5)
    assert rep.secure and rep.matches_mmsp


def test_spir_audit_f1_trivially_user_secret(spir5):
    p1 = cl.SpirProtocol(g=spir5.g, f=spir5.f, nfiles=1, access=spir5.access)
    rep = cl.spir_audit(p1)
    assert rep.secure and rep.matches_mmsp


def test_protocols_cannot_change_after_their_checks(spir5):
    """CSS and SPIR protocols are frozen: assigning a field raises, so a
    fixed_query can only arrive through the constructor and its shape check
    (a one-file query assigned to this two-file protocol used to end
    spir_run and spir_audit in an untyped IndexError)."""
    css = cl.CssProtocol(g=spir5.g, f=spir5.f, access=spir5.access)
    with pytest.raises(dataclasses.FrozenInstanceError):
        css.f = spir5.g
    with pytest.raises(dataclasses.FrozenInstanceError):
        spir5.fixed_query = [la.MatGF.zeros(F5, 3, 1)]
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(spir5, fixed_query=[la.MatGF.zeros(F5, 3, 1)])
    assert spir5.fixed_query is None


def test_spir_audit_nonstandard_query_flagged(spir5):
    qbad = []
    for k in (1, 2):
        q = cl.spir_query(spir5, k, la.MatGF.zeros(F5, 1, 2))
        qa = q.a.copy()
        qa[0, 2 - k] = 2
        qa[1, 2 - k] = 3
        qbad.append(la.MatGF(F5, qa))
    p = cl.SpirProtocol(g=spir5.g, f=spir5.f, nfiles=2, access=spir5.access,
                        fixed_query=qbad)
    rep = cl.spir_audit(p)
    span = [ok for name, ok in rep.details if "server-secret-span" in name]
    assert not all(span)
    assert not rep.secure


def test_spir_span_check_fails_on_fixed_query_leaving_span_g():
    """A standard query's off-target columns lie in span(G), so the span
    check holds for it; a fixed query for file 2 with an off-target column
    outside span(G) makes server-secret-span@k=2 read False and is reported
    as a server-secrecy-span counterexample.  With t = 0 the only reject set
    is empty, so user secrecy holds and the span check is the one to fail
    (a stub that always passes leaves the distribution sweep to report)."""
    g = la.MatGF.from_ints(F5, [[1], [2], [3]])
    f = la.MatGF.from_ints(F5, [[1], [4], [2]])
    access = make_threshold(2, 0, 3)
    std = cl.SpirProtocol(g=g, f=f, nfiles=3, access=access)
    rep = cl.spir_audit(std)
    assert rep.secure and rep.matches_mmsp
    u_q = la.MatGF.from_ints(F5, [[2, 0, 3]])
    queries = [cl.spir_query(std, k, u_q) for k in (1, 2, 3)]
    leave = queries[1].a.copy()
    leave[:, 2] = [1, 0, 0]  # file 3's column of file 2's query, not in span(G)
    queries[1] = la.MatGF(F5, leave)
    bad = cl.SpirProtocol(g=g, f=f, nfiles=3, access=access, fixed_query=queries)
    rep = cl.spir_audit(bad)
    details = dict((name, ok) for name, ok in rep.details)
    assert [details[f"server-secret-span@k={k}"] for k in (1, 2, 3)] == [True, False, True]
    assert all(ok for name, ok in rep.details if name.startswith(("correct@", "user-secret@")))
    assert rep.counterexamples == [{"k": 2, "kind": "server-secrecy-span"}]
    assert rep.correct and not rep.secret


def test_spir_audit_mutated_cross_check():
    rng = np.random.default_rng(13)
    fs = make_threshold(2, 1, 3)
    for _ in range(10):
        g = la.MatGF(F5, rng.integers(0, 5, size=(3, 1)))
        f = la.MatGF(F5, rng.integers(0, 5, size=(3, 1)))
        rep = cl.spir_audit(cl.SpirProtocol(g=g, f=f, nfiles=2, access=fs))
        assert rep.matches_mmsp


def test_spir_server_checks_run_under_seeded_query_randomness(monkeypatch):
    """The server-secrecy checks draw a seeded U_Q, so they test that the
    randomness G u absorbs G U_Q m: with G dropped from the answer
    histograms, a distribution check fails on every seeded F_3 input."""
    protos = [cl.SpirProtocol(g=g, f=f, nfiles=2, access=fs)
              for g, f, fs in _audit_inputs() if g.ctx.q == 3 and g.cols]

    def dist_checks(p):
        return [ok for name, ok in cl.spir_audit(p).details if "server-secret-dist" in name]

    assert len(protos) == 5 and all(all(dist_checks(p)) for p in protos)
    real = _accel.gf_share_hist
    monkeypatch.setattr(_accel, "gf_share_hist", lambda gr, fr, t: real(gr[:, :0], fr, t))
    assert not any(all(dist_checks(p)) for p in protos)


@pytest.fixture(scope="module")
def tower_bundles():
    """Constructed bundles over poly tower fields GF(3^32) and GF(3^128)."""
    from mmsplab.constructions import construct_cqmmsp, construct_eammsp
    return [(construct_eammsp(2, 1, 2, 2), make_threshold(2, 1, 2)),
            (construct_cqmmsp(2, 1, 3), make_threshold(2, 1, 3))]


def test_css_run_tower_fields(tower_bundles):
    """Randomness over a poly field is drawn as coefficient rows: every
    qualified set decodes the sent message, for every seed."""
    for bundle, fs in tower_bundles:
        p = cl.CssProtocol(g=bundle.g_stack(), f=bundle.f,
                           access=symplectify_structure(fs))
        m = la.VecGF.from_ints(bundle.ctx, [1] * bundle.x)
        for seed in range(8):
            tr = cl.css_run(p, m, seed)
            assert tr.outcome and all(v == m.tolist() for v in tr.outcome.values())


def test_spir_run_tower_fields(tower_bundles):
    for bundle, fs in tower_bundles:
        p = cl.SpirProtocol(g=bundle.g_stack(), f=bundle.f, nfiles=2,
                            access=symplectify_structure(fs))
        files = la.VecGF.from_ints(bundle.ctx, [1, 2] * bundle.x)
        for seed in range(4):
            tr = cl.spir_run(p, files, 2, seed)
            want = files.tolist()[bundle.x:]
            assert tr.outcome and all(v == want for v in tr.outcome.values())


def test_random_cells_tabled_draw_unchanged():
    """On tabled fields the draw is the plain index draw, so seeded
    transcripts keep their digests."""
    for ctx in (F3, field_build(3, 2)):
        got = ctx.random_cells(np.random.default_rng(9), 4, 3)
        want = np.random.default_rng(9).integers(0, ctx.q, size=(4, 3))
        assert got.dtype == np.int64 and np.array_equal(got, want)


# (p, r) of each field and the (n, r, t) threshold shapes audited over it:
# x = r - t and y = t up to 2, t = 0 (an empty reject set) once
AUDIT_SHAPES = {
    (2, 1): [(3, 2, 1), (4, 3, 1), (4, 4, 2), (5, 3, 2), (3, 2, 0)],
    (3, 1): [(3, 2, 1), (4, 4, 2), (4, 3, 1), (3, 3, 1), (4, 3, 2)],
    (2, 2): [(3, 2, 1), (4, 3, 2), (4, 2, 1), (3, 3, 1)],
    (5, 1): [(3, 2, 1), (4, 3, 2), (4, 2, 1), (5, 3, 2)],
    (7, 1): [(3, 2, 1), (4, 3, 2), (4, 2, 1)],
    (2, 3): [(3, 2, 1), (4, 3, 2), (3, 3, 2)],
    (3, 2): [(3, 2, 1), (4, 2, 1), (3, 3, 2)],
}
AUDIT_DIGEST = "1a3ad093c808e8a3c3715071b2645a383a5861d2329b9c5af89594fdf1b69033"


def _audit_inputs():
    """Seeded (G, F, threshold) triples; every third G has a zero row, so
    correctness, secrecy and user-secrecy all fail somewhere."""
    rng = np.random.default_rng(13)
    i = 0
    for (p, d), shapes in AUDIT_SHAPES.items():
        ctx = field_build(p, d)
        for n, r, t in shapes:
            g = rng.integers(0, ctx.q, size=(n, t))
            f = rng.integers(0, ctx.q, size=(n, r - t))
            if i % 3 == 2:
                g[rng.integers(n)] = 0
            i += 1
            yield la.MatGF(ctx, g), la.MatGF(ctx, f), make_threshold(r, t, n)


def _nonstandard_spir():
    """Three files over F_5 with standard queries under random U_Q, except
    that file 2's query has an off-target column outside Im(G)."""
    rng = np.random.default_rng(7)
    g = la.MatGF(F5, rng.integers(0, 5, size=(3, 1)))
    f = la.MatGF(F5, rng.integers(0, 5, size=(3, 1)))
    p = cl.SpirProtocol(g=g, f=f, nfiles=3, access=make_threshold(2, 1, 3))
    u_q = la.MatGF(F5, rng.integers(0, 5, size=(1, 3)))
    queries = [cl.spir_query(p, k, u_q) for k in (1, 2, 3)]
    leave = queries[1].a.copy()
    leave[:, 2] = [1, 2, 4]
    queries[1] = la.MatGF(F5, leave)
    return dataclasses.replace(p, fixed_query=queries)


def test_audit_reports_pinned():
    """css_audit and spir_audit (2 and 3 files) give the same details and
    counterexamples, byte for byte, on seeded inputs over GF(2)..GF(9)."""
    reports = []
    for g, f, fs in _audit_inputs():
        reports.append(cl.css_audit(cl.CssProtocol(g=g, f=f, access=fs)).to_json())
        for nfiles in (2, 3):
            p = cl.SpirProtocol(g=g, f=f, nfiles=nfiles, access=fs)
            reports.append(cl.spir_audit(p).to_json())
    reports.append(cl.spir_audit(_nonstandard_spir()).to_json())
    kinds = {c["kind"] for r in reports for c in r["counterexamples"]}
    assert {"correctness", "secrecy", "user-secrecy", "server-secrecy-span"} <= kinds
    assert all(r["matches_mmsp"] for r in reports[:-1])
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == AUDIT_DIGEST


RUN_DIGEST = "5559044b5511c915a071fcb85b2f3723cc2c95306632416265b8ccb30bbe16f4"


def test_run_transcripts_pinned(tower_bundles):
    """Seeded css_run and spir_run transcripts, byte for byte, on the audit
    inputs over GF(2)..GF(9), where some qualified sets decode to None, and
    on the two tower bundles."""
    cases = list(_audit_inputs()) + [(b.g_stack(), b.f, symplectify_structure(fs))
                                     for b, fs in tower_bundles]
    digests, outcomes = [], []
    for g, f, fs in cases:
        m = la.VecGF.from_ints(f.ctx, [i + 1 for i in range(f.cols)])
        files = la.VecGF.from_ints(f.ctx, [2 * i + 1 for i in range(2 * f.cols)])
        for seed in (0, 5):
            for tr in (cl.css_run(cl.CssProtocol(g=g, f=f, access=fs), m, seed),
                       cl.spir_run(cl.SpirProtocol(g=g, f=f, nfiles=2, access=fs),
                                   files, 2, seed)):
                digests.append(tr.digest())
                outcomes += tr.outcome.values()
    assert None in outcomes and any(v is not None for v in outcomes)
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == RUN_DIGEST
