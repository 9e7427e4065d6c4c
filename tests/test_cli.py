"""CLI surface: exit codes, determinism, fixture regeneration."""

import json
import subprocess
import sys

import numpy as np
import pytest

from mmsplab import fixtures as fx

BUNDLE = "bundle.json"
STRUCT = "structure.json"


@pytest.fixture()
def ex1_files(tmp_path):
    ex = fx.example1()
    b = tmp_path / BUNDLE
    s = tmp_path / STRUCT
    b.write_text(json.dumps(ex.bundle.to_json()))
    s.write_text(json.dumps(ex.access.to_json()))
    return str(b), str(s)


def run_cli(*args):
    r = subprocess.run([sys.executable, "-m", "mmsplab.cli", *args],
                       capture_output=True, text=True)
    return r.returncode, r.stdout, r.stderr


def test_verify_ok(ex1_files):
    rc, out, _ = run_cli("verify", *ex1_files)
    assert rc == 0
    assert json.loads(out)["ok"]


def test_verify_counterexample(tmp_path, ex1_files):
    bpath, spath = ex1_files
    fs = json.loads(open(spath).read())
    fs["reject"].append([1, 3])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fs))
    rc, out, _ = run_cli("verify", bpath, str(bad))
    assert rc == 1
    rep = json.loads(out)
    failing = [c for c in rep["checks"] if not c["ok"]]
    assert failing and failing[0]["detail"]["set"] == [1, 3, 4, 6]


def test_verify_malformed_json(tmp_path, ex1_files):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    rc, _, _ = run_cli("verify", str(bad), ex1_files[1])
    assert rc == 2


def test_rate_command():
    rc, out, _ = run_cli("rate", "eass", "2", "1", "3")
    assert rc == 0 and json.loads(out)["rate"] == "2/3"
    rc, _, _ = run_cli("rate", "qqss", "2", "1", "5")
    assert rc == 1


def test_construct_roundtrip(tmp_path, ex1_files):
    out_path = tmp_path / "cq.json"
    rc, _, _ = run_cli("construct", "cq", "2", "1", "3", "3",
                       "--out", str(out_path))
    assert rc == 0
    fs = tmp_path / "thresh.json"
    fs.write_text(json.dumps({"n": 3, "accept": {"threshold": 2},
                              "reject": {"threshold": 1}}))
    rc, out, _ = run_cli("verify", str(out_path), str(fs))
    assert rc == 0


def test_construct_out_of_range():
    rc, out, _ = run_cli("construct", "qq", "2", "1", "5")
    assert rc == 1
    assert "bound violated" in out


def test_closed_stdout_exits_quietly():
    """A reader that closes the pipe before the report is written (as `|
    head` does) ends the run with exit 2 and nothing on stderr: no
    traceback, no "Exception ignored" at interpreter exit."""
    proc = subprocess.Popen([sys.executable, "-m", "mmsplab.cli", "fixtures"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2 and err == ""


def test_construct_large_p():
    # GF(257^32) passes the large-p guard; its modulus search never finished
    r = subprocess.run([sys.executable, "-m", "mmsplab.cli", "construct", "ea",
                        "2", "1", "2", "257", "--y1", "2"],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["ok"] and out["bundle"]["G1"]["field"]["p"] == 257


def test_audit_and_exit_codes(ex1_files):
    rc, out, _ = run_cli("audit", "eass", *ex1_files)
    assert rc == 0 and json.loads(out)["ok"]


def test_simulate_deterministic(ex1_files):
    args = ("simulate", "--protocol", "eass", "--bundle", ex1_files[0],
            "--structure", ex1_files[1], "--message", "1,2", "--seed", "5")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical reports for identical inputs/seed


def test_crosscheck(ex1_files):
    rc, out, _ = run_cli("crosscheck", *ex1_files)
    assert rc == 0 and json.loads(out)["ok"]


def test_fixtures_regenerate_bit_exact():
    rc1, out1, _ = run_cli("fixtures")
    rc2, out2, _ = run_cli("fixtures")
    assert rc1 == rc2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    ex1 = fx.example1()
    assert rep["fixtures"]["example1"]["bundle"] == json.loads(
        json.dumps(ex1.bundle.to_json()))


def _ones_audit_files(tmp_path, n, t):
    """A plain bundle with G = F = ones(n x 1) over F_3, and the (n, t, n)
    threshold."""
    from mmsplab.access import make_threshold
    from mmsplab.fields import field_build
    from mmsplab.linalg import MatGF
    from mmsplab.mmsp import make_bundle

    ones = MatGF.from_ints(field_build(3, 1), [[1]] * n)
    b, s = tmp_path / BUNDLE, tmp_path / STRUCT
    b.write_text(json.dumps(make_bundle("plain", ones, None, ones, n=n).to_json()))
    s.write_text(json.dumps(make_threshold(n, t, n).to_json()))
    return str(b), str(s)


def test_audit_share_code_guard_exit_3(tmp_path):
    """A CSS audit whose share codes on the one 60-server accept set (3^60
    of them) do not fit int64 exits 3 without allocating."""
    rc, out, _ = run_cli("audit", "css", *_ones_audit_files(tmp_path, 60, 59))
    assert rc == 3
    assert json.loads(out)["error"].startswith("TooLarge")


@pytest.mark.parametrize("proto", ["css", "cspir"])
def test_audit_twenty_servers_runs(tmp_path, proto):
    """On 20 servers the audits hold 3 sorted codes per message, not a
    histogram over 3^20 codes: with G = F = ones, u absorbs m on the one
    accept set, so the audit fails correctness (exit 1), as the span-program
    verdict does."""
    rc, out, _ = run_cli("audit", proto, *_ones_audit_files(tmp_path, 20, 1))
    rep = json.loads(out)["report"]
    assert rc == 1
    assert rep["matches_mmsp"] is True and rep["correct"] is False
    assert rep["counterexamples"][0]["kind"] == "correctness"


@pytest.mark.parametrize("field", [{"p": 2**61 - 1, "r": 1}, {"p": 3, "r": 100000}])
def test_verify_huge_field_exit_3(tmp_path, field):
    """A one-cell bundle over a field past the size guard is refused with
    exit 3 before any primality test or modulus search."""
    b, s = tmp_path / BUNDLE, tmp_path / STRUCT
    b.write_text(json.dumps({"class": "plain", "params": {"n": 1}, "F": {
        "field": field, "rows": 1, "cols": 1, "data": [[1]]}}))
    s.write_text(json.dumps({"n": 1, "accept": [[1]], "reject": [[]]}))
    r = subprocess.run([sys.executable, "-m", "mmsplab.cli", "verify", str(b), str(s)],
                       capture_output=True, text=True, timeout=20)
    assert r.returncode == 3
    assert _error_report(r.stdout, "verify").startswith("TooLarge: ")


def test_simulate_qqss_without_accept_set_exit_2(tmp_path):
    """A QQ run decodes on the first accept set; a structure with none is
    malformed input, reported as JSON, not a StopIteration traceback."""
    from mmsplab.mmsp import make_bundle

    ex = fx.example1()
    b, s = tmp_path / BUNDLE, tmp_path / STRUCT
    b.write_text(json.dumps(make_bundle("qq", ex.g1, None, ex.f, n=3).to_json()))
    s.write_text(json.dumps({"n": 3, "accept": [], "reject": [[]]}))
    rc, out, err = run_cli("simulate", "--protocol", "qqss", "--bundle", str(b),
                           "--structure", str(s), "--seed", "1")
    assert rc == 2 and "Traceback" not in err
    assert _error_report(out, "simulate").startswith("NotQualified: ")


def _vandermonde_bundle(cls, rows, n):
    """Columns 1, x, x^2, x^3 evaluated at distinct points of GF(23): for
    the (2, 1) threshold, G = 1 and F = x form a plain MMSP on n points, and
    G = (1, x) and F = (x^2, x^3) a symplectified one on 2n points."""
    from mmsplab.fields import field_build
    from mmsplab.linalg import MatGF
    from mmsplab.mmsp import make_bundle

    gf23 = field_build(23, 1)
    v = MatGF(gf23, (np.arange(rows)[:, None] ** np.arange(4)) % 23)
    if cls == "plain":
        g, f = MatGF(gf23, v.a[:, :1].copy()), MatGF(gf23, v.a[:, 1:2].copy())
        return make_bundle("plain", g, None, f, n=n)
    g, f = MatGF(gf23, v.a[:, :2].copy()), MatGF(gf23, v.a[:, 2:].copy())
    return make_bundle("ea", MatGF.zeros(gf23, rows, 0), g, f, n=n)


@pytest.mark.parametrize("cls,rows,n,r,t,code", [
    ("plain", 21, 21, 2, 1, 0),    # past the n <= 20 cap on explicit sets
    ("ea", 22, 11, 2, 1, 0),       # symplectified on 22 points
    ("plain", 24, 24, 12, 2, 3),   # C(24, 12) + C(24, 2) sets: past the cap
])
def test_verify_large_thresholds(tmp_path, cls, rows, n, r, t, code):
    from mmsplab.access import make_threshold

    b = tmp_path / BUNDLE
    s = tmp_path / STRUCT
    b.write_text(json.dumps(_vandermonde_bundle(cls, rows, n).to_json()))
    s.write_text(json.dumps(make_threshold(r, t, n).to_json()))
    rc, out, _ = run_cli("verify", str(b), str(s))
    assert rc == code
    rep = json.loads(out)
    if code == 0:
        assert rep["ok"]
    else:
        assert rep["error"].startswith("TooLarge")


def _error_report(out, command):
    rep = json.loads(out)
    assert rep["command"] == command and rep["ok"] is False
    assert set(rep) >= {"error", "summary"}
    return rep["error"]


def test_structure_on_other_parties_refused(tmp_path, ex1_files):
    """A 2-party structure against the 3-party example 1 bundle is refused
    with exit 2: symplectified on its own n it would name rows {1,2,3,4}
    where the bundle's parties 1 and 2 are rows {1,2,4,5}."""
    from mmsplab.access import make_threshold

    bpath, _ = ex1_files
    two = tmp_path / "two.json"
    two.write_text(json.dumps(make_threshold(2, 1, 2).to_json()))
    for args in (("verify", bpath, str(two)),
                 ("audit", "eass", bpath, str(two)),
                 ("simulate", "--protocol", "eass", "--bundle", bpath,
                  "--structure", str(two), "--message", "1,2", "--seed", "1"),
                 ("crosscheck", bpath, str(two))):
        rc, out, _ = run_cli(*args)
        assert rc == 2, args
        assert _error_report(out, args[0]).startswith("DimensionMismatch")


def test_non_integer_party_refused_before_any_check(tmp_path, ex1_files):
    """Example 1's structure with party 2 written as 2.5 exits 2 with one
    JSON error report; read as {1, 2} it passed verify with "mmsp: ok"."""
    bpath, _ = ex1_files
    frac = tmp_path / "frac.json"
    frac.write_text(json.dumps({"n": 3, "accept": [[1, 2.5], [2, 3], [1, 2, 3]],
                                "reject": [[], [1], [2], [3]]}))
    rc, out, _ = run_cli("verify", bpath, str(frac))
    assert rc == 2
    assert _error_report(out, "verify") == "BadIndex: party 2.5 is not an integer"


def test_errors_are_json_reports(tmp_path, ex1_files):
    """Each failure exits with its documented code and one JSON report,
    never a traceback."""
    from mmsplab.fields import field_build
    from mmsplab.linalg import MatGF
    from mmsplab.mmsp import make_bundle

    bpath, spath = ex1_files
    reducible = json.loads(open(bpath).read())
    for key in ("F", "G1"):
        reducible[key]["field"] = {"p": 3, "r": 2, "poly": [2, 0, 1]}  # x^2 - 1
    red = tmp_path / "reducible.json"
    red.write_text(json.dumps(reducible))
    off = tmp_path / "off.json"
    off.write_text(json.dumps({"n": 3, "accept": [[1, 2], [2, 5], [1, 2, 3]],
                               "reject": [[], [1], [2], [3]]}))
    gf9 = tmp_path / "gf9.json"
    ctx = field_build(3, 2)
    g = MatGF.from_ints(ctx, [[1], [2], [4], [5]])
    f = MatGF.from_ints(ctx, [[3], [1], [0], [7]])
    gf9.write_text(json.dumps(make_bundle("ea", MatGF.zeros(ctx, 4, 0), g, f).to_json()))
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"n": 2, "accept": {"threshold": 2},
                               "reject": {"threshold": 1}}))
    for args, code, kind in (
            (("construct", "ea", "2", "1", "2", "1000003"), 3, "TooLarge"),
            (("verify", str(red), spath), 2, "ReduciblePolynomial"),
            (("verify", bpath, str(off)), 2, "IndexOutOfRange"),
            (("simulate", "--protocol", "eass", "--bundle", bpath, "--structure", spath,
              "--seed", "1", "--subset", "1,7"), 2, "IndexOutOfRange"),
            (("crosscheck", str(gf9), str(two)), 1, "NonPrimeLocalDim"),
            (("verify", str(tmp_path / "missing.json"), spath), 2, "FileNotFoundError")):
        rc, out, err = run_cli(*args)
        assert rc == code, args
        assert "Traceback" not in err
        assert _error_report(out, args[0]).startswith(kind + ": ")


def test_qq_tower_bundle_refused_before_allocating(tmp_path):
    """The QQ bundle that construct builds over the GF(3^16) tower is
    refused by the dense gate (exit 3, TooLarge): the audit used to end in
    a ValueError traceback, and the run built its q^x' x q^x' input state
    (26 PiB) before the gate."""
    bpath, spath = tmp_path / BUNDLE, tmp_path / STRUCT
    assert run_cli("construct", "qq", "2", "1", "3", "--out", str(bpath))[0] == 0
    spath.write_text(json.dumps({"n": 3, "accept": {"threshold": 2},
                                 "reject": {"threshold": 1}}))
    for args in (("audit", "qqss", str(bpath), str(spath)),
                 ("simulate", "--protocol", "qqss", "--seed", "0",
                  "--bundle", str(bpath), "--structure", str(spath))):
        rc, out, err = run_cli(*args)
        assert rc == 3, args
        assert "Traceback" not in err
        assert _error_report(out, args[0]).startswith("TooLarge: ")


@pytest.mark.parametrize("flag", ["--message", "--files-data", "--subset"])
def test_simulate_non_integer_list_exits_2(ex1_files, flag):
    rc, _, err = run_cli("simulate", "--protocol", "eass", "--bundle", ex1_files[0],
                         "--structure", ex1_files[1], "--seed", "1", flag, "1,x")
    assert rc == 2
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def tower_files(tmp_path_factory):
    """A constructed EA bundle over the poly field GF(3^32), with its
    threshold structure."""
    from mmsplab.access import make_threshold
    from mmsplab.constructions import construct_eammsp

    root = tmp_path_factory.mktemp("tower")
    paths = (root / BUNDLE, root / STRUCT)
    for path, obj in zip(paths, (construct_eammsp(2, 1, 2, 2).to_json(),
                                 make_threshold(2, 1, 2).to_json())):
        path.write_text(json.dumps(obj))
    return tuple(map(str, paths))


@pytest.mark.parametrize("args,kind", [
    # a file index outside 1..--files, or no files at all
    (("simulate", "--protocol", "easpir", "--k", "0", "--files-data", "0,1,2,0"), "BadIndex"),
    (("simulate", "--protocol", "cqspir", "--k", "3", "--files-data", "0,1,2,0"), "BadIndex"),
    (("simulate", "--protocol", "feaspir", "--k", "3", "--files-data", "0,1,2,0",
      "--backend", "symplectic"), "BadIndex"),
    (("simulate", "--protocol", "easpir", "--k", "1", "--files", "0"), "BadIndex"),
    (("audit", "easpir", "--files", "0"), "BadIndex"),
    (("audit", "cspir", "--files", "0"), "BadIndex"),
    # entries that would wrap mod q, or lists of the wrong length
    (("simulate", "--protocol", "eass", "--message", "7,8"), "OutOfRange"),
    (("simulate", "--protocol", "eass", "--message=-1,0"), "OutOfRange"),
    (("simulate", "--protocol", "eass", "--message", "1,2,0"), "DimensionMismatch"),
    (("simulate", "--protocol", "easpir", "--files-data", "1"), "DimensionMismatch"),
    (("simulate", "--protocol", "easpir", "--files-data", "0,1,2,3"), "OutOfRange"),
])
def test_bad_simulate_and_audit_inputs_exit_2(ex1_files, capsys, args, kind):
    """Each case was a traceback, a wrong exit code or a run that silently
    read other inputs; now it is refused as malformed input."""
    from mmsplab import cli

    if args[0] == "audit":
        argv = [*args[:2], *ex1_files, *args[2:]]
    else:
        argv = [*args[:1], "--bundle", ex1_files[0], "--structure", ex1_files[1],
                "--seed", "1", *args[1:]]
    assert cli.main(argv) == 2
    assert _error_report(capsys.readouterr().out, args[0]).startswith(kind + ": ")


def test_poly_field_message_entries_below_p(tower_files, capsys):
    """Over GF(3^32) an integer entry is read mod p, so 4,5 would run as
    1,2: it is refused, and 1,2 runs."""
    from mmsplab import cli

    base = ["simulate", "--protocol", "eass", "--bundle", tower_files[0],
            "--structure", tower_files[1], "--seed", "1", "--backend", "symplectic"]
    assert cli.main(base + ["--message", "4,5"]) == 2
    assert _error_report(capsys.readouterr().out, "simulate").startswith("OutOfRange: ")
    assert cli.main(base + ["--message", "1,2"]) == 0
    assert json.loads(capsys.readouterr().out)["transcript"]["outcome"] == {"[1, 2]": [1, 2]}


def _fields_set(d, field):
    """The bundle JSON d with every matrix over the field JSON `field`."""
    for key in ("F", "G1", "G2"):
        if key in d:
            d[key]["field"] = field
    return d


def _ex1_edit(edit):
    return lambda: edit(fx.example1().bundle.to_json())


def _gf9_long_element():
    from mmsplab.fields import field_build
    from mmsplab.linalg import MatGF
    from mmsplab.mmsp import make_bundle

    ctx = field_build(3, 2)
    g = MatGF.from_ints(ctx, [[1], [2], [4], [5]])
    f = MatGF.from_ints(ctx, [[3], [1], [0], [7]])
    d = make_bundle("ea", MatGF.zeros(ctx, 4, 0), g, f).to_json()
    d["F"]["data"][0] = [1, 2, 2]  # three coefficients over GF(3^2)
    return d


def _f_entry(coeffs):
    def edit(d):
        d["F"]["data"][0] = coeffs
        return d
    return _ex1_edit(edit)


def _f_set(key, value):
    def edit(d):
        d["F"][key] = value
        return d
    return _ex1_edit(edit)


def _tower_degree_str(d):
    from mmsplab.fields import tower_build

    field = tower_build(3, 2).to_json()
    field["tower"][1] = str(field["tower"][1])
    return _fields_set(d, field)


def _short_g1(d):
    d["G1"]["rows"] -= 1
    d["G1"]["data"] = d["G1"]["data"][:d["G1"]["rows"] * d["G1"]["cols"]]
    return d


@pytest.mark.parametrize("make,parties,kind", [
    # a tower whose r or poly disagrees with its degrees
    (_ex1_edit(lambda d: _fields_set(d, {"p": 3, "r": 8, "poly": [2, 0, 1, 0, 0, 0, 0, 0, 1],
                                         "tower": [1, 2, 4]})), 3, "DimensionMismatch"),
    (_ex1_edit(lambda d: _fields_set(d, {"p": 3, "r": 4, "poly": [1, 0, 2, 0, 1],
                                         "tower": [1, 2, 4]})), 3, "ReduciblePolynomial"),
    # an element with more coefficients than r
    (_gf9_long_element, 2, "DimensionMismatch"),
    # coefficients outside 0..p-1, which were read mod p
    (_f_entry([5]), 3, "OutOfRange"),
    (_f_entry([-1]), 3, "OutOfRange"),
    # an unknown class, G1 rows other than F's, F rows other than 2n or n
    (_ex1_edit(lambda d: dict(d, **{"class": "foo"})), 3, "ClassInvariantViolated"),
    (_ex1_edit(_short_g1), 3, "ClassInvariantViolated"),
    (_ex1_edit(lambda d: dict(d, params={"n": 2})), 2, "ClassInvariantViolated"),
    (_ex1_edit(lambda d: dict(d, **{"class": "plain"}, params={"n": 5})), 5,
     "ClassInvariantViolated"),
    # values JSON does not read as integers, which were coerced by int()
    (_f_set("rows", "6"), 3, "BadIndex"),
    (_f_entry([1.7]), 3, "BadIndex"),
    (_f_entry([True]), 3, "BadIndex"),
    (_ex1_edit(lambda d: _fields_set(d, dict(d["F"]["field"], p=3.0))), 3, "BadIndex"),
    (_ex1_edit(_tower_degree_str), 3, "BadIndex"),
    (_ex1_edit(lambda d: dict(d, params={"n": "3"})), 3, "BadIndex"),
], ids=["tower-r", "tower-poly", "long-element", "coeff-5", "coeff-neg", "class", "g1-rows",
        "ea-rows", "plain-rows", "rows-str", "coeff-1.7", "coeff-true", "p-float",
        "tower-degree-str", "n-str"])
@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_inconsistent_bundle_json_exit_2(tmp_path, capsys, make, parties, kind, command):
    """Each bundle loaded as something else, ran to a DimensionMismatch
    (exit 1), or verified and simulated as if well-formed (exit 0 and
    ok: true); now it is refused as malformed input."""
    from mmsplab import cli
    from mmsplab.access import make_threshold

    b, s = tmp_path / BUNDLE, tmp_path / STRUCT
    d = make()
    b.write_text(json.dumps(d))
    s.write_text(json.dumps(make_threshold(2, 1, parties).to_json()))
    if command == "verify":
        argv = ["verify", str(b), str(s)]
    else:
        argv = ["simulate", "--protocol", "eass", "--bundle", str(b), "--structure", str(s),
                "--message", ",".join(["1"] * d["F"]["cols"]), "--seed", "1",
                "--backend", "symplectic"]
    assert cli.main(argv) == 2
    assert _error_report(capsys.readouterr().out, command).startswith(kind + ": ")


@pytest.mark.parametrize("argv,kind", [
    (["fixtures", "--out", "{tmp}"], "IsADirectoryError"),
    (["construct", "cq", "2", "1", "3", "3", "--out", "{tmp}/missing/x.json"],
     "FileNotFoundError"),
], ids=["fixtures-dir", "construct-missing-dir"])
def test_unwritable_out_exit_2(tmp_path, capsys, argv, kind):
    """An --out path that cannot be written is a malformed input: a JSON
    report and exit 2, not a traceback."""
    from mmsplab import cli

    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert _error_report(capsys.readouterr().out, argv[0]).startswith(kind + ": ")


def test_main_does_not_rebuild_the_parser(monkeypatch, capsys):
    """main() parses with the parser built at import."""
    from mmsplab import cli

    def no_build():
        raise AssertionError("build_parser called by main")

    monkeypatch.setattr(cli, "build_parser", no_build)
    assert cli.main(["rate", "eass", "2", "1", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["rate"] == "2/3"


def test_main_reused_in_process_matches_fresh_processes(ex1_files, capsys):
    """One process runs an argparse error, a simulate with --message, one
    that leaves --message at its default and a SPIR run; each call's stdout
    and exit code equal those of a fresh process with the same argv, so no
    call leaves state in the shared parser for the next one."""
    from mmsplab import cli

    base = ["simulate", "--bundle", ex1_files[0], "--structure", ex1_files[1]]
    argvs = [
        base + ["--protocol", "nosuch", "--seed", "1"],
        base + ["--protocol", "eass", "--message", "1,2", "--seed", "5"],
        base + ["--protocol", "eass", "--seed", "5"],  # default "0": one entry of two
        base + ["--protocol", "easpir", "--files-data", "0,1,2,0", "--k", "2", "--seed", "3"],
    ]
    codes = []
    for argv in argvs:
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        out = capsys.readouterr().out
        rc, want, _ = run_cli(*argv)
        assert (codes[-1], out) == (rc, want), argv
    assert codes == [2, 0, 2, 0]
