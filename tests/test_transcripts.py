"""Golden SHA-256 digests of seeded protocol transcripts and audit reports.

These pin the observable behaviour of the runners and audits: a refactor of
the protocol layer must leave every digest unchanged.  To regenerate after
a deliberate behaviour change, run ``python tests/test_transcripts.py``
and paste its two blocks into GOLDEN and GOLDEN_WIDE.
"""

import hashlib
import json

import numpy as np
import pytest

from mmsplab import qprotocols as qp
from mmsplab.access import make_explicit, make_threshold
from mmsplab.fields import field_build
from mmsplab.fixtures import example1, example2, example3
from mmsplab.linalg import MatGF, VecGF
from mmsplab.mmsp import make_bundle

from conftest import wide_ea_pools

SEEDS = (0, 7)
NFILES = 2


def _examples():
    return {"ex1": example1(), "ex2": example2(), "ex3": example3(3)}


def _runs(name, bundle, fs, flavours, backends):
    """Seeded transcripts of every flavour on one bundle, keyed by case."""
    ctx, x = bundle.ctx, bundle.x
    m = VecGF.from_ints(ctx, [(i + 1) % 3 for i in range(x)])
    files = np.array([(2 * i + 1) % 3 for i in range(x * NFILES)], dtype=np.int64)

    def run(proto, seed, backend):
        if proto.endswith("spir"):
            return qp.run_spir(bundle, files, 2, seed, fs, NFILES, proto, backend)
        return qp.run_ss(bundle, m, seed, fs, proto, backend)
    return {f"{name}/{proto}/{backend}/{seed}": run(proto, seed, backend).digest()
            for proto in flavours for backend in backends for seed in SEEDS}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def compute_digests() -> dict:
    out = {}
    both = ("dense", "symplectic")
    for name, ex in _examples().items():
        flavours = (("cqss", "cqspir") if ex.bundle.cls == "cq" else ("eass", "easpir"))
        out.update(_runs(name, ex.bundle, ex.access, flavours + ("feass", "feaspir"), both))
        ss = "cqss" if ex.bundle.cls == "cq" else "eass"
        out[f"{name}/audit_ss"] = _sha(qp.audit_ss(ex.bundle, ex.access, protocol=ss).to_json())
        out[f"{name}/audit_spir"] = _sha(qp.audit_spir(
            ex.bundle, ex.access, nfiles=NFILES, protocol=ss[:2] + "spir").to_json())
    rng = np.random.default_rng(8)
    for label, ctx in (("gf5", field_build(5, 1)), ("gf9", field_build(3, 2))):
        g = MatGF(ctx, rng.integers(0, ctx.q, size=(4, 2)))
        f = MatGF(ctx, rng.integers(0, ctx.q, size=(4, 1)))
        fe = make_bundle("ea", MatGF.zeros(ctx, 4, 0), g, f, n=2)
        out.update(_runs(label, fe, make_threshold(2, 1, 2), ("feass", "feaspir"),
                         ("symplectic",)))
    from mmsplab.constructions import construct_eammsp
    tower = construct_eammsp(2, 1, 2, 2)
    out.update(_runs("tower32", tower, make_threshold(2, 1, 2),
                     ("eass", "easpir", "feass", "feaspir"), ("symplectic",)))
    ex1 = _examples()["ex1"]
    qq = make_bundle("qq", ex1.g1, None, ex1.f, n=3)
    rho = np.zeros((3, 3), dtype=complex)
    rho[1, 1] = 1.0
    for subset in ([1, 2], [2, 3]):
        tr, _ = qp.run_qqss(qq, rho, 0, subset)
        out[f"ex1-qq/qqss/{subset}"] = tr.digest()
    out["ex1-qq/audit_qqss"] = _sha(qp.audit_qqss(qq, ex1.access).to_json())
    return out


def compute_wide_digests() -> dict:
    """Seeded dense EASS/EASPIR transcripts on the F_5 and F_7 pools, decoded
    on every nonempty set, so single parties are pinned too: None where the
    party cannot decode, the message where a negative bundle leaks it."""
    every = make_explicit(2, [[1], [2], [1, 2]], [[]])
    out = {}
    for label, bundle, _ in wide_ea_pools():
        out.update(_runs(label, bundle, every, ("eass", "easpir"), ("dense",)))
    return out


GOLDEN = {
    'ex1-qq/audit_qqss': 'a7d364a144ef7c0f480550009b5a85f21c849702bf25315d0cc1ea863360d786',
    'ex1-qq/qqss/[1, 2]': '2c899b751222d3298e9f4a6acf2c2179dbabaf836f0260a1881a2036a7ea0384',
    'ex1-qq/qqss/[2, 3]': 'dd6282617e038dea0eaa2e08ce75861d1de6b9c74326b6643028a7ff7c1ee4f8',
    'ex1/audit_spir': '535f8ad929fbd19967e2819cb5b43b9500e4685d0fc75372c1b23099708bd23a',
    'ex1/audit_ss': 'e9d299b2709956c7ca137650fc59db9659ab886b9cebbe5ccc4300f8ef1d878d',
    'ex1/easpir/dense/0': 'c6523dac33573637b6dbc86f0117d994dbbc23c142603fd4f6a8f33b829fa4c7',
    'ex1/easpir/dense/7': 'c6523dac33573637b6dbc86f0117d994dbbc23c142603fd4f6a8f33b829fa4c7',
    'ex1/easpir/symplectic/0': 'c6523dac33573637b6dbc86f0117d994dbbc23c142603fd4f6a8f33b829fa4c7',
    'ex1/easpir/symplectic/7': 'c6523dac33573637b6dbc86f0117d994dbbc23c142603fd4f6a8f33b829fa4c7',
    'ex1/eass/dense/0': 'c14fcd5350311acb4738c401c29ab8a687e124b42a068c8177ea6a705c1bd6bd',
    'ex1/eass/dense/7': 'c14fcd5350311acb4738c401c29ab8a687e124b42a068c8177ea6a705c1bd6bd',
    'ex1/eass/symplectic/0': '5d3148a237d4aa6395945297d9e6deb2536a41ae64a704022842ef0bbd4a0176',
    'ex1/eass/symplectic/7': '5d3148a237d4aa6395945297d9e6deb2536a41ae64a704022842ef0bbd4a0176',
    'ex1/feaspir/dense/0': 'c6523dac33573637b6dbc86f0117d994dbbc23c142603fd4f6a8f33b829fa4c7',
    'ex1/feaspir/dense/7': 'c6523dac33573637b6dbc86f0117d994dbbc23c142603fd4f6a8f33b829fa4c7',
    'ex1/feaspir/symplectic/0': 'c6523dac33573637b6dbc86f0117d994dbbc23c142603fd4f6a8f33b829fa4c7',
    'ex1/feaspir/symplectic/7': 'c6523dac33573637b6dbc86f0117d994dbbc23c142603fd4f6a8f33b829fa4c7',
    'ex1/feass/dense/0': 'c14fcd5350311acb4738c401c29ab8a687e124b42a068c8177ea6a705c1bd6bd',
    'ex1/feass/dense/7': 'c14fcd5350311acb4738c401c29ab8a687e124b42a068c8177ea6a705c1bd6bd',
    'ex1/feass/symplectic/0': '2c4348bdb32f706a49ae8450603293b19b935136c2e8549eb8692a34022c1340',
    'ex1/feass/symplectic/7': '2c4348bdb32f706a49ae8450603293b19b935136c2e8549eb8692a34022c1340',
    'ex2/audit_spir': 'afc1accc88155aebb4b074512200dd4b323c6690c73f0f97e404f57e2dc46012',
    'ex2/audit_ss': '42322c54815f917d5560a62de3318fffced86a91ef8977cd0300f77ac31d164b',
    'ex2/cqspir/dense/0': 'c951204f8b9c8bd31e21be7f9fb121863717c498a421db82737d134569c00c09',
    'ex2/cqspir/dense/7': 'c951204f8b9c8bd31e21be7f9fb121863717c498a421db82737d134569c00c09',
    'ex2/cqspir/symplectic/0': 'c951204f8b9c8bd31e21be7f9fb121863717c498a421db82737d134569c00c09',
    'ex2/cqspir/symplectic/7': 'c951204f8b9c8bd31e21be7f9fb121863717c498a421db82737d134569c00c09',
    'ex2/cqss/dense/0': '701813512424121fc7dbaaef3025097b679c57d5c859e20f8215f6cbbb00dcf8',
    'ex2/cqss/dense/7': '701813512424121fc7dbaaef3025097b679c57d5c859e20f8215f6cbbb00dcf8',
    'ex2/cqss/symplectic/0': '36be743fe383c0b24c20a17c8f0867ec6162b757e148315b4c03c789e9df42ed',
    'ex2/cqss/symplectic/7': '36be743fe383c0b24c20a17c8f0867ec6162b757e148315b4c03c789e9df42ed',
    'ex2/feaspir/dense/0': 'c951204f8b9c8bd31e21be7f9fb121863717c498a421db82737d134569c00c09',
    'ex2/feaspir/dense/7': 'c951204f8b9c8bd31e21be7f9fb121863717c498a421db82737d134569c00c09',
    'ex2/feaspir/symplectic/0': 'c951204f8b9c8bd31e21be7f9fb121863717c498a421db82737d134569c00c09',
    'ex2/feaspir/symplectic/7': 'c951204f8b9c8bd31e21be7f9fb121863717c498a421db82737d134569c00c09',
    'ex2/feass/dense/0': '701813512424121fc7dbaaef3025097b679c57d5c859e20f8215f6cbbb00dcf8',
    'ex2/feass/dense/7': '701813512424121fc7dbaaef3025097b679c57d5c859e20f8215f6cbbb00dcf8',
    'ex2/feass/symplectic/0': '85c8289af91f4f16531d165c3a63b0e4a9cfed24306eb9c9b642f59aae854729',
    'ex2/feass/symplectic/7': 'b6c01cae934d0ce9e7bd7c78719cd29e4fd31fcc0023c46e5353afaf2f92d420',
    'ex3/audit_spir': 'bad9ae0e6acbfa1e9146dc6f3e061c4950315c82732486c11623b4d0a9fd704c',
    'ex3/audit_ss': 'f92a6c22ad05ef15ef9613588e1bf178a1c8ca48f506c277dd16785aebdb6d50',
    'ex3/easpir/dense/0': '162944e7ae969334af9390ef37368c4fff740f97955c0577918de760112a96ae',
    'ex3/easpir/dense/7': '162944e7ae969334af9390ef37368c4fff740f97955c0577918de760112a96ae',
    'ex3/easpir/symplectic/0': '162944e7ae969334af9390ef37368c4fff740f97955c0577918de760112a96ae',
    'ex3/easpir/symplectic/7': '162944e7ae969334af9390ef37368c4fff740f97955c0577918de760112a96ae',
    'ex3/eass/dense/0': 'da5deab386bfe0aa67d30a1e4b16403996841bbd128b2aa2d24f7a6f6d059a7a',
    'ex3/eass/dense/7': 'da5deab386bfe0aa67d30a1e4b16403996841bbd128b2aa2d24f7a6f6d059a7a',
    'ex3/eass/symplectic/0': '3801c4b7cca3996884fa7fc7c31da5e1bc34c9e6f8e807034374cc5ae6836548',
    'ex3/eass/symplectic/7': '3801c4b7cca3996884fa7fc7c31da5e1bc34c9e6f8e807034374cc5ae6836548',
    'ex3/feaspir/dense/0': '162944e7ae969334af9390ef37368c4fff740f97955c0577918de760112a96ae',
    'ex3/feaspir/dense/7': '162944e7ae969334af9390ef37368c4fff740f97955c0577918de760112a96ae',
    'ex3/feaspir/symplectic/0': '162944e7ae969334af9390ef37368c4fff740f97955c0577918de760112a96ae',
    'ex3/feaspir/symplectic/7': '162944e7ae969334af9390ef37368c4fff740f97955c0577918de760112a96ae',
    'ex3/feass/dense/0': 'da5deab386bfe0aa67d30a1e4b16403996841bbd128b2aa2d24f7a6f6d059a7a',
    'ex3/feass/dense/7': 'da5deab386bfe0aa67d30a1e4b16403996841bbd128b2aa2d24f7a6f6d059a7a',
    'ex3/feass/symplectic/0': '0e526b57fbde96bdcd703871470c201496543702c301d0b5ed479c0f3d3e616c',
    'ex3/feass/symplectic/7': '0e526b57fbde96bdcd703871470c201496543702c301d0b5ed479c0f3d3e616c',
    'gf5/feaspir/symplectic/0': 'bbbe082c3bd37d253b2f303dd1a08cef1ddcc23dbc69d0821a47f53166c4a807',
    'gf5/feaspir/symplectic/7': 'bbbe082c3bd37d253b2f303dd1a08cef1ddcc23dbc69d0821a47f53166c4a807',
    'gf5/feass/symplectic/0': 'ad64975eb9d4b00022f68a561c2701e6c93c35d6b62d6c258313e846077b701b',
    'gf5/feass/symplectic/7': 'ad64975eb9d4b00022f68a561c2701e6c93c35d6b62d6c258313e846077b701b',
    'gf9/feaspir/symplectic/0': 'bbbe082c3bd37d253b2f303dd1a08cef1ddcc23dbc69d0821a47f53166c4a807',
    'gf9/feaspir/symplectic/7': 'bbbe082c3bd37d253b2f303dd1a08cef1ddcc23dbc69d0821a47f53166c4a807',
    'gf9/feass/symplectic/0': 'e095d735907eb4a4be23215347c52277519f4aed875f73a8415616f9a4b7c3d4',
    'gf9/feass/symplectic/7': 'e8e7bc026269b6700b3ede66e18847157ea03c6a649c22ef218d693ec9139285',
    'tower32/easpir/symplectic/0': '3582284d6e6a4bee123a63e3f90ffcbb38d2f12babf10d37bb94995aacfc0cb7',
    'tower32/easpir/symplectic/7': '3582284d6e6a4bee123a63e3f90ffcbb38d2f12babf10d37bb94995aacfc0cb7',
    'tower32/eass/symplectic/0': 'bfb31b54b1458172ca5bdc03414458b91601708ce8f8f14c57e4d5f11179fa4b',
    'tower32/eass/symplectic/7': 'bfb31b54b1458172ca5bdc03414458b91601708ce8f8f14c57e4d5f11179fa4b',
    'tower32/feaspir/symplectic/0': '3582284d6e6a4bee123a63e3f90ffcbb38d2f12babf10d37bb94995aacfc0cb7',
    'tower32/feaspir/symplectic/7': '3582284d6e6a4bee123a63e3f90ffcbb38d2f12babf10d37bb94995aacfc0cb7',
    'tower32/feass/symplectic/0': '74963e247825b0f9c84f939751fbdcb3045931a055f692f59cd17efcc8a42885',
    'tower32/feass/symplectic/7': '63e2e570004783dd538b71aad4ebaad4bd203a11698fc4efd3f919af64272f08',
}


GOLDEN_WIDE = {
    'gf5-neg/easpir/dense/0': '8ace93027ac24754e15112eaa46a27c610f4bfcbe1825c6a12f3cc766a18e366',
    'gf5-neg/easpir/dense/7': '8ace93027ac24754e15112eaa46a27c610f4bfcbe1825c6a12f3cc766a18e366',
    'gf5-neg/eass/dense/0': '3620cf293967d65715cfc56955022d56891bd0c62388fa42400def25653bb1eb',
    'gf5-neg/eass/dense/7': '3620cf293967d65715cfc56955022d56891bd0c62388fa42400def25653bb1eb',
    'gf5-pos/easpir/dense/0': 'c22ab7ce2c3935e9c293bcd597b9b5872214c74a72b9ed8dbaeccf51f7ca1307',
    'gf5-pos/easpir/dense/7': 'c22ab7ce2c3935e9c293bcd597b9b5872214c74a72b9ed8dbaeccf51f7ca1307',
    'gf5-pos/eass/dense/0': 'fd3d431065f7990ef101033a1e1a7aca8855cd8a93790005b4f32e2c30902986',
    'gf5-pos/eass/dense/7': 'fd3d431065f7990ef101033a1e1a7aca8855cd8a93790005b4f32e2c30902986',
    'gf7-neg/easpir/dense/0': '1e2d0c7adda3ae2b61c44743dc9b6b6f43fff552225d41aeb6b6613acc9ed99c',
    'gf7-neg/easpir/dense/7': '1e2d0c7adda3ae2b61c44743dc9b6b6f43fff552225d41aeb6b6613acc9ed99c',
    'gf7-neg/eass/dense/0': '4010f44cdd4f5df05fe61944725de02ab3e7f25cca9e7ae62d976f98f1f67f5b',
    'gf7-neg/eass/dense/7': '4010f44cdd4f5df05fe61944725de02ab3e7f25cca9e7ae62d976f98f1f67f5b',
    'gf7-pos/easpir/dense/0': '23da16d5aee985f417194780fda3b9f78aff4fbf4620730e035c7715ebbefebc',
    'gf7-pos/easpir/dense/7': '23da16d5aee985f417194780fda3b9f78aff4fbf4620730e035c7715ebbefebc',
    'gf7-pos/eass/dense/0': 'e4201c7ad5440f0285525ffb28fd905f200a67051ce4b76fb995fde5763f0a8e',
    'gf7-pos/eass/dense/7': 'e4201c7ad5440f0285525ffb28fd905f200a67051ce4b76fb995fde5763f0a8e',
}


@pytest.fixture(scope="module")
def digests():
    return compute_digests()


def test_golden_cases_cover_every_flavour(digests):
    assert set(digests) == set(GOLDEN)
    flavours = {key.split("/")[1] for key in digests}
    assert {"eass", "cqss", "feass", "easpir", "cqspir", "feaspir", "qqss",
            "audit_ss", "audit_spir", "audit_qqss"} <= flavours


def test_transcript_digests_unchanged(digests):
    changed = sorted(k for k in GOLDEN if digests.get(k) != GOLDEN[k])
    assert not changed


def test_wide_field_dense_digests_unchanged():
    assert compute_wide_digests() == GOLDEN_WIDE


if __name__ == "__main__":
    for block in (compute_digests(), compute_wide_digests()):
        for key, val in sorted(block.items()):
            print(f"    {key!r}: {val!r},")
        print()
