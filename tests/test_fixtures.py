"""Golden SHA-256 digests of the seeded fixture pools and mutated negatives.

The criterion-2 fixtures, the wide-field dense digests and the benchmark's
audit inputs are drawn through `make_pools` and `mutate_negative`, so a
change to how they search must leave these digests unchanged.  The CQ and QQ cases reuse the pools of
criterion 2 (seeds 103 and 104), where most redraw searches end in None.
To regenerate after a deliberate behaviour change, run
``python tests/test_fixtures.py`` and paste its block into GOLDEN.
"""

import hashlib
import json

import pytest

from mmsplab import _accel, mmsp
from mmsplab import fixtures as fx
from mmsplab.access import symplectify_structure

# (label, kind, p, pool seed, n values, pool size); the positives are mutated
# with seed pool seed + 1000 + i, as criterion 2 does
CASES = [
    ("plain-p3", "plain", 3, 101, (2, 3), 4),
    ("ea-p3", "ea", 3, 102, (2, 3), 4),
    ("cq-p3", "cq", 3, 103, (2, 3), 4),
    ("qq-p3", "qq", 3, 104, (2, 3), 3),
    ("ea-p5", "ea", 5, 3, (2,), 3),
    ("ea-p7", "ea", 7, 8, (2,), 3),
    ("cq-p5", "cq", 5, 5, (2,), 3),
    ("cq-p7", "cq", 7, 7, (2,), 3),
]


def _pair(bundle, fs) -> dict:
    return {"bundle": bundle.to_json(), "access": fs.to_json()}


def case_record(kind: str, p: int, seed: int, n_values: tuple, count: int) -> dict:
    pos, neg = fx.make_pools(kind, count, seed=seed, n_values=n_values, p=p)
    muts = [fx.mutate_negative(bundle, fs, seed=seed + 1000 + i)
            for i, (bundle, fs) in enumerate(pos)]
    return {"pos": [_pair(*x) for x in pos], "neg": [_pair(*x) for x in neg],
            "mut": [None if m is None else m.to_json() for m in muts]}


def compute_digests() -> dict:
    out = {}
    for label, *args in CASES:
        rec = case_record(*args)
        out[label] = hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()
    return out


GOLDEN = {
    'cq-p3': '3dd3807542bc16bf34da052d23bbea09b0d465dcf0d49bbf1a31282d5da5be8f',
    'cq-p5': 'eaa13bb3d90394204a24466c9c75476c33c9b6727abe0d31b7d0f09a1240b1c5',
    'cq-p7': '58d2c2d5f9febfa2f0ec8792bc4cf13346aff8bf5afe7517f7b1864402af8eba',
    'ea-p3': 'a28287973739865a5579315bd3b2af0775c473a6d07c2c24f74522f696dbd4ab',
    'ea-p5': 'bd375b58734f9e2fda8bf6598a922f878003718d2dc033a712091d76fc7c5c5d',
    'ea-p7': '00e7f4e0fcf2c36693654a6b53a4d083197b3447ef065a444f46b57f4a3d35d8',
    'plain-p3': '23d10f5cd47a495d68769df3965b9cdaf3006d231ff859a87b334973737e0c17',
    'qq-p3': '40f2c388abb76b419547a2c1b743c70fac4973a2d5293a7443a2330340656593',
}


def test_fixture_digests_unchanged():
    assert compute_digests() == GOLDEN


@pytest.mark.parametrize("redraws", [1, 7, 50])
def test_mutate_negative_same_for_every_block_size(redraws, monkeypatch):
    """A block of one redraw is the one-at-a-time search; smaller blocks
    than the default pick the same first failing redraw, here found on
    draws 1 to 165, and the same None when 300 redraws find none."""
    cases = [(kind, seed, i) for kind, seed, idx in
             (("ea", 107, (0, 1, 6)), ("plain", 101, (0, 2)),
              ("cq", 103, (0,)), ("qq", 104, (2,)))
             for i in idx]
    pools = {(kind, seed): fx.make_pools(kind, 8, seed=seed)[0]
             for kind, seed, _ in cases}

    def outputs(budget=None):
        out = []
        for kind, seed, i in cases:
            bundle, fs = pools[kind, seed][i]
            if budget:  # redraws per block
                target = fs if kind == "plain" else symplectify_structure(fs)
                n_sets = len(list(target.accept_iter())) + len(list(target.reject_iter()))
                cells = bundle.f.rows * (bundle.y1 + bundle.y2 + bundle.x)
                monkeypatch.setattr(mmsp, "MDS_BLOCK_CELLS", budget * n_sets * cells)
            mut = fx.mutate_negative(bundle, fs, seed=seed + 1000 + i)
            out.append(None if mut is None else mut.to_json())
        return out

    want = outputs()
    assert want[0] is not None and want[-1] is None
    assert outputs(redraws) == want


@pytest.mark.parametrize("kind, seed", [("cq", 103), ("qq", 104)])
def test_mutate_negative_eliminates_in_blocks(kind, seed, monkeypatch):
    """A search that spends all 300 redraws eliminates once per block for
    the class check and once for the verdicts (QQ adds one for the
    complement basis).  These n = 3 bundles have 4 (CQ) and 6 (QQ)
    symplectified threshold sets, so a block holds 227 redraws and the
    search makes 2 blocks: at most 4 and 5 eliminations, where one
    elimination per check of each redraw made about 600 and 900."""
    bundle, fs = fx.make_pools(kind, 1, seed=seed)[0][0]
    sfs = symplectify_structure(fs)
    n_sets = len(list(sfs.accept_iter())) + len(list(sfs.reject_iter()))
    block = mmsp.set_block(bundle.g_stack(), bundle.f) // n_sets
    assert (bundle.n, block) == (3, 227)
    calls = []
    eliminate = _accel._eliminate
    monkeypatch.setattr(_accel, "_eliminate",
                        lambda *a, **k: calls.append(1) or eliminate(*a, **k))
    assert fx.mutate_negative(bundle, fs, seed=seed + 1000) is None
    assert len(calls) <= {"cq": 4, "qq": 5}[kind]


if __name__ == "__main__":
    for key, val in sorted(compute_digests().items()):
        print(f"    {key!r}: {val!r},")
