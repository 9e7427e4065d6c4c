"""Multi-target monotone span programs: acceptance/rejection predicates, the
bundle classes (plain / EA / CQ / QQ), the MDS characterization of threshold
programs, and the closed-form protocol rates.

A pair (G, F) accepts a subset A when the columns of F restricted to A stay
linearly independent modulo the column span of G restricted to A; it rejects
B when the restricted F columns fall inside the restricted span of G.  The
two equivalent formulations (the pivot F columns of [P_A G | P_A F] vs the
rank the unit block E adds to its row space) are both implemented, on stacks
from one restriction kernel, _restricted, which gathers the rows of each set
with one index standing for a zero row.  a1_a2_agree and b1_b2_agree compare
them on one subset, as the tests and the benchmark's verify-classical items
do.  Both read one table of the last (G, F), keyed on their content, that
holds the two counts for every row subset and is filled a block of subsets
per stacked elimination, so a sweep over every subset of n <= 6 rows costs
one elimination.  No CLI command runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, islice
from math import ceil
from typing import Iterable, Optional, Sequence

import numpy as np

from . import _accel
from .access import AccessStructure, Subset, make_threshold, symplectify_structure
from .errors import (
    ClassInvariantViolated,
    DimensionMismatch,
    OutOfRange,
    json_int,
)
from .fields import FieldCtx
from .linalg import (
    MDS_BLOCK_CELLS,
    MatGF,
    QuotientMap,
    VecGF,
    beside,
    hstack,
    is_col_orth,
    is_mds,
    is_self_col_orth,
    mat_from_json,
    mat_to_json,
    rank,
    subset_rows,
)


def _restricted(g: MatGF, fk: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The restrictions [P_S G | P_S F], (K, S, w, y + x[, r]), of [G | F]
    for every F of a stack fk (K, rows, x[, r]) of cells and every row S of
    idx (S, w) of 0-based rows, where index g.rows names a zero row (which
    changes no rank): the one restriction kernel of every MMSP predicate."""
    if g.rows != fk.shape[1]:
        raise DimensionMismatch("G and F must share their row count")
    m = beside(g, fk)
    return np.concatenate([m, g.ctx.cell_zeros(len(fk), 1, m.shape[2])], axis=1)[:, idx]


def _f_pivots(g: MatGF, fk: np.ndarray, sets: Sequence[Iterable[int]]) -> np.ndarray:
    """For each message matrix F of a stack fk (K, rows, x[, r]) of cells and
    each 1-based row set A, which F columns of [P_A G | P_A F] are pivot
    columns, (K, S, x), from one stack padded with zero rows."""
    rows = [subset_rows(s, g.rows) for s in sets]
    w = max(map(len, rows))
    stack = _restricted(g, fk, np.array([r + [g.rows] * (w - len(r)) for r in rows],
                                        dtype=np.int64))
    piv = _accel.gf_rank(g.ctx, stack.reshape((len(fk) * len(rows),) + stack.shape[2:]))[1]
    return piv.reshape(len(fk), len(rows), -1)[:, :, g.cols:]


def _failed(piv: np.ndarray, accept: np.ndarray) -> np.ndarray:
    """Which restrictions break the MMSP predicates, from their F pivot
    columns (..., S, x): an accept set missing one, a reject set with one."""
    return np.where(accept, ~piv.all(axis=-1), piv.any(axis=-1))


def _lemma1_pivots(g: MatGF, f: MatGF, subset: Iterable[int]) -> tuple[int, int]:
    """How many F columns of M = [P_A G | P_A F] are pivot columns, and how
    much rank the unit rows E (e_{y+1} .. e_{y+x}) add to M, read from the
    table of the last (G, F)."""
    if g.ctx is not f.ctx or g.rows != f.rows:
        raise DimensionMismatch("G and F must share their field and row count")
    mask = sum(1 << r for r in subset_rows(subset, g.rows))
    k, blocks = _lemma1_table(g, f)
    if (hi := mask >> k) not in blocks:
        blocks[hi] = _lemma1_block(g, f, k, hi)
    f_piv, e_rank = blocks[hi]
    lo = mask & ((1 << k) - 1)
    return int(f_piv[lo]), int(e_rank[lo])


@lru_cache(maxsize=1)
def _lemma1_table(g: MatGF, f: MatGF) -> tuple[int, dict]:
    """The two counts of every row subset of (G, F), keyed by its row
    bitmask and held in blocks of 2^k masks, 2^k the largest power of two
    within set_block(G, F): mask >> k names the block, the low k bits the
    entry.  MatGF hashes and compares by content, so an in-place edit of G
    or F misses the memo."""
    return min(g.rows, set_block(g, f).bit_length() - 1), {}


def _lemma1_block(g: MatGF, f: MatGF, k: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts of the 2^k row sets A with mask >> k == hi, from one
    stacked elimination of M over x zero rows and of M over E for every A,
    with the rows outside A zeroed.  Both stacks are eliminated: e_rank
    read off the F pivots would make the agreement checks hold by
    construction."""
    (n, y), x, size = g.a.shape[:2], f.cols, 1 << k
    high = np.array([hi >> j & 1 for j in range(n - k)], dtype=np.int64)
    keep = np.hstack([np.arange(size)[:, None] >> np.arange(k) & 1,
                      np.tile(high, (size, 1))])
    stack = g.ctx.cell_zeros(2, size, n + x, y + x)
    stack[:, :, :n] = _restricted(g, f.a[None], np.where(keep, np.arange(n), n))[0]
    stack[1, :, n + np.arange(x), y + np.arange(x)] = g.ctx.token_to_cell(g.ctx.one)
    ranks, piv = _accel.gf_rank(g.ctx, stack.reshape((2 * size,) + stack.shape[2:]))
    return piv[:size, y:].sum(axis=1), ranks[size:] - ranks[:size]


def accepts_one(g: MatGF, f: MatGF, subset: Iterable[int]) -> bool:
    """Condition (A1): restricted F columns independent modulo Im(P_A G),
    i.e. every F column of [P_A G | P_A F] is a pivot column."""
    return bool(_f_pivots(g, f.a[None], [subset]).all())


def rejects_one(g: MatGF, f: MatGF, subset: Iterable[int]) -> bool:
    """Condition (B1): every restricted F column inside span(P_B G), i.e. no
    F column of [P_B G | P_B F] is a pivot column."""
    return not _f_pivots(g, f.a[None], [subset]).any()


def cond_a2(g: MatGF, f: MatGF, subset: Iterable[int]) -> bool:
    """Condition (A2): row space of (P_A G, P_A F) contains the unit block E,
    i.e. stacking E under [P_A G | P_A F] adds no rank."""
    return _lemma1_pivots(g, f, subset)[1] == 0


def cond_b2(g: MatGF, f: MatGF, subset: Iterable[int]) -> bool:
    """Condition (B2): row space meets the unit block only in zero, i.e.
    stacking E under [P_A G | P_A F] adds rank x."""
    return _lemma1_pivots(g, f, subset)[1] == f.cols


def a1_a2_agree(g: MatGF, f: MatGF, subset: Iterable[int]) -> bool:
    f_piv, e_rank = _lemma1_pivots(g, f, subset)
    return (f_piv == f.cols) == (e_rank == 0)


def b1_b2_agree(g: MatGF, f: MatGF, subset: Iterable[int]) -> bool:
    f_piv, e_rank = _lemma1_pivots(g, f, subset)
    return (f_piv == 0) == (e_rank == f.cols)


class SpanDecoder:
    """Decoding on a 1-based row set A: the unique m with
    z = P_A G a + P_A F m, read off the one reduction of [P_A G | P_A F],
    which is built on first use."""

    def __init__(self, g: MatGF, f: MatGF, subset: Iterable[int]):
        self.rows = subset_rows(subset, f.rows)
        self.g, self.f = (MatGF(f.ctx, m.a[self.rows]) for m in (g, f))
        self.ctx, self.x = f.ctx, f.cols

    @cached_property
    def _quotient(self) -> QuotientMap:
        return QuotientMap(hstack([self.g, self.f]))

    @property
    def ok(self) -> bool:
        """(A1): every F column of [P_A G | P_A F] is a pivot column."""
        return int((self._quotient.pivots >= self.g.cols).sum()) == self.x

    def decode_all(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The message cells m of every row z of cells in zs, and the mask
        of the rows that decode to a unique m."""
        if not self.ok:
            return self.ctx.cell_zeros(len(zs), self.x), np.zeros(len(zs), dtype=bool)
        sols, ok = self._quotient.solve_all(zs)
        return sols[:, self.g.cols:], ok

    def decode_one(self, z: np.ndarray) -> Optional[VecGF]:
        """The unique m for one label z of cells, or None."""
        msgs, ok = self.decode_all(z[None])
        return VecGF(self.ctx, msgs[0]) if ok[0] else None


def set_block(g: MatGF, f: MatGF) -> int:
    """How many row restrictions of [G | F] one stacked elimination takes:
    about MDS_BLOCK_CELLS cells."""
    cells = f.rows * (g.cols + f.cols) * int(np.prod(f.a.shape[2:]))
    return max(1, MDS_BLOCK_CELLS // max(1, cells))


def mmsp_failure(g: MatGF, f: MatGF, fs: AccessStructure) -> Optional[tuple[str, Subset]]:
    """("acceptance", A) for the first accept set (G, F) does not accept, else
    ("rejection", B) for the first reject set it does not reject, else None;
    the restrictions are eliminated in stacks of set_block sets.  The last
    verdict is memoised on the content of G, F and the structure, so an
    in-place edit of G or F misses the memo."""
    sets = (fs.r, fs.t) if fs.kind == "threshold" else (fs.accept_sets, fs.reject_sets)
    return _mmsp_failure(g, f, (fs.n, *sets, fs.symplectified))


@lru_cache(maxsize=1)
def _mmsp_failure(g: MatGF, f: MatGF, key: tuple) -> Optional[tuple[str, Subset]]:
    fs = AccessStructure(*key[:3], symplectified=key[3])  # key: what rebuilds it
    sets = chain((("acceptance", a) for a in fs.accept_iter()),
                 (("rejection", b) for b in fs.reject_iter()))
    block = set_block(g, f)
    while chunk := list(islice(sets, block)):
        piv = _f_pivots(g, f.a[None], [s for _, s in chunk])[0]
        bad = _failed(piv, np.array([kind == "acceptance" for kind, _ in chunk]))
        if bad.any():
            return chunk[int(bad.argmax())]
    return None


def is_mmsp(g: MatGF, f: MatGF, fs: AccessStructure) -> bool:
    """(G, F) accepts every accept set and rejects every reject set."""
    return mmsp_failure(g, f, fs) is None


def mmsp_verdicts(g: MatGF, fk: np.ndarray, fs: AccessStructure) -> np.ndarray:
    """is_mmsp(G, F) for every F of a stack fk (K, rows, x[, r]) of cells,
    from one stacked elimination of all K times S restrictions; callers
    size K so that K S stays within a set_block."""
    accept, reject = list(fs.accept_iter()), list(fs.reject_iter())
    if not (accept or reject) or not len(fk):
        return np.ones(len(fk), dtype=bool)
    piv = _f_pivots(g, fk, accept + reject)
    return ~_failed(piv, np.arange(len(accept) + len(reject)) < len(accept)).any(axis=1)


def is_threshold_mmsp_via_mds(g: MatGF, f: MatGF, r: int, t: int) -> bool:
    """The MDS characterization: (G,F) an (nbar,r)-MDS code and G an
    (nbar,t)-MDS code."""
    if g.cols != t or f.cols != r - t:
        raise DimensionMismatch(
            f"need cols(G)={t} and cols(F)={r - t}, got {g.cols}, {f.cols}")
    return is_mds(hstack([g, f])) and is_mds(g)


# ---------------------------------------------------------------------------
# bundles and classification
# ---------------------------------------------------------------------------

BUNDLE_CLASSES = ("plain", "ea", "cq", "qq")


@dataclass
class MmspBundle:
    """A classified matrix triple (G1, G2, F).

    plain: G1 plays the role of the whole randomness matrix G on nbar rows.
    ea/cq/qq: 2n rows; cq requires y1 = n, qq requires F column-orthogonal
    to a self-column-orthogonal G1 of width n - x'.
    """

    cls: str
    g1: MatGF
    g2: MatGF
    f: MatGF
    n: int
    params: dict = field(default_factory=dict)

    @property
    def ctx(self) -> FieldCtx:
        return self.f.ctx

    @property
    def y1(self) -> int:
        return self.g1.cols

    @property
    def y2(self) -> int:
        return self.g2.cols

    @property
    def x(self) -> int:
        return self.f.cols

    def g_stack(self) -> MatGF:
        return hstack([self.g1, self.g2])

    def to_json(self) -> dict:
        out = {"class": self.cls, "F": mat_to_json(self.f),
               "params": dict(self.params, n=self.n)}
        if self.g1.cols:
            out["G1"] = mat_to_json(self.g1)
        if self.g2.cols:
            out["G2"] = mat_to_json(self.g2)
        return out


def bundle_from_json(d: dict) -> MmspBundle:
    params = dict(d.get("params", {}))
    n = params.pop("n", None)
    g1, g2 = (mat_from_json(d[key]) if key in d else None for key in ("G1", "G2"))
    bundle = make_bundle(d["class"], g1, g2, mat_from_json(d["F"]),
                         n=None if n is None else json_int(n, "n"))
    bundle.params.update(params)  # free-form keys, so not passed as keywords
    return bundle


def make_bundle(cls: str, g1: Optional[MatGF], g2: Optional[MatGF], f: MatGF,
                n: Optional[int] = None, **params) -> MmspBundle:
    """The bundle (G1, G2, F); a missing or empty G is F's zero-column block
    and n defaults to F's rows (plain) or half of them.  Raises
    ClassInvariantViolated for the shapes check_shape refuses."""
    g1, g2 = (g if g is not None and g.cols else MatGF.zeros(f.ctx, f.rows, 0)
              for g in (g1, g2))
    if n is None:
        n = f.rows if cls == "plain" else f.rows // 2
    bundle = MmspBundle(cls=cls, g1=g1, g2=g2, f=f, n=n, params=params)
    check_shape(bundle)
    return bundle


@dataclass
class ClassifyReport:
    ok: bool
    cls: str
    checks: list  # (name, bool, detail)

    def failed(self) -> list:
        return [c for c in self.checks if not c[1]]


def check_shape(b: MmspBundle) -> None:
    """Raise ClassInvariantViolated unless the class is known, G1 and G2
    with columns share F's field and rows, and F has n rows (plain) or 2n."""
    if b.cls not in BUNDLE_CLASSES:
        raise ClassInvariantViolated(f"unknown bundle class {b.cls!r}")
    for m, name in ((b.g1, "G1"), (b.g2, "G2")):
        if m.cols and m.rows != b.f.rows:
            raise ClassInvariantViolated(f"{name} row count != F row count")
        if m.cols and m.ctx is not b.f.ctx:
            raise ClassInvariantViolated(f"{name} uses a different field")
    rows = b.n if b.cls == "plain" else 2 * b.n
    if b.f.rows != rows:
        raise ClassInvariantViolated(f"F has {b.f.rows} rows, a {b.cls} bundle on "
                                     f"n = {b.n} parties has {rows}")


def check_structure(bundle: MmspBundle) -> None:
    """Raise ClassInvariantViolated when a structural invariant fails."""
    b = bundle
    check_shape(b)
    if b.cls == "plain":
        return
    if not is_self_col_orth(b.g1):
        raise ClassInvariantViolated("G1 is not self-column-orthogonal")
    if b.cls == "cq":
        if b.y1 != b.n:
            raise ClassInvariantViolated(
                f"CQ class needs y1 = n, got y1={b.y1}, n={b.n}")
        if rank(hstack([b.g1, b.g2, b.f])) != b.y1 + b.y2 + b.x:
            raise ClassInvariantViolated("(G1,G2,F) columns linearly dependent")
    if b.cls == "qq":
        if b.x % 2:
            raise ClassInvariantViolated("QQ class needs an even message width")
        xq = b.x // 2
        if b.y1 != b.n - xq:
            raise ClassInvariantViolated(
                f"QQ class needs y1 = n - x', got y1={b.y1}, n={b.n}, x'={xq}")
        if not is_col_orth(b.f, b.g1):
            raise ClassInvariantViolated("F is not column-orthogonal to G1")


def classify(bundle: MmspBundle, r: int, t: int, n: Optional[int] = None) -> ClassifyReport:
    """Structural invariants plus the symplectified-threshold MMSP verdict."""
    if n is None:
        n = bundle.n
    elif bundle.cls != "plain" and n != bundle.n:
        raise ClassInvariantViolated(f"bundle has n={bundle.n}, asked n={n}")
    check_structure(bundle)
    checks = []
    if bundle.cls == "plain":
        fs = make_threshold(r, t, bundle.f.rows)
    else:
        fs = symplectify_structure(make_threshold(r, t, n))
    verdict = is_mmsp(bundle.g_stack(), bundle.f, fs)
    checks.append(("mmsp", verdict, f"(r={r}, t={t}, n={n})"))
    return ClassifyReport(ok=all(c[1] for c in checks), cls=bundle.cls, checks=checks)


# ---------------------------------------------------------------------------
# EA / QQ flavored MDS codes
# ---------------------------------------------------------------------------

def is_eamds(g1: MatGF, f: MatGF) -> bool:
    """Acceptance of all symplectified ceil((y1+x)/2)-subsets; no rejection
    requirement."""
    if g1.rows % 2 or g1.rows != f.rows:
        raise ClassInvariantViolated("expected matching 2n-row matrices")
    if not is_self_col_orth(g1):
        raise ClassInvariantViolated("G1 is not self-column-orthogonal")
    n = g1.rows // 2
    r = ceil((g1.cols + f.cols) / 2)
    return r == 0 or is_mmsp(g1, f, symplectify_structure(make_threshold(r, 0, n)))


def is_qqmds(g1: MatGF, f: MatGF) -> bool:
    """Acceptance of all symplectified r-subsets with r read off the widths
    (G1: 2n x 2(n-r), F: 2n x 2(2r-n))."""
    if g1.rows % 2 or g1.rows != f.rows:
        raise ClassInvariantViolated("expected matching 2n-row matrices")
    n = g1.rows // 2
    if g1.cols % 2 or f.cols % 2:
        raise ClassInvariantViolated("QQMDS widths must be even")
    r = n - g1.cols // 2
    if f.cols != 2 * (2 * r - n):
        raise ClassInvariantViolated(
            f"width mismatch: G1 gives r={r} but F has {f.cols} columns")
    if not is_self_col_orth(g1):
        raise ClassInvariantViolated("G1 is not self-column-orthogonal")
    if not is_col_orth(f, g1):
        raise ClassInvariantViolated("F is not column-orthogonal to G1")
    return is_mmsp(g1, f, symplectify_structure(make_threshold(r, 0, n)))


# ---------------------------------------------------------------------------
# closed-form rates
# ---------------------------------------------------------------------------

RATE_KINDS = ("css", "cqss", "qqss", "eass", "cqspir", "easpir")


def rate(kind: str, r: int, t: int, n: int) -> Fraction:
    """Exact protocol rate for admissible threshold parameters."""
    if kind not in RATE_KINDS:
        raise OutOfRange(f"unknown rate kind {kind!r}")
    if not (n >= r > t >= 0) or n <= 0:
        raise OutOfRange(f"need n >= r > t >= 0, got r={r}, t={t}, n={n}")
    if kind == "css":
        return Fraction(r - t, n)
    if t < 1:
        raise OutOfRange(f"{kind} needs t >= 1")
    if kind == "cqss":
        if 2 * r < n:
            raise OutOfRange("cqss needs r >= n/2")
        return Fraction(2 * r - max(2 * t, n), n)
    if kind == "qqss":
        if 2 * r < n + 1:
            raise OutOfRange("qqss needs r >= (n+1)/2")
        return Fraction(r - max(t, n - r), n)
    if kind == "cqspir":
        if 2 * t < n:
            raise OutOfRange("cqspir needs t >= n/2")
        return Fraction(2 * (r - t), n)
    # eass / easpir
    return Fraction(2 * (r - t), n)
