"""Access structures: qualified/forbidden subset collections, thresholds,
validity checks, and symplectification.

Subsets are frozensets of 1-based indices.  Threshold structures and their
symplectified images stay symbolic until a predicate needs enumeration;
explicit collections given directly are limited to ground sets of size <= 20.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import FrozenSet, Iterable, Iterator

from .errors import BadThreshold, TooLarge, json_int

Subset = FrozenSet[int]

MAX_EXPLICIT_N = 20
# cap on C(n, r) + C(n, t): as many sets as an explicit structure can hold
MAX_THRESHOLD_SETS = 1 << 20


def _norm_sets(sets: Iterable[Iterable[int]]) -> tuple[Subset, ...]:
    return tuple(sorted({frozenset(int(x) for x in s) for s in sets},
                        key=lambda s: (len(s), sorted(s))))


class AccessStructure:
    """A pair (accept, reject) of subset collections over the ground set [n].

    A symplectified threshold on [n] = [2m] holds only the symplectified
    minimal accept and maximal reject sets of the (r, t, m) threshold.
    """

    def __init__(self, n: int, accept, reject, *, symplectified: bool = False):
        self.n = int(n)
        self.symplectified = symplectified
        if isinstance(accept, int):
            self.kind = "threshold"
            self.r, self.t = int(accept), int(reject)
        else:
            self.kind = "explicit"
            # a symplectified image has as many sets as the structure it came from
            if self.n > MAX_EXPLICIT_N and not symplectified:
                raise TooLarge(f"explicit structures capped at n <= {MAX_EXPLICIT_N}")
            self._accept = _norm_sets(accept)
            self._reject = _norm_sets(reject)

    @property
    def accept_sets(self) -> tuple[Subset, ...]:
        return self.materialize()._accept

    @property
    def reject_sets(self) -> tuple[Subset, ...]:
        return self.materialize()._reject

    # -- iteration --------------------------------------------------------------

    def _threshold_sets(self, k: int) -> Iterator[Subset]:
        m = self.n // 2 if self.symplectified else self.n
        count = comb(m, self.r) + comb(m, self.t)
        if count > MAX_THRESHOLD_SETS:
            raise TooLarge(f"{count} threshold sets exceed the cap of {MAX_THRESHOLD_SETS}")
        for c in combinations(range(1, m + 1), k):
            yield symplectify(c, m) if self.symplectified else frozenset(c)

    def accept_iter(self) -> Iterator[Subset]:
        """Accept sets; for thresholds only the minimal (|A| = r) ones, which
        suffices for the MMSP predicates by monotonicity."""
        if self.kind == "threshold":
            yield from self._threshold_sets(self.r)
        else:
            yield from self._accept

    def reject_iter(self) -> Iterator[Subset]:
        """Reject sets; for thresholds only the maximal (|B| = t) ones."""
        if self.kind == "threshold":
            yield from self._threshold_sets(self.t)
        else:
            yield from self._reject

    def _symplectified_holds(self, s: Subset, k: int) -> bool:
        """Whether s = symplectify(c) for some c in [m] with |c| = k."""
        m = self.n // 2
        c = {a for a in s if 1 <= a <= m}
        return len(c) == k and s == symplectify(c, m)

    def is_accept(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        if self.kind == "explicit":
            return s in self._accept
        return self._symplectified_holds(s, self.r) if self.symplectified else len(s) >= self.r

    def is_reject(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        if self.kind == "explicit":
            return s in self._reject
        return self._symplectified_holds(s, self.t) if self.symplectified else len(s) <= self.t

    def materialize(self) -> "AccessStructure":
        """Explicit form (thresholds expanded to every member set)."""
        if self.kind == "explicit":
            return self
        if self.symplectified:
            return AccessStructure(self.n, self.accept_iter(), self.reject_iter(),
                                   symplectified=True)
        if self.n > MAX_EXPLICIT_N:
            raise TooLarge("threshold too large to materialize")
        ground = range(1, self.n + 1)
        acc = [frozenset(c) for k in range(self.r, self.n + 1)
               for c in combinations(ground, k)]
        rej = [frozenset(c) for k in range(0, self.t + 1)
               for c in combinations(ground, k)]
        return AccessStructure(self.n, acc, rej, symplectified=self.symplectified)

    def __eq__(self, other):
        if not isinstance(other, AccessStructure):
            return NotImplemented
        a, b = self.materialize(), other.materialize()
        return (a.n == b.n and a.accept_sets == b.accept_sets
                and a.reject_sets == b.reject_sets)

    def __repr__(self):
        if self.kind == "threshold":
            kind = "symplectified threshold" if self.symplectified else "threshold"
            return f"AccessStructure({kind} r={self.r}, t={self.t}, n={self.n})"
        return (f"AccessStructure(n={self.n}, accept={len(self.accept_sets)} sets,"
                f" reject={len(self.reject_sets)} sets)")

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "threshold" and not self.symplectified:
            return {"n": self.n, "accept": {"threshold": self.r},
                    "reject": {"threshold": self.t}}
        return {"n": self.n,
                "accept": [sorted(s) for s in self.accept_sets],
                "reject": [sorted(s) for s in self.reject_sets]}


def make_threshold(r: int, t: int, n: int) -> AccessStructure:
    """Accept = all subsets of size >= r, reject = all of size <= t."""
    if not (n >= r > t >= 0):
        raise BadThreshold(f"need n >= r > t >= 0, got r={r}, t={t}, n={n}")
    return AccessStructure(n, r, t)


def make_explicit(n: int, accept, reject) -> AccessStructure:
    return AccessStructure(n, accept, reject)


def validate(fs: AccessStructure) -> tuple[bool, list[str]]:
    """Check monotonicity of both collections and their disjointness.

    Returns (ok, diagnostics); never raises.  Thresholds are valid by
    construction (make_threshold enforces n >= r > t >= 0) and are not
    enumerated.  Symplectified structures are images of valid base structures
    and are exempt from the monotone check (their members are only the
    symplectified sets).
    """
    if fs.kind == "threshold":
        return True, []
    problems: list[str] = []
    ground = frozenset(range(1, fs.n + 1))
    acc, rej = set(fs.accept_sets), set(fs.reject_sets)
    if not fs.symplectified:
        for a in acc:
            for extra in ground - a:
                if a | {extra} not in acc:
                    problems.append(f"accept not monotone increasing at {sorted(a)}")
                    break
        for b in rej:
            for drop in b:
                if b - {drop} not in rej:
                    problems.append(f"reject not monotone decreasing at {sorted(b)}")
                    break
    inter = acc & rej
    if inter:
        problems.append(f"accept and reject intersect: {sorted(map(sorted, inter))}")
    return (not problems), problems


def symplectify(s: Iterable[int], n: int) -> Subset:
    """{a_1..a_l} on [n] to {a_1..a_l, a_1+n..a_l+n} on [2n]."""
    s = frozenset(int(x) for x in s)
    return frozenset(s | {a + n for a in s})


def symplectify_structure(fs: AccessStructure) -> AccessStructure:
    """Elementwise symplectification; the result lives on [2n].

    A threshold stays symbolic and stands for its symplectified minimal
    accept (|A| = r) and maximal reject (|B| = t) sets only: the MMSP
    predicates that consume symplectified structures are monotone, so these
    suffice.
    """
    if fs.kind == "threshold" and not fs.symplectified:
        return AccessStructure(2 * fs.n, fs.r, fs.t, symplectified=True)
    acc = [symplectify(a, fs.n) for a in fs.accept_sets]
    rej = [symplectify(b, fs.n) for b in fs.reject_sets]
    return AccessStructure(2 * fs.n, acc, rej, symplectified=True)


def structure_from_json(d: dict) -> AccessStructure:
    n = json_int(d["n"], "n")
    acc, rej = d["accept"], d["reject"]
    if isinstance(acc, dict) or isinstance(rej, dict):
        return make_threshold(json_int(acc["threshold"], "threshold"),
                              json_int(rej["threshold"], "threshold"), n)
    acc, rej = ([[json_int(x, "party") for x in s] for s in sets] for sets in (acc, rej))
    return make_explicit(n, acc, rej)
