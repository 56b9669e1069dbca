"""Prefix verdicts against brute-force references written from the
definitions: every index triple, every start, infinity on top."""

from __future__ import annotations

import random
from collections import Counter

from aclab.logts import Frac, ell
from aclab.ogroup import INFINITY, GroupElem, cmp, vector_json
from aclab.pcseq import equivalent_prefix, is_pc_prefix, pseudolimit_check

XI = ell(0).inv()
L1I = ell(1).inv()
BASES = (Frac.ZERO, Frac.ONE, ell(0), ell(1), XI + L1I)
# STEPS[e] has valuation [e] or [e, 1]; larger e is smaller.
STEPS = tuple(XI ** e * m for e in range(1, 6) for m in (Frac.ONE, L1I))
TINY = tuple(XI ** (12 + r) for r in range(7))

CASES = 400


def _above(high, low) -> bool:
    """high > low with infinity on top, from the vector comparison alone."""
    if low is INFINITY:
        return False
    return high is INFINITY or cmp(high, low) > 0


def _vstr(v) -> object:
    return vector_json(v) if isinstance(v, GroupElem) else str(v)


def reference_is_pc(points: tuple[Frac, ...]) -> dict:
    """The least start with every triple i < j < k from it satisfying
    v(a_k - a_j) > v(a_j - a_i); otherwise the first bad triple."""
    n = len(points)
    v = {(i, j): (points[j] - points[i]).valuation()
         for i in range(n) for j in range(i + 1, n)}
    bad = [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
           if not _above(v[j, k], v[i, j])]
    for start in range(n - 2):
        if all(i < start for i, _, _ in bad):
            return {"status": "yes", "index": start}
    i, j, k = bad[0]
    return {"status": "no", "witness": {"indices": [i, j, k],
                                        "low": _vstr(v[i, j]), "high": _vstr(v[j, k])}}


def reference_pseudolimit(points: tuple[Frac, ...], x: Frac) -> dict:
    """v(x - a_rho) strictly increasing from a start with at least three
    points after it, with the equal-point cases decided first."""
    vs = [(x - a).valuation() for a in points]
    n = len(vs)
    hits = [i for i, v in enumerate(vs) if not isinstance(v, GroupElem)]
    if hits and hits[0] < n - 1:
        return {"status": "no", "witness": {
            "reason": "x equals a point and later differences stay level", "index": hits[0]}}
    if hits:
        return {"status": "inconclusive", "witness": {
            "reason": "x equals the final point of the prefix", "index": hits[0]}}
    for start in range(n - 2):
        if all(_above(vs[r + 1], vs[r]) for r in range(start, n - 1)):
            return {"status": "yes", "index": start}
    bad = min(r for r in range(n - 1) if not _above(vs[r + 1], vs[r]))
    return {"status": "no", "witness": {"index": bad, "at": _vstr(vs[bad]),
                                        "next": _vstr(vs[bad + 1])}}


def reference_equivalent(a: tuple[Frac, ...], b: tuple[Frac, ...]) -> dict:
    """Equal widths and a cross difference strictly above them at every
    index from a start that leaves at least three widths; otherwise the
    last index where that fails."""
    n = min(len(a), len(b))
    da = [(a[r + 1] - a[r]).valuation() for r in range(n - 1)]
    db = [(b[r + 1] - b[r]).valuation() for r in range(n - 1)]
    cross = [(b[r] - a[r]).valuation() for r in range(n - 1)]

    def holds(r: int) -> bool:
        return da[r] == db[r] and _above(cross[r], da[r])

    for start in range(n - 3):
        if all(holds(r) for r in range(start, n - 1)):
            return {"status": "yes", "index": start}
    bad = max(r for r in range(n - 1) if not holds(r))
    return {"status": "no", "witness": {"index": bad, "width_a": _vstr(da[bad]),
                                        "width_b": _vstr(db[bad]),
                                        "cross": _vstr(cross[bad])}}


def random_prefix(rng: random.Random) -> tuple[Frac, ...]:
    """4 to 7 points: a base plus steps whose sizes are sorted half the
    time, with some steps zero so that points repeat."""
    count = rng.randint(4, 7)
    sizes = rng.choices(range(len(STEPS)), k=count - 1)
    if rng.random() < 0.5:
        sizes.sort()
    point = rng.choice(BASES)
    points = [point]
    for s in sizes:
        if rng.random() > 0.15:
            point = point + STEPS[s].scale(rng.choice((1, -1, 2)))
        points.append(point)
    return tuple(points)


def _repeats(points: tuple[Frac, ...]) -> bool:
    return any(p == q for i, p in enumerate(points) for q in points[i + 1:])


def test_is_pc_prefix_matches_reference():
    rng = random.Random(7)
    seen = Counter()
    for _ in range(CASES):
        points = random_prefix(rng)
        expect = reference_is_pc(points)
        assert is_pc_prefix(points).to_dict() == expect, points
        seen[expect["status"], _repeats(points)] += 1
    assert min(seen[s, r] for s in ("yes", "no") for r in (True, False)) >= 20, seen


def test_pseudolimit_check_matches_reference():
    rng = random.Random(8)
    seen = Counter()
    for _ in range(CASES):
        points = random_prefix(rng)
        x = rng.choice((rng.choice(points), rng.choice(BASES), points[-1] + TINY[0]))
        expect = reference_pseudolimit(points, x)
        assert pseudolimit_check(points, x).to_dict() == expect, (points, x)
        seen[expect["status"]] += 1
    assert min(seen[s] for s in ("yes", "no", "inconclusive")) >= 20, seen


def test_equivalent_prefix_matches_reference():
    rng = random.Random(9)
    seen = Counter()
    for _ in range(CASES):
        a = random_prefix(rng)
        if rng.random() < 0.6:
            b = tuple(p + TINY[r] if rng.random() < 0.9 else p + STEPS[0]
                      for r, p in enumerate(a))
        else:
            b = random_prefix(rng)
        expect = reference_equivalent(a, b)
        assert equivalent_prefix(a, b).to_dict() == expect, (a, b)
        seen[expect["status"], _repeats(a)] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen
