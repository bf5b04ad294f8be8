"""Seeded, stratified inputs for the three benchmark workloads.

Every workload is a fixed list of strata.  A stratum fixes what sets the
cost of an item (family, number of seeds, the denominator degree ell,
the seed polynomial Y and nmax); the seed only picks which index set and
which parameter point fill it.  So the work
in one pass stays comparable from seed to seed, and a claim made on one
seed can be checked again on a seed nobody has looked at.

Nothing here imports mipoly: the library receives only the generated
inputs.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence, Tuple

# Copies of the generic parameter points documented next to the verify
# suites in mipoly.cli: g and h off the half-integers (those zero a
# leading coefficient for some seed) and, for Jacobi, g - h off the
# integers.  Copied, not imported, so a library change cannot move them.
L_POOL = ["7/3", "5/4", "9/2", "12/5", "3"]
J_POOL = [("7/3", "9/4"), ("8/3", "7/4"), ("13/4", "10/3"),
          ("16/5", "9/4"), ("18/5", "4/3")]

# The two acceptance-battery points (tests/test_acceptance.py LG, JG).
BATTERY_POINTS = {"L": ("7/3", None), "J": ("7/3", "9/4")}
BATTERY_NMAX = 8

# recurrence-cli: items in every pass, whatever the seed.  The first two
# are the configurations with golden tables.  The three-seed Jacobi case
# and its Laguerre twin set the tail: each takes about 2.5 s at the seed
# commit on a 2-core x86-64 VM, so item_p90_s rests on two items in each
# of three passes rather than on the single slowest run of one.
RECURRENCE_FIXED = [
    ("L", "2", None, "1I", "1", 12),
    ("J", "7/3", "9/4", "1I", "1", 10),
    ("J", "7/3", "9/4", "1I,3I,2II", "1", 0),
    ("L", "7/3", None, "1I,3I,2II", "1", 1),
]
# recurrence-cli strata: (family, seeds, ell, Y, nmax); the seed picks an
# index set with that many seeds and that ell, and a pool point.  The nmax
# values give the four strata about the same cost (about 1 s), so the
# median item falls inside them rather than in a gap between two costs.
RECURRENCE_STRATA = [
    ("L", 1, 2, "1,0,1", 8),
    ("J", 1, 2, "0,1", 8),
    ("L", 2, 4, "0,1", 3),
    ("J", 2, 4, "1", 3),
]
# construct-cli strata: (family, seeds, nmax, picks).
CONSTRUCT_STRATA = [
    ("L", 2, 40, 3),
    ("L", 3, 30, 3),
    ("J", 2, 30, 3),
    ("J", 3, 20, 3),
]
# operator-battery strata, per family: (seeds, picks, largest ell).  The
# three-seed stratum is the two sets with ell = 3, so it is the same for
# every seed and item_p90_s compares like with like; the other eighteen
# three-seed sets cost 1.2-13 s each and would leave room for one pass.
# Five two-seed picks keep the median item inside the two-seed stratum.
BATTERY_STRATA = [(1, 1, None), (2, 5, None), (3, 2, 3)]

WORKLOADS = ("recurrence-cli", "operator-battery", "construct-cli")


def ell(type1: Sequence[int], type2: Sequence[int]) -> int:
    """Degree of the denominator Xi_D for the index set (type1, type2)."""
    m = len(type1) + len(type2)
    return sum(type1) + sum(type2) - m * (m - 1) // 2 + 2 * len(type1) * len(type2)


def label(type1: Sequence[int], type2: Sequence[int]) -> str:
    return ",".join([f"{v}I" for v in type1] + [f"{v}II" for v in type2])


def battery_sets(seeds: int) -> List[Tuple[int, str]]:
    """(ell, label) of every acceptance-battery set with `seeds` seeds.

    The battery draws seeds from {1, 2, 3} x {I, II}; the list is sorted
    by ell, then label, so a systematic sample spreads over all sizes.
    """
    out = []
    for r1 in range(seeds + 1):
        for t1 in itertools.combinations((1, 2, 3), r1):
            for t2 in itertools.combinations((1, 2, 3), seeds - r1):
                out.append((ell(t1, t2), label(t1, t2)))
    return sorted(out)


def _systematic(rng: random.Random, pool: Sequence, picks: int) -> list:
    """`picks` entries at equal steps through `pool`, from a seeded start."""
    step = len(pool) / picks
    start = rng.random() * step
    return [pool[int(start + i * step)] for i in range(picks)]


def _point_args(family: str, point) -> List[str]:
    if family == "L":
        return ["--g", point]
    return ["--g", point[0], "--h", point[1]]


def _recurrence_argv(family, point, indices, y, nmax) -> List[str]:
    return (["recurrence", "--family", family] + _point_args(family, point)
            + ["--indices", indices, "--y", y, "--nmax", str(nmax)])


def _construct_argv(family, point, indices, nmax) -> List[str]:
    return (["construct", "--family", family] + _point_args(family, point)
            + ["--indices", indices, "--nmax", str(nmax)])


def _pool(family: str) -> list:
    return L_POOL if family == "L" else J_POOL


def recurrence_items(rng: random.Random) -> List[List[str]]:
    items = [_recurrence_argv(f, g if h is None else (g, h), d, y, n)
             for f, g, h, d, y, n in RECURRENCE_FIXED]
    points = {f: rng.sample(_pool(f), sum(1 for s in RECURRENCE_STRATA if s[0] == f))
              for f in ("L", "J")}
    for family, seeds, want_ell, y, nmax in RECURRENCE_STRATA:
        sets = [lab for e, lab in battery_sets(seeds) if e == want_ell]
        items.append(_recurrence_argv(family, points[family].pop(),
                                      rng.choice(sets), y, nmax))
    return items


def _point_cycle(rng: random.Random, family: str):
    """Pool points in a seeded order, repeated, so each is used about equally."""
    order = rng.sample(_pool(family), len(_pool(family)))
    return itertools.cycle(order)


def construct_items(rng: random.Random) -> List[List[str]]:
    items = []
    points = {f: _point_cycle(rng, f) for f in ("L", "J")}
    for family, seeds, nmax, picks in CONSTRUCT_STRATA:
        for _, lab in _systematic(rng, battery_sets(seeds), picks):
            items.append(_construct_argv(family, next(points[family]), lab, nmax))
    return items


def battery_items(rng: random.Random) -> List[Dict[str, str]]:
    items = []
    for family in ("L", "J"):
        for seeds, picks, max_ell in BATTERY_STRATA:
            pool = [s for s in battery_sets(seeds) if max_ell is None or s[0] <= max_ell]
            items += [{"family": family, "indices": lab}
                      for _, lab in _systematic(rng, pool, picks)]
    return items


def items(workload: str, seed: int) -> list:
    """The item list of one pass of `workload` for `seed`, in run order.

    Items keep stratum order.  The battery runs its sets in one
    interpreter, so a set's cost depends on the caches and heap left by
    the sets before it; a fixed order keeps that the same for every seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    make = {"recurrence-cli": recurrence_items,
            "operator-battery": battery_items,
            "construct-cli": construct_items}[workload]
    return make(rng)


def cli_universe(workload: str) -> List[List[str]]:
    """Every CLI item any seed can draw for `workload`, for the digest table."""
    if workload == "recurrence-cli":
        out = [_recurrence_argv(f, g if h is None else (g, h), d, y, n)
               for f, g, h, d, y, n in RECURRENCE_FIXED]
        for family, seeds, want_ell, y, nmax in RECURRENCE_STRATA:
            for point in _pool(family):
                out += [_recurrence_argv(family, point, lab, y, nmax)
                        for e, lab in battery_sets(seeds) if e == want_ell]
        return out
    if workload == "construct-cli":
        return [_construct_argv(family, point, lab, nmax)
                for family, seeds, nmax, _ in CONSTRUCT_STRATA
                for point in _pool(family)
                for _, lab in battery_sets(seeds)]
    raise ValueError(f"{workload} has no CLI items")
