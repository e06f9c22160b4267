"""Seeded inputs of the three workloads.

The op list is drawn from ``(workload, seed)`` alone, and every pass of a
run repeats it in the same order, so each op can be timed as the best of
the run's passes.  The child process receives only this list.

* verify-sweep: ``verify_dim(d)`` for d = 2..48 in shuffled order.  The
  traffic of ``nodalcat verify --dims``; cone identification in
  ``formalcat`` does almost all of its work, and it never calls
  ``chi_quadric``.
* oracle-sweep: the criterion-8 cross-checks, scaled up, in shuffled order.
  ``chi_quadric`` does most of its work; mutation runs only in set-up.
* query-mix: a script of CLI queries over nodal d = 3..11, where mutations
  write cones and facts into the registry between memo reads.  It stops at
  d = 11 because at d = 13 single answers exhaust memory while rendering.
"""

from __future__ import annotations

import itertools
import random

VERIFY_DIMS = range(2, 49)
ORACLE_PAIR_DIMS = range(2, 14)
ORACLE_HRR_QUADRICS = (1, 3, 5, 7, 9, 11)
ORACLE_HRR_TWISTS = range(-1, 2)
ORACLE_SPINOR_QUADRIC = 21
ORACLE_SPINOR_TWISTS = range(-3, 4)
QUERY_DIMS = range(3, 12)

# query-mix, per dimension: 47 hom queries with seeded objects, and a
# fixed set of heavier queries (one mutation each way, and one Serre or
# relative Serre image, per roster generator; 6 kernel checks).  The heavy
# queries keep one order for every seed; the seed draws the hom objects and
# the cheap cohom/mukai arguments, and where these light queries fall among
# the heavy ones.  So seeds differ in which memo reads meet which registry
# writes, but not in the heavy work: drawn at random, the few mutations and
# Serre chains at d = 10..11 that take 0.1-0.4 s and hold 60-160 MB each
# made ops_per_s and peak_rss_mb differ by a quarter between seeds.
# 978 ops in all: 43 % hom, 33 % mutate, 16 % serre, 6 % kernel, 2 % cohom,
# mukai and cubic4.  Under 1000 ops the tail rule lands on p95 (48 ops
# beyond), among many d = 10..11 queries of similar cost; at p99 it would
# pick one of the dozen slowest, whose cost depends on which of them fills
# the memo first.
QUERY_HOMS_PER_DIM = 47
QUERY_KERNELS_PER_DIM = 6
QUERY_EXTRA = {"cohom": 10, "mukai": 6, "cubic4": 2}


def contexts(workload: str) -> list[int]:
    """The dimensions whose contexts the workload builds during set-up."""
    return list({"verify-sweep": VERIFY_DIMS, "oracle-sweep": ORACLE_PAIR_DIMS,
                 "query-mix": QUERY_DIMS}[workload])


def make_ops(workload: str, seed: int, rosters: dict[int, tuple[str, ...]]) -> list:
    """The op list of a run; ``rosters`` maps d to its generators."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-sweep":
        ops = [{"d": d} for d in VERIFY_DIMS]
    elif workload == "oracle-sweep":
        ops = _oracle_ops(rosters)
    else:
        return [{"argv": argv} for argv in _query_script(rng, rosters)]
    rng.shuffle(ops)
    return ops


def _oracle_ops(rosters) -> list:
    ops = [{"k": "pair", "d": d, "a": a, "b": b}
           for d in ORACLE_PAIR_DIMS for a in rosters[d] for b in rosters[d]]
    for n in ORACLE_HRR_QUADRICS:
        sheaves = [f"{kind}({t})" for kind in ("O", "S") for t in ORACLE_HRR_TWISTS]
        ops += [{"k": "hrr", "n": n, "f": f, "g": g} for f in sheaves for g in sheaves]
    n = ORACLE_SPINOR_QUADRIC
    ops += [{"k": "spinor", "n": n, "f": f"S({a})", "g": f"S({b})"}
            for a, b in itertools.product(ORACLE_SPINOR_TWISTS, repeat=2)]
    return ops


def _generator(rng: random.Random, roster) -> str:
    name = rng.choice(roster)
    if rng.random() < 0.3:
        name += f"[{rng.randint(-2, 2)}]"
    return name


def _object(rng: random.Random, roster) -> str:
    """A generator, a shifted generator or a one-level cone of those."""
    if rng.random() < 0.25:
        return f"cone({_generator(rng, roster)} -> {_generator(rng, roster)})"
    return _generator(rng, roster)


def _query_script(rng: random.Random, rosters) -> list[list[str]]:
    heavy, light = [], []
    for d in QUERY_DIMS:
        roster = rosters[d]
        lines = [g for g in roster if g.startswith("j*O")]
        context = ["--context", f"nodal:{d}"]
        for _ in range(QUERY_HOMS_PER_DIM):
            light.append(["hom", *context, _object(rng, roster), _object(rng, roster)])
        for i, name in enumerate(roster):
            # one line bundle per mutation: two in a row can render to
            # nearly a gigabyte at d = 11
            for j, direction in enumerate(("right", "left")):
                through = lines[(i + j) % len(lines)]
                heavy.append(["mutate", *context, "--dir", direction, "--through", through, name])
            relative = ["--relative"] if i % 2 else []
            heavy.append(["serre", *context, *relative, name])
        heavy += [["kernel", "--dim", str(d)]] * QUERY_KERNELS_PER_DIM
    for _ in range(QUERY_EXTRA["cohom"]):
        n = rng.choice(range(2, 11))
        kinds = ("O", "S") if n % 2 else ("O", "S'", "S''")
        light.append(["cohom", "--quadric", str(n), f"{rng.choice(kinds)}({rng.randint(-2 * n, 2 * n)})"])
    for _ in range(QUERY_EXTRA["mukai"]):
        light.append(["mukai", f"{rng.choice(('O', 'S'))}({rng.randint(-4, 4)})"])
    light += [["cubic4"]] * QUERY_EXTRA["cubic4"]
    random.Random("query-mix:heavy").shuffle(heavy)
    rng.shuffle(light)
    total = len(heavy) + len(light)
    light_at = set(rng.sample(range(total), len(light)))
    heavy_it, light_it = iter(heavy), iter(light)
    return [next(light_it) if i in light_at else next(heavy_it) for i in range(total)]
