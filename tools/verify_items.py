"""Print the best in-process time of each verify item, and of the
context build before them.

Each repeat starts from fresh contexts and empty class caches, as a new
process would, builds every context first (the benchmark's set-up), timed
as the "(context build)" row, then runs ``nodal.verify_dim(d)`` for each d
and times every item's check.  The kernel generator, which ``verify_dim``
builds once for three items, is timed as its own row.  Each row is the
best sum over the dimensions among the repeats.  The "(registry)" row
counts, over the verify calls of one pass, the derived triangles
registered and the calls of the contexts' ``gen_resolve`` (names
resolved outside the roster handed over at build).  Standard library only.

    python3 tools/verify_items.py [--dims 2..48] [--repeat 5]
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nodalcat import nodal  # noqa: E402

KERNEL = "(kernel build)"
BUILD = "(context build)"


def _dims(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def one_pass(dims: range) -> tuple[dict[str, float], tuple[int, int]]:
    """Seconds per item, summed over ``dims``, from fresh contexts, and the
    registry counts (registered, gen_resolve calls)."""
    nodal._setup = functools.cache(nodal._setup.__wrapped__)
    nodal._pair_value.cache_clear()
    nodal.parse_push_name.cache_clear()
    nodal._push_gen.cache_clear()
    t0 = time.perf_counter()
    contexts = [nodal.build_context(d) for d in dims]
    spent = {BUILD: time.perf_counter() - t0}
    resolves = 0

    def counted(gen_resolve):
        def resolve(name):
            nonlocal resolves
            resolves += 1
            return gen_resolve(name)
        return resolve

    for ctx in contexts:
        ctx.gen_resolve = counted(ctx.gen_resolve)
    # the kernel triangles odd d adds at build are not the verify calls'
    built = sum(len(ctx._derived_triangles) for ctx in contexts)

    def add_item(items, id, citation, expected, compute):
        def timed():
            t0 = time.perf_counter()
            try:
                return compute()
            finally:
                spent[id] = spent.get(id, 0.0) + time.perf_counter() - t0
        add_item_plain(items, id, citation, expected, timed)

    def kernel_generator(d):
        t0 = time.perf_counter()
        try:
            return kernel_plain(d)
        finally:
            spent[KERNEL] = spent.get(KERNEL, 0.0) + time.perf_counter() - t0

    add_item_plain, kernel_plain = nodal.add_item, nodal.kernel_generator
    nodal.add_item, nodal.kernel_generator = add_item, kernel_generator
    try:
        t0 = time.perf_counter()
        for d in dims:
            nodal.verify_dim(d)
        spent["total"] = time.perf_counter() - t0
    finally:
        nodal.add_item, nodal.kernel_generator = add_item_plain, kernel_plain
    counts = (sum(len(ctx._derived_triangles) for ctx in contexts) - built, resolves)
    return spent, counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=_dims, default=range(2, 49), help="lo..hi (default 2..48)")
    parser.add_argument("--repeat", type=int, default=5, help="fresh-context passes (default 5)")
    args = parser.parse_args(argv)
    setup = nodal._setup
    best: dict[str, float] = {}
    try:
        for _ in range(max(1, args.repeat)):
            spent, counts = one_pass(args.dims)
            for item, s in spent.items():
                best[item] = min(best.get(item, s), s)
    finally:
        nodal._setup = setup
    total = best.pop("total")
    width = max(map(len, best))
    print(f"verify items, d = {args.dims.start}..{args.dims.stop - 1}, "
          f"best of {max(1, args.repeat)} fresh-context passes (ms)")
    for item, s in sorted(best.items(), key=lambda kv: -kv[1]):
        print(f"  {item:<{width}}  {s * 1e3:8.2f}")
    print(f"  {'verify_dim total':<{width}}  {total * 1e3:8.2f}")
    print(f"  {'(registry)':<{width}}  {counts[0]} registered, {counts[1]} gen_resolve calls")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
