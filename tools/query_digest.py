"""Check the sha256 digest of every answer of the query-mix script, per seed.

The op list is the benchmark's own (``bench/workloads.make_ops``), over
the rosters of nodal d = 2..13 as ``bench/run.py`` builds them.  Every op
of seeds 0, 1 and 2 runs through ``cli.main`` in this interpreter, and the
digest is taken over ``json.dumps([argv, rc, stdout, stderr])`` of each op
in order.  Each digest is printed and compared with the pinned one; the
exit status is 1 if any differs, so a changed query-mix answer fails.
After each seed the registry totals over the nodal contexts so far are
printed too: triangles registered and zero facts.  They are exact, but
only logged: they decide no exit status.
Standard library only.

    python3 tools/query_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from nodalcat import cli, nodal  # noqa: E402

PINNED = {
    0: "5ab68e6b0d7bdf57df4457999030b3aa5299eaf7e624abdccd973a04942c3b8d",
    1: "32055dc3b78438fb0edcd86cc1bbaa95dae5d6e972841edd77c6dced8d08293a",
    2: "971b0a5f3179d99aea858a2ad7a52fb32480249a872f40a0c0dcd3bf23aee11b",
}


def digest(seed: int, rosters: dict[int, tuple[str, ...]]) -> str:
    """sha256 over [argv, rc, stdout, stderr] of each query-mix op of ``seed``."""
    h = hashlib.sha256()
    for op in workloads.make_ops("query-mix", seed, rosters):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
        h.update(json.dumps([op["argv"], rc, out.getvalue(), err.getvalue()]).encode())
    return h.hexdigest()


def main() -> int:
    rosters = {d: nodal.build_context(d).generators for d in range(2, 14)}
    status = 0
    for seed, pinned in PINNED.items():
        got = digest(seed, rosters)
        ok = got == pinned
        print(f"seed {seed}: {got}" + ("" if ok else f" (expected {pinned})"))
        contexts = [nodal.build_context(d) for d in rosters]
        print(f"  registry: {sum(len(list(c.all_triangles())) for c in contexts)} triangles registered, "
              f"{sum(len(c._zero_facts) for c in contexts)} zero facts")
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main())
