"""Opt-in oracle: the 4x4 matrix tower against its Cauchon diagrams.

Enumerates the torus-stable Poisson primes of the 4x4 matrix tower and
prints, for each level k, the tree's count, the number of Cauchon diagrams
of the first k boxes of the 4x4 grid in row-major order (the brute force of
`tests/cauchon_diagrams.py`, which shares no code with the package), and
the flags the tree raised at that level; then the SHA-256 of the leaves'
sorted reduced bases.  Exits 1 on any mismatch of a count or a flag.  It takes
about a minute, too slow for CI; it is not run there.

The d-element search of the enumeration runs out of candidate atoms on the
shape (4, 4, 4, 3), so level 15 finds 4,992 where the diagrams give 5,000,
with 8 flags: this oracle fails until the enumeration no longer needs the
d-search.

    PYTHONPATH=src python tests/oracles/four_by_four.py
"""

import hashlib
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from cauchon_diagrams import level_counts  # noqa: E402
from test_matrices import matrix_presentation  # noqa: E402

from pcgl.cauchon import enumerate_hprimes  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    want = level_counts(4, 4)
    tree = enumerate_hprimes(matrix_presentation(4, 4))
    seconds = time.perf_counter() - start
    flags = Counter(n.level + 1 for level in tree.levels for n in level for _ in n.flags)
    failed = []
    for k, (level, count) in enumerate(zip(tree.levels, want)):
        ok = len(level) == count and not flags[k]
        print(f"level {k:2}: tree {len(level):5}, diagrams {count:5}, flags {flags[k]}"
              f"{'' if ok else '  MISMATCH'}")
        if not ok:
            failed.append(k)
    bases = sorted(repr([str(g) for g in leaf.ideal.groebner()]) for leaf in tree.leaves())
    digest = hashlib.sha256("\n".join(bases).encode()).hexdigest()
    verdict = "ok" if not failed else f"MISMATCH at levels {failed}"
    print(f"4x4: {len(bases)} leaves, sha256 {digest[:16]}, {verdict} ({seconds:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
