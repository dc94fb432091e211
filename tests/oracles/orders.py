"""Oracle check that the H-primes do not depend on the order of the tower,
on more orders than tier-1 tries.

For 2x3, every one of the 720 generator orders is loaded; the 120 that
are towers (no other loads) must give the 46 H-primes of row-major order.
For 3x3, random orders are drawn (seed 3318) until three are towers, and
each must give the 230 H-primes of row-major order.  H-primes are compared
by generator name, each reduced basis recomputed in the row-major ring (see
tests/test_order.py).  Prints one line per tower and exits 1 on any
mismatch.

    PYTHONPATH=src python tests/oracles/orders.py
"""

import itertools
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_order import hprimes, load_orders, matrix_tower_order, towers  # noqa: E402

from pcgl.cli import load_presentation_data  # noqa: E402

SEED = 3318
DRAWN_TOWERS = 3


def every_order(m, n):
    return list(itertools.permutations(range(m * n)))


def seeded_orders(m, n):
    """Random orders from SEED until DRAWN_TOWERS of them are towers."""
    rnd = random.Random(SEED)
    perms = []
    while sum(matrix_tower_order(p, m, n) for p in perms) < DRAWN_TOWERS:
        perms.append(tuple(rnd.sample(range(m * n), m * n)))
    return perms


def check(m, n, perms) -> bool:
    start = time.perf_counter()
    data = towers.matrix_data(m, n)
    P = load_presentation_data(data)[0]
    want = hprimes(P, P.ctx)
    accepted, refused = load_orders(data, perms)
    ok = len(want) == towers.hprime_count(m, n)
    ok &= [perm for perm, _ in accepted] == [p for p in perms if matrix_tower_order(p, m, n)]
    mismatches = sum(hprimes(Q, P.ctx) != want for _, Q in accepted)
    ok &= mismatches == 0
    print(
        f"{m}x{n}: {len(perms)} orders, {len(accepted)} towers, {refused} refused, "
        f"{mismatches} mismatches against {len(want)} H-primes, "
        f"{'ok' if ok else 'MISMATCH'} ({time.perf_counter() - start:.1f} s)"
    )
    return ok


def main() -> int:
    ok = check(2, 3, every_order(2, 3))
    ok &= check(3, 3, seeded_orders(3, 3))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
