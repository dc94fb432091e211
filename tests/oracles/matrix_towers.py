"""Oracle check of the 3x4 and 4x3 matrix towers, too slow for tier-1.

Enumerates the torus-stable Poisson primes of both towers and checks, for
each, the count against the poly-Bernoulli closed form (1,066) and the
SHA-256 of the tree's sorted JSON against the digest first recorded for
it.  Their d-searches take closed-form denominators from the variables
and from the lineage's pool; the degree bound limits only the numerator
ansatz solved over each.  Prints one line per tower and exits 1 on any
mismatch.

    PYTHONPATH=src python tests/oracles/matrix_towers.py
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_matrices import matrix_presentation, poly_bernoulli_neg  # noqa: E402

from pcgl.cauchon import enumerate_hprimes  # noqa: E402

DIGESTS = {
    (3, 4): "c5afd19775ee472dd1e82cf473daa17907ffb9ac09c183a31bbd03f9fa001b53",
    (4, 3): "a4b8dac828e99f3c9d7c9d9859c916bd3c00ba2d3620ce971f12ed789da28a38",
}


def main() -> int:
    failed = False
    for (m, n), want in DIGESTS.items():
        start = time.perf_counter()
        tree = enumerate_hprimes(matrix_presentation(m, n))
        seconds = time.perf_counter() - start
        count = len(tree.leaves())
        digest = hashlib.sha256(
            json.dumps(tree.to_json_dict(), sort_keys=True).encode()
        ).hexdigest()
        ok = count == poly_bernoulli_neg(n, m) and not tree.inconclusive and digest == want
        failed |= not ok
        print(
            f"{m}x{n}: {count} H-primes, sha256 {digest[:16]}, "
            f"{'ok' if ok else 'MISMATCH'} ({seconds:.1f} s)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
