"""Oracle check of the 3x4 and 4x3 matrix towers, too slow for tier-1.

Enumerates the torus-stable Poisson primes of both towers and checks, for
each, the count against the poly-Bernoulli closed form (1,066) and the
SHA-256 of the tree's sorted JSON against the digest first recorded for
it.  Their d-searches try the zero fraction, then the closed form of each
normal atom from the variables and the lineage's pool, each checked
exactly against the defining property of d.  Prints one line per tower
and exits 1 on any mismatch.

    PYTHONPATH=src python tests/oracles/matrix_towers.py
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_matrices import matrix_presentation, towers  # noqa: E402

from pcgl.cauchon import enumerate_hprimes  # noqa: E402

DIGESTS = {
    (3, 4): "1c622f998261b500d2bbf2450c40f86bbbb9b07197c3cead5005b065002d85da",
    (4, 3): "53ae334a2df46678b3a47c87ec7dacc081475fe1b6ec3d6a55c79d5e46337cbd",
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
        ok = count == towers.hprime_count(m, n) and not tree.inconclusive and digest == want
        failed |= not ok
        print(
            f"{m}x{n}: {count} H-primes, sha256 {digest[:16]}, "
            f"{'ok' if ok else 'MISMATCH'} ({seconds:.1f} s)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
