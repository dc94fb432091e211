"""Oracle check of `separating_normal` on every nested pair of the H-primes
of the 3x3 and 2x4 matrix towers, too slow for tier-1.

For each tower it separates the 7,329 (3x3) and 3,239 (2x4) nested pairs
P < Q and checks the number of pairs, the number the search misses
(returns None for) and the SHA-256 of the sorted rows [P label, Q label,
element, case], with None for a miss, against the values first recorded
for them.  It prints each missed pair, the work list of ROADMAP item 17,
then one line per tower, and exits 1 on any change; about 4 s.

Item 17 will lower the miss counts (34 on 3x3, 12 on 2x4).  The change
that does so updates these pins and lists each pair whose row changed.

    PYTHONPATH=src python tests/oracles/separation.py
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_matrices import matrix_presentation, separation_rows  # noqa: E402

# (pairs, misses, SHA-256 of the JSON of the sorted rows) per tower
PINS = {
    (3, 3): (7329, 34, "84ef7b394da35d38c627158f2c639146090bb3f6bb8fc0db43eaff56b67c1a26"),
    (2, 4): (3239, 12, "316f4c716e210713b9ebe43b540c0dff6a890d93403c7498137be5388edab1eb"),
}


def main() -> int:
    failed = False
    for (m, n), want in PINS.items():
        start = time.perf_counter()
        rows = separation_rows(matrix_presentation(m, n))
        seconds = time.perf_counter() - start
        misses = [(p, q) for p, q, element, _ in rows if element is None]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        ok = (len(rows), len(misses), digest) == want
        failed |= not ok
        for p, q in misses:
            print(f"{m}x{n} miss: {p} < {q}")
        print(
            f"{m}x{n}: {len(rows)} nested pairs, {len(misses)} misses, "
            f"sha256 {digest[:16]}, {'ok' if ok else 'MISMATCH'} ({seconds:.1f} s)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
