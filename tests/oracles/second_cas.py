"""Oracle check of the 230 H-primes of the 3x3 matrix tower by a second
CAS, too slow for tier-1: sympy recomputes each one's reduced grevlex
basis, checks that it is Poisson and homogeneous, as
tests/test_second_cas.py does on the smaller towers.  Prints one line and
exits 1 on any fault; about 15 s.

    PYTHONPATH=src python tests/oracles/second_cas.py
"""

import sys
import time
from pathlib import Path

import sympy

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_matrices import matrix_presentation, towers  # noqa: E402
from test_second_cas import leaf_faults  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    leaves, faults = leaf_faults(sympy, matrix_presentation(3, 3))
    ok = len(leaves) == towers.hprime_count(3, 3) and not faults
    for label, check in faults:
        print(f"3x3 {label}: {check} fails")
    print(
        f"3x3: {len(leaves)} H-primes, {len(faults)} faults, "
        f"{'ok' if ok else 'MISMATCH'} ({time.perf_counter() - start:.1f} s)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
