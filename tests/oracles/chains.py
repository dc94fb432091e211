"""Oracle check of `chain_report` on the H-prime posets of the matrix
towers, too slow for tier-1.

It reports on every cover P < Q of the 3x3 poset (937) and of the 2x4
poset (541), and on every saturated chain of the 2x3 poset from the zero
ideal up (464, each of length 6: all saturated chains between two H-primes
have the same length, the paper's theorem, on that poset).  Each entry is
rebuilt from its generators, as `pcgl chain` reads it, so every report
computes its own bases.  Every report must have all dimension drops 1 and
every entry Poisson and torus-stable.  Per poset it checks the number of
reports, their lengths and the SHA-256 of the JSON of the reports, in
order, against the values first recorded for them; it prints one line per
poset and exits 1 on any change; about 2 s.

    PYTHONPATH=src python tests/oracles/chains.py
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_matrices import matrix_presentation  # noqa: E402

from pcgl.cauchon import enumerate_hprimes  # noqa: E402
from pcgl.ideals import Ideal, chain_report, inclusion_order  # noqa: E402

# (reports, their lengths, SHA-256 of the JSON of the reports) per poset
PINS = {
    "3x3 covers": (
        937, {1}, "7462b5ed5fded10c76cba75df85664d4d89809a703281d0c4301bd9dc76862b1"
    ),
    "2x4 covers": (
        541, {1}, "d58107bbe46b3d620e55e78e0231edd126aa5dc35de891bc9d90c65be5bac7d2"
    ),
    "2x3 saturated chains from 0": (
        464, {6}, "451d09a24bb02cf2c62bbf58962760fe78ad71bb7e3367462b9e82d79ea6c2d2"
    ),
}


def covers(P):
    """Every cover [P, Q] of the H-primes of P, in the order of the leaves."""
    ideals = [leaf.ideal for leaf in enumerate_hprimes(P).leaves()]
    _, up = inclusion_order(ideals)
    return [[ideals[i], ideals[j]] for i, js in enumerate(up) for j in js]


def saturated_chains(P):
    """Every chain of H-primes of P that starts at the zero ideal and goes up
    by covers until it reaches a maximal one, in depth-first order."""
    ideals = [leaf.ideal for leaf in enumerate_hprimes(P).leaves()]
    _, up = inclusion_order(ideals)
    chains, stack = [], [[next(i for i, I in enumerate(ideals) if I.is_zero())]]
    while stack:
        path = stack.pop()
        if not up[path[-1]]:
            chains.append([ideals[i] for i in path])
        stack.extend(path + [j] for j in reversed(up[path[-1]]))
    return chains


def reports(P, chains):
    """The JSON dict of the chain report of each chain, its entries rebuilt
    from their generators."""
    return [
        chain_report(P, [Ideal(P.ctx, I.generators) for I in chain]).to_json_dict()
        for chain in chains
    ]


def main() -> int:
    failed = False
    for name, (m, n), chains_of in (
        ("3x3 covers", (3, 3), covers),
        ("2x4 covers", (2, 4), covers),
        ("2x3 saturated chains from 0", (2, 3), saturated_chains),
    ):
        P = matrix_presentation(m, n)
        chains = chains_of(P)
        start = time.perf_counter()
        got = reports(P, chains)
        seconds = time.perf_counter() - start
        bad = [
            k for k, r in enumerate(got)
            if not r["all_drops_one"]
            or not all(e["poisson"] and e["h_stable"] for e in r["ideals"])
        ]
        lengths = {r["length"] for r in got}
        digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
        ok = not bad and (len(got), lengths, digest) == PINS[name]
        failed |= not ok
        for k in bad:
            print(f"{name}: report {k} has a drop other than 1 or an entry that is not "
                  "both Poisson and torus-stable")
        print(
            f"{name}: {len(got)} reports of length {sorted(lengths)}, sha256 {digest[:16]}, "
            f"{'ok' if ok else 'MISMATCH'} ({seconds:.1f} s)"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
