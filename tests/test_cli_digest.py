"""Byte identity of the ideal commands on the 2x3 matrix tower.

A seeded sample of `chain`, `hcore` and `closure` commands runs in process
on the H-prime poset of the 2x3 tower, read from the tree golden.  Their
exit codes and stdout, joined in order, must hash to the digest first
recorded for them: a faster Groebner or bracket route must not move a
byte of any report.
"""

import hashlib
import json
import random
from pathlib import Path

from pcgl.cli import main
from pcgl.ideals import Ideal, inclusion_order
from pcgl.qpoly import VarTable, parse

from test_matrices import towers

TREE = Path(__file__).parent / "golden" / "hprimes_2x3.json"
DIGEST = "0ccd102fa2179e3fdf88433c0008d1e76e984c550aef4e6014e6ccd505fba489"


def presentation_file(tmp_path) -> str:
    path = tmp_path / "m2x3.json"
    path.write_text(json.dumps(towers.matrix_data(2, 3)))
    return str(path)


def hprimes():
    """The generator strings of the 46 H-primes, in node order."""
    nodes = json.loads(TREE.read_text())["nodes"]
    top = max(node["level"] for node in nodes)
    return [node["generators"] for node in nodes if node["level"] == top]


def commands(path, rng):
    """Ten commands of each kind, shuffled: chains up the covers of the
    poset, a third of them through two ideals that need not be Poisson;
    torus cores of an H-prime plus a non-homogeneous element; closures of
    an H-prime plus an element."""
    leaves = hprimes()
    ctx = VarTable(tuple(f"x{i}{j}" for i in (1, 2) for j in (1, 2, 3)))
    names = ctx.names
    ideals = [Ideal(ctx, [parse(t, ctx) for t in gens]) for gens in leaves]
    _, covers = inclusion_order(ideals)
    cmds = []
    for k in range(10):
        i = rng.choice([i for i, gens in enumerate(leaves) if len(gens) < 2])
        chain = [leaves[i]]
        if k % 3 == 0:
            a, b, c = rng.sample(names, 3)
            e = f"{a} + {b}*{c}"
            I = Ideal(ctx, ideals[i].generators + (parse(e, ctx),))
            f = rng.choice([v for v in names if not I.member(parse(v, ctx))[0]])
            chain += [leaves[i] + [e], leaves[i] + [e, f]]
        else:
            while covers[i] and len(chain) < 5:
                i = rng.choice(covers[i])
                chain.append(leaves[i])
        argv = ["chain", path]
        for gens in chain:
            argv += ["--ideal", ";".join(gens) or "0"]
        cmds.append(argv)
    for kind in ("hcore", "closure"):
        for _ in range(10):
            gens = list(rng.choice(leaves))
            a, b = rng.sample(names, 2)
            if kind == "hcore":
                gens.append(f"{a} + {rng.randint(1, 3)}*{b}")
            else:
                gens.append(rng.choice((a, f"{a}*{b} - {rng.randint(1, 2)}*{b}")))
            argv = [kind, path]
            for g in gens:
                argv += ["-g", g]
            cmds.append(argv)
    rng.shuffle(cmds)
    return cmds


def test_ideal_commands_stdout_digest(capsys, tmp_path):
    path = presentation_file(tmp_path)
    digest = hashlib.sha256()
    for argv in commands(path, random.Random(20)):
        code = main(argv)
        out = capsys.readouterr().out
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == DIGEST
