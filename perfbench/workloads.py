"""The three workloads: set-up, timed round and untimed oracle checks.

Every workload takes the `pcgl` package it should drive, so that calls go
through module attributes at call time and a tracer installed on the
package sees them.  A round is one closed loop with a single caller; its
operations run one after another and each is timed on its own.

`setup(pcgl, seed, k, workdir)` takes the index `k` of the set-up within a
run beside the seed: the seeded draws depend on both, so no round of a
run replays the draw of another.  `rounds` is the fixed number of timed rounds of a
run, sized so that a run measures 12 to 30 s at the seed commit (enum-3x3
can not be split: its one round takes about 30 s).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

from towers import FIXTURE_HPRIME_COUNTS, hprime_count, matrix_data, presentation_data

clock = time.perf_counter


@dataclass
class Round:
    """What one timed round produced.  Ruler samples taken between
    operations are not part of `seconds` or of any latency."""

    seconds: float
    latencies: list[float]  # per operation, in seconds
    ends: list[float]  # clock() when each operation ended
    outputs: list  # per operation, checked by the workload's oracle
    stdout_bytes: int = 0


def determinant_text(m: int) -> str:
    """The m x m determinant in the generators x_ij, by the Leibniz formula."""
    terms = []
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[a] > perm[b] for a in range(m) for b in range(a + 1, m))
        mono = "*".join(f"x{i + 1}{perm[i] + 1}" for i in range(m))
        terms.append(("- " if inversions % 2 else "+ ") + mono)
    return " ".join(terms).lstrip("+ ")


def run_cli(pcgl, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = pcgl.cli.main(argv)
    return code, buf.getvalue()


def is_homogeneous(text: str, names, rows) -> bool:
    """Whether all terms of a printed polynomial have one torus weight, read
    from the printed form and the grading rows of the presentation file."""
    weights = set()
    for term in re.split(r"\s[+-]\s", text.strip().lstrip("-")):
        w = [0] * len(rows)
        for var, exp in re.findall(r"([A-Za-z_]\w*)(?:\^(\d+))?", term):
            for r, row in enumerate(rows):
                w[r] += row[names.index(var)] * int(exp or 1)
        weights.add(tuple(w))
    return len(weights) == 1


def draw(seed: int, k: int) -> random.Random:
    """The random source of set-up `k` of a run with this seed."""
    return random.Random(seed * 1000 + k)


def fixture_checks(pcgl) -> list[str]:
    """`pcgl hprimes` on the shipped fixtures gives the documented counts."""
    failures = []
    for name, expected in FIXTURE_HPRIME_COUNTS.items():
        code, out = run_cli(pcgl, ["hprimes", pcgl.cli.fixture_path(name)])
        if expected is None:
            if code != 1:
                failures.append(f"hprimes {name}: exit {code}, expected 1 (not a tower)")
        elif code != 0 or json.loads(out)["count"] != expected:
            failures.append(f"hprimes {name}: exit {code}, expected count {expected}")
    return failures


def _nested_pairs(leaves):
    """(i, j) with leaves[i] strictly inside leaves[j]."""
    n = len(leaves)
    inside = [[i != j and all(leaves[j].ideal.member(g)[0] for g in leaves[i].ideal.generators)
               for j in range(n)] for i in range(n)]
    return [(i, j) for i in range(n) for j in range(n) if inside[i][j] and not inside[j][i]], inside


class EnumTower:
    """`enumerate_hprimes` on the semiclassical m x n matrix tower."""

    seed_note = "the tower is fixed: the seed does not change this workload's inputs"
    rounds = 1

    def __init__(self, m: int = 3, n: int = 3):
        self.m, self.n = m, n

    def setup(self, pcgl, seed: int, k: int, workdir: Path):
        pres, _ = pcgl.cli.load_presentation_data(matrix_data(self.m, self.n))
        return pres

    def run_round(self, pcgl, pres, tracer=None, ruler=None) -> Round:
        # A probe on node construction gives the latency of each emitted
        # node: the gap since the previous node was built (or the start).
        # It is also where ruler samples are taken.
        node_cls = pcgl.cauchon.HPrimeNode
        orig_init = node_cls.__init__
        ends, resumes = [], []

        def probe(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            ends.append(clock())
            if tracer is not None:
                tracer.run_id = len(ends)
            if ruler is not None:
                ruler.tick()
            resumes.append(clock())

        paused = ruler.paused if ruler is not None else 0.0
        node_cls.__init__ = probe
        try:
            t0 = clock()
            tree = pcgl.cauchon.enumerate_hprimes(pres)
            t1 = clock()
        finally:
            node_cls.__init__ = orig_init
        if ruler is not None:
            paused = ruler.paused - paused
        latencies = [b - a for a, b in zip([t0] + resumes, ends)]
        return Round(t1 - t0 - paused, latencies, ends, [tree])

    def ops(self, rnd: Round) -> int:
        return sum(len(level) for level in rnd.outputs[0].levels)

    def signature(self, rnd: Round) -> list:
        return [rnd.outputs[0].to_json_dict()]

    def check(self, pcgl, pres, rnd: Round) -> list[str]:
        tree = rnd.outputs[0]
        failures = []
        want = hprime_count(self.m, self.n)
        if len(tree.leaves()) != want:
            failures.append(f"{len(tree.leaves())} leaves, expected {want}")
        if tree.inconclusive:
            failures.append("enumeration is inconclusive")
        if self.m == self.n:
            # the unique d-branch over the zero ideal at the top level is the
            # ideal of the determinant
            deep = [node for node in tree.levels[-1]
                    if node.branch == "d-branch" and node.parent.ideal.is_zero()]
            det = pcgl.qpoly.parse(determinant_text(self.m), pres.ctx)
            if len(deep) != 1:
                failures.append(f"{len(deep)} deep d-branches, expected 1")
            elif not pcgl.ideals.Ideal(pres.ctx, deep[0].ideal.generators).member(det)[0]:
                failures.append("determinant is not in the deep d-branch ideal")
        return failures


class SeparateTower:
    """`separating_normal` on every nested pair of the m x n H-prime poset."""

    seed_note = "the seed and the round set the order of the pairs"
    rounds = 2

    def __init__(self, m: int = 2, n: int = 3, pairs: int | None = None):
        self.m, self.n, self.max_pairs = m, n, pairs

    def setup(self, pcgl, seed: int, k: int, workdir: Path):
        pres, _ = pcgl.cli.load_presentation_data(matrix_data(self.m, self.n))
        leaves = pcgl.cauchon.enumerate_hprimes(pres).leaves()
        pairs, _ = _nested_pairs(leaves)
        draw(seed, k).shuffle(pairs)
        if self.max_pairs is not None:
            pairs = pairs[: self.max_pairs]
        return pres, leaves, pairs

    def run_round(self, pcgl, state, tracer=None, ruler=None) -> Round:
        pres, leaves, pairs = state
        latencies, ends, outputs = [], [], []
        for k, (i, j) in enumerate(pairs):
            if tracer is not None:
                tracer.run_id = k
            t0 = clock()
            try:
                res = pcgl.cauchon.separating_normal(pres, leaves[i], leaves[j])
            except pcgl.PcglError:
                res = None
            ends.append(clock())
            latencies.append(ends[-1] - t0)
            outputs.append(res)
            if ruler is not None:
                ruler.tick()
        return Round(sum(latencies), latencies, ends, outputs)

    def ops(self, rnd: Round) -> int:
        return len(rnd.outputs)

    def signature(self, rnd: Round) -> list:
        return [None if res is None else str(res.element) for res in rnd.outputs]

    def check(self, pcgl, state, rnd: Round) -> list[str]:
        pres, leaves, pairs = state
        failures = []
        want = hprime_count(self.m, self.n)
        if len(leaves) != want:
            failures.append(f"{len(leaves)} leaves, expected {want}")
        Ideal = pcgl.ideals.Ideal
        for (i, j), res in zip(pairs, rnd.outputs):
            label = f"{leaves[i].label()} < {leaves[j].label()}"
            if res is None:
                failures.append(f"{label}: no separating element")
                continue
            text = str(res.element)
            u = pcgl.qpoly.parse(text, pres.ctx)
            if not Ideal(pres.ctx, leaves[j].ideal.generators).member(u)[0]:
                failures.append(f"{label}: {text} is not in the larger ideal")
            elif Ideal(pres.ctx, leaves[i].ideal.generators).member(u)[0]:
                failures.append(f"{label}: {text} lies in the smaller ideal")
        return failures


class CliMix:
    """In-process `pcgl.cli.main` calls: a seeded mix of chain, hcore,
    closure and center commands on the m x n H-prime poset and the fixtures."""

    seed_note = ("the seed and the round draw the chains, the ideals, the extra elements "
                 "and the order")
    rounds = 2

    # share of each command in a round
    MIX = (("chain", 0.25), ("hcore", 0.35), ("closure", 0.30), ("center", 0.10))

    def __init__(self, m: int = 2, n: int = 3, commands: int = 400):
        self.m, self.n, self.commands = m, n, commands

    def setup(self, pcgl, seed: int, k: int, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        files, posets = {}, {}
        tower = f"m{self.m}x{self.n}"
        pres, _ = pcgl.cli.load_presentation_data(matrix_data(self.m, self.n))
        files[tower] = workdir / f"{tower}.json"
        files[tower].write_text(json.dumps(matrix_data(self.m, self.n), indent=1))
        posets[tower] = pres, pcgl.cauchon.enumerate_hprimes(pres).leaves()
        deleted = f"{tower}-deleted"
        files[deleted] = workdir / f"{deleted}.json"
        files[deleted].write_text(json.dumps(presentation_data(pcgl.cauchon.delete_all(pres))))
        contexts = {tower: pres.ctx}
        gradings = {tower: matrix_data(self.m, self.n)["grading"]}
        for name in ("weyl", "pplane", "m2", "bellsig"):
            files[name] = Path(pcgl.cli.fixture_path(name))
            fix, _ = pcgl.cli.load_presentation(str(files[name]))
            contexts[name] = fix.ctx
            gradings[name] = json.loads(files[name].read_text())["grading"]
            if name != "bellsig":
                posets[name] = fix, pcgl.cauchon.enumerate_hprimes(fix).leaves()
        covers = {}
        for name, (_, leaves) in posets.items():
            _, inside = _nested_pairs(leaves)
            n = len(leaves)
            covers[name] = [
                [j for j in range(n) if inside[i][j]
                 and not any(inside[i][k] and inside[k][j] for k in range(n))]
                for i in range(n)
            ]
        rng = draw(seed, k)
        # hcore and closure inputs cycle through the whole poset, so every
        # draw gives each H-prime the same weight
        order = list(range(len(posets[tower][1])))
        rng.shuffle(order)
        cmds = []
        for kind, share in self.MIX:
            for c in range(max(1, round(share * self.commands))):
                cmds.append(self._draw(kind, c, rng, tower, files, posets, covers, order))
        rng.shuffle(cmds)
        return {"cmds": cmds, "contexts": contexts, "gradings": gradings}

    def _draw(self, kind, k, rng, tower, files, posets, covers, order):
        """One command: (kind, argv, presentation name, oracle data)."""
        if kind == "chain":
            # every fifth chain runs on a fixture tower, the rest on the matrix tower
            name = (tower, tower, tower, tower, ("m2", "pplane", "weyl")[k // 5 % 3])[k % 5]
            leaves = posets[name][1]
            i = next(i for i, node in enumerate(leaves) if node.ideal.is_zero())
            chain = [i]
            while covers[name][i]:
                i = rng.choice(covers[name][i])
                chain.append(i)
            argv = ["chain", str(files[name])]
            for i in chain:
                argv += ["--ideal", ";".join(leaves[i].ideal.generator_strings()) or "0"]
            return kind, argv, name, None
        if kind == "center":
            name = (f"{tower}-deleted", "pplane")[k % 2]
            return kind, ["center", str(files[name])], name, None
        if k % 10 == 9:
            # the README examples on the fixtures
            if kind == "hcore":
                return kind, ["hcore", str(files["weyl"]), "-g", "a + X^2"], "weyl", ([], ["a + X^2"])
            return kind, ["closure", str(files["bellsig"]), "-g", "x"], "bellsig", ([], ["x"])
        pres, leaves = posets[tower]
        base = leaves[order[k % len(order)]].ideal.generator_strings()
        names = pres.ctx.names
        if kind == "hcore":
            # an H-prime plus a non-homogeneous linear element
            a, b = rng.sample(names, 2)
            extra = [f"{a} + {rng.randint(1, 3)}*{b}"]
        else:
            extra = [rng.choice(names)]
        argv = [kind, str(files[tower])]
        for g in base + extra:
            argv += ["-g", g]
        return kind, argv, tower, (base, extra)

    def run_round(self, pcgl, state, tracer=None, ruler=None) -> Round:
        latencies, ends, outputs, nbytes = [], [], [], 0
        for k, (_, argv, _, _) in enumerate(state["cmds"]):
            if tracer is not None:
                tracer.run_id = k
            t0 = clock()
            code, out = run_cli(pcgl, argv)
            ends.append(clock())
            latencies.append(ends[-1] - t0)
            nbytes += len(out)
            outputs.append((code, out))
            if ruler is not None:
                ruler.tick()
        return Round(sum(latencies), latencies, ends, outputs, nbytes)

    def ops(self, rnd: Round) -> int:
        return len(rnd.outputs)

    def signature(self, rnd: Round) -> list:
        return rnd.outputs

    def check(self, pcgl, state, rnd: Round) -> list[str]:
        failures = []
        Ideal, parse = pcgl.ideals.Ideal, pcgl.qpoly.parse
        contexts = state["contexts"]
        for (kind, argv, name, data), (code, out) in zip(state["cmds"], rnd.outputs):
            label = " ".join(argv[:1] + argv[2:])
            if code != 0:
                failures.append(f"{label}: exit {code}")
                continue
            try:
                result = json.loads(out)
            except json.JSONDecodeError:
                failures.append(f"{label}: output is not JSON")
                continue
            if kind == "center":
                if "center" not in result:
                    failures.append(f"{label}: no center in the output")
                continue
            ctx = contexts[name]
            if kind == "chain":
                entries = result["ideals"]
                if not all(e["poisson"] and e["h_stable"] for e in entries):
                    failures.append(f"{label}: an entry is not Poisson and torus-stable")
                elif not result["all_drops_one"]:
                    failures.append(f"{label}: a dimension drop is not 1")
                elif entries[0]["dimension"] != len(ctx.names):
                    failures.append(f"{label}: the zero ideal has the wrong dimension")
                continue
            base, extra = ([parse(t, ctx) for t in texts] for texts in data)
            got = Ideal(ctx, [parse(t, ctx) for t in result["generators"]])
            if kind == "closure":
                # input <= closure <= the ideal of all generators, which is
                # Poisson because no bracket has a constant term
                every = Ideal(ctx, [parse(v, ctx) for v in ctx.names])
                ok = (all(got.member(g)[0] for g in base + extra)
                      and all(every.member(g)[0] for g in got.generators))
            else:
                # H-prime <= torus core <= input, and the core is graded
                given = Ideal(ctx, base + extra)
                ok = (all(given.member(g)[0] for g in got.generators)
                      and all(got.member(g)[0] for g in base)
                      and all(is_homogeneous(t, ctx.names, state["gradings"][name])
                              for t in result["generators"]))
            if not ok:
                failures.append(f"{label}: result is not bounded as expected")
        return failures


WORKLOADS = {
    "enum-3x3": EnumTower,
    "separate-2x3": SeparateTower,
    "cli-chains": CliMix,
}

# The same workloads at the tiny sizes of the smoke test.
SMOKE = {
    "enum-3x3": lambda: EnumTower(2, 2),
    "separate-2x3": lambda: SeparateTower(2, 2, pairs=6),
    "cli-chains": lambda: CliMix(2, 2, commands=20),
}
