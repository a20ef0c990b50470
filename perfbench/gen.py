"""Seeded inputs for the benchmark: random minimal systems, sampling
sequences and the CLI commands that use them.

Values are drawn from one ``random.Random`` per workload and seed, so the
same seed always yields the same files and commands.  The program only ever
sees the JSON files written here.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import oracle

# design stops at n = 4: from n = 5 on, the generic search of the seed code
# ends in InadmissibleDesignError on some systems (4 of 80 at n = 5, 9 of 80
# at n = 6, most at n = 8...10), and a workload must hold no failing command
ORDERS = {"check": range(2, 11), "design": range(2, 5), "sweep": range(2, 9)}
MIN_SEPARATION = 0.08       # minimum distance between any two roots
MIN_LAST_COEFF = 0.3        # |highest-order block coefficient| keeps the system minimal

# design at n = 2 is a lone pair, for which --method auto takes the closed
# form; n = 3 and 4 take the generic search.  n = 3 is not a pair plus a real
# root: auto sends that to the geometric step, which on these systems returns
# a sequence with Gram determinant <= 1e-12 (6 of 900) or raises OverflowError
DESIGN_SHAPES = {2: [("pair", 1)], 3: [("real", 2), ("real", 1)]}

# Interval scales swept by every sweep command.  Up to 1.0 the observability
# matrix of every generated system stays full rank, so each command runs all
# its noise trials; past it a rank-deficient scale returns after one trial
# and the cost of a command would hinge on its root values.
SWEEP_RANGE = (0.2, 1.0)
SWEEP_POINTS = 8
SWEEP_TRIALS = 6
SWEEP_DATA = ("third_order.json", "oscillator.json")


@dataclass
class Case:
    """One unit of work: a system file, an optional sequence file and the
    argument lists of the commands run on them."""

    order: int
    system: dict
    system_path: str
    commands: list = field(default_factory=list)   # list of argv lists
    sequence: dict | None = None


def block_structure(rng, n, need_pair=False):
    """[(kind, multiplicity)] splitting order n into real roots and complex
    pairs, multiplicities up to 3."""
    while True:
        blocks, rem = [], n
        while rem > 0:
            if rem >= 2 and rng.random() < 0.45:
                m = rng.randint(1, min(3, rem // 2))
                blocks.append(("pair", m))
                rem -= 2 * m
            else:
                m = rng.randint(1, min(3, rem))
                blocks.append(("real", m))
                rem -= m
        if not need_pair or any(kind == "pair" for kind, _ in blocks):
            return blocks


def _separated(values):
    pts = []
    for kind, v in values:
        pts.append(v)
        if kind == "pair":
            pts.append(v.conjugate())
    return all(abs(p - q) >= MIN_SEPARATION
               for i, p in enumerate(pts) for q in pts[i + 1:])


def random_system(rng, n, blocks):
    """System-file document of a random minimal system of order n with the
    given block structure; roots are at least MIN_SEPARATION apart."""
    while True:
        values = []
        for kind, _ in blocks:
            if kind == "real":
                values.append((kind, complex(rng.uniform(-1.5, 0.8), 0.0)))
            else:
                values.append((kind, complex(rng.uniform(-1.2, 0.8), rng.uniform(0.3, 2.2))))
        if _separated(values):
            break
    roots, coeffs = [], []
    for (kind, m), (_, v) in zip(blocks, values):
        if kind == "real":
            cs = [complex(rng.uniform(-2.0, 2.0)) for _ in range(m)]
        else:
            cs = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(m)]
        if abs(cs[-1]) < MIN_LAST_COEFF:
            mag = rng.uniform(MIN_LAST_COEFF, 2.0)
            if kind == "real":
                cs[-1] = complex(mag if rng.random() < 0.5 else -mag)
            else:
                phase = rng.uniform(0.0, 2.0 * math.pi)
                cs[-1] = complex(mag * math.cos(phase), mag * math.sin(phase))
        roots.append(v if kind == "pair" else complex(v.real))
        coeffs.append(cs)
        if kind == "pair":
            roots.append(v.conjugate())
            coeffs.append([c.conjugate() for c in cs])
    mults = [m for kind, m in blocks for _ in range(2 if kind == "pair" else 1)]
    return {
        "order": n,
        "roots": [{"re": r.real, "im": r.imag, "mult": m} for r, m in zip(roots, mults)],
        "mode_coefficients": [{"re": c.real, "im": c.imag} for cs in coeffs for c in cs],
    }


def random_sequence(rng, n):
    t = [rng.uniform(-1.0, 1.0)]
    for _ in range(n - 1):
        t.append(t[-1] + rng.uniform(0.08, 1.2))
    return {"instants": t, "final_instant": t[-1] + rng.uniform(0.1, 1.2)}


def half_turn_sequence(system):
    """Uniform sampling at half the period of the first complex pair, where
    the joint test must fail."""
    b = next(r["im"] for r in system["roots"] if r["im"] > 0)
    n = system["order"]
    period = math.pi / b
    return {"instants": [i * period for i in range(n)], "final_instant": n * period}


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_data_system(repo, name):
    with open(os.path.join(repo, "tests", "data", name)) as fh:
        return json.load(fh)


def near_band(system, sequence):
    """True when the reference decides the case but some sigma_min/sigma_max
    of Phi, G or O lies within a decade of the gray band.  There analyze's
    own criterion, |det Phi| > 1e-9 * prod(row norms), and the rank test can
    give opposite verdicts (9 of 54 000 generated check cases, n = 6 and 7,
    all with ratios in (1e-5, 7e-5))."""
    expected = oracle.verdict(oracle.RefSystem(system), sequence)
    return expected.decided and expected.near_band


class Generator:
    """Yields the cases of one workload in cycles over its orders, so every
    cycle holds the same mix of orders whatever the seed.

    Block structures (how an order splits into real roots, pairs and
    multiplicities) come from a stream shared by all seeds; the seed draws
    root values, coefficients, sequences and command seeds.  ``design`` and
    ``sweep`` keep one structure per order for the whole run, because their
    cost per command depends mostly on the structure; ``check`` draws a new
    structure for every case.  Every 9th
    check case samples at the half-turn period, rotating through the orders.
    A check system and sequence that fall near the gray band (``near_band``)
    are drawn again, so every check verdict is either undecided or decided
    with a decade of margin.
    """

    def __init__(self, workload, seed, workdir, repo):
        if workload not in ORDERS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self.shape_rng = random.Random(f"{workload}/shapes")
        # order -> block structure, unless drawn per case
        self.shapes = dict(DESIGN_SHAPES) if workload == "design" else {}
        self.workdir = workdir
        self.repo = repo
        self.count = 0

    def _path(self, kind):
        return os.path.join(self.workdir, f"{kind}{self.count:06d}.json")

    def cycle(self):
        """Write the files of the next cycle and return its cases."""
        docs = [(n, None) for n in ORDERS[self.workload]]
        if self.workload == "sweep":
            data = [load_data_system(self.repo, name) for name in SWEEP_DATA]
            docs = [(d["order"], d) for d in data] + docs
        return [self._case(n, doc) for n, doc in docs]

    def _case(self, n, system):
        rng = self.rng
        # one check case in each cycle of 9, at a position moving one order per cycle
        cycle, pos = divmod(self.count, len(ORDERS["check"]))
        pathological = self.workload == "check" and pos == cycle % len(ORDERS["check"])
        sequence = None
        if self.workload == "check":
            blocks = block_structure(self.shape_rng, n, need_pair=pathological)
            while True:
                system = random_system(rng, n, blocks)
                sequence = (half_turn_sequence(system) if pathological
                            else random_sequence(rng, n))
                if not near_band(system, sequence):
                    break
        elif system is None:
            if n not in self.shapes:
                self.shapes[n] = block_structure(self.shape_rng, n)
            system = random_system(rng, n, self.shapes[n])
        sys_path = self._path("sys")
        _write(sys_path, system)
        case = Case(n, system, sys_path, sequence=sequence)
        if self.workload == "check":
            seq_path = self._path("seq")
            _write(seq_path, case.sequence)
            case.commands = [
                ["analyze", "--system", sys_path, "--instants", seq_path],
                ["verify", "--system", sys_path, "--instants", seq_path,
                 "--seed", str(rng.randrange(2**31))],
            ]
        elif self.workload == "design":
            # fixed-point text: argparse would take "-5e-06" for an option
            t0 = f"{rng.uniform(-1.0, 1.0):.6f}"
            case.commands = [["design", "--system", sys_path, "--t0", t0,
                              "--method", "auto"]]
        else:
            lo, hi = SWEEP_RANGE
            case.commands = [["sweep", "--system", sys_path, "--from", repr(lo),
                              "--to", repr(hi), "--points", str(SWEEP_POINTS),
                              "--trials", str(SWEEP_TRIALS),
                              "--seed", str(rng.randrange(2**31))]]
        self.count += 1
        return case
