"""Shared generators for randomized suites.

All randomness is driven by explicitly seeded numpy Generators so every
case is reproducible from its index.
"""
import numpy as np

import nusample as ns

MIN_ROOT_SEPARATION = 0.08
MIN_LAST_COEFF = 0.3


def random_block_structure(rng, n):
    """Partition the order into real blocks and complex pairs, mult <= 3."""
    blocks = []
    rem = n
    while rem > 0:
        if rem >= 2 and rng.random() < 0.45:
            m = int(rng.integers(1, min(3, rem // 2) + 1))
            blocks.append(("pair", m))
            rem -= 2 * m
        else:
            m = int(rng.integers(1, min(3, rem) + 1))
            blocks.append(("real", m))
            rem -= m
    return blocks


def _separated(values):
    allv = []
    for v, kind in values:
        allv.append(v)
        if kind == "pair":
            allv.append(v.conjugate())
    for i in range(len(allv)):
        for j in range(i + 1, len(allv)):
            if abs(allv[i] - allv[j]) < MIN_ROOT_SEPARATION:
                return False
    return True


def random_minimal_spec(rng, n):
    """Random minimal system of order n with mixed real/complex/multiple roots."""
    for _ in range(500):
        structure = random_block_structure(rng, n)
        values = []
        for kind, _m in structure:
            if kind == "real":
                values.append((complex(rng.uniform(-1.5, 0.8)), "real"))
            else:
                values.append((complex(rng.uniform(-1.2, 0.8),
                                       rng.uniform(0.3, 2.2)), "pair"))
        if not _separated(values):
            continue
        roots = []
        coeffs = []
        for (v, kind), (_, m) in zip(values, structure):
            block_c = []
            for k in range(m):
                if kind == "real":
                    c = complex(rng.uniform(-2.0, 2.0))
                else:
                    c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                block_c.append(c)
            if abs(block_c[-1]) < MIN_LAST_COEFF:
                mag = rng.uniform(MIN_LAST_COEFF, 2.0)
                if kind == "real":
                    block_c[-1] = complex(mag * (1 if rng.random() < 0.5 else -1))
                else:
                    phase = rng.uniform(0, 2 * np.pi)
                    block_c[-1] = mag * complex(np.cos(phase), np.sin(phase))
            roots.append((v, m))
            coeffs.extend(block_c)
            if kind == "pair":
                roots.append((v.conjugate(), m))
                coeffs.extend([c.conjugate() for c in block_c])
        return ns.system_from_modes(roots, coeffs)
    raise RuntimeError("could not build a separated eigenstructure")


def random_sequence(rng, n, with_final=False, max_step=1.2):
    t0 = rng.uniform(-1.0, 1.0)
    steps = rng.uniform(0.08, max_step, n - 1)
    instants = t0 + np.concatenate(([0.0], np.cumsum(steps)))
    final = float(instants[-1] + rng.uniform(0.1, max_step)) if with_final else None
    return ns.SamplingSequence(tuple(instants), final)


def pathological_sequence(spec, with_final=False):
    """Uniform sampling at the half-turn period of the first complex pair;
    returns None if the system has no complex pair."""
    pair = next((blk for blk in spec.eigen.blocks if blk.kind == "pair"), None)
    if pair is None:
        return None
    period = np.pi / pair.value.imag
    n = spec.n
    instants = tuple(i * period for i in range(n))
    final = n * period if with_final else None
    return ns.SamplingSequence(instants, final)


def random_admissible_case(rng, n, max_cond=1e6):
    """(spec, sequence-with-final) pair that is admissible and comfortably
    conditioned, so round-trip residual bounds are meaningful."""
    for _ in range(500):
        spec = random_minimal_spec(rng, n)
        seq = random_sequence(rng, n, with_final=True)
        av = ns.alphas(seq)
        report = ns.joint_test(ns.fundamental_matrix(spec.eigen, av))
        if not report.is_admissible:
            continue
        real = ns.observability_canonical(spec)
        G = ns.bruteforce_controllability_matrix(real, seq)
        O = ns.bruteforce_observability_matrix(real, av)
        sg = np.linalg.svd(G, compute_uv=False)
        so = np.linalg.svd(O, compute_uv=False)
        if sg[0] / sg[-1] < max_cond and so[0] / so[-1] < max_cond:
            return spec, seq
    raise RuntimeError("could not find an admissible, well-conditioned case")


def count_calls(monkeypatch, original, modules):
    """Route every listed module's binding of ``original`` through a counter;
    returns the list that gains one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in modules:
        if hasattr(module, original.__name__):
            monkeypatch.setattr(module, original.__name__, counting)
    return calls
