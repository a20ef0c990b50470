"""Independent reference for the benchmark's output checks.

Nothing here calls the program: the system is read back from its JSON
document, the real fundamental basis and the real Jordan matrix are built
from the roots, and the state-space matrices G and O come from the
observability-canonical companion form through ``scipy.linalg.expm``.  Each
``check_*`` function returns a list of problems; an empty list means the
printed output agrees with the reference.
"""
from __future__ import annotations

import csv
import io
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

# A case is decided only if sigma_min/sigma_max of Phi, G and O all lie
# outside this band; inside it no pair of fixed-threshold rank tests can be
# expected to agree (the same band as the acceptance test).
GRAY_LO, GRAY_HI = 1e-11, 1e-5
RANK_REL_TOL = 1e-8          # numerical rank threshold of the oracle
ADMISSIBILITY_FACTOR = 1e-9  # analyze: admissible iff |det Phi| > factor * prod(row norms)
RESIDUAL_TOL = 1e-8          # verify: admissible iff both round-trip residuals <= this
MIN_GRAM_DET = 1e-12         # a designed sequence at or below this is inadmissible
# A problem that starts with KNOWN is a known defect of the program: the
# command counts as failed, but nothing it printed is wrong.  There are four:
# - criterion verdict of analyze: on a decided case analyze gives the verdict
#   its own criterion gives on the reference Phi, and that verdict disagrees
#   with the rank oracle, because the criterion is not the rank test;
# - criterion verdict of verify: on a decided case near the gray band (a
#   ratio within NEAR_BAND of it) or with a residual within NEAR_TOL of
#   RESIDUAL_TOL, verify gives the verdict its printed residuals give, and it
#   disagrees with the rank oracle.  Far from both, the residuals are not
#   compared with any reference, so such a verdict counts as wrong;
# - failed design search: the generic search exits with
#   InadmissibleDesignError (DESIGN_SEARCH_FAILED); any other error is wrong;
# - inadmissible design: a design route other than the generic search returns
#   a sequence whose Gram determinant is at most MIN_GRAM_DET.
KNOWN = "known defect"
NEAR_BAND = 10.0
NEAR_TOL = 10.0
DESIGN_SEARCH_FAILED = "error: every grid candidate is inadmissible"
# A printed value passes when |printed - reference| <= rel * |reference| + abs.
DET_REL, DET_HADAMARD = 1e-7, 1e-11
GRAM_REL, GRAM_ABS = 1e-6, 1e-11
COND_REL, COND_EPS = 1e-7, 1e-12
AMP_REL, AMP_COND = 1e-6, 1e-9
AMP_GRAY = (1e-10, 1e-6)     # O ratios this close to the program's 1e-8 cut are not checked


class RefSystem:
    """Roots, modal coefficients and the derived reference matrices."""

    def __init__(self, doc):
        self.n = int(doc["order"])
        self.roots = [(complex(r["re"], r["im"]), int(r["mult"])) for r in doc["roots"]]
        if "mode_coefficients" in doc:
            self.coeffs = [complex(c["re"], c["im"]) for c in doc["mode_coefficients"]]
        else:
            self.coeffs = self._modes_from_markov([float(h) for h in doc["markov"]])
        self.blocks = self._blocks()
        self.J = self._jordan()
        self.d = self._real_modes()
        self.A, self.b = self._companion()

    def _terms(self):
        """(root, k, index into coeffs) for every term C t^k e^{root t} of h(t)."""
        pos = 0
        for lam, m in self.roots:
            for k in range(m):
                yield lam, k, pos + k
            pos += m

    def _modes_from_markov(self, h):
        W = np.zeros((self.n, self.n), dtype=complex)
        for lam, k, j in self._terms():
            for i in range(k, self.n):
                W[i, j] = math.perm(i, k) * lam ** (i - k)
        return list(np.linalg.solve(W, np.asarray(h, dtype=complex)))

    def _blocks(self):
        """(kind, root, multiplicity, coefficients) in the program's basis
        order: first appearance, a pair represented by its upper member."""
        blocks, used, pos = [], set(), []
        p = 0
        for _, m in self.roots:
            pos.append(p)
            p += m
        for i, (lam, m) in enumerate(self.roots):
            if i in used:
                continue
            if lam.imag == 0:
                blocks.append(("real", lam.real, m, self.coeffs[pos[i]:pos[i] + m]))
                continue
            j = next(j for j, (mu, mj) in enumerate(self.roots)
                     if j != i and j not in used and mj == m
                     and abs(mu - lam.conjugate()) <= 1e-12 * (1 + abs(lam)))
            used.add(j)
            rep = i if lam.imag > 0 else j
            blocks.append(("pair", self.roots[rep][0], m, self.coeffs[pos[rep]:pos[rep] + m]))
        return blocks

    def _jordan(self):
        cells = []
        for kind, lam, m, _ in self.blocks:
            if kind == "real":
                cells.append(lam * np.eye(m) + np.eye(m, k=1))
            else:
                rot = np.array([[lam.real, -lam.imag], [lam.imag, lam.real]])
                cells.append(np.kron(np.eye(m), rot) + np.kron(np.eye(m, k=1), np.eye(2)))
        return scipy.linalg.block_diag(*cells)

    def _real_modes(self):
        d = []
        for kind, _, _, cs in self.blocks:
            for c in cs:
                d.extend([c.real] if kind == "real" else [2 * c.real, -2 * c.imag])
        return np.array(d)

    def _companion(self):
        expanded = [lam for lam, m in self.roots for _ in range(m)]
        a = np.poly(np.array(expanded)).real[1:]
        A = np.eye(self.n, k=1)
        A[-1, :] = -a[::-1]
        b = np.zeros(self.n)
        for lam, k, j in self._terms():
            for i in range(k, self.n):
                b[i] += (self.coeffs[j] * math.perm(i, k) * lam ** (i - k)).real
        return A, b

    def basis(self, t):
        row = []
        for kind, lam, m, _ in self.blocks:
            for k in range(m):
                if kind == "real":
                    row.append(t ** k * math.exp(lam * t))
                else:
                    e = t ** k * math.exp(lam.real * t)
                    row.extend([e * math.cos(lam.imag * t), e * math.sin(lam.imag * t)])
        return row

    def phi(self, alphas):
        return np.array([self.basis(a) for a in alphas])

    def gram(self, alphas):
        Y = np.column_stack([scipy.linalg.expm(self.J * a) @ self.d for a in alphas])
        Yn = Y / np.linalg.norm(Y, axis=0)
        return float(np.clip(np.linalg.det(Yn.T @ Yn), 0.0, 1.0))

    def obs_rows(self, alphas):
        return np.vstack([scipy.linalg.expm(self.A * a)[0] for a in alphas])

    def ctrl_cols(self, instants, final):
        return np.column_stack([scipy.linalg.expm(self.A * (final - t)) @ self.b
                                for t in instants])


def alphas_of(instants):
    return [instants[-1] - t for t in reversed(instants)]


def ratio(M):
    s = np.linalg.svd(M, compute_uv=False)
    return 0.0 if s[0] == 0.0 else float(s[-1] / s[0])


def fields(stdout):
    """The 'key = value' lines of a command's output."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _close(printed, ref, rel, absolute):
    return abs(printed - ref) <= rel * abs(ref) + absolute


def _check_number(problems, printed, key, ref, rel, absolute):
    if key not in printed:
        problems.append(f"missing '{key}'")
        return
    value = float(printed[key])
    if not _close(value, ref, rel, absolute):
        problems.append(f"{key} = {value!r}, reference {ref!r}")


class Verdict(NamedTuple):
    decided: bool
    admissible: bool | None   # None when not decided
    near_band: bool           # some ratio lies within NEAR_BAND of the gray band


def verdict(ref: RefSystem, seq) -> Verdict:
    """The rank of G and O decides admissibility, unless any of Phi, G, O
    has its sigma_min/sigma_max in the gray band."""
    instants = seq["instants"]
    av = alphas_of(instants)
    rs = [ratio(ref.phi(av)), ratio(ref.ctrl_cols(instants, seq["final_instant"])),
          ratio(ref.obs_rows(av))]
    near = any(GRAY_LO / NEAR_BAND < r < GRAY_HI * NEAR_BAND for r in rs)
    if any(GRAY_LO < r < GRAY_HI for r in rs):
        return Verdict(False, None, near)
    return Verdict(True, rs[1] > RANK_REL_TOL and rs[2] > RANK_REL_TOL, near)


def check_analyze(ref: RefSystem, seq, code, stdout, expected: Verdict):
    problems = []
    if code not in (0, 2):
        return [f"exit code {code}"]
    av = alphas_of(seq["instants"])
    M = ref.phi(av)
    det = float(np.linalg.det(M))
    hadamard = float(np.prod(np.linalg.norm(M, axis=1)))
    decided, admissible, _ = expected
    if decided and (code == 0) != admissible:
        h = abs(det) / hadamard
        text = (f"exit code {code}, rank oracle says admissible={admissible}, "
                f"|det|/prod(row norms) = {h:.3g}")
        if (code == 0) == (h > ADMISSIBILITY_FACTOR):
            text = f"{KNOWN}: criterion verdict; {text}"
        problems.append(text)
    printed = fields(stdout)
    if printed.get("admissible") != ("yes" if code == 0 else "no"):
        problems.append("printed verdict disagrees with the exit code")
    _check_number(problems, printed, "determinant", det, DET_REL, DET_HADAMARD * hadamard)
    _check_number(problems, printed, "gram_determinant", ref.gram(av), GRAM_REL, GRAM_ABS)
    return problems


def check_verify(code, stdout, expected: Verdict):
    if code not in (0, 2):
        return [f"exit code {code}"]
    problems = []
    printed = fields(stdout)
    residuals = [float(printed[key]) for key in
                 ("deadbeat_residual", "reconstruction_residual") if key in printed]
    if code == 0 and not (len(residuals) == 2 and max(residuals) <= RESIDUAL_TOL):
        problems.append(f"exit 0 with residuals {residuals}")
    decided, admissible, near_band = expected
    if decided and (code == 0) != admissible:
        text = f"exit code {code}, rank oracle says admissible={admissible}"
        if residuals:
            worst = max(residuals)
            text += f", residuals {residuals}"
            near_tol = RESIDUAL_TOL / NEAR_TOL < worst < RESIDUAL_TOL * NEAR_TOL
            if (code == 0) == (worst <= RESIDUAL_TOL) and (near_band or near_tol):
                text = f"{KNOWN}: criterion verdict; {text}"
        problems.append(text)
    return problems


def design_route(ref: RefSystem):
    """The route ``design --method auto`` takes: the closed form for a lone
    2nd-order pair, the geometric step for a 3rd-order pair with a damped
    real part plus a real root, the generic search otherwise."""
    kinds = sorted(kind for kind, *_ in ref.blocks)
    if ref.n == 2 and kinds == ["pair"]:
        return "closed"
    if ref.n == 3 and kinds == ["pair", "real"]:
        pair = next(lam for kind, lam, *_ in ref.blocks if kind == "pair")
        if pair.real != 0.0:
            return "geometric"
    return "generic"


def check_design(ref: RefSystem, t0, code, stdout, stderr):
    """Problems with a design output."""
    route = design_route(ref)
    message = stderr.strip()
    if code == 1 and message == DESIGN_SEARCH_FAILED and route == "generic":
        return [f"{KNOWN}: failed design search; {message}"]
    if code != 0:
        return [f"exit code {code} on the {route} route: {message}"]
    printed = fields(stdout)
    try:
        instants = [float(t) for t in printed["instants"].split()]
    except KeyError:
        return ["missing 'instants'"]
    problems = []
    if len(instants) != ref.n or any(b <= a for a, b in zip(instants, instants[1:])):
        return [f"bad instants {instants}"]
    if not _close(instants[0], t0, 1e-11, 1e-11):
        problems.append(f"first instant {instants[0]} is not t0 = {t0}")
    gram = ref.gram(alphas_of(instants))
    _check_number(problems, printed, "gram_determinant", gram, GRAM_REL, GRAM_ABS)
    if ref.n > 1 and not gram > MIN_GRAM_DET:
        text = f"exit 0 on the {route} route with reference Gram determinant {gram!r}"
        problems.append(text if route == "generic" else f"{KNOWN}: inadmissible design; {text}")
    return problems


def amplification(ref: RefSystem, alphas, eps, trials, rng):
    """Median reconstruction error over noise trials divided by eps.  ``rng``
    must be the generator the sweep command seeds for this scale; each trial
    draws x0, then the noise, as the command does."""
    O = ref.obs_rows(alphas)
    r = ratio(O)
    if r <= RANK_REL_TOL:
        return math.inf, r
    errors = []
    for _ in range(trials):
        x0 = rng.standard_normal(ref.n)
        noisy = O @ x0 + rng.normal(0.0, eps, ref.n)
        errors.append(float(np.linalg.norm(np.linalg.solve(O, noisy) - x0)))
    return float(np.median(errors)) / eps, r


def check_sweep(ref: RefSystem, args, code, stdout, noise=1e-4):
    """``args`` holds start, stop, points, trials and seed of the command."""
    if code != 0:
        return [f"exit code {code}"]
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["scale", "determinant", "gram_det",
                               "condition_number", "noise_amplification"]:
        return ["missing CSV header"]
    rows = rows[1:]
    scales = np.linspace(args["start"], args["stop"], args["points"])
    if len(rows) != len(scales):
        return [f"{len(rows)} rows for {len(scales)} scales"]
    problems = []
    for idx, (s, row) in enumerate(zip(scales, rows)):
        scale, det, gram, cond, amp = (float(v) for v in row)
        av = [m * s for m in range(ref.n)]
        M = ref.phi(av)
        svals = np.linalg.svd(M, compute_uv=False)
        ref_cond = math.inf if svals[-1] == 0.0 else float(svals[0] / svals[-1])
        hadamard = float(np.prod(np.linalg.norm(M, axis=1)))
        checks = [
            ("scale", scale, float(s), 1e-11, 1e-12),
            ("determinant", det, float(np.linalg.det(M)), DET_REL, DET_HADAMARD * hadamard),
            ("gram_det", gram, ref.gram(av), GRAM_REL, GRAM_ABS),
        ]
        if ref_cond < 1.0 / COND_EPS:
            checks.append(("condition_number", cond, ref_cond,
                           COND_REL + COND_EPS * ref_cond, 0.0))
        rng = np.random.default_rng(args["seed"] * 1000003 + idx)
        ref_amp, r_obs = amplification(ref, av, noise, args["trials"], rng)
        if not AMP_GRAY[0] < r_obs < AMP_GRAY[1]:
            if math.isinf(ref_amp) or math.isinf(amp):
                if math.isinf(ref_amp) != math.isinf(amp):
                    problems.append(f"row {idx}: noise_amplification {amp!r}, "
                                    f"reference {ref_amp!r}")
            else:
                checks.append(("noise_amplification", amp, ref_amp,
                               AMP_REL + AMP_COND / r_obs, 0.0))
        for key, value, want, rel, absolute in checks:
            if not _close(value, want, rel, absolute):
                problems.append(f"row {idx}: {key} = {value!r}, reference {want!r}")
    return problems
