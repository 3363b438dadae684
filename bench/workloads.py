"""Seeded job lists for the bvcheck benchmark, each job with a known answer.

A job is one call of ``bvcheck.cli.main`` on a generated spec file.  Every
known answer below is derived from how the input is built, never from
bvcheck's own output; README.md in this directory gives the derivations.

The workload seed fixes every spec text.  It draws the coefficients' signs
and numerators and the order of the Koszul pairs, but not the shape of a job
list (families, suites, sizes), the denominators, nor the CLI ``--seed`` of
each place in the list, so the work per run stays comparable across seeds.
No two jobs share an operator.

This module uses only the standard library; it does not import bvcheck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

WORKLOADS = ("sampled-suites", "refute", "cohomology-window")

# Known outcome classes of one job, from its exit code.
PASS, FAIL, DOMAIN = "pass", "fail", "domain-error"
EXIT_VERDICT = {0: PASS, 3: PASS, 1: FAIL, 2: DOMAIN}


@dataclass
class Job:
    name: str
    spec: str
    cli_seed: int
    expected: str  # PASS, FAIL or DOMAIN
    command: str = "check"  # or "cohomology"
    # A wrong outcome the program is documented to give today (ROADMAP
    # item 3, the Gerstenhaber truncation).  It still counts as a wrong
    # verdict; it only does not mark the run incorrect.
    known_defect: str | None = None
    window: int | None = None
    expected_dims: dict[int, int] | None = None

    def argv(self, spec_path: str) -> list[str]:
        argv = [self.command, "--spec", spec_path, "--seed", str(self.cli_seed),
                "--format", "json"]
        if self.window is not None:
            argv += ["--window", str(self.window)]
        return argv


# Exact arithmetic costs more with larger denominators, so random
# denominators would make one seed's run slower than another's.  The k-th
# coefficient drawn for a job list always has denominator DENOMINATORS[k % 9];
# the seed draws its sign and a numerator coprime to it.
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9)


def _spec(names, degrees, operators: dict[str, list], suite: str | None) -> str:
    """Spec text; ``operators`` maps a name to (coeff, mult, deriv) terms."""
    lines = ["GENERATORS"]
    lines += [f"{n} {d}" for n, d in zip(names, degrees)]
    for op_name, terms in operators.items():
        lines += ["", f"OPERATOR {op_name}"]
        for c, mult, deriv in terms:
            lines.append(
                f"{c} | {' '.join(map(str, mult))} | {' '.join(map(str, deriv))}"
            )
    if suite:
        lines += ["", f"SUITE {suite}"]
    return "\n".join(lines) + "\n"


def _unit(size: int, *positions: int) -> list[int]:
    v = [0] * size
    for p in positions:
        v[p] += 1
    return v


def _laplacian_terms(n: int, coeffs) -> list:
    """sum_i c_i d/dx_i d/dxi_i on the table x_1..x_n, xi_1..xi_n."""
    return [(c, [0] * 2 * n, _unit(2 * n, i, n + i)) for i, c in enumerate(coeffs)]


def _polyvector_table(n: int):
    names = [f"x{i + 1}" for i in range(n)] + [f"xi{i + 1}" for i in range(n)]
    return names, [0] * n + [1] * n


class _Builder:
    """Draws coefficients and numbers the jobs, keeping operators distinct."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.slot = 0
        self.seen: set[str] = set()
        self.jobs: list[Job] = []

    def coef(self) -> Fraction:
        q = DENOMINATORS[self.slot % len(DENOMINATORS)]
        self.slot += 1
        p = self.rng.choice([p for p in range(1, 10) if gcd(p, q) == 1])
        return Fraction(self.rng.choice((-1, 1)) * p, q)

    def add(self, name, make_spec, expected, **kw):
        # make_spec draws fresh coefficients on each call; redraw on the
        # (rare) repeat so that no two jobs share an operator.
        first_slot = self.slot
        while True:
            self.slot = first_slot
            spec = make_spec(self.coef)
            body = spec.split("\nSUITE")[0]
            if body not in self.seen:
                break
        self.seen.add(body)
        # The CLI seed picks the tuples a budgeted check samples, and so how
        # soon a refutation meets its witness.  It depends on the job's place
        # in the list only, so every workload seed samples alike and the work
        # per run stays comparable; the workload seed varies the operators.
        k = len(self.jobs)
        self.jobs.append(Job(name=f"{k:03d} {name}", spec=spec, cli_seed=1000 + k,
                             expected=expected, **kw))


# --------------------------------------------------------------------------
# sampled-suites: square-zero operators through the budgeted suites
# --------------------------------------------------------------------------

SAMPLED_REPS = 2
# The brackets suite compares the two bracket routes up to one past the
# operator's order: arity 3 (its default) for order 2, arity 4 for order 3.
ALL_SUITES = ("bv-core", "brackets", "linfty", "derivation", "gerstenhaber")
ORDER3_SUITES = ("bv-core", "brackets arity=4", "linfty", "gerstenhaber")


def _polyvector_laplacian(n: int, suite: str):
    names, degrees = _polyvector_table(n)

    def make(coef):
        coeffs = [coef() for _ in range(n)]
        return _spec(names, degrees, {"D": _laplacian_terms(n, coeffs)}, suite)

    return make


def _mixed_order(suite: str):
    names = ["xi1", "xi2", "u", "eta1", "eta2", "eta3"]
    degrees = [-1, -1, 2, 1, 1, 1]
    derivs = [_unit(6, 0), _unit(6, 1, 2), _unit(6, 3, 4, 5)]

    def make(coef):
        terms = [(coef(), [0] * 6, dv) for dv in derivs]
        return _spec(names, degrees, {"D": terms}, suite)

    return make


def _exterior_cube(suite: str):
    def make(coef):
        terms = [(coef(), [0, 0, 0], [1, 1, 1])]
        return _spec(["xi1", "xi2", "xi3"], [1, 1, 1], {"D": terms}, suite)

    return make


def _sampled_suites(b: _Builder) -> None:
    for _ in range(SAMPLED_REPS):
        for n in (2, 3):
            for suite in ALL_SUITES:
                b.add(f"laplacian{n} {suite}", _polyvector_laplacian(n, suite), PASS)
        for suite in ORDER3_SUITES:
            order3 = suite == "gerstenhaber"
            b.add(f"mixed-order {suite}", _mixed_order(suite),
                  FAIL if order3 else PASS, known_defect=PASS if order3 else None)
            b.add(f"exterior-cube {suite}", _exterior_cube(suite),
                  FAIL if order3 else PASS)


# --------------------------------------------------------------------------
# refute: perturbations with hand-derived failures
# --------------------------------------------------------------------------

REFUTE_REPS = 24
# (suite line, expected) for D = Laplacian + c*xi_i: D^2 = c*c_i*d/dx_i != 0
NOT_SQUARE_ZERO = (("bv-core", FAIL), ("split", DOMAIN), ("derivation", DOMAIN),
                   ("linfty", FAIL))
# for D = Laplacian + c*d/dx_i d/dx_j d/dxi_k: square zero, order 3
ORDER3_PERTURBED = (("bv-core order=2", FAIL), ("split", FAIL),
                    ("gerstenhaber", FAIL))
# linfty and gerstenhaber jobs take 0.3-1 s; the other suites stop at the
# first witness within milliseconds.  Only the first two repetitions (n = 2
# and n = 3) carry the long suites, so most jobs, and the median job, are
# short refutations.
LONG_SUITES, LONG_REPS = ("linfty", "gerstenhaber"), 2


def _laplacian_plus(n: int, suite: str, extra):
    """Laplacian with random coefficients plus one term c*mult*d^deriv."""
    names, degrees = _polyvector_table(n)
    mult, deriv = extra

    def make(coef):
        terms = _laplacian_terms(n, [coef() for _ in range(n)])
        terms.append((coef(), mult, deriv))
        return _spec(names, degrees, {"D": terms}, suite)

    return make


def _refute(b: _Builder) -> None:
    for rep in range(REFUTE_REPS):
        n = 2 + rep % 2
        # indices cycle with the repetition, so every seed gets the same mix
        i = (rep // 2) % n
        xi_i = (_unit(2 * n, n + i), [0] * 2 * n)
        for suite, expected in NOT_SQUARE_ZERO:
            if suite in LONG_SUITES and rep >= LONG_REPS:
                continue
            b.add(f"laplacian{n}+xi{i + 1} {suite}",
                  _laplacian_plus(n, suite, xi_i), expected)
        j, k = (i + rep // 4) % n, (rep // 2 + 1) % n
        dxdxdxi = ([0] * 2 * n, _unit(2 * n, i, j, n + k))
        for suite, expected in ORDER3_PERTURBED:
            if suite in LONG_SUITES and rep >= LONG_REPS:
                continue
            b.add(f"laplacian{n}+dx{i + 1}dx{j + 1}dxi{k + 1} {suite}",
                  _laplacian_plus(n, suite, dxdxdxi), expected,
                  known_defect=PASS if suite == "gerstenhaber" else None)


# --------------------------------------------------------------------------
# cohomology-window: weighted Koszul complexes
# --------------------------------------------------------------------------

# Fixed (weights, window) shapes: every 3-pair weight multiset from 1..3 at
# windows 6, 7 and 8, and the 4-pair [1,2,2,3] at window 6.  (At window 8
# that complex alone takes about 3 s, a quarter of the list.)  The seed
# permutes the pairs and draws the coefficients.
KOSZUL_SHAPES = [
    (list(ws), window)
    for ws in ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 2), (1, 2, 3),
               (1, 3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3))
    for window in (6, 7, 8)
] + [([1, 2, 2, 3], 6)]


def koszul_dims(weights, window: int) -> dict[int, int]:
    """Slice dimensions of H(d) on the window of total exponent <= window.

    H = Q[x]/(x_i^{w_i}) with basis x^a, a_i < w_i, in degree 2*sum(a); the
    window keeps those with sum(a) <= window.  So the dimension in degree 2k
    is the t^k coefficient of prod_i (1 + t + ... + t^{w_i - 1}), k <= window.
    """
    poly = [1]
    for w in weights:
        out = [0] * (len(poly) + w - 1)
        for k, c in enumerate(poly):
            for e in range(w):
                out[k + e] += c
        poly = out
    return {2 * k: c for k, c in enumerate(poly) if c and k <= window}


def _koszul(weights):
    n = len(weights)
    names, degrees = [], []
    for i, w in enumerate(weights):
        names += [f"x{i + 1}", f"xi{i + 1}"]
        degrees += [2, 2 * w - 1]

    def make(coef):
        # d = sum c_i x_i^{w_i} d/dxi_i; D = d + sum e_i d/dx_i d/dxi_i
        d, D = [], []
        for i, w in enumerate(weights):
            mult = [0] * 2 * n
            mult[2 * i] = w
            term = (coef(), mult, _unit(2 * n, 2 * i + 1))
            d.append(term)
            D += [term, (coef(), [0] * 2 * n, _unit(2 * n, 2 * i, 2 * i + 1))]
        return _spec(names, degrees, {"d": d, "D": D}, None)

    return make


def _cohomology_window(b: _Builder) -> None:
    for weights, window in KOSZUL_SHAPES:
        weights = list(weights)
        b.rng.shuffle(weights)
        label = ",".join(map(str, weights))
        b.add(f"koszul[{label}] window={window}", _koszul(weights), PASS,
              command="cohomology", window=window,
              expected_dims=koszul_dims(weights, window))


_BUILDERS = {
    "sampled-suites": _sampled_suites,
    "refute": _refute,
    "cohomology-window": _cohomology_window,
}


def generate(workload: str, seed: int) -> list[Job]:
    """The fixed job list of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    b = _Builder(workload, seed)
    _BUILDERS[workload](b)
    return b.jobs
