"""The four workloads: seeded inputs, the operation, and its correctness check.

Each workload's ``make_round(rng, tiny)`` yields the inputs of one round, of a
fixed make-up in seeded order, so every run attempts whole rounds of the
same kinds of operation; the seed only changes the numbers and the order.
Inputs are drawn one at a time as the round proceeds, so set-up time covers
the first input only.  ``run(op)`` calls alphafrac (or its CLI)
and ``check(op, out)`` returns None when the output is right, or a pair
(status, reason) with status "failed" (no answer, e.g. a traceback) or
"wrong" (an answer that the independent computation in ``oracle`` refutes).
The sizes in each round are chosen so that the median and the 90th
percentile of the operation times fall inside one size class, not on the
boundary between two, where they would jump with the seed.
"""

import json
import math
import os
import subprocess
import sys
import time
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

# alphafrac is imported by the worker once sys.path points at the checkout.
af = None


def bind(module):
    global af
    af = module


def rat(rng, height, den):
    """A nonzero rational p/q with |p| <= height and 1 <= q <= den."""
    while True:
        p = rng.randint(-height, height)
        if p:
            return Fraction(p, rng.randint(1, den))


def narrow_rat(rng, nums, dens):
    """+-p/q with p from ``nums`` and q from ``dens``: inputs of one size class
    then cost about the same, which keeps per-run percentiles steady."""
    return Fraction(rng.choice((-1, 1)) * rng.choice(nums), rng.choice(dens))


def shuffled(rng, classes):
    """The (kind..., count) classes of a round as one seeded-order list."""
    specs = [c[:-1] for c in classes for _ in range(c[-1])]
    rng.shuffle(specs)
    return specs


def shifts(rng, n, spread):
    return tuple(Fraction(a) for a in rng.sample(range(-spread, spread + 1), n))


def keyed(b0, block, alpha):
    return (tuple(alpha), Fraction(b0), tuple(block))


def key_of(e):
    return (tuple(e.alpha.alphas), e.b0, tuple(e.block))


def triple_coeffs(t):
    return tuple(oracle.coeffs(p) for p in (t.A, t.B, t.C))


# -- expand_roundtrip ---------------------------------------------------------

class ExpandRoundtrip:
    """Triple -> both expansions -> verification, N from 5 to 61."""

    name = "expand_roundtrip"
    ref = "mixed"           # partly big-integer arithmetic; see worker.py
    # (N, pure, count) per round, 26 inputs.  Sorted by cost, the first nine
    # are cheap, the nine generic N = 17 ones hold the median and the four
    # generic N = 37 ones the 90th percentile; the N = 61 one and the N = 37
    # ones carry most of the time, hence of ops_per_s.
    ROUND = ((5, True, 2), (5, False, 2), (9, True, 2), (9, False, 2),
             (13, True, 1), (17, False, 9), (29, True, 1), (29, False, 2),
             (37, False, 4), (61, False, 1))
    TINY = ((3, True, 2), (3, False, 2), (5, True, 2), (5, False, 2))

    def make_round(self, rng, tiny=False):
        for n, pure in shuffled(rng, self.TINY if tiny else self.ROUND):
            yield self._draw(rng, n, pure)

    def _draw(self, rng, n, pure):
        while True:
            alpha = shifts(rng, n, 2 * n)
            # b_i = +-5/2, 5/3, 7/2 or 7/3: the coefficient bit sizes of the
            # triple then vary by about 2 % between draws of one N, against
            # 4-5 % for p in 5..9 over 2..4, and so does the cost.
            b = [narrow_rat(rng, (5, 7), (2, 3)) for _ in range(n + 1)]
            if pure:
                b[-1] = b[0]
            A, B, C, T = oracle.triple_of(b[0], b[1:], alpha)
            # Redraw the codimension-1 inputs the library reports instead
            # of expanding: B(alpha_N) = 0 (pure) or no conjugate (generic).
            # With these b_i no draw hit them in 1000 at N = 5 and 7 nor in
            # 100-600 at N = 9 to 29 (with b_i in +-1..9 over 1..4, 3 % did
            # at N = 3); the conjugate test is skipped above N = 17, where
            # it is slow.
            if pure and oracle.peval(B, alpha[-1]) != 0:
                break
            if not pure and (n > 17 or oracle.conjugate_exists(A, B, C, T, alpha)):
                break
        return {"pure": pure, "b0": b[0], "block": tuple(b[1:]),
                "alpha": alpha, "triple": (A, B, C), "T": T}

    def label(self, op):
        return "N%d%s" % (len(op["alpha"]), " pure" if op["pure"] else "")

    def run(self, op):
        e = af.Expansion(op["b0"], op["block"], af.AlphaSequence(op["alpha"]))
        t, T = af.expansion_to_triple(e)
        if op["pure"]:
            got = (af.pure_expand(t, e.alpha),)
        else:
            got = af.expand(t, e.alpha)
        reports = [af.verify_expansion(x, t) for x in got]
        return t, T, got, reports

    def check(self, op, out):
        t, T, got, reports = out
        if triple_coeffs(t) != op["triple"] or oracle.coeffs(T) != op["T"]:
            return "wrong", "expansion_to_triple disagrees with the recurrence"
        if len(got) != (1 if op["pure"] else 2):
            return "wrong", "expected %d expansions, got %d" % (
                1 if op["pure"] else 2, len(got))
        for x in got:
            if tuple(x.alpha.alphas) != op["alpha"]:
                return "wrong", "expansion over another shift order"
            if oracle.triple_of(x.b0, x.block, x.alpha.alphas)[:3] != op["triple"]:
                return "wrong", "a returned expansion has another triple"
        if keyed(op["b0"], op["block"], op["alpha"]) not in map(key_of, got):
            return "wrong", "the input expansion is not among the results"
        if not all(r.get("pass") is True for r in reports):
            return "wrong", "verify_expansion did not pass"
        return None

    def corruptions(self, op, out):
        t, T, got, reports = out
        x = got[0]
        bad = af.Expansion(x.b0 + 1, x.block, x.alpha)
        yield "expansion with b0 + 1", (t, T, (bad,) + tuple(got[1:]), reports)
        yield "failed verification", (t, T, got, [{"pass": False}] * len(got))
        other = af.AlphaTriple(t.A, t.B + af.Polynomial([1]), t.C)
        yield "triple with B + 1", (other, T, got, reports)


# -- orbit_closure ------------------------------------------------------------

class OrbitClosure:
    """Full orbits at N = 5 and 7 and pure orbits at N = 7, interleaved."""

    name = "orbit_closure"
    ref = "fraction"
    # (N, pure, count): the median falls in the N = 5 class, the 90th
    # percentile in the pure N = 7 class; the one full N = 7 orbit (10080
    # expansions) sets the peak memory.
    ROUND = ((5, False, 60), (7, True, 15), (7, False, 1))
    TINY = ((3, False, 3), (3, True, 2), (5, True, 1))
    SAMPLE = 4          # orbit elements whose triple is recomputed

    def make_round(self, rng, tiny=False):
        for n, pure in shuffled(rng, self.TINY if tiny else self.ROUND):
            yield orbit_input(rng, n, pure)

    label = ExpandRoundtrip.label

    def run(self, op):
        e = af.Expansion(op["b0"], op["block"], af.AlphaSequence(op["alpha"]))
        return af.orbit(e, pure=op["pure"])

    def check(self, op, out):
        elems = [(tuple(x.alpha.alphas), x.b0, tuple(x.block))
                 for x in out.expansions]
        skipped = [(key_of(s.source), s.generator) for s in out.skipped_edges]
        return check_orbit(op, elems, out.complete, skipped)

    def corruptions(self, op, out):
        xs = out.expansions
        yield "one element dropped", out._replace(expansions=xs[:-1])
        yield "two elements swapped", out._replace(
            expansions=(xs[1], xs[0]) + xs[2:])
        x = xs[0]
        yield "element with b0 + 1", out._replace(
            expansions=(af.Expansion(x.b0 + 1, x.block, x.alpha),) + xs[1:])
        yield "skipped edge without a zero pivot", out._replace(
            complete=False,
            skipped_edges=(af.symmetry.SkippedEdge(x, "sigma:1", ""),))


def orbit_input(rng, n, pure):
    alpha = shifts(rng, n, 10)
    b = [narrow_rat(rng, range(10, 31), range(2, 7)) for _ in range(n + 1)]
    if pure:
        b[-1] = b[0]
    return {"pure": pure, "b0": b[0], "block": tuple(b[1:]), "alpha": alpha,
            "triple": oracle.triple_of(b[0], b[1:], alpha)[:3],
            "sample": rng.random()}


def check_orbit(op, elems, complete, skipped):
    """Orbit properties from the group alone, plus a seeded triple sample.

    ``elems`` are (alpha order, b0, block) tuples; ``skipped`` are
    (source key, generator) pairs.
    """
    n, alpha = len(op["alpha"]), tuple(op["alpha"])
    if op["pure"]:
        size, per_order = math.factorial(n - 1), 1
    else:
        size, per_order = 2 * math.factorial(n), 2
    if any(a >= b for a, b in zip(elems, elems[1:])):
        return "wrong", "orbit not strictly increasing in canonical order"
    orders = Counter(x[0] for x in elems)
    for order, count in orders.items():
        if sorted(order) != sorted(alpha) or count > per_order or (
                op["pure"] and order[-1] != alpha[-1]):
            return "wrong", "alpha order %s is not a group image" % (order,)
    if complete and (len(elems) != size or skipped):
        return "wrong", "complete orbit with %d elements, %d expected" % (
            len(elems), size)
    if not complete and not skipped:
        return "wrong", "incomplete orbit without skipped edges"
    start = keyed(op["b0"], op["block"], alpha)
    i = bisect_left(elems, start)
    if i == len(elems) or elems[i] != start:
        return "wrong", "the input expansion is not in its orbit"
    for source, gen in skipped:
        k = int(gen.split(":")[1]) if gen.startswith("sigma:") else 0
        if not 1 <= k < n or source[2][k - 1] != 0:
            return "wrong", "skipped edge %s without a zero pivot" % gen
    step = max(1, len(elems) // OrbitClosure.SAMPLE)
    first = int(op["sample"] * step)
    for a, b0, block in elems[first::step]:
        if oracle.triple_of(b0, block, a)[:3] != op["triple"]:
            return "wrong", "orbit element with another triple"
    return None


# -- jacobi_roundtrip ---------------------------------------------------------

class JacobiRoundtrip:
    """Divisor <-> Jacobi triple <-> alpha-triple, genus 2 to 5."""

    name = "jacobi_roundtrip"
    ref = "fraction"
    # (genus, alpha_N a root of U, count): the median falls in the genus-4
    # class, the 90th percentile in the genus-5 class.
    ROUND = ((2, True, 2), (2, False, 1), (3, True, 1), (3, False, 2),
             (4, True, 3), (4, False, 3), (5, True, 2), (5, False, 2))
    TINY = ((1, True, 1), (1, False, 1), (2, True, 1), (2, False, 1))
    # Abscissae +-p/2 with p a prime in [150, 250].  The root search in
    # divisor_from_jacobi costs about sqrt(|U(0)|) steps plus the candidates
    # tried: distinct primes from a narrow band keep both nearly fixed per
    # genus (cost CV about 0.15 at genus 5, against 0.3 for primes in
    # [100, 250]), while the cost still grows exponentially with the genus.
    PRIMES = tuple(p for p in range(150, 251) if all(p % d for d in range(2, 16)))

    def make_round(self, rng, tiny=False):
        for g, at_root in shuffled(rng, self.TINY if tiny else self.ROUND):
            yield self._draw(rng, g, at_root)

    def _draw(self, rng, g, at_root):
        lams = sorted(Fraction(rng.choice((-p, p)), 2)
                      for p in rng.sample(self.PRIMES, g))
        while True:
            V = oracle.norm(rat(rng, 9, 4) for _ in range(g))
            # alpha_N is a root of U, or a root of W so that R(alpha_N) is
            # a square: both give rational shifts beta (pure_beta_candidates).
            a = lams[0] if at_root else rat(rng, 50, 5)
            W = oracle.pmul((-a, Fraction(1)),
                            tuple(rat(rng, 9, 4) for _ in range(g)) + (1,))
            if at_root:
                W = oracle.padd(W, (rat(rng, 9, 4),))
            U, R, points = oracle.jacobi_of_divisor(lams, V, W)
            if oracle.peval(R, a) != 0:
                break
        beta = rat(rng, 9, 4)
        return {"lams": lams, "U": U, "V": V, "W": W, "R": R,
                "points": points, "beta": beta, "alpha_n": a,
                "triple": oracle.alpha_triple(U, V, W, beta),
                "betas": oracle.pure_betas(U, V, W, a)}

    def label(self, op):
        return "g%d" % len(op["lams"])

    def run(self, op):
        R = af.Polynomial(op["R"])
        j = af.jacobi_from_divisor(op["points"], R)
        points = af.divisor_from_jacobi(j)
        t = af.alpha_triple_from_jacobi(j, op["beta"])
        j2, beta2 = af.jacobi_from_alpha_triple(t)
        betas = af.pure_beta_candidates(j, op["alpha_n"])
        return j, points, t, j2, beta2, betas

    def check(self, op, out):
        j, points, t, j2, beta2, betas = out
        want = (op["U"], op["V"], op["W"], op["R"])
        if tuple(oracle.coeffs(p) for p in (j.U, j.V, j.W, j.R)) != want:
            return "wrong", "jacobi_from_divisor: U, V, W differ"
        if tuple((p[0], p[1]) for p in points) != op["points"]:
            return "wrong", "divisor_from_jacobi: points differ"
        if triple_coeffs(t) != op["triple"]:
            return "wrong", "alpha_triple_from_jacobi: A, B, C differ"
        if tuple(oracle.coeffs(p) for p in (j2.U, j2.V, j2.W, j2.R)) != want \
                or beta2 != op["beta"]:
            return "wrong", "jacobi_from_alpha_triple does not invert"
        if len(betas) != len(op["betas"]) or set(betas) != op["betas"]:
            return "wrong", "pure_beta_candidates: shifts differ"
        return None

    def corruptions(self, op, out):
        j, points, t, j2, beta2, betas = out
        p0 = points[0]
        moved = (af.jacobi.CurvePoint(p0.lam, p0.mu + 1),) + tuple(points[1:])
        yield "point with mu + 1", (j, moved, t, j2, beta2, betas)
        yield "beta + 1", (j, points, t, j2, beta2 + 1, betas)
        yield "extra shift", (j, points, t, j2, beta2, list(betas) + [beta2])


# -- cli_mix ------------------------------------------------------------------

SECT4_TRIPLE = {"A": ["-6", "1"], "B": ["7/2", "-3/2"], "C": ["-2", "4", "-1"]}
SECT4_ALPHA = ["1", "3", "4"]
SECT4_EXPANSION = {"b0": "1", "block": ["-3", "1", "3"], "alpha": SECT4_ALPHA}
# Inputs of the error requests do not depend on the seed.
ERROR_REQUESTS = (
    ("malformed-json", ["triple"], '{"b0": ', ("error", 2, "MalformedInput")),
    ("missing-key", ["expand"], SECT4_TRIPLE, ("error", 2, "MalformedInput")),
    ("zero-pivot", ["act", "--word", '["sigma:1"]'],
     dict(SECT4_EXPANSION, block=["0", "1", "3"]), ("error", 1, "ZeroPivot")),
    ("not-admissible", ["expand"],
     dict(SECT4_TRIPLE, C=["-1", "4", "-1"], alpha=SECT4_ALPHA),
     ("error", 1, "NotAdmissible")),
    ("unknown-example", ["example", "--name", "sect5"], None,
     ("error", 1, "UnknownExample")),
    # Known faults: each of these ends in a Python traceback today.
    ("zero-denominator", ["triple"], dict(SECT4_EXPANSION, b0="1/0"),
     ("typed", None)),
    ("huge-lambda", ["residual", "--lambda", "1e400"], SECT4_TRIPLE,
     ("typed", None)),
    ("missing-output-dir",
     ["expand", "--output", os.path.join("bench", "out", "no-such-dir", "r.json")],
     dict(SECT4_TRIPLE, alpha=SECT4_ALPHA), ("typed", None)),
)


def fs(x):
    return str(Fraction(x))


def poly_json(p):
    return [fs(c) for c in p]


def exp_json(b0, block, alpha):
    return {"b0": fs(b0), "block": [fs(b) for b in block],
            "alpha": [fs(a) for a in alpha]}


def parse_poly(data):
    return oracle.norm(Fraction(c) for c in data)


def parse_exp(data):
    return (tuple(Fraction(a) for a in data["alpha"]), Fraction(data["b0"]),
            tuple(Fraction(b) for b in data["block"]))


class CliMix:
    """One alphafrac child process at a time over a fixed mix of requests.

    Each request is (label, argv, stdin payload, expectation).  The
    expectation is ("ok", checker) for a success, ("error", exit code,
    error code) for a documented typed error, or ("typed", None) for a
    request that must give exit 1 or 2 with an error record; the three
    "typed" requests end in a Python traceback today.
    """

    name = "cli_mix"
    ref = "interpreter"

    def __init__(self):
        # The traced run swaps in bench/clitrace.py.
        self.command = [sys.executable, "-m", "alphafrac.cli"]

    def make_round(self, rng, tiny=False):
        ex = ExpandRoundtrip()._draw(rng, 5, pure=False)
        e = exp_json(ex["b0"], ex["block"], ex["alpha"])
        A, B, C = ex["triple"]
        triple = {"A": poly_json(A), "B": poly_json(B), "C": poly_json(C)}
        orbits = [orbit_input(rng, n, False) for n in (3, 5, 5, 5, 5)]
        jac = JacobiRoundtrip()._draw(rng, rng.choice((2, 3)), at_root=False)
        jac_json = {"U": poly_json(jac["U"]), "V": poly_json(jac["V"]),
                    "W": poly_json(jac["W"]), "R": poly_json(jac["R"])}
        divisor = {"points": [{"lambda": fs(l), "mu": fs(m)}
                              for l, m in jac["points"]],
                   "R": jac_json["R"]}
        word = ["sigma:1", "epspi"]
        acted = list(ex["alpha"])
        acted[0], acted[1] = acted[1], acted[0]
        return [
            ("expand", ["expand"], dict(triple, alpha=e["alpha"]),
             ("ok", lambda out: self._check_expand(ex, out))),
            ("triple", ["triple"], e,
             ("ok", lambda out: self._check_triple(ex, out))),
            ("verify", ["verify"], {"expansion": e, "triple": triple},
             ("ok", self._check_verify)),
            ("act", ["act", "--word", json.dumps(word)], e,
             ("ok", lambda out: self._check_act(ex, acted[::-1], out))),
            ("divisor-to-jacobi", ["divisor-to-jacobi"], divisor,
             ("ok", lambda out: self._check_jacobi(jac, out))),
            ("jacobi-to-divisor", ["jacobi-to-divisor"], jac_json,
             ("ok", lambda out: self._check_divisor(jac, out))),
            ("pure-beta", ["pure-beta"], dict(jac_json, alpha_n=fs(jac["alpha_n"])),
             ("ok", lambda out: self._check_betas(jac, out))),
            ("example", ["example", "--name", "sect4"], None,
             ("ok", self._check_sect4)),
        ] + [
            # Four orbits at N = 5, the slowest request, so that the 90th
            # percentile falls inside their group rather than at its edge.
            ("orbit%d" % len(o["alpha"]), ["orbit"],
             exp_json(o["b0"], o["block"], o["alpha"]),
             ("ok", lambda out, o=o: self._check_orbit(o, out)))
            for o in orbits
        ] + list(ERROR_REQUESTS)

    def label(self, op):
        return op[0]

    def run(self, op):
        label, argv, payload, _ = op
        text = payload if isinstance(payload, str) or payload is None \
            else json.dumps(payload)
        env = dict(os.environ, BENCH_SPAWN_NS=str(time.perf_counter_ns()))
        proc = subprocess.run(self.command + argv, input=(text or "").encode(),
                              capture_output=True, cwd=ROOT, env=env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, out):
        label, _, _, expect = op
        code, stdout, stderr = out
        if expect[0] == "ok":
            if code != 0:
                return "failed", "%s: exit %d" % (label, code)
            try:
                return expect[1](json.loads(stdout))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return "wrong", "%s: unreadable output (%s)" % (label, exc)
        record = error_record(stderr)
        if record is None or code not in (1, 2):
            return "failed", "%s: exit %d without an error record" % (label, code)
        if expect[0] == "error" and (code, record["error"]) != expect[1:]:
            return "wrong", "%s: exit %d %s, expected exit %d %s" % (
                label, code, record["error"], expect[1], expect[2])
        return None

    def corruptions(self, op, out):
        code, stdout, stderr = out
        if op[3][0] == "ok":
            data = json.loads(stdout)
            yield "exit 1", (1, stdout, stderr)
            yield "altered output", (0, _alter(data), stderr)
        else:
            yield "traceback", (code, b"", b"Traceback (most recent call last):\n")
            yield "other exit code", (3 - code if code in (1, 2) else 1, stdout, stderr)

    # -- checkers of decoded CLI output --

    def _check_expand(self, ex, out):
        keys = [parse_exp(x) for x in out]
        if len(keys) != 2:
            return "wrong", "expand: %d expansions" % len(keys)
        for alpha, b0, block in keys:
            if oracle.triple_of(b0, block, alpha)[:3] != ex["triple"] or \
                    alpha != ex["alpha"]:
                return "wrong", "expand: an expansion with another triple"
        if keyed(ex["b0"], ex["block"], ex["alpha"]) not in keys:
            return "wrong", "expand: the input expansion is missing"
        return None

    def _check_triple(self, ex, out):
        got = tuple(parse_poly(out[k]) for k in "ABC")
        if got != ex["triple"] or parse_poly(out["T"]) != ex["T"] or \
                tuple(Fraction(a) for a in out["alpha"]) != ex["alpha"]:
            return "wrong", "triple: differs from the recurrence"
        return None

    def _check_verify(self, out):
        if out["pass"] is not True or not all(c["pass"] for c in out["checks"]):
            return "wrong", "verify: did not pass"
        return None

    def _check_orbit(self, op, out):
        elems = [parse_exp(x) for x in out["expansions"]]
        skipped = [(parse_exp(s["expansion"]), s["generator"])
                   for s in out["skipped_edges"]]
        return check_orbit(op, elems, out["complete"], skipped)

    def _check_act(self, ex, alpha, out):
        a, b0, block = parse_exp(out)
        if list(a) != alpha or \
                oracle.triple_of(b0, block, a)[:3] != ex["triple"]:
            return "wrong", "act: image has another shift order or triple"
        return None

    def _check_jacobi(self, jac, out):
        got = tuple(parse_poly(out[k]) for k in "UVWR")
        if got != (jac["U"], jac["V"], jac["W"], jac["R"]):
            return "wrong", "divisor-to-jacobi: U, V, W differ"
        return None

    def _check_divisor(self, jac, out):
        got = tuple((Fraction(p["lambda"]), Fraction(p["mu"]))
                    for p in out["points"])
        if got != jac["points"] or parse_poly(out["R"]) != jac["R"]:
            return "wrong", "jacobi-to-divisor: points differ"
        return None

    def _check_betas(self, jac, out):
        got = [Fraction(b) for b in out["betas"]]
        if len(got) != len(jac["betas"]) or set(got) != jac["betas"]:
            return "wrong", "pure-beta: shifts differ"
        return None

    def _check_sect4(self, out):
        A, B, C = (parse_poly(out["triple"][k]) for k in "ABC")
        alpha = tuple(Fraction(a) for a in out["alpha"])
        op = {"pure": False, "alpha": alpha, "triple": (A, B, C),
              "b0": None, "block": None, "sample": 0.0}
        if out["name"] != "sect4" or (A, B, C) != tuple(
                parse_poly(SECT4_TRIPLE[k]) for k in "ABC"):
            return "wrong", "example: not the sect4 triple"
        elems = [parse_exp(x) for x in out["expansions"]]
        op["b0"], op["block"] = elems[0][1], elems[0][2]
        if any(oracle.triple_of(b0, block, a)[:3] != (A, B, C)
               for a, b0, block in elems):
            return "wrong", "example: an expansion with another triple"
        return check_orbit(op, elems, True, [])


def error_record(stderr):
    """The {"error", "detail"} record on stderr, or None."""
    try:
        record = json.loads(stderr)
    except ValueError:
        return None
    if not isinstance(record, dict) or not {"error", "detail"} <= set(record):
        return None
    return record


def _alter(data):
    """A copy of decoded CLI output with its first rational string changed."""
    text = json.dumps(data)
    for i, ch in enumerate(text):
        if ch == '"' and i + 1 < len(text) and (text[i + 1].isdigit() or text[i + 1] == "-"):
            j = text.index('"', i + 1)
            value = Fraction(text[i + 1:j]) + 1
            return (text[:i + 1] + str(value) + text[j:]).encode()
    raise ValueError("no rational to alter")


WORKLOADS = {w.name: w for w in (ExpandRoundtrip(), OrbitClosure(),
                                 JacobiRoundtrip(), CliMix())}
