"""Birational Z_2 x S_N action on periodic alpha-fraction expansions.

Generators: sigma_k (1 <= k <= N-1) swaps alpha_k and alpha_{k+1} and
transfers delta = (alpha_{k+1} - alpha_k)/b_k between neighbouring
coefficients; epspi reverses the shift order and flips to the conjugate
expansion.  Both are involutions.  The generic orbit has 2 * N! elements;
in the pure case the group breaks down to S_{N-1} (sigma_1 .. sigma_{N-2}).

Group images skip re-validation: apply_sigma and apply_eps_pi build them
through the unchecked AlphaSequence._from_checked and
Expansion._from_checked.  That is sound because an image comes from an
expansion the public constructors already checked: its shifts are a
permutation of pairwise distinct Fractions, so their count stays odd and
they stay distinct, and each new b_i is a sum, difference, quotient or
negation of Fractions, so nothing needs coercing.  Outside input (the CLI,
serialize, datasets and library callers) takes the validating
constructors, and tests/test_source.py keeps every other module of the
package off the unchecked ones.
"""

import re
from collections import namedtuple
from fractions import Fraction
from operator import itemgetter

from .errors import NotPure, ZeroPivot
from .expansion import AlphaSequence, Expansion, expansion_to_triple
from .polyring import as_sequence


def _zero_pivot(k: int) -> ZeroPivot:
    """The error of sigma_k at b_k = 0, where it is undefined."""
    return ZeroPivot("sigma_%d undefined: b_%d = 0" % (k, k))


def apply_sigma(e: Expansion, k: int) -> Expansion:
    """Apply sigma_k (1-based, 1 <= k <= N-1); requires b_k != 0.

    The update lives in the coordinates (b_0, ..., b_{N-1}, u = b_N - b_0):
    for k <= N-2 it touches b_{k-1} and b_{k+1}, for k = N-1 it touches
    b_{N-2} and u.  The displayed b_N is u + b_0 afterwards, so it moves
    by +delta when k = 1 (as b_0 does) and by -delta when k = N-1.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError("sigma index must be an int, not %s"
                        % type(k).__name__)
    b0, block = e.b0, list(e.block)
    n = len(block)
    if not 1 <= k <= n - 1:
        raise ValueError("sigma index must satisfy 1 <= k <= N-1")
    pivot = block[k - 1]
    if not pivot:
        raise _zero_pivot(k)
    alphas = e.alpha.alphas
    a, c = alphas[k - 1], alphas[k]
    # delta = (c - a) / pivot from the integer parts, normalized once.
    delta = Fraction(
        (c.numerator * a.denominator - a.numerator * c.denominator)
        * pivot.denominator,
        c.denominator * a.denominator * pivot.numerator)
    if k == 1:
        b0 += delta
        block[-1] += delta
    else:
        block[k - 2] += delta
    if k <= n - 2:
        block[k] -= delta
    else:
        block[-1] -= delta
    return Expansion._from_checked(
        b0, tuple(block), AlphaSequence._from_checked(
            alphas[:k - 1] + (c, a) + alphas[k + 1:]))


def apply_eps_pi(e: Expansion) -> Expansion:
    """Apply the involution epspi: conjugate expansion over the reversed shifts.

    b~_j = -b_{N-j} for 1 <= j <= N-1, b~_0 = b_0 - b_N, b~_N = -b_N.
    """
    b_last = e.block[-1]
    block = tuple(-b for b in e.block[-2::-1]) + (-b_last,)
    return Expansion._from_checked(
        e.b0 - b_last, block,
        AlphaSequence._from_checked(e.alpha.alphas[::-1]))


_SIGMA = re.compile(r"sigma:([1-9][0-9]*)")


def parse_word(letters, n: int):
    """Validate a group word given as ["sigma:1", "epspi", ...] tokens.

    A sigma letter is "sigma:" and an ASCII index without sign, space or
    leading zero.  Returns the letters as sigma indices k, None for epspi.
    A word given as one string, a dict or a set raises TypeError.
    """
    parsed = []
    for tok in as_sequence(letters):
        if tok == "epspi":
            parsed.append(None)
            continue
        m = isinstance(tok, str) and _SIGMA.fullmatch(tok)
        if not m:
            raise ValueError("unknown group-word letter %.40r" % (tok,))
        k = int(m.group(1))
        if not 1 <= k <= n - 1:
            raise ValueError("sigma index %.40s out of range for N = %d"
                             % (m.group(1), n))
        parsed.append(k)
    return parsed


def apply_word(e: Expansion, letters) -> Expansion:
    """Left-to-right composition of the generators named by the word."""
    for i, k in enumerate(parse_word(letters, e.n)):
        try:
            e = apply_eps_pi(e) if k is None else apply_sigma(e, k)
        except ZeroPivot as exc:
            raise ZeroPivot("step %d: %s" % (i, exc)) from None
    return e


SkippedEdge = namedtuple("SkippedEdge", "source generator detail")
OrbitResult = namedtuple("OrbitResult", "expansions complete skipped_edges")


def orbit(e: Expansion, pure: bool = False) -> OrbitResult:
    """Breadth-first closure of e under the group generators.

    In pure mode (requires e pure) only sigma_1 .. sigma_{N-2} act.
    Zero-pivot edges are recorded and skipped, not fatal.  Expansions come
    back in canonical order: lexicographic on (alpha order, b_0, block).

    Each image is keyed by its shift order and branch, and built only if
    the key is new.  A key is one flat tuple of N + 2 small ints: the ranks
    of the shifts, then (branch, 1 - branch).  The branch is the parity of
    the epspi steps, kept at 0 when the half-trace is 0 as both branches
    then coincide.  The key determines the element because the
    alpha-fraction of a fixed phi over a fixed shift order is unique.  Each
    generator moves keys by one operator.itemgetter, built once per call:
    sigma_k swaps ranks k and k + 1, and epspi reverses the ranks and swaps
    the branch pair.  Every image is built by apply_sigma or apply_eps_pi,
    once per new key, so an orbit of m elements makes m - 1 generator
    calls.  Ranks order like the shifts, so canonical order is the sorted
    keys, with the two branches of one shift order then put in
    (b_0, block) order.
    """
    if not isinstance(pure, bool):
        raise TypeError("pure must be a bool, got %.40r" % (pure,))
    if pure and not e.is_pure:
        raise NotPure("pure orbit requested for a non-pure expansion")
    n = e.n
    flip = not pure and bool(expansion_to_triple(e)[1])
    # Sigmas by index, then epspi, as in parse_word.  A key has N + 2 >= 3
    # entries, so every getter returns a tuple.
    places = list(range(n + 2))
    sigmas = []
    for k in range(1, n - 1 if pure else n):
        swap = places[:]
        swap[k - 1:k + 1] = k, k - 1
        sigmas.append((k, itemgetter(*swap)))
    eps_pi = None if pure else itemgetter(
        *places[n - 1::-1], *((n + 1, n) if flip else (n, n + 1)))
    rank = {a: i for i, a in enumerate(sorted(e.alpha.alphas))}
    start = tuple(rank[a] for a in e.alpha.alphas) + (0, 1)
    seen = {start: e}
    frontier = [start]
    skipped = []
    while frontier:
        nxt = []
        for key in frontier:
            cur = seen[key]
            block = cur.block
            for k, move in sigmas:
                if not block[k - 1]:  # only a sigma divides
                    skipped.append(
                        SkippedEdge(cur, "sigma:%d" % k, str(_zero_pivot(k))))
                    continue
                img = move(key)
                if img not in seen:
                    seen[img] = apply_sigma(cur, k)
                    nxt.append(img)
            if eps_pi is not None:
                img = eps_pi(key)
                if img not in seen:
                    seen[img] = apply_eps_pi(cur)
                    nxt.append(img)
        frontier = nxt
    # The two branches of one shift order sort side by side, branch 0 first.
    keys = sorted(seen)
    ordered = [seen[key] for key in keys]
    for i in range(1, len(keys)):
        if keys[i][n] and keys[i - 1][:n] == keys[i][:n]:
            a, b = ordered[i - 1], ordered[i]
            if (b.b0, b.block) < (a.b0, a.block):
                ordered[i - 1:i + 1] = b, a
    return OrbitResult(tuple(ordered), not skipped, tuple(skipped))
