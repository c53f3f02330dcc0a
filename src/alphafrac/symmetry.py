"""Birational Z_2 x S_N action on periodic alpha-fraction expansions.

Generators: sigma_k (1 <= k <= N-1) swaps alpha_k and alpha_{k+1} and
transfers delta = (alpha_{k+1} - alpha_k)/b_k between neighbouring
coefficients; epspi reverses the shift order and flips to the conjugate
expansion.  Both are involutions.  The generic orbit has 2 * N! elements;
in the pure case the group breaks down to S_{N-1} (sigma_1 .. sigma_{N-2}).
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import NotPure, ZeroPivot
from .expansion import AlphaSequence, Expansion, expansion_to_triple
from .polyring import as_sequence


def _permuted(seq: tuple, k) -> tuple:
    """The shift order after sigma_k (k None: after epspi).

    sigma_k swaps entries k and k+1 (1-based), epspi reverses.  The
    generators apply it to the alphas and orbit to their ranks.
    """
    if k is None:
        return seq[::-1]
    return seq[:k - 1] + (seq[k], seq[k - 1]) + seq[k + 1:]


def _pivot(e: Expansion, k: int):
    """b_k, the divisor of sigma_k; ZeroPivot if it is 0."""
    pivot = e.block[k - 1]
    if pivot == 0:
        raise ZeroPivot("sigma_%d undefined: b_%d = 0" % (k, k))
    return pivot


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
    n = e.n
    if not 1 <= k <= n - 1:
        raise ValueError("sigma index must satisfy 1 <= k <= N-1")
    alphas = e.alpha.alphas
    delta = (alphas[k] - alphas[k - 1]) / _pivot(e, k)
    b0, block = e.b0, list(e.block)
    if k == 1:
        b0 += delta
        block[-1] += delta
    else:
        block[k - 2] += delta
    if k <= n - 2:
        block[k] -= delta
    else:
        block[-1] -= delta
    # Images of a validated expansion: Fractions throughout, and the
    # shifts are a permutation of distinct ones, so nothing is re-checked.
    return Expansion._from_checked(
        b0, tuple(block), AlphaSequence._from_checked(_permuted(alphas, k)))


def apply_eps_pi(e: Expansion) -> Expansion:
    """Apply the involution epspi: conjugate expansion over the reversed shifts.

    b~_j = -b_{N-j} for 1 <= j <= N-1, b~_0 = b_0 - b_N, b~_N = -b_N.
    """
    b_last = e.block[-1]
    block = tuple(-b for b in e.block[-2::-1]) + (-b_last,)
    return Expansion._from_checked(
        e.b0 - b_last, block,
        AlphaSequence._from_checked(_permuted(e.alpha.alphas, None)))


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

    Each image is keyed by (order, branch) and built only if the key is
    new: order is the ranks of its shifts, branch the parity of its epspi
    steps, kept at 0 when the half-trace is 0 as both branches then
    coincide.  The key determines the element because the alpha-fraction
    of a fixed phi over a fixed shift order is unique.
    """
    if not isinstance(pure, bool):
        raise TypeError("pure must be a bool, got %.40r" % (pure,))
    if pure and not e.is_pure:
        raise NotPure("pure orbit requested for a non-pure expansion")
    max_k = e.n - 2 if pure else e.n - 1
    # sigma_1 .. sigma_max_k, then epspi as in parse_word; only a sigma
    # divides, so only a sigma edge can be skipped.
    generators = list(range(1, max_k + 1)) + ([] if pure else [None])
    flip = 0 if pure or expansion_to_triple(e)[1].is_zero() else 1
    rank = {a: i for i, a in enumerate(sorted(e.alpha.alphas))}
    start = (tuple(rank[a] for a in e.alpha.alphas), 0)
    seen = {start: e}
    frontier = [start]
    skipped = []
    while frontier:
        nxt = []
        for order, branch in frontier:
            cur = seen[order, branch]
            for k in generators:
                if k is not None:
                    try:
                        _pivot(cur, k)
                    except ZeroPivot as exc:
                        skipped.append(
                            SkippedEdge(cur, "sigma:%d" % k, str(exc)))
                        continue
                key = (_permuted(order, k),
                       branch if k is not None else branch ^ flip)
                if key not in seen:
                    seen[key] = (apply_eps_pi(cur) if k is None
                                 else apply_sigma(cur, k))
                    nxt.append(key)
        frontier = nxt
    ordered = sorted(seen.items(), key=lambda kv: (kv[0][0], kv[1].b0,
                                                   kv[1].block))
    return OrbitResult(tuple(img for _, img in ordered), not skipped,
                       tuple(skipped))
