"""Birational Z_2 x S_N action on periodic alpha-fraction expansions.

Generators: sigma_k (1 <= k <= N-1) swaps alpha_k and alpha_{k+1} and
transfers delta = (alpha_{k+1} - alpha_k)/b_k between neighbouring
coefficients; epspi reverses the shift order and flips to the conjugate
expansion.  Both are involutions.  The generic orbit has 2 * N! elements;
in the pure case the group breaks down to S_{N-1} (sigma_1 .. sigma_{N-2}).

Each generator's formula is written once, as a step on the reduced integer
pairs (numerator, denominator > 0) of b_0, ..., b_N: _sigma_pairs and
_eps_pi_pairs.  All three generator entry points, apply_sigma,
apply_eps_pi and apply_word, validate their arguments and run the one walk
_act, which converts the expansion to pairs once, applies each letter's
step and builds one image at the end.  orbit runs the steps on the pairs
of its whole orbit, by one breadth-first search over the numbered shift
orders of _moves and the two branches, so an orbit of m elements takes
m - 1 steps.  Group images skip re-validation: they are built through the
unchecked AlphaSequence._from_checked and Expansion._from_checked.  That
is sound because an image comes from an expansion the public constructors
already checked: its shifts are a permutation of pairwise distinct
Fractions, so their count stays odd and they stay distinct, and each new
b_i is a sum, difference, quotient or negation of rationals, reduced after
every step and made a Fraction by the public Fraction(num, den), so
nothing needs coercing.  Outside input (the CLI, serialize, datasets and
library callers) takes the validating constructors, and
tests/test_source.py keeps every other module of the package off the
unchecked ones.
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import gcd

from .errors import NotPure, ZeroPivot
from .expansion import AlphaSequence, Expansion, expansion_to_triple
from .polyring import as_sequence


def _undefined(k: int) -> str:
    """The text of sigma_k's error at b_k = 0, where it is undefined."""
    return "sigma_%d undefined: b_%d = 0" % (k, k)


def _pair(x: Fraction) -> tuple:
    return x.numerator, x.denominator


def _pairs(e: Expansion, pool: dict) -> tuple:
    """b_0, ..., b_N of e as reduced pairs, each taken from pool."""
    return tuple([pool.setdefault(p, p)
                  for p in [_pair(x) for x in (e.b0, *e.block)]])


def _plus(p: tuple, n: int, d: int, pool: dict) -> tuple:
    """p + n/d as a reduced pair from pool, for a reduced pair p and d > 0."""
    pn, pd = p
    n, d = pn * d + n * pd, pd * d
    g = gcd(n, d)
    q = n // g, d // g
    return pool.setdefault(q, q)


def _sigma_pairs(b: tuple, k: int, diff: tuple, pool: dict) -> tuple:
    """sigma_k on the pairs b of b_0, ..., b_N, for b_k != 0.

    diff is the pair of alpha_{k+1} - alpha_k, and delta = diff / b_k.  In
    the coordinates (b_0, ..., b_{N-1}, u = b_N - b_0), sigma_k adds delta
    to b_{k-1} and takes it from b_{k+1}, or from u when k = N - 1.  So
    b_{k+1} loses delta for every k, and b_N = u + b_0 gains it when k = 1.
    delta is left unreduced; each sum is reduced.
    """
    pn, pd = b[k]
    n, d = diff[0] * pd, diff[1] * pn
    if d < 0:
        n, d = -n, -d
    b = list(b)
    b[k - 1] = _plus(b[k - 1], n, d, pool)
    b[k + 1] = _plus(b[k + 1], -n, d, pool)
    if k == 1:
        b[-1] = _plus(b[-1], n, d, pool)
    return tuple(b)


class _Negated(dict):
    """A pooled pair -> its negation, taken from pool on first use."""

    def __init__(self, pool: dict):
        super().__init__()
        self.pool = pool

    def __missing__(self, p: tuple) -> tuple:
        q = -p[0], p[1]
        q = self[p] = self.pool.setdefault(q, q)
        return q


def _eps_pi_pairs(b: tuple, neg: _Negated) -> tuple:
    """epspi on the pooled pairs b of b_0, ..., b_N, negated through neg.

    b~_0 = b_0 - b_N, b~_j = -b_{N-j} for 1 <= j <= N-1, b~_N = -b_N.
    """
    t = list(map(neg.__getitem__, b[:0:-1]))
    return (_plus(b[0], *t[0], neg.pool), *t[1:], t[0])


def _act(e: Expansion, letters) -> Expansion:
    """e under the letters of parse_word, left to right: sigma indices k,
    None for epspi.

    e's b_0, ..., b_N become reduced pairs once, in one pool; each letter
    runs its pair step and permutes the shifts alongside, and the image is
    built once, at the end.  A zero pivot at letter i (from 0) raises
    ZeroPivot naming step i.
    """
    pool = {}
    b = _pairs(e, pool)
    alphas = e.alpha.alphas
    for i, k in enumerate(letters):
        if k is None:
            b = _eps_pi_pairs(b, _Negated(pool))
            alphas = alphas[::-1]
        elif b[k][0]:
            alphas = (alphas[:k - 1] + (alphas[k], alphas[k - 1])
                      + alphas[k + 1:])
            # Swapped, so this is alpha_{k+1} - alpha_k.
            b = _sigma_pairs(b, k, _pair(alphas[k - 1] - alphas[k]), pool)
        else:
            raise ZeroPivot("step %d: %s" % (i, _undefined(k)))
    return Expansion._from_checked(
        Fraction(*b[0]), tuple([Fraction(*p) for p in b[1:]]),
        AlphaSequence._from_checked(alphas))


def apply_sigma(e: Expansion, k: int) -> Expansion:
    """Apply sigma_k (1-based, 1 <= k <= N-1); requires b_k != 0.

    It moves delta = (alpha_{k+1} - alpha_k)/b_k: b_{k-1} gains delta and
    b_{k+1} loses it, and b_N also gains it when k = 1.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError("sigma index must be an int, not %s"
                        % type(k).__name__)
    if not 1 <= k <= e.n - 1:
        raise ValueError("sigma index must satisfy 1 <= k <= N-1")
    if not e.block[k - 1]:
        raise ZeroPivot(_undefined(k))
    return _act(e, [k])


def apply_eps_pi(e: Expansion) -> Expansion:
    """Apply the involution epspi: conjugate expansion over the reversed shifts.

    b~_j = -b_{N-j} for 1 <= j <= N-1, b~_0 = b_0 - b_N, b~_N = -b_N.
    """
    return _act(e, [None])


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
    return _act(e, parse_word(letters, e.n))


@cache
def _moves(m: int) -> tuple:
    """The m! orders of m ranks, numbered lexicographically, and the moves
    of the generators on those numbers: a list per sigma_k (1 <= k <= m -
    1), which swaps positions k - 1 and k, and one for the reversal.  Each
    list maps an order's number to its image's.  Built once per m and kept
    for the life of the process: orbit's only state between calls.
    """
    orders = list(permutations(range(m)))
    number = {order: i for i, order in enumerate(orders)}
    sigmas = [[number[o[:k - 1] + (o[k], o[k - 1]) + o[k + 1:]]
               for o in orders] for k in range(1, m)]
    return orders, sigmas, [number[o[::-1]] for o in orders]


SkippedEdge = namedtuple("SkippedEdge", "source generator detail")
OrbitResult = namedtuple("OrbitResult", "expansions complete skipped_edges")


def orbit(e: Expansion, pure: bool = False) -> OrbitResult:
    """Closure of e under the group generators.

    In pure mode (requires e pure) only sigma_1 .. sigma_{N-2} act.
    Zero-pivot edges are recorded and skipped, not fatal.  Expansions come
    back in canonical order: lexicographic on (alpha order, b_0, block).

    An element is determined by its shift order and branch, because the
    alpha-fraction of a fixed phi over a fixed shift order is unique.  The
    sigmas permute the first m shifts (m = N, or N - 1 in pure mode); each
    order of their ranks has its number in _moves(m), and an element is
    the node 2 * number + branch.  The branch is the parity of the epspi
    steps, kept at 0 when the half-trace is 0 as both branches then
    coincide.  orbit runs one breadth-first search from e over the nodes:
    sigma_1 .. sigma_{m-1}, then epspi, as in parse_word, act on every
    element, by their moves in _moves(m).  A zero pivot leaves a shift
    order out: the paper's step gives b_k = (alpha_{k+1} - alpha_k) /
    (phi_{k-1}(alpha_{k+1}) - phi_{k-1}(alpha_k)), so b_k = 0 exactly when
    phi_{k-1} has a pole at alpha_{k+1}, and the shift order with alpha_k
    and alpha_{k+1} swapped then has no expansion on that branch.  The
    skipped edges are recorded in search order.

    The orbit holds each element as the reduced integer pairs of its
    b_0, ..., b_N, made by _sigma_pairs or _eps_pi_pairs once per node,
    so an orbit takes one step fewer than it has elements.  The generic
    orbit's 2 * N! elements hold few distinct values, so the pairs are
    interned in one pool per call and equal values share one pair.  Then
    each pooled pair becomes one Fraction, and each element is built once,
    in canonical order, over one AlphaSequence per shift order, shared by
    its two branches.  Ranks order like the shifts, so canonical order is
    the order of the numbers, with the two branches of one shift order in
    (b_0, block) order.
    """
    if not isinstance(pure, bool):
        raise TypeError("pure must be a bool, got %.40r" % (pure,))
    if pure and not e.is_pure:
        raise NotPure("pure orbit requested for a non-pure expansion")
    m = e.n - 1 if pure else e.n
    flip = not pure and bool(expansion_to_triple(e)[1])
    shifts, tail = sorted(e.alpha.alphas[:m]), e.alpha.alphas[m:]
    rank = {a: i for i, a in enumerate(shifts)}
    # alpha_j - alpha_i by the ranks i and j, as pairs.
    diffs = [[_pair(c - a) for c in shifts] for a in shifts]
    orders, sigmas, rev = _moves(m)
    pool = {}
    neg = _Negated(pool)
    start = 2 * orders.index(tuple([rank[a] for a in e.alpha.alphas[:m]]))
    made = [None] * (2 * len(orders))
    made[start] = _pairs(e, pool)
    skipped, frontier = [], [start]
    while frontier:
        nxt = []
        for node in frontier:
            i, branch, b = node >> 1, node & 1, made[node]
            order = orders[i]
            for k, move in enumerate(sigmas, 1):
                if not b[k][0]:  # only a sigma divides
                    skipped.append((node, k))
                    continue
                img = 2 * move[i] + branch
                if made[img] is None:
                    made[img] = _sigma_pairs(
                        b, k, diffs[order[k - 1]][order[k]], pool)
                    nxt.append(img)
            if not pure:
                img = 2 * rev[i] + (branch ^ flip)
                if made[img] is None:
                    made[img] = _eps_pi_pairs(b, neg)
                    nxt.append(img)
        frontier = nxt
    for p in pool:
        pool[p] = Fraction(*p)
    value = pool.__getitem__
    ordered = []
    for i, order in enumerate(orders):
        nodes = 2 * i, 2 * i + 1
        b, c = made[2 * i], made[2 * i + 1]
        if b and c:
            # Branch 1 goes first if its (b_0, block) is smaller: compare
            # the first b_i at which the two differ, as n/d < n'/d' with
            # d, d' > 0.
            p, q = next(pq for pq in zip(c, b) if pq[0] != pq[1])
            if p[0] * q[1] < q[0] * p[1]:
                nodes = nodes[::-1]
        elif not (b or c):
            continue
        alpha = AlphaSequence._from_checked(
            tuple([shifts[r] for r in order]) + tail)
        for node in nodes:
            if made[node]:
                v = tuple(map(value, made[node]))
                made[node] = x = Expansion._from_checked(v[0], v[1:], alpha)
                ordered.append(x)
    return OrbitResult(tuple(ordered), not skipped, tuple(
        SkippedEdge(made[node], "sigma:%d" % k, _undefined(k))
        for node, k in skipped))
