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
of its whole orbit: a walk by plain changes, one adjacent swap per new
element, and a breadth-first search exactly when the walk finds the orbit
incomplete, cut by a zero pivot; either way an orbit of m elements takes
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
from math import gcd
from operator import itemgetter

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


def _eps_pi_pairs(b: tuple, pool: dict) -> tuple:
    """epspi on the pairs b of b_0, ..., b_N.

    b~_0 = b_0 - b_N, b~_j = -b_{N-j} for 1 <= j <= N-1, b~_N = -b_N.
    """
    neg = [pool.setdefault(p, p) for p in [(-n, d) for n, d in b[:0:-1]]]
    return (_plus(b[0], *neg[0], pool), *neg[1:], neg[0])


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
            b = _eps_pi_pairs(b, pool)
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


def _plain_changes(m: int) -> list:
    """The sigma indices k (1 <= k <= m - 1) of the plain-changes order of
    m positions: m! - 1 adjacent swaps that visit every order once.

    The last element sweeps down and up across all m positions, and each
    turn takes one step of the order of the other m - 1, shifted by one
    after a downward sweep (Johnson 1963; Knuth, TAOCP 4A, Algorithm P).
    """
    seq = []
    for j in range(2, m + 1):
        down, up = range(j - 1, 0, -1), range(1, j)
        out = list(down)
        for i, k in enumerate(seq):
            out.append(k if i % 2 else k + 1)
            out += down if i % 2 else up
        seq = out
    return seq


def _walk(key: tuple, b: tuple, seq: list, sigmas: list, diffs: list,
          pool: dict) -> dict:
    """One branch of orbit's keys, walked from key, whose pairs are b, by
    the sigma indices seq of plain changes, to their pairs.

    sigmas[k - 1] is sigma_k's move on a key.  The walk stops at the first
    zero pivot and returns what it has.
    """
    walked = {key: b}
    for k in seq:
        if not b[k][0]:
            break
        b = _sigma_pairs(b, k, diffs[key[k - 1]][key[k]], pool)
        key = sigmas[k - 1](key)
        walked[key] = b
    return walked


def _search(start: tuple, b: tuple, sigmas: list, eps_pi, walked: dict,
            diffs: list, pool: dict) -> tuple:
    """orbit's keys by a breadth-first search from start, whose pairs are
    b, to their pairs, and the skipped edges as (key, k) in search order.

    Every generator acts on every element: sigmas[k - 1] is sigma_k's move
    on a key and eps_pi epspi's, None in pure mode.  The pairs of a key
    in walked are taken from there; a step runs only for the others.
    """
    seen, skipped, frontier = {start: b}, [], [start]
    while frontier:
        nxt = []
        for key in frontier:
            b = seen[key]
            for k, move in enumerate(sigmas, 1):
                if not b[k][0]:  # only a sigma divides
                    skipped.append((key, k))
                    continue
                img = move(key)
                if img not in seen:
                    seen[img] = walked.get(img) or _sigma_pairs(
                        b, k, diffs[key[k - 1]][key[k]], pool)
                    nxt.append(img)
            if eps_pi is not None:
                img = eps_pi(key)
                if img not in seen:
                    seen[img] = walked.get(img) or _eps_pi_pairs(b, pool)
                    nxt.append(img)
        frontier = nxt
    return seen, skipped


SkippedEdge = namedtuple("SkippedEdge", "source generator detail")
OrbitResult = namedtuple("OrbitResult", "expansions complete skipped_edges")


def orbit(e: Expansion, pure: bool = False) -> OrbitResult:
    """Closure of e under the group generators.

    In pure mode (requires e pure) only sigma_1 .. sigma_{N-2} act.
    Zero-pivot edges are recorded and skipped, not fatal.  Expansions come
    back in canonical order: lexicographic on (alpha order, b_0, block).

    Each element is keyed by its shift order and branch.  A key is one
    flat tuple of N + 2 small ints: the ranks of the shifts, then
    (branch, 1 - branch).  The branch is the parity of the epspi steps,
    kept at 0 when the half-trace is 0 as both branches then coincide.
    The key determines the element because the alpha-fraction of a fixed
    phi over a fixed shift order is unique.

    sigma_k's move on a key swaps ranks k and k + 1, and epspi's reverses
    the ranks and swaps the branch pair, each built once as an
    operator.itemgetter.  The orbit is first walked by plain changes
    (_walk) of the m ranks the sigmas permute: one sigma step per new
    shift order of branch 0 from e, then, when epspi flips the branch
    (flip: a nonzero half-trace outside pure mode), one epspi step from e
    and the same walk of branch 1.  A breadth-first search from e
    (_search) redoes the closure exactly when the walk holds fewer than
    (1 + flip) * m! keys, and takes the pairs of each element the walk
    made.  That count is exact:
    (i) The paper's step gives b_k = (alpha_{k+1} - alpha_k) /
    (phi_{k-1}(alpha_{k+1}) - phi_{k-1}(alpha_k)), so b_k = 0 exactly
    when phi_{k-1} has a pole at alpha_{k+1}: the shift order with alpha_k
    and alpha_{k+1} swapped then has no expansion on that branch.  So a
    branch with a zero pivot lacks a shift order, and its walk, which
    visits all m! orders unless a step meets a zero pivot, stops.
    (ii) epspi is defined everywhere and conjugates sigma_k to
    sigma_{N-k}, with b_k -> -b_k, so it takes branch 0 onto branch 1:
    branch 1 is complete exactly when branch 0 is, and is walked only
    then.
    So the search runs exactly when the orbit is incomplete, and it alone
    records the skipped edges, in its own order.

    The orbit holds each element as the reduced integer pairs of its
    b_0, ..., b_N, made by _sigma_pairs or _eps_pi_pairs once per key, so
    an orbit takes one step fewer than it has elements, walked or
    searched.  The generic orbit's 2 * N! elements hold few distinct
    values, so the pairs are interned in one pool per call and equal
    values share one pair.  Then each pooled pair becomes one Fraction,
    and each element is built once, in canonical order, over one
    AlphaSequence per shift order, shared by its two branches.  Ranks
    order like the shifts, so canonical order is the sorted keys, with the
    two branches of one shift order then put in (b_0, block) order.
    """
    if not isinstance(pure, bool):
        raise TypeError("pure must be a bool, got %.40r" % (pure,))
    if pure and not e.is_pure:
        raise NotPure("pure orbit requested for a non-pure expansion")
    n = e.n
    m = n - 1 if pure else n
    flip = not pure and bool(expansion_to_triple(e)[1])
    shifts = sorted(e.alpha.alphas)
    rank = {a: i for i, a in enumerate(shifts)}
    # alpha_j - alpha_i by the ranks i and j, as pairs.
    diffs = [[_pair(c - a) for c in shifts] for a in shifts]
    start = tuple(rank[a] for a in e.alpha.alphas) + (0, 1)
    # Sigmas by index, then epspi, as in parse_word.  A key has N + 2 >= 3
    # entries, so every getter returns a tuple.
    places = list(range(n + 2))
    sigmas = []
    for k in range(1, m):
        swap = places[:]
        swap[k - 1:k + 1] = k, k - 1
        sigmas.append(itemgetter(*swap))
    eps_pi = None if pure else itemgetter(
        *places[n - 1::-1], *((n + 1, n) if flip else (n, n + 1)))
    pool = {}
    b = _pairs(e, pool)
    seq = _plain_changes(m)
    seen = walked = _walk(start, b, seq, sigmas, diffs, pool)
    if flip and len(walked) == len(seq) + 1:
        walked.update(_walk(eps_pi(start), _eps_pi_pairs(b, pool), seq,
                            sigmas, diffs, pool))
    skipped = []
    if len(walked) < (1 + flip) * (len(seq) + 1):
        seen, skipped = _search(start, b, sigmas, eps_pi, walked, diffs,
                                pool)
    for p in pool:
        pool[p] = Fraction(*p)
    value = pool.__getitem__
    ordered, last = [], None
    for key in sorted(seen):
        order, b = key[:n], seen[key]
        at = len(ordered)
        if order != last:
            alpha = AlphaSequence._from_checked(
                tuple([shifts[i] for i in order]))
        else:
            # Branch 1 follows branch 0 of its shift order, and goes first
            # if its (b_0, block) is smaller: compare the first b_i at
            # which the two differ, as n/d < n'/d' with d, d' > 0.
            p, q = next(pq for pq in zip(b, last_b) if pq[0] != pq[1])
            at -= p[0] * q[1] < q[0] * p[1]
        v = tuple(map(value, b))
        seen[key] = x = Expansion._from_checked(v[0], v[1:], alpha)
        ordered.insert(at, x)
        last, last_b = order, b
    return OrbitResult(tuple(ordered), not skipped, tuple(
        SkippedEdge(seen[key], "sigma:%d" % k, _undefined(k))
        for key, k in skipped))
