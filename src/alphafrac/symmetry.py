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
step and builds one image at the end.  orbit reads a complete orbit from
one table of inverse differences, with no step; any other orbit runs the
steps on its pairs, by one breadth-first search over the numbered shift
orders of _moves and the two branches, so the search takes m - 1 steps
for an orbit of m elements.  Group images skip re-validation: they are built through the
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
from itertools import accumulate, combinations, permutations
from math import factorial, gcd
from operator import itemgetter

from .errors import NotPure, ZeroPivot
from .expansion import (AlphaSequence, Expansion, build_transfer_matrix,
                         expansion_to_triple)
from .polyring import _ratio, as_sequence


def _undefined(k: int) -> str:
    """The text of sigma_k's error at b_k = 0, where it is undefined."""
    return "sigma_%d undefined: b_%d = 0" % (k, k)


def _pair(x: Fraction) -> tuple:
    return x.numerator, x.denominator


def _pairs(e: Expansion, pool: dict) -> tuple:
    """b_0, ..., b_N of e as reduced pairs, each taken from pool."""
    return tuple([pool.setdefault(p, p)
                  for p in [_pair(x) for x in (e.b0, *e.block)]])


def _reduced(n: int, d: int, pool: dict) -> tuple:
    """n/d, for d != 0, as a reduced pair from pool."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    q = n // g, d // g
    return pool.setdefault(q, q)


def _plus(p: tuple, n: int, d: int, pool: dict) -> tuple:
    """p + n/d as a reduced pair from pool, for a reduced pair p and d > 0."""
    pn, pd = p
    return _reduced(pn * d + n * pd, pd * d, pool)


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
    """epspi on the pairs b of b_0, ..., b_N, returned negated.

    epspi maps b to b~: b~_0 = b_0 - b_N, b~_j = -b_{N-j} for 1 <= j <=
    N-1, b~_N = -b_N.  This step returns the pairs of -b~, which are
    b_N - b_0, b_{N-1}, ..., b_1, b_N: one sum and a reversal, and no
    negation.  Applied twice it gives b back, pair for pair: it is an
    exact involution on pairs.  It is odd in b, and so is every sigma_k,
    as delta = diff / b_k changes sign with b.  So a walk may hold an
    element as the pairs of -b and negate it once, at the end: each epspi
    step flips the sign it is held with, and no sigma step changes it.
    """
    n, d = b[0]
    return (_plus(b[-1], -n, d, pool), *b[-2:0:-1], b[-1])


def _act(e: Expansion, letters) -> Expansion:
    """e under the letters of parse_word, left to right: sigma indices k,
    None for epspi.

    e's b_0, ..., b_N become reduced pairs once, in one pool; each letter
    runs its pair step and permutes the shifts alongside, and the image is
    built once, at the end.  Every sigma_k is odd in b, and the epspi step
    returns the pairs of -b~, so the walk holds the image's pairs times
    sign = (-1)^(epspi letters so far) and multiplies them by sign at the
    end.  A zero pivot at letter i (from 0) raises ZeroPivot naming step i.
    """
    pool = {}
    b = _pairs(e, pool)
    alphas = e.alpha.alphas
    sign = 1
    for i, k in enumerate(letters):
        if k is None:
            b = _eps_pi_pairs(b, pool)
            sign = -sign
            alphas = alphas[::-1]
        elif b[k][0]:
            alphas = (alphas[:k - 1] + (alphas[k], alphas[k - 1])
                      + alphas[k + 1:])
            # Swapped, so this is alpha_{k+1} - alpha_k.
            b = _sigma_pairs(b, k, _pair(alphas[k - 1] - alphas[k]), pool)
        else:
            raise ZeroPivot("step %d: %s" % (i, _undefined(k)))
    v = [Fraction(sign * n, d) for n, d in b]
    return Expansion._from_checked(
        v[0], tuple(v[1:]), AlphaSequence._from_checked(alphas))


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


@cache
def _plan(m: int, pure: bool) -> tuple:
    """The fill program of the inverse-difference table of an orbit of m
    ranks, its b_N sums, and the flat slot of each of its values.

    The columns are the m ranks, then alpha_N as column m in pure mode.
    Slots 0 .. m + pure - 1 hold F at each column and, in full mode, slots
    m .. 2m - 1 hold U at each rank.  The entries T(S, a, d) follow, for
    every prefix set S of ranks (a bitmask), last rank a in S and column d
    not in S, level by level: |S| runs from 1 to m - 1, or to m in pure
    mode, where only the alpha_N column is left.  Each is one step (i, j,
    k, pole) of the program, T(S, a, d) = (alpha_d - alpha_a) / (v_i -
    v_j): i and j are the slots of T(S - {a}, a', d) and T(S - {a}, a', a)
    for the least a' in S - {a} (of F(d) and F(a) when S = {a}), k = a *
    (m + pure) + d indexes the shift differences, and pole is true where a
    zero difference is a pole rather than an undefined table: in alpha_N's
    column below its last level.  In full mode the sums U(l) + F(f) close
    the layout, one per pair of a last rank l and a first rank f.  slot
    maps (S, a, d) to its slot, (0, None, d) to F(d)'s and (None, l, f) to
    the sum's.  The program has O(m^2 2^m) steps; it is built once per (m,
    pure) and kept for the life of the process.
    """
    ncol = m + pure
    size = ncol if pure else 2 * m
    slot = {(0, None, d): d for d in range(ncol)}
    program = []
    for k in range(1, ncol):
        for members in combinations(range(m), k):
            mask = sum(1 << r for r in members)
            for a in members:
                rest = mask ^ 1 << a
                prev = (rest & -rest).bit_length() - 1 if rest else None
                for d in range(ncol):
                    if not mask >> d & 1:
                        slot[mask, a, d] = size + len(program)
                        program.append((slot[rest, prev, d],
                                        slot[rest, prev, a], a * ncol + d,
                                        d == m and k < m))
    sums = [] if pure else [(l, f) for l in range(m) for f in range(m)
                            if l != f or m == 1]
    size += len(program)
    slot.update(((None, l, f), size + i) for i, (l, f) in enumerate(sums))
    return program, sums, slot


@cache
def _entries(m: int, pure: bool) -> list:
    """One operator.itemgetter per order of m ranks, in lexicographic
    order.  Applied to _table's values it gathers, in one C call, the
    order's shifts, then its elements' b_0, ..., b_N: branch 0's from
    _plan(m, pure)'s layout and, in full mode, branch 1's, held as -b, from
    a second copy of the layout placed after the first.  The values of the
    columns follow the last copy: the ranks', then alpha_N's in pure mode.
    The m! getters are built by the first orbit of (m, pure) whose table
    fills, and kept.
    """
    program, sums, slot = _plan(m, pure)
    full = (1 << m) - 1
    # The count of F, U, T and sum slots of one copy, and the first
    # column's slot.
    size = (m + 1 if pure else 2 * m) + len(program) + len(sums)
    base = size if pure else 2 * size
    # Every slot, one int object each, shared by the m! getters.
    at = list(range(base + m + pure))
    entries = []
    for order in permutations(range(m)):
        cols = order + (m,) if pure else order
        # (S_k, pi_k, pi_(k+1)) for k = 1 .. N - 1.
        steps = list(zip(accumulate(1 << r for r in cols), cols, cols[1:]))
        first, last = cols[0], cols[-1]
        shifts = [at[base + c] for c in cols]
        block = [slot[s, a, d] for s, a, d in steps]
        if pure:
            entries.append(itemgetter(*shifts, first, *block, first))
        else:
            entries.append(itemgetter(
                *shifts, first, *block, slot[None, last, first],
                *[at[size + i] for i in (
                    m + first, *[slot[full ^ s, d, a] for s, a, d in steps],
                    slot[None, first, last])]))
    return entries


# The value of a pole, 1/0, which only alpha_N's column holds below its
# last level; it is in no pool.
_POLE = 1, 0


def _fill(X, Y, Z, W, cols: list, m: int, pure: bool):
    """The values of the table of the transfer matrix [[X, Y], [Z, W]],
    reduced pairs in _plan(m, pure)'s layout, and the pool they are taken
    from; None where the table is undefined.  cols are the shifts of the
    columns: the ranks' in order, then alpha_N in pure mode.
    """
    program, sums, _ = _plan(m, pure)
    pool, vals = {}, []
    for d, c in enumerate(cols):
        x, z = _ratio(X, Z, c)
        if not (x or z):
            x, z = _ratio(Y, W, c)
        if z:
            vals.append(_reduced(x, z, pool))
        elif d == m:  # alpha_N's column, in pure mode
            vals.append(_POLE)
        else:
            return None
    if not pure:
        for c in cols:
            y, x = _ratio(Y, X, c)
            if not x:
                y, x = _ratio(W, Z, c)
            if not x:
                return None
            vals.append(_reduced(y, x, pool))
    # alpha_d - alpha_a at a * len(cols) + d, as unreduced pairs.
    nd = [(c.numerator, c.denominator) for c in cols]
    diffs = [(p * s - r * q, q * s) for r, s in nd for p, q in nd]
    for i, j, k, pole in program:
        n, d = vals[i]
        p, q = vals[j]
        den = n * q - p * d
        if den:
            r, s = diffs[k]
            vals.append(_reduced(r * d * q, s * den, pool))
        elif pole:
            vals.append(_POLE)
        else:
            return None
    vals += [_plus(vals[m + l], *vals[f], pool) for l, f in sums]
    return vals, pool


def _table(matrix: tuple, cols: list, m: int, pure: bool, flip: bool):
    """The expansions of a complete orbit, in canonical order, read from
    the table of its transfer matrix, the 4-tuple of
    build_transfer_matrix; None where the table is undefined.  cols are
    as for _fill.  orbit says why this is sound.

    The values become one list in the layout of _entries: the table's
    Fractions, in full mode a second copy, negated on a flip, and then
    cols.  Each order's getter gathers its shifts and b-values from it in
    one call, and the slices of that tuple are its AlphaSequence, shared
    by its branches, and each branch's b_0 and block.
    """
    filled = _fill(*matrix, cols, m, pure)
    if filled is None:
        return None
    vals, pool = filled
    for p in pool:
        pool[p] = Fraction(*p)
    values = list(map(pool.get, vals))
    if flip:
        # Branch 1 is held as -b: its copy negates, through the pooled
        # Fraction of the negation where there is one, so each value stays
        # one object.  Fraction(0) is false, so membership is tested.
        negated = {p: pool[q] if q in pool else -x for p, x in pool.items()
                   for q in [(-p[0], p[1])]}
        values += [negated[p] for p in vals]
    elif not pure:
        values *= 2  # the getters span branch 1's slots, read only on a flip
    values += cols
    n = len(cols)  # N: alpha_1 .. alpha_N, then b_0 at n, b_N at 2n
    j = 2 * n + 1  # branch 1's b_0
    out = []
    if not flip:
        for get in _entries(m, pure):
            v = get(values)
            out.append(Expansion._from_checked(
                v[n], v[n + 1:j], AlphaSequence._from_checked(v[:n])))
        return out
    # On an order with first rank r, branch 0's b_0 is F(r) and branch 1's
    # is -U(r): branch 1 goes first if that is smaller, and on a tie if its
    # block is.  The orders are lexicographic, so the first rank of order i
    # is i // (m - 1)!; a flipping orbit has m >= 1.
    u = len(vals) + m
    first = [None if c == b else c < b
             for b, c in zip(values[:m], values[u:u + m])]
    per_rank = factorial(m - 1)
    for i, get in enumerate(_entries(m, pure)):
        v = get(values)
        alpha = AlphaSequence._from_checked(v[:n])
        x = Expansion._from_checked(v[n], v[n + 1:j], alpha)
        y = Expansion._from_checked(v[j], v[j + 1:], alpha)
        swap = first[i // per_rank]
        if swap is None:
            swap = y.block < x.block
        out += (y, x) if swap else (x, y)
    return out


SkippedEdge = namedtuple("SkippedEdge", "source generator detail")
OrbitResult = namedtuple("OrbitResult", "expansions complete skipped_edges")


def orbit(e: Expansion, pure: bool = False) -> OrbitResult:
    """Closure of e under the group generators.

    In pure mode (requires e pure) only sigma_1 .. sigma_{N-2} act.
    Zero-pivot edges are recorded and skipped, not fatal.  Expansions come
    back in canonical order: lexicographic on (alpha order, b_0, block).

    The sigmas permute the first m shifts (m = N, or N - 1 in pure mode)
    and keep e's triple and half-trace T; epspi reverses the shifts and
    negates T.  So an element is its shift order and its branch, the sign
    of its T, and on branch 0 it has e's transfer matrix [[X, Y], [Z, W]]
    = [[P_(N-1), P_N], [Q_(N-1), Q_N]].  Wherever the peel of that matrix
    over the element's order (factorize_transfer_matrix) divides by a
    nonzero value at every step, it fixes each b_k, so the element is that
    peel.  A complete orbit is read from one table of the peel's values;
    any other goes to the search, _search.

    The peel is Thiele's continued fraction of phi_0 = X/Z on the shifts:
    b_k = phi_k(alpha_(pi_(k+1))) and phi_(k+1) = (x - alpha_(pi_(k+1))) /
    (phi_k - b_k).  Read at column d, with S the set of the first k ranks
    of pi and a = pi_k, this is the inverse-difference recursion

        T(S + {c}, c, d) = (alpha_d - alpha_c) / (T(S, a, d) - T(S, a, c))

    from T({}, -, d) = F(d), X/Z at alpha_d, or Y/W where X and Z both
    vanish there, as the peel reads it: its scalar recurrence on (Y, W) is
    this recursion too.  So b_0 = F(pi_1), b_k = T(S_k, pi_k, pi_(k+1))
    for 1 <= k <= N - 1, and b_N = U(pi_N) + F(pi_1), with U = Y/X at the
    shift, or W/Z where X vanishes: the peel's last read.  In pure mode
    b_(N-1) = T(all m ranks, pi_(N-1), alpha_N) and b_N = b_0.  An entry
    T(S, a, .) does not depend on the order of S - {a}: with g = T(R, r,
    .), R = S - {a, a'}, clearing denominators gives T(S, a, x) - T(S,
    a', x) = g(a) - g(a') for every x, so both give the next level the
    same differences, and by induction on |S| every order through (S, a,
    d) has the same b_k.  The table of _plan thus holds every b-value of
    the 2 m! elements in O(m^2 2^m) entries.  Branch 1 over pi is the
    epspi image of branch 0 over the reversed order, which the held form
    -b = (b_N - b_0, b_(N-1), ..., b_1, b_N) reads off: b_0 = -U(pi_1),
    b_k = -T(complement of S_k, pi_(k+1), pi_k) and b_N = -U(pi_1) -
    F(pi_N), so branch 1 needs no second fill.

    A table is defined when each F and U is defined and no difference is
    0.  Then it holds the complete orbit, and _table reads it off: each
    entry past F is a nonzero shift difference over a finite value, so no
    b_k is 0 and no edge is skipped; a nonzero difference keeps the peel's
    Z column nonzero at the shifts still to come, so the peel over every
    order runs through the table's values; and the start e is one of these
    peels.  Conversely, where X/Z is read at every column, a zero
    difference makes T(S + {c}, c, d) a pole, at which the peel over the
    orders through (S, c, d) fails: that order has no element, and the
    orbit is incomplete.  A complete orbit falls back to the search only
    where a column is read from Y/W and its projective recurrence passes
    through a pole, which a finite table cannot hold.  In pure mode alpha_N
    is a column but no pivot: only b_(N-1) is read there.  A zero
    difference in its column below the last level is a pole of phi_k at
    alpha_N, which the next level turns into the value 0, as (alpha_N -
    alpha_c) / (pole - T) = 0; so the table holds it as 1/0 and goes on.
    """
    if not isinstance(pure, bool):
        raise TypeError("pure must be a bool, got %.40r" % (pure,))
    if pure and not e.is_pure:
        raise NotPure("pure orbit requested for a non-pure expansion")
    m = e.n - 1 if pure else e.n
    triple, half_trace = expansion_to_triple(e)
    flip = not pure and bool(half_trace)
    shifts, tail = sorted(e.alpha.alphas[:m]), e.alpha.alphas[m:]
    found = _table(build_transfer_matrix(triple, half_trace),
                   shifts + list(tail), m, pure, flip)
    if found is not None:
        return OrbitResult(tuple(found), True, ())
    return _search(e, m, pure, flip, shifts, tail)


def _search(e: Expansion, m: int, pure: bool, flip: bool, shifts: list,
            tail: tuple) -> OrbitResult:
    """orbit by one breadth-first search from e over the elements, for an
    orbit whose table is undefined: every incomplete one.

    An element is determined by its shift order and branch, because the
    alpha-fraction of a fixed phi over a fixed shift order is unique.  Each
    order of the m ranks has its number in _moves(m), and an element is
    the node 2 * number + branch.  The branch is the parity of the epspi
    steps, kept at 0 when the half-trace is 0 (flip false) as both
    branches then coincide.  sigma_1 .. sigma_{m-1}, then epspi, as in
    parse_word, act on every element, by their moves in _moves(m).  A zero
    pivot leaves a shift order out: the paper's step gives b_k = (alpha_
    {k+1} - alpha_k) / (phi_{k-1}(alpha_{k+1}) - phi_{k-1}(alpha_k)), so
    b_k = 0 exactly when phi_{k-1} has a pole at alpha_{k+1}, and the
    shift order with alpha_k and alpha_{k+1} swapped then has no expansion
    on that branch.  The skipped edges are recorded in search order.

    The search holds each element as the reduced integer pairs of its
    b_0, ..., b_N, made by _sigma_pairs or _eps_pi_pairs once per node,
    so it takes one step fewer than the orbit has elements.  It holds an
    element of branch 1 as the pairs of -b.  That is sound because every
    sigma_k is odd in b, so a sigma step keeps the sign an element is held
    with, and the epspi step, an exact involution on pairs, returns the
    pairs of -b~ and so flips it.  Only when the half-trace is 0, and the
    epspi image stays on branch 0, is it negated back.  The pairs are
    interned in one pool per call, so equal values share one pair.  Then
    each pooled pair becomes one Fraction, and each element is built once,
    in canonical order, over one AlphaSequence per shift order, shared by
    its two branches; branch 1 is read negated.  Ranks order like the
    shifts, so canonical order is the order of the numbers, with the two
    branches of one shift order in (b_0, block) order.
    """
    rank = {a: i for i, a in enumerate(shifts)}
    # alpha_j - alpha_i by the ranks i and j, as pairs.
    diffs = [[_pair(c - a) for c in shifts] for a in shifts]
    orders, sigmas, rev = _moves(m)
    pool = {}
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
                    made[img] = c = _eps_pi_pairs(b, pool)
                    if not flip:  # one branch, held as b~, not -b~
                        made[img] = tuple([pool.setdefault(q, q)
                                           for q in [(-n, d) for n, d in c]])
                    nxt.append(img)
        frontier = nxt
    for p in pool:
        pool[p] = Fraction(*p)
    # Branch 1, which only a flipping orbit has, holds -b: its view
    # negates, through the pooled Fraction of the negation where there is
    # one, so each value stays one object.  Fraction(0) is false, so
    # membership is tested.
    negated = {p: pool[q] if q in pool else -x
               for p, x in (pool.items() if flip else ())
               for q in [(-p[0], p[1])]}
    views = pool.__getitem__, negated.__getitem__
    ordered = []
    for i, order in enumerate(orders):
        nodes = 2 * i, 2 * i + 1
        b, c = made[2 * i], made[2 * i + 1]
        if b and c:
            # Branch 1 goes first if its (b_0, block) is smaller: compare
            # the first b_i at which the two differ, reading branch 1's
            # pair (n, d) as -n/d, as -n/d < n'/d' with d, d' > 0.
            p, q = next(pq for pq in zip(c, b)
                        if pq[0] != (-pq[1][0], pq[1][1]))
            if -p[0] * q[1] < q[0] * p[1]:
                nodes = nodes[::-1]
        elif not (b or c):
            continue
        alpha = AlphaSequence._from_checked(
            tuple([shifts[r] for r in order]) + tail)
        for node in nodes:
            if made[node]:
                v = tuple(map(views[node & 1], made[node]))
                made[node] = x = Expansion._from_checked(v[0], v[1:], alpha)
                ordered.append(x)
    return OrbitResult(tuple(ordered), not skipped, tuple(
        SkippedEdge(made[node], "sigma:%d" % k, _undefined(k))
        for node, k in skipped))
