"""Mutation gate: each hand-written mutant of src/ must fail the tests named
with it.

    python tests/mutants.py

Each entry of MUTANTS gives a file, a snippet that must occur in it exactly
once, the snippet's replacement and the pytest node ids that must fail.  The
runner first runs every named test on an unchanged copy of src/ and tests/,
which must pass; then, for each entry, it applies the replacement to a fresh
temporary copy and runs that entry's tests with a timeout.  A mutant is
killed when a test fails or the run times out (a mutant may make a loop
endless).  The exit status is 1 if a mutant survives, a snippet does not
occur exactly once or a named test cannot be run.  pytest does not collect
this file: its name does not start with "test_".
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 60

POLYRING = "src/alphafrac/polyring.py"
EXPANSION = "src/alphafrac/expansion.py"
JACOBI = "src/alphafrac/jacobi.py"
SYMMETRY = "src/alphafrac/symmetry.py"

# (name, file, snippet, replacement, node ids that must fail)
MUTANTS = [
    ("_cancel returns its inputs unchanged", POLYRING,
     "    if g > 1:\n        return d // g, [c // g for c in v]\n"
     "    return d, v\n",
     "    return d, v\n",
     ["tests/test_polyring_oracle.py::test_ring_ops"]),
    ("_homogeneous without sk *= s", POLYRING,
     "        acc = acc * r + c * sk\n        sk *= s\n    return acc\n",
     "        acc = acc * r + c * sk\n    return acc\n",
     ["tests/test_polyring.py::TestEval::test_rational_point",
      "tests/test_polyring_oracle.py::test_synthetic_div_and_eval"]),
    ("_times without the cancellation", POLYRING,
     "    q, u = _cancel(q, u)\n    return p, u, q * du\n",
     "    return p, u, q * du\n",
     ["tests/test_polyring_oracle.py::test_scalar_ops"]),
    # Equivalent for from_roots and the Newton pass, whose products of
    # linear factors are primitive; the convergent step's P_0 is not.
    ("_root_step without the cancellation of s", POLYRING,
     "    if s > 1:\n        t, v = _cancel(s, v)\n",
     "",
     ["tests/test_polyring_oracle.py::test_convergent_step"]),
    ("the sign of W in the shift by beta", JACOBI,
     "AlphaTriple(j.U, B, beta * (j.V + B) - j.W)",
     "AlphaTriple(j.U, B, beta * (j.V + B) + j.W)",
     ["tests/test_jacobi.py::TestAlphaCorrespondence::test_sect4_forward"]),
    ("the sign of C in the shift by -beta", JACOBI,
     "JacobiTriple(t.A, V, beta * (t.B + V) - t.C, t.discriminant)",
     "JacobiTriple(t.A, V, beta * (t.B + V) + t.C, t.discriminant)",
     ["tests/test_jacobi.py::TestAlphaCorrespondence::test_sect4_inverse"]),
    # Without the squarefree part no prime leaves a repeated root simple,
    # so the prime walk never ends: killed by the timeout.
    ("_squarefree returns f", POLYRING,
     "    return _pseudo_divmod(f, a if a[-1] > 0 else [-c for c in a])[0]\n",
     "    return f\n",
     ["tests/test_jacobi.py::TestRootSearch"
      "::test_matches_euclid_first_reference"]),
    ("jacobi_from_divisor multiplies U by x + lambda", JACOBI,
     "U = _with_root(U, lam)",
     "U = _with_root(U, -lam)",
     ["tests/test_jacobi.py::TestFromDivisor"
      "::test_newton_pass_matches_lagrange"]),
    ("orbit flips the branch without the half-trace test", SYMMETRY,
     "flip = not pure and bool(expansion_to_triple(e)[1])",
     "flip = not pure",
     ["tests/test_symmetry.py::TestOrbitAgainstValueKeyedBFS"
      "::test_zero_half_trace"]),
    ("_root_step without s in the denominator", POLYRING,
     "for c, e in zip([0, *v], [*v, 0])], t * d\n",
     "for c, e in zip([0, *v], [*v, 0])], d\n",
     ["tests/test_polyring.py::TestFromRoots",
      "tests/test_jacobi.py::TestFromDivisor"
      "::test_newton_pass_matches_lagrange"]),
    # Without it the zero polynomial, of degree -1, counts as odd.
    ("poly_sqrt without its zero case", POLYRING,
     "    if not p:\n        return p\n    deg = p.degree\n",
     "    deg = p.degree\n",
     ["tests/test_polyring.py::TestSqrt::test_zero"]),
    ("the Newton pass interpolates -mu", JACOBI,
     "(mu - V(lam))",
     "(-mu - V(lam))",
     ["tests/test_jacobi.py::TestFromDivisor"
      "::test_newton_pass_matches_lagrange"]),
    # Without it U(alpha_N) = 0 divides by zero.
    ("pure_beta_candidates without its u == 0 branch", JACOBI,
     "    if u == 0:\n"
     "        # v = 0 too would force r = v^2 + u*w = 0, excluded above.\n"
     "        return [w / (2 * v)]\n",
     "",
     ["tests/test_jacobi.py::TestPureBeta::test_degenerate_linear_case"]),
    ("the sigma step moves b_N by -delta at k = 1", SYMMETRY,
     "    if k == 1:\n        b[-1] = _plus(b[-1], n, d, pool)\n",
     "    if k == 1:\n        b[-1] = _plus(b[-1], -n, d, pool)\n",
     ["tests/test_symmetry.py::TestSigma::test_sigma1"]),
    ("__add__ leaves its sum unreduced", POLYRING,
     "        return _reduced(*_combine(1, self._num, self._den,\n"
     "                                  1, other._num, other._den))\n",
     "        return _make(*_combine(1, self._num, self._den,\n"
     "                               1, other._num, other._den)[:2])\n",
     ["tests/test_polyring.py::TestProperties::test_division_invariant"]),
    ("the convergent recurrence uses b_N at step N", EXPANSION,
     "b = e.block[k - 1] if k < n else e.bn_star",
     "b = e.block[k - 1]",
     ["tests/test_expansion.py::TestConvergents::test_sect4_recurrence"]),
    ("_root_step multiplies by x + r/s", POLYRING,
     "[s * c - r * e for c, e in",
     "[s * c + r * e for c, e in",
     ["tests/test_polyring.py::TestFromRoots",
      "tests/test_polyring_oracle.py::test_convergent_step",
      "tests/test_jacobi.py::TestFromDivisor"
      "::test_newton_pass_matches_lagrange"]),
    ("verify reuses the expected text for a failing side", EXPANSION,
     '"h": text if ok else have}',
     '"h": text}',
     ["tests/test_expansion.py::TestVerify"
      "::test_report_text_matches_reference",
      "tests/test_cli.py::TestOtherCommands"
      "::test_verify_matches_golden_bytes"]),
    ("verify prints the recomputed side as the expected", EXPANSION,
     "        text = str(want)\n",
     "        text = str(have)\n",
     ["tests/test_expansion.py::TestVerify"
      "::test_report_text_matches_reference",
      "tests/test_cli.py::TestOtherCommands"
      "::test_verify_matches_golden_bytes"]),
    ("_ratio without the power of s on x", POLYRING,
     "        x *= s ** e\n",
     "        pass\n",
     ["tests/test_polyring.py::TestRatio"]),
    ("_ratio without the power of s on z", POLYRING,
     "        z *= s ** -e\n",
     "        pass\n",
     ["tests/test_polyring.py::TestRatio"]),
    ("_ratio puts the power of s for e > 0 on z", POLYRING,
     "        x *= s ** e\n",
     "        z *= s ** e\n",
     ["tests/test_polyring.py::TestRatio"]),
    ("_ratio puts the power of s for e < 0 on x", POLYRING,
     "        z *= s ** -e\n",
     "        x *= s ** -e\n",
     ["tests/test_polyring.py::TestRatio"]),
    ("Polynomial.__str__ without its gcd", POLYRING,
     "                g = math.gcd(c, d)\n",
     "                g = 1\n",
     ["tests/test_polyring.py::TestText"]),
    ("as_fraction without its lowest-terms test", POLYRING,
     "        if str(value) == x:\n",
     "        if True:\n",
     ["tests/test_polyring.py::TestRationalGrammar"
      "::test_bad_string_is_value_error"]),
    ("as_fraction takes bools", POLYRING,
     "    if isinstance(x, int) and not isinstance(x, bool):\n"
     "        return Fraction(x)\n",
     "    if isinstance(x, int):\n        return Fraction(x)\n",
     ["tests/test_polyring.py::TestRationalGrammar"
      "::test_bool_and_float_are_type_errors"]),
    ("_times without the gcd of p and du", POLYRING,
     "    g = math.gcd(p, du)\n    if g > 1:\n"
     "        p, du = p // g, du // g\n",
     "",
     ["tests/test_polyring_oracle.py::test_scalar_ops",
      "tests/test_expansion.py::TestExpansionToTriple"
      "::test_conjugate_gives_same_triple"]),
    ("poly_sqrt without its low-coefficient check", POLYRING,
     "    for k in range(g):\n        acc = -w[k]\n",
     "    for k in range(0):\n        acc = -w[k]\n",
     ["tests/test_polyring.py::TestSqrt::test_non_square"]),
    ("rational_roots does not lift inv", POLYRING,
     "            inv = inv * (2 - _homogeneous(df, y, 1) * inv) % m\n",
     "",
     ["tests/test_polyring_oracle.py::test_rational_roots",
      "tests/test_jacobi.py::TestRootSearch"
      "::test_matches_euclid_first_reference"]),
    ("_simple_roots_mod never reports a multiple root", POLYRING,
     "    return None if multiple else roots\n",
     "    return roots\n",
     ["tests/test_jacobi.py::TestRootSearch"
      "::test_matches_euclid_first_reference",
      "tests/test_jacobi.py::TestToDivisor::test_error_records"]),
    ("the peel's final read without its W/Z fallback", EXPANSION,
     "    if x == 0:\n        y, x = _ratio(W, Z, al)\n",
     "",
     ["tests/test_expansion.py::TestRoundTrip::test_random_round_trip",
      "tests/test_expansion.py::TestExpand::test_n1_closed_forms"]),
    ("the sigma step leaves b_N unmoved at k = N - 1", SYMMETRY,
     "    b[k + 1] = _plus(b[k + 1], -n, d, pool)\n",
     "    if k + 1 < len(b) - 1:\n"
     "        b[k + 1] = _plus(b[k + 1], -n, d, pool)\n",
     ["tests/test_symmetry.py::TestSigma::test_sigma2"]),
    ("the sigma step skips b_{k+1} at k = N - 2", SYMMETRY,
     "    b[k + 1] = _plus(b[k + 1], -n, d, pool)\n",
     "    if k != len(b) - 3:\n"
     "        b[k + 1] = _plus(b[k + 1], -n, d, pool)\n",
     ["tests/test_symmetry.py::TestSigma::test_sigma1"]),
    ("the epspi step with b~_0 = b_0 + b_N", SYMMETRY,
     "_plus(b[0], *t[0], neg.pool)",
     "_plus(b[0], *b[-1], neg.pool)",
     ["tests/test_symmetry.py::TestEpsPi::test_sect4"]),
    ("the epspi step keeps the sign of the block", SYMMETRY,
     "        q = -p[0], p[1]\n",
     "        q = p[0], p[1]\n",
     ["tests/test_symmetry.py::TestEpsPi::test_sect4"]),
    # Each value is still right, as Fraction(n, d) reduces it, but equal
    # values no longer share one pair, so orbit makes a Fraction for each.
    ("the pair step leaves its sum unreduced", SYMMETRY,
     "    g = gcd(n, d)\n    q = n // g, d // g\n",
     "    q = n, d\n",
     ["tests/test_symmetry.py::TestOrbitPool"
      "::test_each_value_is_one_fraction"]),
    ("orbit skips the pool", SYMMETRY,
     "v = tuple(map(value, made[node]))",
     "v = tuple([Fraction(*p) for p in made[node]])",
     ["tests/test_symmetry.py::TestOrbitPool"
      "::test_each_value_is_one_fraction"]),
    ("orbit never flips the branch", SYMMETRY,
     "flip = not pure and bool(expansion_to_triple(e)[1])",
     "flip = False",
     ["tests/test_symmetry.py::TestOrbit"
      "::test_sect4_orbit_is_golden_table"]),
    ("orbit's pair swap with >", SYMMETRY,
     "            if p[0] * q[1] < q[0] * p[1]:\n",
     "            if p[0] * q[1] > q[0] * p[1]:\n",
     ["tests/test_symmetry.py::TestOrbit::test_canonical_order",
      "tests/test_cli.py::TestOtherCommands"
      "::test_orbit_matches_golden_bytes"]),
    ("jacobi_from_divisor without its u == 0 test", JACOBI,
     "        u = U(lam)\n        if u == 0:\n",
     "        u = U(lam)\n        if False:\n",
     ["tests/test_jacobi.py::TestFromDivisor"
      "::test_repeated_abscissa_rejected",
      "tests/test_jacobi.py::TestFromDivisor"
      "::test_conjugate_pair_rejected"]),
    ("_combine with the cofactors swapped", POLYRING,
     "    a, c = a * t, c * s\n",
     "    a, c = a * s, c * t\n",
     ["tests/test_polyring.py::TestProperties::test_division_invariant"]),
    ("_combine with g = 1", POLYRING,
     "    g = math.gcd(du, dv)\n",
     "    g = 1\n",
     ["tests/test_polyring.py::TestProperties::test_division_invariant"]),
    ("_reduced without rescaling the quotients so far", POLYRING,
     "            out = [a * m for a in out]\n",
     "",
     ["tests/test_polyring.py::TestProperties::test_division_invariant"]),
    # The Y/W fallback: (Y, W) at al, peeled by the b_i found so far.
    ("the peel's Y/W fallback without its scalar recurrence", EXPANSION,
     "            for a, c in zip(alphas, bs):\n"
     "                x, z = z, (x - c * z) / (al - a)\n",
     "",
     ["tests/test_expansion.py::TestPeelZeroPivot::test_y_over_w_after_step_0",
      "tests/test_expansion_oracle.py::test_step_matches_peel"]),
    ("the peel's Y/W recurrence divides by a - al", EXPANSION,
     "(x - c * z) / (al - a)",
     "(x - c * z) / (a - al)",
     ["tests/test_expansion.py::TestPeelZeroPivot::test_y_over_w_after_step_0",
      "tests/test_expansion_oracle.py::test_step_matches_peel"]),
    ("the peel's Y/W recurrence adds c * z", EXPANSION,
     "(x - c * z) / (al - a)",
     "(x + c * z) / (al - a)",
     ["tests/test_expansion.py::TestPeelZeroPivot::test_y_over_w_after_step_0",
      "tests/test_expansion_oracle.py::test_step_matches_peel"]),
    # Equivalent at integer shifts, where s = 1.
    ("_peel_step without den *= sk // s", POLYRING,
     "    den *= sk // s\n",
     "",
     ["tests/test_expansion.py::TestRoundTrip::test_random_round_trip"]),
    ("expand raises a degenerate branch's error", EXPANSION,
     "        except FactorizationDegenerate as exc:\n"
     "            branches.append(exc)\n",
     "        except FactorizationDegenerate:\n            raise\n",
     ["tests/test_expansion.py::TestExpand::test_degenerate_branch",
      "tests/test_cli.py::TestExpandCommand::test_degenerate_branch"]),
    ("the walk's epspi keeps the shift order", SYMMETRY,
     "            alphas = alphas[::-1]\n",
     "            pass\n",
     ["tests/test_symmetry.py::TestEpsPi::test_sect4",
      "tests/test_symmetry.py::TestWord"
      "::test_composition_reaches_conjugate_row"]),
    ("the walk names the step after the zero pivot", SYMMETRY,
     '"step %d: %s" % (i, _undefined(k))',
     '"step %d: %s" % (i + 1, _undefined(k))',
     ["tests/test_symmetry.py::TestWord::test_zero_pivot_reports_step",
      "tests/test_symmetry.py::TestWord"
      "::test_later_zero_pivot_reports_its_step"]),
    # The walk still stops there, but as step 0 of a word.
    ("apply_sigma without its own zero test", SYMMETRY,
     "    if not e.block[k - 1]:\n        raise ZeroPivot(_undefined(k))\n",
     "",
     ["tests/test_symmetry.py::TestSigma::test_zero_pivot",
      "tests/test_symmetry.py::TestWord"
      "::test_word_is_the_fold_of_the_generators"]),
    # The last move becomes the identity, so sigma_(m-1) maps an element
    # onto itself and its pairs never reach the orbit.
    ("sigma_k's move swaps positions k and k + 1", SYMMETRY,
     "number[o[:k - 1] + (o[k], o[k - 1]) + o[k + 1:]]",
     "number[o[:k] + o[k + 1:k + 2] + o[k:k + 1] + o[k + 2:]]",
     ["tests/test_symmetry.py::TestOrbitWalk"
      "::test_moves_number_the_orders_lexicographically",
      "tests/test_symmetry.py::TestOrbit"
      "::test_sect4_orbit_is_golden_table"]),
    ("the reversal move is the identity", SYMMETRY,
     "[number[o[::-1]] for o in orders]",
     "list(range(len(orders)))",
     ["tests/test_symmetry.py::TestOrbitWalk"
      "::test_moves_number_the_orders_lexicographically",
      "tests/test_symmetry.py::TestOrbit"
      "::test_sect4_orbit_is_golden_table"]),
    ("the move tables are built per call", SYMMETRY,
     "@cache\n",
     "",
     ["tests/test_symmetry.py::TestOrbitWalk"
      "::test_a_second_orbit_of_the_same_m_builds_no_table"]),
    ("epspi keeps the branch", SYMMETRY,
     "(branch ^ flip)",
     "branch",
     ["tests/test_symmetry.py::TestOrbit"
      "::test_sect4_orbit_is_golden_table"]),
    # The two branches of a half-trace-0 orbit are one expansion.
    ("epspi always flips the branch", SYMMETRY,
     "(branch ^ flip)",
     "(branch ^ 1)",
     ["tests/test_symmetry.py::TestOrbitAgainstValueKeyedBFS"
      "::test_zero_half_trace"]),
    ("the sigma step's diff is read from the swapped order", SYMMETRY,
     "diffs[order[k - 1]][order[k]]",
     "diffs[order[k]][order[k - 1]]",
     ["tests/test_symmetry.py::TestOrbit"
      "::test_sect4_orbit_is_golden_table"]),
    # At N = 3 every epspi image is a sigma image made first.
    ("epspi runs in pure mode", SYMMETRY,
     "            if not pure:\n",
     "            if True:\n",
     ["tests/test_symmetry.py::TestOrbitAgainstValueKeyedBFS"
      "::test_pure_n7"]),
    ("a skipped edge names sigma_(k+1)", SYMMETRY,
     "skipped.append((node, k))",
     "skipped.append((node, k + 1))",
     ["tests/test_symmetry.py::TestOrbitAgainstValueKeyedBFS"
      "::test_seeded_corpus",
      "tests/test_cli.py::TestOtherCommands"
      "::test_orbit_matches_golden_bytes"]),
    ("the build never swaps the branches", SYMMETRY,
     "                nodes = nodes[::-1]\n",
     "                pass\n",
     ["tests/test_symmetry.py::TestOrbit::test_canonical_order",
      "tests/test_cli.py::TestOtherCommands"
      "::test_complete_orbit_matches_golden_bytes"]),
    # Only an incomplete orbit has a shift order on branch 1 alone.
    ("the build drops a shift order without branch 0", SYMMETRY,
     "        elif not (b or c):\n",
     "        elif not b:\n",
     ["tests/test_symmetry.py::TestOrbitAgainstValueKeyedBFS"
      "::test_seeded_corpus",
      "tests/test_cli.py::TestOtherCommands"
      "::test_orbit_matches_golden_bytes"]),
    # The memo holds the negation, so only a pair's first use is wrong.
    ("the negation memo returns the pair unnegated on a miss", SYMMETRY,
     "        return q\n",
     "        return p\n",
     ["tests/test_symmetry.py::TestEpsPi::test_sect4"]),
    ("triple equality skips the last field", EXPANSION,
     "        return self._fields() == other._fields()\n",
     "        return self._fields()[:-1] == other._fields()[:-1]\n",
     ["tests/test_expansion.py::TestValueSemantics::test_each_field_counts"]),
    ("the triples' type check skips the last field", EXPANSION,
     "            if not isinstance(p, Polynomial):\n",
     "            if not isinstance(p, Polynomial)"
     " and name != self.__slots__[-1]:\n",
     ["tests/test_expansion.py::TestConstructorChecks"
      "::test_alpha_triple_fields_are_polynomials",
      "tests/test_jacobi.py::TestJacobiTriple::test_fields_are_polynomials"]),
]


def copy_tree(dest):
    """src/, tests/, pyproject.toml, which holds tier-1's pytest
    configuration, and README.md, whose examples tests/test_readme.py
    runs, of the repository under dest, without caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(os.path.join(ROOT, name), dest)


def run_tests(root, node_ids):
    """pytest's exit code for node_ids under root, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", *node_ids]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=TIMEOUT_S,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


def mutate(root, path, snippet, replacement):
    """Apply one mutant under root; returns the snippet's count in path."""
    full = os.path.join(root, path)
    with open(full, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(snippet)
    if count == 1:
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text.replace(snippet, replacement))
    return count


def main():
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(tmp)
        every = sorted({n for *_, node_ids in MUTANTS for n in node_ids})
        code = run_tests(tmp, every)
        if code != 0:
            print("ERROR: the named tests do not pass unmutated (exit %s)"
                  % code)
            return 1
    for name, path, snippet, replacement, node_ids in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(tmp)
            count = mutate(tmp, path, snippet, replacement)
            if count != 1:
                verdict = "ERROR: snippet occurs %d times in %s" % (count,
                                                                    path)
            else:
                code = run_tests(tmp, node_ids)
                verdict = ("killed (timeout)" if code is None
                           else "killed" if code == 1
                           else "SURVIVED" if code == 0
                           else "ERROR: pytest exit code %d" % code)
        bad += not verdict.startswith("killed")
        print("%-50s %s" % (name, verdict))
    print("%d of %d mutants killed" % (len(MUTANTS) - bad, len(MUTANTS)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
