"""README's examples, run as written.

The library tour is executed and every result its comments state is
checked against what it computes; the CLI examples run through the
in-process main.  Both are read from README.md itself, so a change to an
example or to a stated result there is a change this module sees.
"""
import io
import pathlib
import re
import shlex
import sys
from fractions import Fraction

import pytest

from alphafrac import AlphaSequence, Expansion
from alphafrac.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def fenced(lang, heading):
    """The first ```lang block after the line `heading` in README.md."""
    text = README.read_text(encoding="utf-8")
    start = text.index("\n%s\n" % heading)
    match = re.compile(r"^```%s\n(.*?)^```$" % lang, re.S | re.M).search(
        text, start)
    assert match, "no %s block under %r" % (lang, heading)
    return match.group(1)


def rationals(text):
    """The rationals of a comma-separated list: "-1/5, 6/5" is
    [Fraction(-1, 5), Fraction(6, 5)]."""
    return [Fraction(t) for t in text.split(",")]


def expansion(text):
    """The README notation [b0; b1, ..., bN]_(a1,...,aN) as an Expansion."""
    match = re.fullmatch(r"\[(.*);(.*)\]_\((.*)\)", text)
    assert match, text
    b0, block, alphas = match.groups()
    return Expansion(Fraction(b0), rationals(block),
                     AlphaSequence(rationals(alphas)))


@pytest.fixture(scope="module")
def tour():
    """The tour's source and the names it leaves bound."""
    source = fenced("python", "## Library tour")
    names = {}
    exec(compile(source, str(README), "exec"), names)
    return source, names


def test_tour_expansions(tour):
    # "# plus  = [1; -3, 1, 3]_(1,3,4)"
    source, names = tour
    stated = re.findall(r"^# (\w+) += (\[.*\]_\(.*\))$", source, re.M)
    assert [name for name, _ in stated] == ["plus", "minus"]
    for name, text in stated:
        assert names[name] == expansion(text), name


def test_tour_orbit_size(tour):
    # "full = orbit(plus)   # all 12 = 2 * 3! expansions, ..."
    source, names = tour
    stated = re.findall(r"^(\w+) = orbit\(\w+\) +# all (\d+) ", source, re.M)
    assert len(stated) == 1
    name, size = stated[0]
    assert names[name].complete
    assert len(names[name].expansions) == int(size)


def test_tour_pure_beta_candidates(tour):
    # "pure_beta_candidates(jac, 4)   # [-2, -7/2]"
    source, names = tour
    stated = re.findall(r"^(pure_beta_candidates\(.*\)) +# \[(.*)\]$",
                        source, re.M)
    assert len(stated) == 1
    call, values = stated[0]
    assert eval(call, names) == rationals(values)


def cli_examples():
    """Each command of the CLI section's sh block as (argv, stdin text):
    a quoted payload may span lines and a trailing backslash continues
    one; `echo '<json>' | alphafrac ...` feeds the payload to stdin."""
    source = fenced("sh", "## CLI").replace("\\\n", " ")
    commands, pending = [], ""
    for line in source.splitlines():
        pending += line + "\n"
        try:
            words = shlex.split(pending, comments=True)
        except ValueError:          # a quote still open: read on
            continue
        if words:
            commands.append(words)
        pending = ""
    assert pending == ""
    examples = []
    for words in commands:
        stdin = None
        if "|" in words:
            bar = words.index("|")
            assert words[:1] == ["echo"] and bar == 2, words
            stdin, words = words[1], words[bar + 1:]
        assert words[0] == "alphafrac", words
        examples.append((words[1:], stdin))
    return examples


CLI_EXAMPLES = cli_examples()


def test_cli_section_has_four_examples():
    assert len(CLI_EXAMPLES) == 4


@pytest.mark.parametrize("argv, stdin", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_cli_example_exits_0(argv, stdin, capsys, monkeypatch):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out and err == ""
