"""README's examples, run as written.

The library tour is executed and every result its comments state is
checked against what it computes; the CLI examples run through the
in-process main.  Both are read from README.md itself, so a change to an
example or to a stated result there is a change this module sees.  The
lists README keeps, of subcommands and of example names, are checked
against the parser and the datasets, and README names no private helper:
how the code works is told in its docstrings.
"""
import pathlib
import re
import shlex
from fractions import Fraction

import pytest

from alphafrac import AlphaSequence, Expansion
from alphafrac.cli import build_parser
from alphafrac.datasets import EXAMPLE_NAMES

from conftest import run_cli

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
def test_cli_example_exits_0(argv, stdin):
    code, out, err = run_cli(argv, stdin)
    assert code == 0
    assert out and err == ""


def test_subcommand_list_matches_parser():
    # "Subcommands: `expand`, ..., `act` (`--word ...`), ..., `example`
    # (`--name ...`)." up to the paragraph's end, options in parentheses.
    text = README.read_text(encoding="utf-8")
    listed = text[text.index("\nSubcommands: "):].split("\n\n")[0]
    listed = re.findall(r"`([^`]+)`", re.sub(r"\([^()]*\)", "", listed))
    usage = build_parser().format_usage()
    commands = re.search(r"\{([^}]*)\}", usage).group(1).split(",")
    assert listed == commands


def test_example_name_list_matches_datasets():
    # "`--name sect4|n1-periodic|n1-pure|pure-n3`"
    text = README.read_text(encoding="utf-8")
    stated = re.findall(r"`--name ([^`]+)`", text)
    assert [names.split("|") for names in stated] == [list(EXAMPLE_NAMES)]


def private_names(span):
    """The dotted names in one code span that start with, or have a part
    that starts with, a single underscore; a dunder such as __init__ is
    public, and no part of a path such as tests/test_*_oracle.py is a
    name."""
    names = re.findall(r"(?<![\w/*])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?![\w/*])",
                       span)
    return [name for name in names
            if any(part.startswith("_") and not (part.startswith("__")
                                                 and part.endswith("__"))
                   for part in name.split("."))]


def test_names_no_private_helper():
    # README says what and why; a private helper is how, which belongs to
    # the docstrings next to it.
    assert private_names("_cancel(d, v)") == ["_cancel"]
    assert private_names("AlphaSequence._from_checked") == [
        "AlphaSequence._from_checked"]
    assert private_names("__init__") == []
    assert private_names("tests/test_*_oracle.py") == []
    assert private_names("f() / _scalar(x)._x") == ["_scalar", "_x"]
    assert private_names('"1_0"') == private_names('"sigma:0_1"') == []
    text = README.read_text(encoding="utf-8")
    prose = re.sub(r"^```.*?^```$", "", text, flags=re.S | re.M)
    spans = re.findall(r"`([^`\n]+)`", prose)
    assert spans
    found = [name for span in spans for name in private_names(span)]
    assert found == []
