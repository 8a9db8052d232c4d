"""Argument fuzzing: every argv for partition, delta and atlas ends in exit
code 0, 1 or 2, never in an escaping exception.

``main`` runs in process with stdout and stderr captured.  Sizes stay
bounded: parts and numeric ``--n`` at most 1000, at most 12 parts, and
integers past ``int()``'s digit limit only as digit strings that the parser
refuses.  Only the packaged atlas and a missing file are read; nothing is
written.
"""

import contextlib
import io
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from nilorb.cli import main
from nilorb.delta_check import PRESETS
from nilorb.orbit_atlas import GROUPS
from nilorb.orbit_partitions import KINDS
from nilorb.root_system import ROOT_SYSTEM_NAMES

PARTITION_ACTIONS = ["validate", "special", "rigid", "step", "sources", "rigid-special-source"]

junk = st.text(max_size=12)
too_many_digits = st.integers(
    sys.get_int_max_str_digits() + 1, sys.get_int_max_str_digits() + 700
).map(lambda k: "9" * k)
step_index = st.integers(1, 1000).map(str)
# small nonincreasing parts make a valid orbit often enough to reach the
# calculus; unsorted lists and junk reach the parser's and validator's refusals
partition = st.lists(st.integers(1, 4), max_size=12).map(
    lambda xs: ",".join(map(str, sorted(xs, reverse=True)))
)
int_list = st.lists(st.integers(-3, 1000), max_size=12).map(lambda xs: ",".join(map(str, xs)))
int_text = st.one_of(partition, int_list, junk, too_many_digits)


def usually(strategy, otherwise):
    """``strategy`` three times in four, else ``otherwise``."""
    return st.integers(0, 3).flatmap(lambda k: strategy if k else otherwise)


def option(flag, values):
    return usually(values.map(lambda v: [flag, v]), st.just([]))


def command(name, actions, *options):
    """``[name, action?, *shuffled options, --json?, *extra tokens?]``"""
    action = st.sampled_from([[], *([a] for a in actions)])
    extra = st.lists(st.sampled_from(["-h", "--n", "all"]) | junk, min_size=1, max_size=2)
    return st.tuples(
        action,
        st.permutations(list(options)).flatmap(lambda opts: st.tuples(*opts)),
        st.sampled_from([[], ["--json"]]),
        usually(st.just([]), extra),
    ).map(lambda t: [name, *t[0], *(tok for pair in t[1] for tok in pair), *t[2], *t[3]])


# each list of choices ends in one value that is refused
free_partition = command(
    "partition",
    [*PARTITION_ACTIONS, "x"],
    option("--type", st.sampled_from([*KINDS, "A"])),
    option("--parts", int_text),
    option("--n", st.one_of(step_index, int_list, junk, too_many_digits)),
    option("--variant", st.sampled_from(["i", "ii", "iii"])),
)

# every flag well-formed, so most examples reach the partition calculus; a
# step gets a step index and often a forced variant, which may be illegal
formed_partition = st.tuples(
    st.sampled_from(PARTITION_ACTIONS), st.sampled_from(KINDS), partition
).map(lambda t: ["partition", t[0], "--type", t[1], "--parts", t[2]])
formed_step = st.tuples(
    st.sampled_from(KINDS), partition, step_index, option("--variant", st.sampled_from(["i", "ii"]))
).map(lambda t: ["partition", "step", "--type", t[0], "--parts", t[1], "--n", t[2], *t[3]])

delta_argv = command(
    "delta",
    [],
    option("--preset", st.sampled_from([*PRESETS, "E7:A1"])),
    option("--system", st.sampled_from([*ROOT_SYSTEM_NAMES, "E6"])),
    option("--levi", st.one_of(st.just("all"), int_text)),
)

atlas_argv = command(
    "atlas",
    ["query", "check", "list", "x"],
    option("--group", st.sampled_from([*GROUPS, "A1"]) | junk),
    option("--label", st.sampled_from(["A_4+2A_1", "A_2+A_1", "A_1"]) | junk),
    option("--data", st.sampled_from(["", "no-such-directory/atlas.json"])),
)


@settings(max_examples=300, deadline=None, database=None)
@given(argv=st.one_of(free_partition, formed_partition, formed_step, delta_argv, atlas_argv))
def test_any_argv_ends_in_exit_code_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue()[-300:])
