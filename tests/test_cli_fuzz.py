"""Property test: no input makes the command line raise.

Arbitrary table-file bytes, basis text, words and arguments are fed to
``cli.main``; every run must end in exit code 0, 1 or 2 (argparse's
``SystemExit`` included) with no other exception escaping.  Sizes are kept
small so that every command stays cheap: tables of order at most 3, short
basis text, network depth at most 3 and zeta budgets at most 3.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crvar import cli  # noqa: E402

TABLE = "table.json"
BASIS = "basis.txt"

json_scalars = st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def square_table(n: int):
    """Tables of order n with in-range entries: valid ones are common."""
    element = st.integers(0, n - 1)
    return st.fixed_dictionaries(
        {"op": st.lists(st.lists(element, min_size=n, max_size=n), min_size=n, max_size=n),
         "inv": st.lists(element, min_size=n, max_size=n)},
        optional={"order": st.integers(0, 4), "name": st.text(max_size=6) | json_values},
    )


entries = st.integers(-1, 3) | st.floats() | json_scalars
malformed_tables = st.fixed_dictionaries(
    {"op": st.lists(st.lists(entries, max_size=3), max_size=3) | json_values,
     "inv": st.lists(entries, max_size=3) | json_values},
    optional={"order": json_values, "name": json_values},
)
square_tables = st.integers(1, 3).flatmap(square_table)
float_tables = square_tables.map(lambda p: {**p, "op": [[float(x) for x in r] for r in p["op"]]})
table_bytes = st.one_of(
    st.binary(max_size=64),
    st.one_of(square_tables, float_tables, malformed_tables).map(lambda p: json.dumps(p).encode()),
    st.sampled_from([10, 100000]).map(lambda k: b"[" * k + b"]" * k),
)

word_text = st.one_of(
    st.text(alphabet="xyz()^-10 ", max_size=14),
    st.text(max_size=8),
    st.sampled_from([10, 3000]).map(lambda k: "(" * k + "x" + ")^-1" * k),
)
basis_text = st.text(alphabet="xyz=() ^-1in#E\n", max_size=20) | st.text(max_size=12)
formats = st.sampled_from(
    [[], ["--format", "json"], ["-o", "out.txt"], ["-o", "missing/out.txt"]]
)
small_int = st.integers(-1, 3).map(str) | st.text(max_size=3)

argvs = st.one_of(
    st.tuples(
        st.just(["semigroup"]),
        st.sampled_from(["check", "green", "dual", "extend"]).map(lambda a: [a, TABLE]),
        formats,
    ),
    st.tuples(
        st.just(["semigroup"]),
        st.sampled_from(["congruence", "quotient"]).map(lambda a: [a, TABLE]),
        st.sampled_from(["L0", "R0", "H0", "tau", "nope"]).map(lambda k: ["--kind", k]),
    ),
    st.tuples(
        st.just(["variety"]),
        st.sampled_from([BASIS, "catalog:B", "catalog:NOPE", "missing.txt"]).map(
            lambda b: ["member", b, TABLE]
        ),
        formats,
    ),
    st.tuples(
        st.just(["variety"]),
        st.sampled_from(["dual", "apply"]).map(lambda a: [a, BASIS]),
        st.text(max_size=8).map(lambda ops: ["--ops", ops]),
    ),
    st.tuples(
        st.just(["word"]),
        st.tuples(st.sampled_from(["validate", "parse", "mirror"]), word_text).map(list),
        formats,
    ),
    st.tuples(
        st.just(["word", "zeta-check"]),
        st.tuples(word_text, word_text).map(list),
        st.integers(-1, 3).map(lambda b: ["--budget", str(b)]),
    ),
    st.tuples(
        st.just(["network"]),
        st.tuples(st.sampled_from(["4.2", "4.3", "4.5", "5.1", "6.1", "7"]), small_int).map(
            lambda a: ["--theorem", a[0], "--depth", a[1]]
        ),
        st.lists(
            st.sampled_from(
                ["--with-top", "--assume-side-conditions", "--default-upper", "--format=json",
                 "--bind=V=S,Vl=LNB,Vr=RNB", "--bind=V=NOPE", "--bind=x", "--output=missing/out"]
            ),
            max_size=3,
        ),
    ),
    st.tuples(st.lists(st.text(max_size=6), max_size=5), st.just([]), st.just([])),
).map(lambda parts: [a for part in parts for a in part])


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            return exc.code


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(table=table_bytes, basis=basis_text, argv=argvs)
def test_cli_exit_codes(tmp_path, monkeypatch, table, basis, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / TABLE).write_bytes(table)
    (tmp_path / BASIS).write_text(basis, encoding="utf-8")
    assert run_cli(argv) in (0, 1, 2)
