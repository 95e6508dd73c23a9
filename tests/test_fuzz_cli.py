"""Seeded fuzzing of JSON input through the CLI.

Every input file either runs or is refused: the exit code is 0, 1 or 2 and
no exception other than SystemExit escapes. Every record a loader accepts
round-trips through `record_of`.
"""

import itertools
import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from knotmeta.cli import main
from knotmeta.knotdata import KnotDataError, load_apolys, load_knots, record_of

FUZZ = settings(
    derandomize=True,
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
names = st.text(max_size=4)
small_ints = st.integers(-3, 3)


def int_field(values):
    """Three draws in four from `values`, the rest any JSON value."""
    return st.one_of(values, values, values, json_values)


def odd(lo, hi):
    return st.integers(lo, hi).map(lambda k: 2 * k + 1)


def square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def seifert_matrices(draw):
    """V = S + E with S symmetric and E - E^T the standard symplectic form,
    so det(V - V^T) = 1: a Seifert matrix whatever S is."""
    g = draw(st.integers(1, 2))
    n = 2 * g
    upper = draw(square(n, small_ints))
    V = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    for k in range(g):
        V[2 * k][2 * k + 1] += 1
    return V


seifert_records = st.fixed_dictionaries(
    {
        "type": st.just("seifert"),
        "name": names | json_values,
        "V": st.one_of(
            seifert_matrices(),
            seifert_matrices(),
            st.integers(0, 4).flatmap(lambda n: square(n, int_field(small_ints))),
            json_values,
        ),
    }
)
twobridge_records = st.fixed_dictionaries(
    {
        "type": st.just("twobridge"),
        "name": names | json_values,
        "p": int_field(odd(1, 12) | st.integers(-9, 25)),
        "q": int_field(odd(-12, 11) | st.integers(-25, 25)),
    }
)
# a valid S(p,q) under a name that is not a JSON string: always refused
misnamed_records = st.fixed_dictionaries(
    {
        "type": st.just("twobridge"),
        "name": json_values.filter(lambda v: type(v) is not str),
        "p": st.just(5),
        "q": st.sampled_from([-3, -1, 1, 3]),
    }
)
terms = st.lists(
    st.fixed_dictionaries(
        {
            "m": int_field(st.integers(0, 3).map(lambda k: 2 * k) | st.integers(-1, 6)),
            "l": int_field(st.integers(-1, 4)),
            "c": int_field(small_ints),
        }
    ),
    max_size=5,
)
apoly_records = st.fixed_dictionaries(
    {
        "type": st.just("apoly"),
        "name": names | json_values,
        "terms": terms | terms | json_values,
    },
    optional={
        "p": int_field(odd(1, 10)),
        "q": int_field(odd(-10, 9)),
        "small": st.one_of(st.booleans(), st.booleans(), json_values),
    },
)
non_objects = json_values.filter(lambda v: not isinstance(v, dict))


def documents(records):
    """A list of records, one bare record, or a broken shape: stray JSON
    values among the records or as the whole document."""
    return st.one_of(
        st.lists(records, max_size=3),
        st.lists(records, max_size=3),
        st.lists(records | non_objects, max_size=3),
        records,
        json_values,
    )


@pytest.fixture(scope="module")
def new_file(tmp_path_factory):
    """A fresh path per call: each example writes a new file rather than
    truncating the last one."""
    workdir = tmp_path_factory.mktemp("fuzz")
    serial = itertools.count()
    return lambda: workdir / f"{next(serial)}.json"


def _round_trip(load, path, new_file):
    try:
        models = load(path)
    except KnotDataError:
        return
    again = new_file()
    again.write_text(json.dumps([record_of(m) for m in models]))
    reloaded = load(again)
    assert reloaded == models
    assert [record_of(m) for m in reloaded] == [record_of(m) for m in models]


def _run(new_file, args, doc):
    path = new_file()
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, [*args, "-i", str(path)])
    assert res.exit_code in (0, 1, 2), (res.exit_code, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), doc
    # a record whose name is not a string is refused, never renamed
    records = doc if isinstance(doc, list) else [doc]
    if any(type(r) is dict and type(r.get("name", "")) is not str for r in records):
        assert res.exit_code == 2, (doc, res.output)
    return path


@FUZZ
@given(
    doc=documents(seifert_records | twobridge_records | misnamed_records),
    command=st.sampled_from(["det", "meta-count"]),
    fmt=st.sampled_from(["table", "json", "csv"]),
)
def test_knot_input(new_file, doc, command, fmt):
    path = _run(new_file, [command, "-f", fmt], doc)
    _round_trip(load_knots, path, new_file)


@FUZZ
@given(
    doc=documents(seifert_records),
    command=st.sampled_from(["meta-enum", "meta-verify"]),
    fmt=st.sampled_from(["table", "json"]),
)
def test_seifert_input(new_file, doc, command, fmt):
    path = _run(new_file, [command, "-f", fmt], doc)
    _round_trip(load_knots, path, new_file)


@FUZZ
@given(
    doc=documents(apoly_records),
    det=st.none() | st.integers(-5, 11),
    fmt=st.sampled_from(["table", "json"]),
)
def test_apoly_input(new_file, doc, det, fmt):
    args = ["apoly-analyze", "-f", fmt] + ([] if det is None else ["--det", str(det)])
    path = _run(new_file, args, doc)
    _round_trip(load_apolys, path, new_file)
