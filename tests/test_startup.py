"""What `import knotmeta.cli` loads, and the record semantics the package
keeps with NamedTuple records in place of dataclasses: immutable, copyable
and picklable, validating on construction.

Every CLI call pays for the import before it computes, so the CLI path
loads no `dataclasses`, `fractions`, `decimal`, `importlib.resources` or
`click`: `Fraction` is imported only by the library `thetas` properties and
`importlib.resources` only by `knotdata.fixture_path`. A call whose argv
the command's option table parses loads no `argparse`, `gettext` or
`locale` either; argparse is imported only for help and usage errors.
The probe runs
under `python -S` with only `src` on `sys.path`, so no `.pth` file in
site-packages preloads a module and no third-party package can be loaded.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from knotmeta.apoly import APoly, APolyError, analyze
from knotmeta.intlinalg import IntLinAlgError, IntMat
from knotmeta.knotdata import (
    GroupWord,
    KnotDataError,
    SeifertKnot,
    TwoBridge,
    builtin_apolys,
    relator_word,
)
from knotmeta.metabelian import MetabelianClass, enumerate_metabelian, verify_class
from knotmeta.riley import (
    cross_check_counts,
    section_at_minus_one,
    verify_longitude_mod_phi,
    verify_relator_mod_phi,
)

SRC = Path(__file__).parents[1] / "src"
HEAVY = ("dataclasses", "fractions", "decimal", "importlib.resources", "click")

TREFOIL = SeifertKnot("3_1", IntMat([[-1, 1], [0, -1]]))


def heavy_modules_after(statements: str, modules=HEAVY) -> list:
    """The modules of `modules` loaded by a bare interpreter (-S) that runs
    `statements` with src first on sys.path."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"{statements}\n"
        f"print(' '.join(m for m in {tuple(modules)!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return proc.stdout.split()


def test_cli_import_loads_none_of_the_heavy_modules():
    assert heavy_modules_after("import knotmeta.cli") == []


def test_in_process_call_loads_no_ascii_codec():
    """A call whose stdout is an io.StringIO, as an in-process caller
    captures it, has no encoding to check and loads no codec for one."""
    call = (
        "import contextlib, io\n"
        "from knotmeta.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    main(['tb-riley', '-p', '5', '-q', '3', '--roots'])\n"
        "assert out.getvalue().startswith('name: S(5,3)')"
    )
    assert heavy_modules_after(call, ["encodings.ascii"]) == []


ARGPARSE = ("argparse", "gettext", "locale")


def test_table_parsed_call_loads_no_argparse():
    call = (
        "import contextlib, io\n"
        "from knotmeta.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    main(['tb-riley', '-p', '5', '-q', '-3', '--roots'])\n"
        "assert out.getvalue().startswith('name: S(5,-3)')"
    )
    assert heavy_modules_after("import knotmeta.cli", ARGPARSE) == []
    assert heavy_modules_after(call, ARGPARSE) == []


@pytest.mark.parametrize(
    "args, code, stderr",
    [
        (["tb-riley", "--help"], 0, ""),
        (
            ["tb-riley", "-p", "5"],
            2,
            (SRC.parent / "tests/data/cli/tb-riley-usage-error.err").read_text(),
        ),
    ],
    ids=["help", "usage-error"],
)
def test_help_and_usage_errors_load_argparse(args, code, stderr):
    call = (
        "import contextlib, io\n"
        "from knotmeta.cli import main\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "    try:\n"
        f"        main({args!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"assert (code, err.getvalue()) == ({code!r}, {stderr!r}), err.getvalue()"
    )
    assert "argparse" in heavy_modules_after(call, ARGPARSE)


@pytest.mark.parametrize(
    "call, module",
    [
        ("knotmeta.metabelian.MetabelianClass((1, 2), 3).thetas", "fractions"),
        ("knotmeta.knotdata.fixture_path('apolys.json')", "importlib.resources"),
    ],
)
def test_library_calls_load_them_on_demand(call, module):
    # also shows that the probe sees a module once something imports it
    assert module in heavy_modules_after(f"import knotmeta.cli\n{call}")


def all_records() -> list:
    """One instance of each of the package's 16 record types."""
    K = TwoBridge("S(5,3)", 5, 3)
    sec = section_at_minus_one(K)
    c = enumerate_metabelian(TREFOIL)[0]
    A = builtin_apolys()[0]
    report = analyze(A, det=3)
    return [
        TREFOIL, K, relator_word(K), c, verify_class(TREFOIL, c),
        sec, verify_relator_mod_phi(sec),
        verify_longitude_mod_phi(sec), cross_check_counts(sec),
        A, report, report.profile, report.bound, report.probe, report.criteria[0],
        TREFOIL.V,
    ]


def test_every_record_is_immutable():
    records = all_records()
    assert len({type(r) for r in records}) == 16
    for r in records:
        for name in (*r._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, None)


def test_every_record_copies_and_pickles():
    for r in all_records():
        for twin in (copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(twin) is type(r)
            assert twin == r
    # the value records are tuples, but an int factor must not repeat them
    M = TREFOIL.V
    for product in (lambda: M * 2, lambda: 2 * M):
        with pytest.raises(TypeError):
            product()


def test_readme_repr():
    assert repr(enumerate_metabelian(TREFOIL)) == "[MetabelianClass(k=(1, 2), D=3)]"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: TwoBridge("K", 4, 1), KnotDataError, "K: p must be odd and >= 3, got 4"),
        (lambda: TwoBridge("K", 1, 1), KnotDataError, "K: p must be odd and >= 3, got 1"),
        (lambda: TwoBridge("K", 5, 2), KnotDataError, "K: q must be odd, got 2"),
        (lambda: TwoBridge("K", 5, -7), KnotDataError, "K: need p > |q| > 0, got (5, -7)"),
        (lambda: TwoBridge("K", 9, 3), KnotDataError, "K: p and q must be coprime"),
        (
            lambda: SeifertKnot("K", IntMat([[1, 2, 3]])),
            KnotDataError,
            "K: Seifert matrix must be square of even dimension",
        ),
        (
            lambda: SeifertKnot(name="K", V=IntMat([[1, 0], [0, 1]])),
            KnotDataError,
            "K: det(V - V^T) != 1; not a Seifert matrix w.r.t. a symplectic basis",
        ),
        (lambda: GroupWord(((1, 1), (3, 1))), KnotDataError, "bad letter (3, 1) in group word"),
        (
            lambda: MetabelianClass(k=(0, 0), D=3),
            ValueError,
            "metabelian class needs numerators in [0, D), not all zero",
        ),
        # _replace runs the same checks
        (lambda: TwoBridge("K", 5, 3)._replace(p=4), KnotDataError, "K: p must be odd and >= 3, got 4"),
        (
            lambda: TREFOIL._replace(name="K", V=IntMat([[1, 0], [0, 1]])),
            KnotDataError,
            "K: det(V - V^T) != 1; not a Seifert matrix w.r.t. a symplectic basis",
        ),
        (
            lambda: GroupWord(((1, 1), (2, 1)))._replace(letters=((2, 2),)),
            KnotDataError,
            "bad letter (2, 2) in group word",
        ),
        (
            lambda: MetabelianClass((1, 2), 3)._replace(k=(3, 0)),
            ValueError,
            "metabelian class needs numerators in [0, D), not all zero",
        ),
        # inexact input is refused, never truncated
        (
            lambda: IntMat([[1.9, 0.5], [0.2, 2.7]]),
            TypeError,
            "'float' object cannot be interpreted as an integer",
        ),
        (
            lambda: APoly.from_terms("x", {(0.0, 1.5): 2.7, (2, 0): "3"}),
            TypeError,
            "'float' object cannot be interpreted as an integer",
        ),
        (
            lambda: APoly.from_terms("x", {(0, 1): 1}, pq=(3.9, 1.2)),
            TypeError,
            "'float' object cannot be interpreted as an integer",
        ),
        # a boolean is refused too, not read as 0 or 1
        (
            lambda: APoly.from_terms("x", {(0, True): True}),
            APolyError,
            "x: boolean True where an integer is expected",
        ),
        (
            lambda: APoly.from_terms("x", {(0, 1): 1}, pq=(3, True)),
            APolyError,
            "x: boolean True where an integer is expected",
        ),
        # a tag of the wrong length is refused by name, not by TwoBridge's arity
        (
            lambda: APoly.from_terms("x", {(0, 1): 1}, pq=(3,)),
            APolyError,
            "x: two-bridge tag must be (p, q), got (3,)",
        ),
        (
            lambda: APoly.from_terms("x", {(0, 1): 1}, pq=(3, 1, 1)),
            APolyError,
            "x: two-bridge tag must be (p, q), got (3, 1, 1)",
        ),
        (
            lambda: IntMat([[True, False], [0, 1]]),
            IntLinAlgError,
            "matrix entry True is a boolean, not an integer",
        ),
        (lambda: TwoBridge("K", 5, True), KnotDataError, "K: p and q must be integers, got (5, True)"),
        (lambda: TwoBridge("K", 5.0, 3), KnotDataError, "K: p and q must be integers, got (5.0, 3)"),
        (lambda: GroupWord(((True, 1),)), KnotDataError, "bad letter (True, 1) in group word"),
    ],
)
def test_validating_records_keep_their_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_replace_keeps_derived_fields():
    K = TREFOIL._replace(name="mirror", V=IntMat([[1, 1], [0, 1]]))
    assert K.W == IntMat([[2, 1], [1, 2]])
    assert relator_word(TwoBridge("S(5,3)", 5, 3))._replace(letters=((1, 1),)) == GroupWord(((1, 1),))
