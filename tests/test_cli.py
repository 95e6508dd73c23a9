import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import CliRunner
from knotmeta import cli, intlinalg, metabelian
from knotmeta.cli import main
from knotmeta.knotdata import fixture_path
from knotmeta.riley import LongitudeReport, RileyError


@pytest.fixture
def runner():
    return CliRunner()


SEIFERT = str(fixture_path("seifert_knots.json"))
APOLYS = str(fixture_path("apolys.json"))
CORPUS = str(fixture_path("two_bridge_p45.json"))
RECORDED = Path(__file__).parent / "data"
CLI_CASES = json.loads((RECORDED / "cli" / "cases.json").read_text())


@pytest.mark.parametrize("case", CLI_CASES, ids=[c["id"] for c in CLI_CASES])
def test_output_matches_recording(runner, case):
    """stdout, stderr and exit code of every command in every format it
    keeps, and of one error case per command, recorded before the commands
    shared one renderer and one error mapping."""
    recorded = RECORDED / "cli"
    paths = {
        "cli": str(recorded),
        "census": str(RECORDED / "census" / "knots.json"),
        "seifert": SEIFERT,
        "apolys": APOLYS,
    }
    res = runner.invoke(main, [a.format(**paths) for a in case["args"]])
    err = recorded / f"{case['id']}.err"
    assert res.exit_code == case["exit"]
    assert res.stdout == (recorded / f"{case['id']}.out").read_text()
    assert res.stderr == (err.read_text() if err.exists() else "")


class TestDet:
    def test_table(self, runner):
        res = runner.invoke(main, ["det", "-i", SEIFERT])
        assert res.exit_code == 0
        assert "3_1: 3" in res.output
        assert "4_1: 5" in res.output

    def test_csv(self, runner):
        res = runner.invoke(main, ["det", "-i", SEIFERT, "-f", "csv"])
        assert res.output.splitlines()[0] == "name,det"

    def test_missing_file_exits_2(self, runner):
        res = runner.invoke(main, ["det", "-i", "/nonexistent.json"])
        assert res.exit_code == 2
        assert res.stderr == (
            "error: [Errno 2] No such file or directory: '/nonexistent.json'\n"
        )

    def test_non_utf8_file_exits_2(self, runner, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'[{"type": "twobridge", "name": "\xe9", "p": 5, "q": 3}]')
        res = runner.invoke(main, ["det", "-i", str(bad)])
        assert res.exit_code == 2
        assert "malformed JSON" in res.stderr
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_malformed_json_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        res = runner.invoke(main, ["det", "-i", str(bad)])
        assert res.exit_code == 2
        assert "error:" in res.stderr

    @pytest.mark.parametrize("cmd", ["det", "apoly-analyze"])
    def test_deeply_nested_json_exits_2(self, runner, tmp_path, cmd):
        """Nesting past the decoder's recursion limit is malformed JSON, not
        a RecursionError traceback."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        res = runner.invoke(main, [cmd, "-i", str(deep)])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: {deep}: malformed JSON: ")
        assert res.stdout == ""


class TestMeta:
    def test_count_json(self, runner):
        res = runner.invoke(main, ["meta-count", "-i", SEIFERT, "-f", "json"])
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert rows == [
            {"count": 1, "name": "3_1"},
            {"count": 2, "name": "4_1"},
        ]

    def test_enum_lists_classes(self, runner):
        res = runner.invoke(main, ["meta-enum", "-i", SEIFERT])
        assert res.exit_code == 0
        assert "3_1: (1/3, 2/3) order 3" in res.output

    def test_enum_rejects_two_bridge_records(self, runner):
        res = runner.invoke(main, ["meta-enum", "-i", CORPUS])
        assert res.exit_code == 2
        assert "Seifert" in res.stderr

    def test_verify_ok(self, runner):
        res = runner.invoke(main, ["meta-verify", "-i", SEIFERT])
        assert res.exit_code == 0
        assert res.output.count("ok") == 3

    @pytest.mark.parametrize("cmd", ["meta-enum", "meta-verify"])
    @pytest.mark.parametrize("fmt, ext", [("table", "txt"), ("json", "json")])
    def test_output_matches_recording(self, runner, cmd, fmt, ext):
        # knots.json: genus 1-3, torsion (5, 5), (3, 15) and (3, 3, 9)
        # besides cyclic ones, and det 1001
        recorded = RECORDED / "census"
        res = runner.invoke(
            main, [cmd, "-i", str(recorded / "knots.json"), "-f", fmt]
        )
        assert res.exit_code == 0
        assert res.stdout == (recorded / f"{cmd}.{ext}").read_text()

    @pytest.mark.parametrize(
        "cmd, fmt, recording",
        [
            ("meta-enum", "json", "dense-meta-enum.json"),
            ("meta-verify", "table", "dense-meta-verify.txt"),
            ("meta-verify", "json", "dense-meta-verify.json"),
        ],
    )
    def test_dense_output_matches_recording(self, runner, cmd, fmt, recording):
        # dense.json: the dense genus-3 det-483 matrix DENSE_G3 and a genus-6
        # det-1001 knot mixed as U^T V U; recorded before the census ran on
        # Hermite bases mod D
        recorded = RECORDED / "census"
        res = runner.invoke(main, [cmd, "-i", str(recorded / "dense.json"), "-f", fmt])
        assert res.exit_code == 0
        assert res.stdout == (recorded / recording).read_text()

    @pytest.mark.parametrize("cmd", ["meta-enum", "meta-verify"])
    def test_lattice_index_error_exits_1(self, runner, monkeypatch, cmd):
        """Hermite pivots of the wrong index are a bug, not bad input: exit 1
        naming the knot and the stage, before any row."""
        from test_intlinalg import dropping_a_pivot

        monkeypatch.setattr(
            intlinalg, "_hermite_mod", dropping_a_pivot(intlinalg._hermite_mod)
        )
        res = runner.invoke(main, [cmd, "-i", SEIFERT])
        assert res.exit_code == 1
        assert res.stderr == (
            "verification failure: 3_1: torsion lattice: "
            "Hermite pivots give 1 points, expected |det W| = 3\n"
        )
        assert res.stdout == ""

    @pytest.mark.parametrize("cmd", ["meta-enum", "meta-verify"])
    def test_census_failure_exits_1(self, runner, monkeypatch, cmd):
        real = metabelian.torsion_solutions
        monkeypatch.setattr(
            metabelian, "torsion_solutions", lambda W: [real(W)[0]] + real(W)[2:]
        )
        res = runner.invoke(main, [cmd, "-i", SEIFERT])
        assert res.exit_code == 1
        assert res.stderr.startswith("verification failure: 3_1: ")
        assert "enumerated 0" in res.stderr and "= 1" in res.stderr
        assert res.exception is None or isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_failing_class_exits_1_after_every_row(self, runner, monkeypatch, fmt):
        """A class that fails its checks is a row, not the end of the run:
        every row is written, then the run exits 1."""
        real = metabelian.verify_class

        def failing_first(K, c):
            rep = real(K, c)
            return rep._replace(relation_ok=False) if K.name == "3_1" else rep

        monkeypatch.setattr(metabelian, "verify_class", failing_first)
        res = runner.invoke(main, ["meta-verify", "-i", SEIFERT, "-f", fmt])
        assert res.exit_code == 1
        assert res.stderr == ""
        if fmt == "json":
            rows = json.loads(res.stdout)
            assert [(r["knot"], r["ok"]) for r in rows] == [
                ("3_1", False),
                ("4_1", True),
                ("4_1", True),
            ]
        else:
            assert res.stdout.count(": ok\n") == 2
            assert res.stdout.startswith("3_1 (1/3, 2/3): FAIL")

    def _first_knot_alone(self, runner, tmp_path, cmd, fmt):
        """stdout of `cmd` on a file holding only the first knot of SEIFERT."""
        first = tmp_path / "first.json"
        first.write_text(json.dumps(json.loads(Path(SEIFERT).read_text())[:1]))
        res = runner.invoke(main, [cmd, "-i", str(first), "-f", fmt])
        assert res.exit_code == 0
        return res.stdout

    @pytest.mark.parametrize(
        "cmd, fmt",
        [
            ("meta-enum", "json"),
            ("meta-enum", "csv"),
            ("meta-enum", "table"),
            ("meta-verify", "json"),
            ("meta-verify", "table"),
        ],
    )
    def test_rows_reach_stdout_before_next_knot(
        self, runner, monkeypatch, tmp_path, cmd, fmt
    ):
        """The census streams: the first knot's rows are written before the
        second knot is enumerated, with nothing of the report held back."""
        alone = self._first_knot_alone(runner, tmp_path, cmd, fmt)
        if fmt == "json":
            alone = alone.removesuffix("\n]\n")
        real = metabelian.enumerate_metabelian
        seen = []

        def recording(K):
            sys.stdout.flush()
            seen.append((K.name, sys.stdout.buffer.getvalue().decode()))
            return real(K)

        monkeypatch.setattr(metabelian, "enumerate_metabelian", recording)
        res = runner.invoke(main, [cmd, "-i", SEIFERT, "-f", fmt])
        assert res.exit_code == 0
        assert [name for name, _ in seen] == ["3_1", "4_1"]
        assert seen[1][1] == alone

    @pytest.mark.parametrize("cmd", ["meta-enum", "meta-verify"])
    def test_census_failure_after_rows_exits_1(
        self, runner, monkeypatch, tmp_path, cmd
    ):
        """A count mismatch on the second knot exits 1 after the first
        knot's rows went out: the JSON array stays unterminated."""
        alone = self._first_knot_alone(runner, tmp_path, cmd, "json")
        real = metabelian.torsion_solutions
        calls = []

        def short_on_second(W):
            calls.append(W)
            sols = real(W)
            return sols if len(calls) == 1 else sols[:1] + sols[2:]

        monkeypatch.setattr(metabelian, "torsion_solutions", short_on_second)
        res = runner.invoke(main, [cmd, "-i", SEIFERT, "-f", "json"])
        assert res.exit_code == 1
        assert res.stderr.startswith("verification failure: 4_1: enumerated 1 ")
        assert res.stdout == alone.removesuffix("\n]\n")
        with pytest.raises(json.JSONDecodeError):
            json.loads(res.stdout)


class TestTwoBridge:
    def test_riley_section(self, runner):
        res = runner.invoke(main, ["tb-riley", "-p", "5", "-q", "3"])
        assert res.exit_code == 0
        assert "phi: (1)*u^2 + (5)*u + (5)" in res.output
        assert "squarefree: True" in res.output

    def test_riley_roots_flag(self, runner):
        res = runner.invoke(
            main, ["tb-riley", "-p", "5", "-q", "3", "--roots", "-f", "json"]
        )
        payload = json.loads(res.output)
        assert payload["approx"]["complex_pair_count"] == 0
        assert len(payload["approx"]["real_roots"]) == 2

    def test_invalid_pq_exits_2(self, runner):
        res = runner.invoke(main, ["tb-riley", "-p", "4", "-q", "1"])
        assert res.exit_code == 2

    def test_verify(self, runner):
        res = runner.invoke(main, ["tb-verify", "-p", "7", "-q", "3"])
        assert res.exit_code == 0
        assert "relator_ok: True" in res.output
        assert "longitude: id" in res.output

    def test_verify_general_t(self, runner):
        res = runner.invoke(
            main, ["tb-verify", "-p", "5", "-q", "3", "--general-t"]
        )
        assert res.exit_code == 0
        assert "relator_general_t_ok: True" in res.output

    def test_verify_failure_exits_1(self, runner, monkeypatch):
        def fake(section):
            return LongitudeReport(
                knot=section.knot.name, result="neither", trace_is_two=False
            )

        monkeypatch.setattr(cli.riley, "verify_longitude_mod_phi", fake)
        res = runner.invoke(main, ["tb-verify", "-p", "5", "-q", "3"])
        assert res.exit_code == 1
        # a crash would exit 1 too: the report must have been written
        assert isinstance(res.exception, SystemExit)
        assert "longitude: neither" in res.stdout

    def test_verify_computes_one_section(self, runner, monkeypatch):
        real = cli.riley.section_at_minus_one
        calls = []

        def counting(K):
            calls.append(K.name)
            return real(K)

        monkeypatch.setattr(cli.riley, "section_at_minus_one", counting)
        res = runner.invoke(main, ["tb-verify", "-p", "15", "-q", "11"])
        assert res.exit_code == 0
        assert calls == ["S(15,11)"]

    def test_crosscheck_computes_one_section(self, runner, monkeypatch):
        real = cli.riley.section_at_minus_one
        calls = []

        def counting(K):
            calls.append(K.name)
            return real(K)

        monkeypatch.setattr(cli.riley, "section_at_minus_one", counting)
        res = runner.invoke(main, ["tb-crosscheck", "-p", "15", "-q", "11"])
        assert res.exit_code == 0
        assert calls == ["S(15,11)"]

    def test_crosscheck(self, runner):
        res = runner.invoke(main, ["tb-crosscheck", "-p", "15", "-q", "11"])
        assert res.exit_code == 0
        assert "riley roots 7 = (p-1)/2 7 = metabelian 7 -> ok" in res.output

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_crosscheck_mismatch_exits_1(self, runner, monkeypatch, fmt):
        real = cli.riley.cross_check_counts
        monkeypatch.setattr(
            cli.riley,
            "cross_check_counts",
            lambda sec: real(sec)._replace(metabelian_count=6),
        )
        res = runner.invoke(
            main, ["tb-crosscheck", "-p", "15", "-q", "11", "-f", fmt]
        )
        assert res.exit_code == 1
        assert "MISMATCH" in res.stdout or '"ok": false' in res.stdout


class TestApolyAnalyze:
    # l^2 + 1: A(sqrt(-1), l) = l^2 + 1 has the roots omega = +-i, so with
    # asserted smallness both give trace-free non-metabelian representations
    L2_PLUS_1 = {
        "type": "apoly",
        "name": "l2p1",
        "terms": [{"m": 0, "l": 2, "c": 1}, {"m": 0, "l": 0, "c": 1}],
    }

    @pytest.mark.parametrize(
        "small, kinds",
        [
            (True, ["trace-free-nonmetabelian"] * 2),
            (False, ["inconclusive"]),
        ],
    )
    def test_small_flag(self, runner, tmp_path, small, kinds):
        path = tmp_path / "small.json"
        path.write_text(json.dumps([{**self.L2_PLUS_1, "small": small}]))
        res = runner.invoke(main, ["apoly-analyze", "-i", str(path), "-f", "json"])
        assert res.exit_code == 0
        (rep,) = json.loads(res.stdout)
        assert [c["kind"] for c in rep["criteria"]] == kinds

    @pytest.mark.parametrize("small, shown", [("no", '"no"'), (0, "0"), (None, "null")])
    def test_non_boolean_small_exits_2(self, runner, tmp_path, small, shown):
        path = tmp_path / "small.json"
        path.write_text(json.dumps([{**self.L2_PLUS_1, "small": small}]))
        res = runner.invoke(main, ["apoly-analyze", "-i", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            f"error: record 0 (l2p1): small must be a JSON boolean, got {shown}\n"
        )

    def test_nameless_record_named_by_index(self, runner, tmp_path):
        # the loader's name, record-<i>, names a nameless record everywhere
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"type": "apoly", "terms": [{"m": 1, "l": 1, "c": 1}]}]))
        res = runner.invoke(main, ["apoly-analyze", "-i", str(bad)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            "error: record 0 (record-0): odd m-exponent 1; "
            "m must appear in even powers\n"
        )
        good = tmp_path / "good.json"
        nameless = {k: v for k, v in self.L2_PLUS_1.items() if k != "name"}
        good.write_text(json.dumps([nameless]))
        res = runner.invoke(main, ["apoly-analyze", "-i", str(good)])
        assert res.exit_code == 0
        assert res.stdout.startswith("record-0:\n")

    @pytest.mark.parametrize("det", ["-3", "0", "-1"])
    def test_non_positive_det_exits_2(self, runner, det):
        res = runner.invoke(main, ["apoly-analyze", "-i", APOLYS, "--det", det])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (
            f"error: 3_1: knot determinant must be positive, got {det}\n"
        )

    def test_table(self, runner):
        res = runner.invoke(main, ["apoly-analyze", "-i", APOLYS])
        assert res.exit_code == 0
        assert "8_20:" in res.output
        assert "factors: l^0 (l-1)^3 (l+1)^2" in res.output
        # polynomials render in the variable l, never u
        assert "*u" not in res.output
        assert "*l" in res.output

    def test_json_deterministic(self, runner):
        a = runner.invoke(main, ["apoly-analyze", "-i", APOLYS, "-f", "json"])
        b = runner.invoke(main, ["apoly-analyze", "-i", APOLYS, "-f", "json"])
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output
        json.loads(a.output)  # valid JSON

    def test_probe_with_det(self, runner):
        res = runner.invoke(main, ["apoly-analyze", "-i", APOLYS, "--det", "9"])
        assert "probe: k = 3 <= 4: True" in res.output

    def test_top_coefficient_vanishing_at_i(self, runner, tmp_path):
        # (m^2 + 1) l^2 has no vertical edge and A(sqrt(-1), l) = 0
        path = tmp_path / "arcs.json"
        path.write_text(json.dumps([{
            "type": "apoly",
            "name": "arcs-top",
            "terms": [{"m": 2, "l": 2, "c": 1}, {"m": 0, "l": 2, "c": 1}],
        }]))
        res = runner.invoke(main, ["apoly-analyze", "-i", str(path), "-f", "json"])
        assert res.exit_code == 0
        (rep,) = json.loads(res.stdout)
        assert rep["has_vertical_edge"] is False
        assert [c["kind"] for c in rep["criteria"]] == ["arcs"]

    @pytest.mark.parametrize("inputs", ["fixtures", "residuals", "gaussian"])
    @pytest.mark.parametrize("fmt, ext", [("table", "txt"), ("json", "json")])
    def test_output_matches_recording(self, runner, inputs, fmt, ext):
        # residuals.json has one record each for a rational residual root, a
        # Gaussian root pair, an irrational quadratic, A(sqrt(-1), l) = 0,
        # the normal-form warning, and a tagged l (l-1)^2 (l+1) (l^3+2);
        # gaussian.json has a purely imaginary omega (l^2 + 1), omega =
        # 1/2 + 1/2*i (2l^2 - 2l + 1), and a residual with a negative
        # leading coefficient, whose roots come out in the other order
        recorded = RECORDED / "apoly_analyze"
        path = APOLYS if inputs == "fixtures" else str(recorded / f"{inputs}.json")
        res = runner.invoke(
            main, ["apoly-analyze", "-i", path, "--det", "9", "-f", fmt]
        )
        assert res.exit_code == 0
        assert res.stdout == (recorded / f"{inputs}_det9.{ext}").read_text()


class TestSweep:
    def test_csv_header_and_shape(self, runner):
        res = runner.invoke(main, ["sweep", "--p-max", "9", "-f", "csv"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == cli.SWEEP_HEADER
        # S(p,q), 0 < q < p odd coprime, p in {3,5,7,9}: 1+2+3+3 rows
        assert len(lines) == 1 + 9
        assert lines[1].startswith('"S(3,1)",3,1,3,1,1,True,True,True')

    def test_rejects_even_p_max(self, runner):
        res = runner.invoke(main, ["sweep", "--p-max", "8"])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "argv, recording",
        [
            (["--p-max", "21", "--negative-q", "-f", "json"], "p21_negative_q.json"),
            (["--p-max", "45", "--negative-q", "-f", "csv"], "p45_negative_q.csv"),
        ],
        ids=["p21_negative_q", "p45_negative_q"],
    )
    def test_json_matches_recording(self, runner, argv, recording):
        res = runner.invoke(main, ["sweep", *argv])
        assert res.exit_code == 0
        expected = RECORDED / "sweep" / recording
        assert res.stdout == expected.read_text()

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_rows_reach_stdout_before_next_knot(self, runner, monkeypatch, fmt):
        """The sweep streams in (p, q) order: when a knot's section is
        computed, the rows of every earlier knot are already written."""
        argv = ["sweep", "--negative-q", "-f", fmt, "--p-max"]
        alone = runner.invoke(main, [*argv, "3"]).stdout
        if fmt == "json":
            alone = alone.removesuffix("\n]\n")
        real = cli.riley.section_at_minus_one
        seen = []

        def recording(K):
            sys.stdout.flush()
            seen.append((K.name, sys.stdout.buffer.getvalue().decode()))
            return real(K)

        monkeypatch.setattr(cli.riley, "section_at_minus_one", recording)
        res = runner.invoke(main, [*argv, "5"])
        assert res.exit_code == 0
        assert [name for name, _ in seen] == [
            "S(3,-1)", "S(3,1)", "S(5,-3)", "S(5,-1)", "S(5,1)", "S(5,3)",
        ]
        assert seen[2][1] == alone

    def test_negative_q_doubles_rows(self, runner):
        pos = runner.invoke(main, ["sweep", "--p-max", "9", "-f", "csv"])
        both = runner.invoke(
            main, ["sweep", "--p-max", "9", "--negative-q", "-f", "csv"]
        )
        assert len(both.output.splitlines()) - 1 == 2 * (
            len(pos.output.splitlines()) - 1
        )

    def test_failing_knot_becomes_row(self, runner, monkeypatch):
        real = cli.riley.section_at_minus_one

        def failing(K):
            if K.name == "S(7,3)":
                raise RileyError(f"{K.name}: injected failure")
            return real(K)

        monkeypatch.setattr(cli.riley, "section_at_minus_one", failing)
        res = runner.invoke(main, ["sweep", "--p-max", "9", "-f", "json"])
        assert res.exit_code == 1
        assert "S(7,3): injected failure" in res.stderr
        # the failing row gains "error" mid-stream; the rows around it keep
        # the bytes of json.dumps
        redumped = json.dumps(json.loads(res.stdout), sort_keys=True, indent=2)
        assert res.stdout == redumped + "\n"
        rows = {r["name"]: r for r in json.loads(res.stdout)}
        assert len(rows) == 9
        bad = rows.pop("S(7,3)")
        assert bad["ok"] is False
        assert bad["error"] == "S(7,3): injected failure"
        assert bad["relator_ok"] is None
        assert all(r["ok"] for r in rows.values())

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_failure_line_follows_earlier_rows(self, runner, monkeypatch, fmt):
        """In stdout and stderr as written, a failing knot's stderr line
        comes after the rows of the knots before it, in every format."""
        real = cli.riley.section_at_minus_one

        def failing(K):
            if K.name == "S(5,3)":
                raise RileyError(f"{K.name}: injected failure")
            return real(K)

        monkeypatch.setattr(cli.riley, "section_at_minus_one", failing)
        res = runner.invoke(main, ["sweep", "--p-max", "5", "-f", fmt])
        assert res.exit_code == 1
        line = "verification failure: S(5,3): injected failure\n"
        assert res.stderr == line
        k = res.output.index(line)
        written, rest = res.stdout[:k], res.stdout[k:]
        assert res.output == written + line + rest
        assert "S(3,1)" in written and "S(5,1)" in written
        assert "S(5,3)" not in written and "S(5,3)" in rest
        assert written.endswith("}" if fmt == "json" else "\n")

    def test_failing_knot_in_csv_and_table(self, runner, monkeypatch):
        def failing(K):
            raise RileyError(f"{K.name}: injected failure")

        monkeypatch.setattr(cli.riley, "section_at_minus_one", failing)
        csv = runner.invoke(main, ["sweep", "--p-max", "3", "-f", "csv"])
        assert csv.exit_code == 1
        assert csv.stdout.splitlines()[1] == '"S(3,1)",3,1,3,,,,,'
        table = runner.invoke(main, ["sweep", "--p-max", "3"])
        assert table.exit_code == 1
        assert table.stdout == "S(3,1): FAIL S(3,1): injected failure\n"


@pytest.mark.parametrize(
    "args",
    [
        ["meta-verify", "-i", SEIFERT],
        ["tb-riley", "-p", "7", "-q", "3"],
        ["tb-verify", "-p", "7", "-q", "3"],
        ["tb-crosscheck", "-p", "7", "-q", "3"],
        ["apoly-analyze", "-i", APOLYS],
    ],
    ids=lambda args: args[0],
)
def test_csv_is_a_usage_error_for_nested_rows(runner, args):
    """Only det, meta-count, meta-enum and sweep have flat rows and take
    -f csv; the other commands refuse it instead of printing the table."""
    res = runner.invoke(main, [*args, "-f", "csv"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "argument -f/--format: invalid choice: 'csv'" in res.stderr


@pytest.mark.parametrize(
    "args, failing",
    [
        (["det", "-i", SEIFERT], False),
        (["meta-count", "-i", SEIFERT], False),
        (["meta-enum", "-i", SEIFERT], False),
        (["meta-verify", "-i", SEIFERT], False),
        (["sweep", "--p-max", "3"], False),
        (["sweep", "--p-max", "3"], True),
    ],
    ids=["det", "meta-count", "meta-enum", "meta-verify", "sweep", "sweep-failing"],
)
def test_first_row_compiles_a_template(runner, monkeypatch, args, failing):
    """The JSON rows of every command with a list of rows are flat, so the
    first row compiles a template. Without one every row falls back to
    _json: the bytes stay the same and only the time shows it."""
    real = cli._row_template
    compiled = []

    def recording(row):
        compiled.append(real(row))
        return compiled[-1]

    def failing_section(K):
        raise RileyError(f"{K.name}: injected failure")

    monkeypatch.setattr(cli, "_row_template", recording)
    if failing:
        monkeypatch.setattr(cli.riley, "section_at_minus_one", failing_section)
    res = runner.invoke(main, [*args, "-f", "json"])
    assert res.exit_code == int(failing)
    assert ("error" in json.loads(res.stdout)[0]) == failing
    assert len(compiled) == 1 and callable(compiled[0])


def test_usage_text_does_not_depend_on_the_terminal(runner, monkeypatch):
    """argparse wraps usage at $COLUMNS unless the width is fixed; at 40
    columns the recorded tb-riley usage line would wrap over three lines."""
    monkeypatch.setenv("COLUMNS", "40")
    res = runner.invoke(main, ["tb-riley", "-p", "5"])
    assert res.exit_code == 2
    assert res.stderr == (RECORDED / "cli" / "tb-riley-usage-error.err").read_text()


def _csv_cell(value) -> str:
    """A JSON row value as its CSV cell reads back: lists joined by ';'."""
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(map(str, value))
    return str(value)


@pytest.mark.parametrize("cmd", ["sweep", "det", "meta-count", "meta-enum"])
def test_csv_reads_back_as_the_json_rows(runner, tmp_path, cmd):
    """Every CSV row parses with csv.reader to the header's width, and its
    cells are the JSON row's values; names hold commas, quotes, a line
    break and an ANSI escape, which the table keeps too."""
    knots = tmp_path / "knots.json"
    names = ['a,"b"', "two\nlines", "3_1", "\u001b[31mred"]
    records = [{"type": "seifert", "name": n, "V": [[-1, 1], [0, -1]]} for n in names]
    knots.write_text(json.dumps(records))
    args = ["--p-max", "9", "--negative-q"] if cmd == "sweep" else ["-i", str(knots)]
    out = {}
    for fmt in ("csv", "json"):
        res = runner.invoke(main, [cmd, *args, "-f", fmt])
        assert res.exit_code == 0, res.output
        out[fmt] = res.stdout
    header, *rows = csv.reader(io.StringIO(out["csv"], newline=""))
    want = [[_csv_cell(r[k]) for k in header] for r in json.loads(out["json"])]
    assert all(len(row) == len(header) for row in rows)
    assert rows == want
    if cmd != "sweep":
        assert {row[0] for row in rows} == set(names)
        table = runner.invoke(main, [cmd, *args]).stdout
        assert "\n\u001b[31mred: " in table


def test_reader_closing_early_exits_1_quietly():
    """A reader that stops after a few bytes ends the run through main's
    broken-pipe handling: exit 1 and nothing on stderr, as before the
    commands shared one error mapping."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a resizable pipe (Linux)")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    read_end, write_end = os.pipe()
    # a one-page pipe blocks the writer long before its ~25 kB of output
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "knotmeta.cli"]
        + ["sweep", "--p-max", "45", "--negative-q"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env=env,
    )
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert reader.read(16) == b"S(3,-1): det 3, "
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert b"error:" not in stderr
    assert b"Traceback" not in stderr


def test_interrupt_exits_1_quietly(runner, monkeypatch):
    """Ctrl-C ends a run with exit 1 and nothing on stderr, no traceback."""

    def interrupted(K):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.riley, "section_at_minus_one", interrupted)
    res = runner.invoke(main, ["tb-riley", "-p", "5", "-q", "3"])
    assert (res.exit_code, res.stdout, res.stderr) == (1, "", "")


def _child(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, pre="", **env):
    """`python -m knotmeta.cli args` in a child process that imports this
    checkout, or, given Python statements `pre`, main() run after them;
    with `env` added to its environment. PYTHONUNBUFFERED is cleared, so
    stdout is block-buffered as it is by default."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ["-c", pre + "from knotmeta.cli import main\nmain()"]
    return subprocess.run(
        [sys.executable, *(code if pre else ["-m", "knotmeta.cli"]), *args],
        stdout=stdout,
        stderr=stderr,
        env={**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": "", **env},
        timeout=120,
    )


# Python statements after which section_at_minus_one fails at S(5,3)
_FAIL_AT_S53 = """
from knotmeta import riley
real = riley.section_at_minus_one
def failing(K):
    if K.name == "S(5,3)":
        raise riley.RileyError(f"{K.name}: injected failure")
    return real(K)
riley.section_at_minus_one = failing
"""


def _into_closed_pipe(args, **kwargs):
    """_child with stdout a pipe whose reader is gone before it starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return _child(args, stdout=write_end, **kwargs)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
@pytest.mark.parametrize(
    "args",
    [
        ["det", "-i", SEIFERT, "-f", "table"],
        ["det", "-i", SEIFERT, "-f", "csv"],
        ["det", "-i", SEIFERT, "-f", "json"],
        ["tb-riley", "-p", "7", "-q", "3"],
    ],
    ids=["det-table", "det-csv", "det-json", "tb-riley"],
)
def test_closed_pipe_exits_1_quietly(args, encoding):
    """Even a short output to a closed pipe ends in main's broken-pipe
    handling, exit 1 and empty stderr, under either stdout encoding."""
    res = _into_closed_pipe(args, PYTHONIOENCODING=encoding)
    assert res.returncode == 1
    assert res.stderr == b""


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
def test_closed_pipe_keeps_the_failure_line(encoding):
    """A knot that fails after rows a closed pipe refused still gets its
    stderr line, and the run exits 1 through main's broken-pipe handling."""
    argv = ["sweep", "--p-max", "5"]
    res = _into_closed_pipe(argv, pre=_FAIL_AT_S53, PYTHONIOENCODING=encoding)
    assert res.returncode == 1
    assert res.stderr == b"verification failure: S(5,3): injected failure\n"


@pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
def test_failure_line_follows_rows_in_one_pipe(encoding):
    """With stdout and stderr on one pipe and stdout block-buffered, the
    failure line follows the earlier rows, also under an ASCII stdout,
    which main switches to UTF-8."""
    res = _child(
        ["sweep", "--p-max", "5"],
        stderr=subprocess.STDOUT,
        pre=_FAIL_AT_S53,
        PYTHONIOENCODING=encoding,
    )
    assert res.returncode == 1
    assert res.stdout.decode() == (
        "S(3,1): det 3, count 1, riley deg 1, ok\n"
        "S(5,1): det 5, count 2, riley deg 2, ok\n"
        "verification failure: S(5,3): injected failure\n"
        "S(5,3): FAIL S(5,3): injected failure\n"
    )


@pytest.mark.parametrize(
    "fmt, p, code, out, err",
    [
        ("table", 5, 0, "Möbius: 5\n", ""),
        ("csv", 5, 0, "name,det\nMöbius,5\n", ""),
        (
            "table", 4, 2, "",
            "error: record 0 (Möbius): p must be odd and >= 3, got 4\n",
        ),
    ],
    ids=["table", "csv", "error"],
)
def test_ascii_stdout_prints_utf8_names(tmp_path, fmt, p, code, out, err):
    """Under an ASCII stdout and stderr a name goes out as UTF-8 bytes, not
    as an encoding error."""
    knots = tmp_path / "knots.json"
    knots.write_text(json.dumps([_twobridge(name="Möbius", p=p)]))
    res = _child(["det", "-i", str(knots), "-f", fmt], PYTHONIOENCODING="ascii")
    want = (code, out.encode(), err.encode())
    assert (res.returncode, res.stdout, res.stderr) == want


@pytest.mark.parametrize(
    "fmt, out",
    [("table", "Möbius: 5\n"), ("csv", "name,det\nMöbius,5\n")],
    ids=["table", "csv"],
)
def test_ascii_stdout_without_descriptor(tmp_path, fmt, out):
    """An ASCII stdout with no file descriptor still gets UTF-8 names: the
    stream itself is switched to UTF-8."""
    knots = tmp_path / "knots.json"
    knots.write_text(json.dumps([_twobridge(name="Möbius")]))
    res = CliRunner(charset="ascii").invoke(main, ["det", "-i", str(knots), "-f", fmt])
    assert (res.exit_code, res.stdout_bytes) == (0, out.encode())


def _twobridge(**fields):
    return {"type": "twobridge", "name": "K", "p": 5, "q": 3, **fields}


def _seifert(**fields):
    return {"type": "seifert", "name": "K", "V": [[-1, 1], [0, -1]], **fields}


def _apoly(**fields):
    terms = [{"m": 0, "l": 1, "c": 1}, {"m": 6, "l": 0, "c": 1}]
    return {"type": "apoly", "name": "A", "terms": terms, **fields}


class TestStrictIngest:
    """Integer fields take JSON integers only: a bad value exits 2 with a
    message naming the record, never a silent coercion."""

    @pytest.mark.parametrize(
        "command, record, message",
        [
            ("det", _twobridge(p=5.9), "p must be a JSON integer, got 5.9"),
            ("det", _twobridge(q="3"), 'q must be a JSON integer, got "3"'),
            ("det", _twobridge(p=True), "p must be a JSON integer, got true"),
            (
                "det",
                {"type": "seifert", "name": "K", "V": [[-1.7, 1], [0, -1]]},
                "Seifert entry must be a JSON integer, got -1.7",
            ),
            (
                "meta-count",
                {"type": "seifert", "name": "K", "V": [[-1, True], [0, -1]]},
                "Seifert entry must be a JSON integer, got true",
            ),
            (
                "apoly-analyze",
                _apoly(terms=[{"m": 0, "l": 1, "c": 1.5}, {"m": 6, "l": 0, "c": 1}]),
                "coefficient must be a JSON integer, got 1.5",
            ),
            (
                "apoly-analyze",
                _apoly(terms=[{"m": 0, "l": 1, "c": True}, {"m": 6, "l": 0, "c": 1}]),
                "coefficient must be a JSON integer, got true",
            ),
            (
                "apoly-analyze",
                _apoly(terms=[{"m": 0, "l": 1.0, "c": 1}, {"m": 6, "l": 0, "c": 1}]),
                "l-exponent must be a JSON integer, got 1.0",
            ),
            (
                "apoly-analyze",
                _apoly(p=3, q="1"),
                'q must be a JSON integer, got "1"',
            ),
            # integers, but no 2-bridge knot S(p, q) to bound deg_l by
            ("apoly-analyze", _apoly(p=4, q=2), "p must be odd and >= 3, got 4"),
            ("apoly-analyze", _apoly(p=7, q=0), "q must be odd, got 0"),
            # a name is a JSON string, never rendered from another type
            ("det", _twobridge(name=1.5), "name must be a JSON string, got 1.5"),
            ("det", _twobridge(name=1), "name must be a JSON string, got 1"),
            (
                "meta-count",
                _twobridge(name=["a"]),
                'name must be a JSON string, got ["a"]',
            ),
            ("det", _twobridge(name=True), "name must be a JSON string, got true"),
            (
                "apoly-analyze",
                _apoly(name=None),
                "name must be a JSON string, got null",
            ),
        ],
    )
    def test_rejected(self, runner, tmp_path, command, record, message):
        path = tmp_path / "in.json"
        good = _twobridge() if command != "apoly-analyze" else _apoly()
        path.write_text(json.dumps([good, record]))
        res = runner.invoke(main, [command, "-i", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "error: record 1 (" in res.stderr
        assert message in res.stderr

    @pytest.mark.parametrize(
        "command, record, fmt",
        [
            pytest.param(command, record, fmt, id=f"{record['type']}-{fmt}")
            for command, record, formats in [
                ("det", _twobridge(name="K\ud800"), ("table", "csv", "json")),
                ("det", _seifert(name="\udfffK"), ("table", "csv", "json")),
                ("apoly-analyze", _apoly(name="A\udc00"), ("table", "json")),
            ]
            for fmt in formats
        ],
    )
    def test_lone_surrogate_in_name(self, runner, tmp_path, command, record, fmt):
        """A name holding a lone surrogate is valid JSON but has no UTF-8
        bytes, so no format could write it: the record is refused, by index."""
        path = tmp_path / "in.json"
        good = _twobridge() if command != "apoly-analyze" else _apoly()
        path.write_text(json.dumps([good, record]))
        res = runner.invoke(main, [command, "-i", str(path), "-f", fmt])
        assert (res.exit_code, res.stdout) == (2, "")
        shown = json.dumps(record["name"])
        assert res.stderr == (
            f"error: record 1 (record-1): name holds a lone surrogate, got {shown}\n"
        )

    def test_integers_accepted(self, runner, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([_twobridge(p=7, q=-3)]))
        res = runner.invoke(main, ["det", "-i", str(path)])
        assert res.exit_code == 0
        assert res.stdout == "K: 7\n"


# Keys and strings reach non-ASCII (escaped as \uXXXX, surrogate pairs
# above U+FFFF), quotes, backslashes and control characters.
_json_text = st.text(
    st.characters()
    | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f')
)
json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | _json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=20,
)


# Rows over a few key sets, so that shapes repeat. The values cover each
# type a row template renders (str, int, bool, None, a list of str, []) and
# ones it leaves to _json (a list holding an int, a nested dict).
_ROW_KEYS = (
    ("name", "thetas", "order"),
    ("knot", "ok", "failures", "thetas"),
    ("{0}", "}", '"\\', "\u00e9\U0001f600"),
)
_row_values = (
    _json_text,
    st.integers(),
    st.booleans(),
    st.none(),
    st.lists(_json_text, min_size=1, max_size=3),
    st.just([]),
    st.lists(st.integers(), min_size=1, max_size=2),
    st.dictionaries(_json_text, st.integers(), max_size=2),
)


@st.composite
def row_streams(draw):
    """Up to three shapes, each a key order with a flat value kind per key;
    every row takes one of them, and one row in four has one value of any
    kind."""
    shapes = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_ROW_KEYS).flatmap(st.permutations),
                st.lists(st.sampled_from(_row_values[:6]), min_size=4, max_size=4),
            ),
            min_size=1,
            max_size=3,
        )
    )
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        keys, kinds = draw(st.sampled_from(shapes))
        row = {k: draw(kind) for k, kind in zip(keys, kinds)}
        if not draw(st.integers(0, 3)):
            row[draw(st.sampled_from(keys))] = draw(st.one_of(_row_values))
        rows.append(row)
    return rows


class _Str(str):
    pass


class TestJsonWriter:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(json_documents, st.lists(json_documents, max_size=4))
    def test_same_bytes_as_json_dumps(self, doc, rows):
        assert cli._json(doc) == json.dumps(doc, sort_keys=True, indent=2)
        # the streamed list writer, fed a generator of 0, 1 or more rows
        streamed = "".join(cli._json_rows(r for r in rows))
        assert streamed == json.dumps(rows, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [1.0, Fraction(1, 3), {1: "a"}, {"a": [0, {(1,): None}]}, [True, 0.5]],
        ids=["float", "Fraction", "int key", "nested tuple key", "nested float"],
    )
    def test_other_types_raise(self, doc):
        with pytest.raises(TypeError):
            cli._json(doc)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(row_streams())
    def test_row_templates_same_bytes_as_json_dumps(self, rows):
        streamed = "".join(cli._json_rows(r for r in rows))
        assert streamed == json.dumps(rows, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "row",
        [
            {"name": "K", "thetas": ["1/3"], "order": 0.5},
            {"name": _Str("K"), "thetas": ["1/3"], "order": 3},
            {"name": "K", "thetas": [_Str("1/3")], "order": 3},
            {"name": "K", "thetas": ["1/3"], 3: "order"},
        ],
        ids=["float", "str subclass", "str subclass in list", "int key"],
    )
    def test_unfit_row_after_a_compiled_one_raises(self, row):
        compiled = {"name": "K", "thetas": ["1/3"], "order": 3}
        with pytest.raises(TypeError):
            "".join(cli._json_rows(iter([compiled, compiled, row])))
