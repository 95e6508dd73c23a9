import json
import math

import pytest

from cli_runner import CliRunner
from knotmeta.cli import main
from knotmeta.intlinalg import IntMat
from knotmeta.knotdata import (
    GroupWord,
    KnotDataError,
    SeifertKnot,
    TwoBridge,
    all_two_bridge,
    builtin_apolys,
    builtin_seifert_knots,
    determinant_of_knot,
    epsilon_sequence,
    fixture_path,
    load_apolys,
    load_knots,
    longitude_word,
    record_of,
    relator_word,
)

TREFOIL_V = [[-1, 1], [0, -1]]
FIGURE8_V = [[1, 1], [0, -1]]


def tb(p, q):
    return TwoBridge(name=f"S({p},{q})", p=p, q=q)


class TestModels:
    def test_seifert_genus(self):
        K = SeifertKnot("3_1", IntMat(TREFOIL_V))
        assert K.genus == 1

    def test_seifert_rejects_odd_dimension(self):
        with pytest.raises(KnotDataError):
            SeifertKnot("bad", IntMat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))

    def test_seifert_rejects_non_symplectic(self):
        with pytest.raises(KnotDataError, match="symplectic"):
            SeifertKnot("bad", IntMat([[1, 2], [0, 1]]))

    @pytest.mark.parametrize(
        "p,q", [(4, 1), (3, 2), (3, 0), (3, 3), (9, 3), (1, 1), (5, 7)]
    )
    def test_two_bridge_rejects_invalid(self, p, q):
        with pytest.raises(KnotDataError):
            tb(p, q)

    def test_group_word_rejects_bad_letter(self):
        with pytest.raises(KnotDataError):
            GroupWord(((3, 1),))


class TestDeterminant:
    def test_trefoil(self):
        assert determinant_of_knot(SeifertKnot("3_1", IntMat(TREFOIL_V))) == 3

    def test_figure8(self):
        assert determinant_of_knot(SeifertKnot("4_1", IntMat(FIGURE8_V))) == 5

    def test_two_bridge_is_p(self):
        assert determinant_of_knot(tb(15, 11)) == 15


class TestEpsilonSequence:
    def test_s31(self):
        assert epsilon_sequence(tb(3, 1)) == (1, 1)

    def test_s53(self):
        assert epsilon_sequence(tb(5, 3)) == (1, -1, -1, 1)

    def test_negative_q_floor(self):
        # floor toward -inf: floor(-1/3) = -1
        assert epsilon_sequence(tb(3, -1)) == (-1, -1)

    def test_palindrome_and_even_minus_count(self):
        for K in all_two_bridge(45, include_negative_q=True):
            eps = epsilon_sequence(K)
            assert len(eps) == K.p - 1
            assert eps == eps[::-1]
            assert eps.count(-1) % 2 == 0

    def test_palindrome_up_to_99(self):
        for p in range(3, 100, 2):
            for q in range(1, p, 2):
                if math.gcd(p, q) != 1:
                    continue
                eps = epsilon_sequence(tb(p, q))
                assert eps == eps[::-1]

    @pytest.mark.parametrize(
        "args, hits, misses",
        [
            (["sweep", "--p-max", "21", "--negative-q"], 94, 94),
            (["tb-verify", "-p", "15", "-q", "7", "--general-t"], 2, 1),
            (["tb-riley", "-p", "15", "-q", "7"], 0, 1),
            (["tb-crosscheck", "-p", "15", "-q", "7"], 0, 1),
        ],
    )
    def test_one_cache_slot_serves_each_knot(self, args, hits, misses):
        # every command builds one knot's words back to back, so a single
        # slot gets every hit a larger cache would
        epsilon_sequence.cache_clear()
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0, res.stderr
        info = epsilon_sequence.cache_info()
        assert (info.maxsize, info.hits, info.misses) == (1, hits, misses)


class TestWords:
    def test_relator_s31(self):
        assert relator_word(tb(3, 1)).letters == ((1, 1), (2, 1))

    def test_relator_s53(self):
        assert relator_word(tb(5, 3)).letters == ((1, 1), (2, -1), (1, -1), (2, 1))

    def test_relator_length(self):
        for K in all_two_bridge(25):
            assert len(relator_word(K)) == K.p - 1

    def test_longitude_s31(self):
        # sigma = 2: w^-1 * wtilde * x1^4
        lam = longitude_word(tb(3, 1))
        assert lam.letters == (
            (2, -1),
            (1, -1),
            (1, -1),
            (2, -1),
            (1, 1),
            (1, 1),
            (1, 1),
            (1, 1),
        )

    def test_longitude_s53_no_tail(self):
        lam = longitude_word(tb(5, 3))
        assert len(lam) == 8  # sigma = 0, no x1 tail

    def test_longitude_null_homologous(self):
        # longitude_word builds lambda without checking this itself
        for K in all_two_bridge(101, include_negative_q=True):
            assert longitude_word(K).exponent_sum() == 0, K.name

    def test_unchecked_words_pass_the_letter_check(self):
        # both words skip GroupWord's letter check; rebuilt through it, as
        # w and w^-1 * wtilde * x1^(2 sigma), they are the same words
        sigmas = set()
        for K in all_two_bridge(31, include_negative_q=True):
            w, lam = relator_word(K), longitude_word(K)
            assert GroupWord(w.letters) == w, K.name
            sigma = w.exponent_sum()
            sigmas.add((sigma > 0) - (sigma < 0))
            wtilde = GroupWord(tuple((g, -e) for g, e in w.letters))
            tail = GroupWord(((1, 1 if sigma > 0 else -1),) * abs(2 * sigma))
            assert w.inverse() * wtilde * tail == lam, K.name
        assert sigmas == {-1, 0, 1}

    def test_inverse_cancels_exponent_sum(self):
        w = relator_word(tb(7, 5))
        assert (w * w.inverse()).exponent_sum() == 0


class TestIngest:
    def test_builtin_fixtures_load(self):
        names = [K.name for K in builtin_seifert_knots()]
        assert names == ["3_1", "4_1"]
        assert [A.name for A in builtin_apolys()] == ["3_1", "4_1", "8_20"]

    def test_two_bridge_fixture_corpus(self):
        knots = load_knots(fixture_path("two_bridge_p45.json"))
        assert len(knots) == len(all_two_bridge(45))
        assert all(isinstance(K, TwoBridge) and K.p <= 45 for K in knots)

    @pytest.mark.parametrize("p_max", [3, 9, 45])
    def test_all_two_bridge_in_pq_order(self, p_max):
        # every odd q with 0 < |q| < p coprime to p, each S(p,q) once
        expected = {
            (p, sign * q)
            for p in range(3, p_max + 1, 2)
            for q in range(1, p, 2)
            if math.gcd(p, q) == 1
            for sign in (1, -1)
        }
        for negative_q in (False, True):
            knots = all_two_bridge(p_max, include_negative_q=negative_q)
            pairs = [(K.p, K.q) for K in knots]
            assert pairs == sorted(set(pairs))
            assert set(pairs) == {pq for pq in expected if negative_q or pq[1] > 0}
            assert all(K.name == f"S({K.p},{K.q})" for K in knots)

    def test_round_trip(self, tmp_path):
        src = builtin_seifert_knots() + load_knots(fixture_path("two_bridge_p45.json"))
        path = tmp_path / "knots.json"
        path.write_text(json.dumps([record_of(K) for K in src]))
        assert load_knots(path) == src

    def test_apoly_round_trip(self, tmp_path):
        src = builtin_apolys()
        path = tmp_path / "apolys.json"
        path.write_text(json.dumps([record_of(A) for A in src]))
        assert load_apolys(path) == src

    def test_rejects_even_p_with_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                [
                    {"type": "twobridge", "name": "ok", "p": 3, "q": 1},
                    {"type": "twobridge", "name": "bad", "p": 4, "q": 1},
                ]
            )
        )
        with pytest.raises(KnotDataError, match="record 1"):
            load_knots(path)

    def test_rejects_odd_dimension_matrix(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "seifert", "name": "x", "V": [[1]]}))
        with pytest.raises(KnotDataError):
            load_knots(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(KnotDataError, match="malformed JSON"):
            load_knots(path)

    def test_rejects_unknown_type(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"type": "mystery"}))
        with pytest.raises(KnotDataError, match="unknown record type"):
            load_knots(path)

    def test_knot_loader_rejects_apoly_record(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(
            json.dumps({"type": "apoly", "name": "a", "terms": [{"m": 0, "l": 1, "c": 1}]})
        )
        with pytest.raises(KnotDataError):
            load_knots(path)
