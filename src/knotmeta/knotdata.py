"""Knot input models: Seifert-matrix knots, 2-bridge knots S(p,q) with
their group presentation data, and JSON ingestion with invariant checks.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache
from itertools import cycle
from typing import NamedTuple

from .intlinalg import IntMat, det


class KnotDataError(ValueError):
    pass


def json_typed(value, what: str, kind: type = int):
    """value if it is a JSON integer, or with kind=bool a JSON boolean, or
    with kind=str a JSON string. Anything else, a boolean for an integer
    included, is refused, never coerced."""
    if type(value) is not kind:
        shown = json.dumps(value, default=repr)
        noun = {int: "integer", bool: "boolean", str: "string"}[kind]
        raise KnotDataError(f"{what} must be a JSON {noun}, got {shown}")
    return value


class SeifertKnot(NamedTuple("SeifertKnot", [("name", str), ("V", IntMat), ("W", IntMat)])):
    """A knot given by a 2g x 2g Seifert matrix V of a free Seifert surface.
    W = V + V^T is derived on construction, not passed."""

    __slots__ = ()

    def __new__(cls, name: str, V: IntMat):
        if not V.is_square() or V.rows % 2 != 0:
            raise KnotDataError(
                f"{name}: Seifert matrix must be square of even dimension"
            )
        # V - V^T is the intersection form of a symplectic basis
        if det(V - V.transpose()) != 1:
            raise KnotDataError(
                f"{name}: det(V - V^T) != 1; not a Seifert matrix "
                "w.r.t. a symplectic basis"
            )
        return tuple.__new__(cls, (name, V, V + V.transpose()))

    # _replace builds through _make: check again and derive W afresh
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:2]))

    def __getnewargs__(self):
        return self.name, self.V

    def __repr__(self):
        return f"SeifertKnot(name={self.name!r}, V={self.V!r})"

    @property
    def genus(self) -> int:
        return self.V.rows // 2

    def symmetrized(self) -> IntMat:
        """W = V + V^T, the matrix whose torsion kernel carries the
        metabelian eigenvalue data, built once with the knot."""
        return self.W


class TwoBridge(NamedTuple("TwoBridge", [("name", str), ("p", int), ("q", int)])):
    """The 2-bridge knot S(p,q), p and q coprime odd, p > |q| > 0."""

    __slots__ = ()

    def __new__(cls, name: str, p: int, q: int):
        if type(p) is not int or type(q) is not int:
            raise KnotDataError(f"{name}: p and q must be integers, got ({p!r}, {q!r})")
        if p % 2 == 0 or p < 3:
            raise KnotDataError(f"{name}: p must be odd and >= 3, got {p}")
        if q % 2 == 0:
            raise KnotDataError(f"{name}: q must be odd, got {q}")
        if not (p > abs(q) > 0):
            raise KnotDataError(f"{name}: need p > |q| > 0, got ({p}, {q})")
        if math.gcd(p, abs(q)) != 1:
            raise KnotDataError(f"{name}: p and q must be coprime")
        return tuple.__new__(cls, (name, p, q))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too


class GroupWord(NamedTuple("GroupWord", [("letters", tuple)])):
    """A word in the two generators x1, x2: letters are (generator, +-1).
    Its length is the number of letters and `*` concatenates."""

    __slots__ = ()

    def __new__(cls, letters: tuple):
        for g, e in letters:
            if not type(g) is type(e) is int or g not in (1, 2) or e not in (1, -1):
                raise KnotDataError(f"bad letter ({g}, {e}) in group word")
        return tuple.__new__(cls, (letters,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((g, -e) for g, e in reversed(self.letters)))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def exponent_sum(self) -> int:
        return sum(e for _g, e in self.letters)


def determinant_of_knot(K) -> int:
    """|Delta_K(-1)|, the knot determinant: |det(V + V^T)| for Seifert
    input, p for the 2-bridge knot S(p,q)."""
    if isinstance(K, TwoBridge):
        return K.p
    if isinstance(K, SeifertKnot):
        d = abs(det(K.symmetrized()))
        if d == 0:
            raise KnotDataError(f"{K.name}: det(V + V^T) = 0, not a knot Seifert matrix")
        return d
    raise TypeError(f"expected SeifertKnot or TwoBridge, got {type(K).__name__}")


@lru_cache(maxsize=1)  # relator_word and longitude_word of one knot share it
def epsilon_sequence(K: TwoBridge) -> tuple:
    """e_i = (-1)^floor(i*q/p) for i = 1..p-1 (floor rounds toward -inf,
    which matters for negative q). The tuple is always a palindrome."""
    p, q = K.p, K.q
    return tuple([(1, -1)[(i * q) // p & 1] for i in range(1, p)])


def relator_word(K: TwoBridge) -> GroupWord:
    """w = x1^{e_1} x2^{e_2} x1^{e_3} ... x2^{e_{p-1}}. Letters made from
    the e_i are valid, so the word is built without GroupWord's check."""
    letters = tuple(zip(cycle((1, 2)), epsilon_sequence(K)))
    return tuple.__new__(GroupWord, (letters,))


def longitude_word(K: TwoBridge) -> GroupWord:
    """lambda = w^{-1} * wtilde * x1^{2*sigma}, where wtilde negates every
    exponent of w and sigma is the exponent sum of w. Null-homologous:
    the exponent sum is 0, tested to p <= 101. Built unchecked, as relator_word."""
    eps = epsilon_sequence(K)
    wtilde = tuple(zip(cycle((1, 2)), [-e for e in eps]))
    sigma = sum(eps)
    # w^{-1} reverses w and negates every exponent: it is wtilde reversed
    x1_power = ((1, 1 if sigma >= 0 else -1),) * abs(2 * sigma)
    return tuple.__new__(GroupWord, (wtilde[::-1] + wtilde + x1_power,))


_SURROGATE = re.compile("[\ud800-\udfff]")


def _parse_knot_record(obj, idx: int):
    # local import: APoly lives with the analyzer
    from .apoly import APoly, APolyError

    if not isinstance(obj, dict):
        raise KnotDataError(f"record {idx}: expected a JSON object")
    kind = obj.get("type")
    # a record without a string name is named by its index, as a nameless
    # one; so is a name holding a lone surrogate, which has no UTF-8 bytes
    given = obj.get("name", f"record-{idx}")
    valid = type(given) is str and not _SURROGATE.search(given)
    name = given if valid else f"record-{idx}"
    try:
        json_typed(given, "name", str)
        if not valid:
            raise KnotDataError(f"name holds a lone surrogate, got {json.dumps(given)}")
        if kind == "seifert":
            V = [[json_typed(x, "Seifert entry") for x in row] for row in obj["V"]]
            return SeifertKnot(name=name, V=IntMat(V))
        if kind == "twobridge":
            return TwoBridge(
                name=name, p=json_typed(obj["p"], "p"), q=json_typed(obj["q"], "q")
            )
        if kind == "apoly":
            return APoly.from_record(obj, name)
        raise KnotDataError(f"unknown record type {kind!r}")
    except (KnotDataError, APolyError) as exc:
        # the model's own messages start with its name; name the record once
        detail = str(exc).removeprefix(f"{name}: ")
        raise KnotDataError(f"record {idx} ({name}): {detail}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise KnotDataError(f"record {idx} ({name}): malformed record: {exc}") from None


def _load_records(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise KnotDataError(f"{path}: malformed JSON: {exc}") from None
    except OSError as exc:
        raise KnotDataError(str(exc)) from None
    records = doc if isinstance(doc, list) else [doc]
    return [_parse_knot_record(obj, i) for i, obj in enumerate(records)]


def load_knots(path) -> list:
    """Load seifert/twobridge records from a JSON file (a single object or
    a list of objects)."""
    out = []
    for i, rec in enumerate(_load_records(path)):
        if isinstance(rec, (SeifertKnot, TwoBridge)):
            out.append(rec)
        else:
            raise KnotDataError(f"{path}: record {i} is not a knot record")
    return out


def load_apolys(path) -> list:
    from .apoly import APoly

    out = []
    for i, rec in enumerate(_load_records(path)):
        if isinstance(rec, APoly):
            out.append(rec)
        else:
            raise KnotDataError(f"{path}: record {i} is not an apoly record")
    return out


def record_of(model) -> dict:
    """Serialize a model back to its JSON record form."""
    from .apoly import APoly

    if isinstance(model, SeifertKnot):
        return {"type": "seifert", "name": model.name, "V": model.V.tolists()}
    if isinstance(model, TwoBridge):
        return {"type": "twobridge", "name": model.name, "p": model.p, "q": model.q}
    if isinstance(model, APoly):
        return model.to_record()
    raise TypeError(f"cannot serialize {type(model).__name__}")


def fixture_path(name: str):
    """Path to a bundled fixture file (e.g. 'seifert_knots.json')."""
    from importlib import resources

    return resources.files("knotmeta.data").joinpath(name)


def builtin_seifert_knots() -> list:
    return load_knots(fixture_path("seifert_knots.json"))


def builtin_apolys() -> list:
    return load_apolys(fixture_path("apolys.json"))


def all_two_bridge(p_max: int, include_negative_q: bool = False) -> list:
    """Every valid S(p,q) with 3 <= p <= p_max and q odd and coprime to p,
    in (p, q) order: q runs from 1 to p - 2, or from -(p - 2) to p - 2 with
    `include_negative_q`."""
    return [
        TwoBridge(name=f"S({p},{q})", p=p, q=q)
        for p in range(3, p_max + 1, 2)
        for q in range(2 - p if include_negative_q else 1, p, 2)
        if math.gcd(p, q) == 1
    ]
