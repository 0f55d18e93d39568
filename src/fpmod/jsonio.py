"""JSON input/output for rings, matrices, modules, morphisms and towers.

Numbers are encoded without precision loss: arbitrary integers as decimal
strings, rationals as {"num", "den"}, Gaussian integers as {"re", "im"}.
Decoding validates shape and ring-compatibility and raises InputError with
a location string for anything malformed.
"""

import json
from fractions import Fraction

from .errors import InputError
from .matrix import Mat
from .rings import GAUSSIAN, RATIONALS, RingDesc, ring_map
from .fpmodule import mk_module, mk_morphism
from .limits import BACKWARD, FORWARD, Tower


# ---------------------------------------------------------------------------
# scalars


def encode_scalar(ring, a):
    if ring.kind == RATIONALS:
        return {"num": str(a.numerator), "den": str(a.denominator)}
    if ring.kind == GAUSSIAN:
        return {"re": str(a[0]), "im": str(a[1])}
    return str(a)


def _parse_int(value, where):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InputError(f"{where}: expected an integer or decimal string")
    try:
        return int(value)
    except ValueError:
        raise InputError(f"{where}: {value!r} is not a valid integer") from None


def decode_scalar(ring, value, where="scalar"):
    """The canonical element of an integer, a {num, den} or a {re, im}."""
    if ring.kind == RATIONALS and isinstance(value, dict) and set(value) == {"num", "den"}:
        den = _parse_int(value["den"], where + ".den")
        if den == 0:
            raise InputError(f"{where}: zero denominator")
        return Fraction(_parse_int(value["num"], where + ".num"), den)
    if ring.kind == GAUSSIAN and isinstance(value, dict) and set(value) == {"re", "im"}:
        return (_parse_int(value["re"], where + ".re"), _parse_int(value["im"], where + ".im"))
    return ring.canon(_parse_int(value, where))


# ---------------------------------------------------------------------------
# rings and ring maps


def encode_ring(ring):
    doc = {"kind": ring.kind}
    if ring.modulus:
        doc["modulus"] = str(ring.modulus)
    return doc


def decode_ring(doc, where="ring"):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError(f"{where}: expected an object with a 'kind' field")
    kind = doc["kind"]
    if not isinstance(kind, str):
        raise InputError(f"{where}.kind: expected a string")
    modulus = _parse_int(doc.get("modulus", 0), where + ".modulus") if "modulus" in doc else 0
    try:
        return RingDesc(kind, modulus)
    except InputError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def decode_ring_map(doc, where="map"):
    if not isinstance(doc, dict) or "source" not in doc or "target" not in doc:
        raise InputError(f"{where}: expected an object with 'source' and 'target'")
    src = decode_ring(doc["source"], where + ".source")
    tgt = decode_ring(doc["target"], where + ".target")
    try:
        return ring_map(src, tgt)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# matrices


def encode_mat(A):
    return [[encode_scalar(A.ring, A.get(i, j)) for j in range(A.cols)] for i in range(A.rows)]


def decode_mat(ring, doc, where="matrix", rows=None, cols=None):
    if not isinstance(doc, list) or not all(isinstance(r, list) for r in doc):
        raise InputError(f"{where}: expected a list of rows")
    if doc and len({len(r) for r in doc}) != 1:
        raise InputError(f"{where}: ragged rows")
    entries = tuple(
        decode_scalar(ring, v, f"{where}[{i}][{j}]")
        for i, row in enumerate(doc)
        for j, v in enumerate(row)
    )
    r = len(doc)
    c = len(doc[0]) if doc else 0
    if rows is not None and r != rows:
        raise InputError(f"{where}: expected {rows} rows, got {r}")
    if cols is not None and c != cols:
        raise InputError(f"{where}: expected {cols} columns, got {c}")
    if r == 0:
        raise InputError(f"{where}: empty matrix needs explicit shape")
    return Mat(ring, r, c, entries)


# ---------------------------------------------------------------------------
# modules, morphisms, towers, documents


def encode_module(M):
    return {"ring": encode_ring(M.ring), "relations": encode_mat(M.rels)}


def encode_invariants(M):
    torsion, free = M.invariants()
    return {
        "torsion": [encode_scalar(M.ring, d) for d in torsion],
        "free_rank": str(free),
    }


class InputDoc:
    """A validated input document: a ring, optional ring map, and named
    modules / morphisms / towers that may reference each other."""

    def __init__(self, ring, map=None, modules=None, morphisms=None, towers=None, params=None):
        self.ring = ring
        self.map = map
        self.modules = modules or {}
        self.morphisms = morphisms or {}
        self.towers = towers or {}
        self.params = params or {}

    def morphism(self, name):
        if name not in self.morphisms:
            raise InputError(f"unknown morphism {name!r}")
        return self.morphisms[name]

    def tower(self, name):
        if name not in self.towers:
            raise InputError(f"unknown tower {name!r}")
        return self.towers[name]


def _decode_module(ring, doc, where):
    """A module from a relation matrix, or from an object with 'relations'
    and/or 'generators'.  Absent relations give the free module on
    'generators', [] (no rows, as encode_module writes the zero module) the
    module on 0 generators; given both, the row count must equal 'generators'."""
    if not isinstance(doc, dict):
        return mk_module(ring, decode_mat(ring, doc, where))
    mring = decode_ring(doc["ring"], where + ".ring") if "ring" in doc else ring
    rels_doc = doc.get("relations")
    n = None
    if doc.get("generators") is not None:
        n = _parse_int(doc["generators"], where + ".generators")
        if n < 0:
            raise InputError(f"{where}.generators: {n} is negative")
    if rels_doc is None:
        if n is None:
            raise InputError(f"{where}: need 'relations' (or 'generators' for free)")
        return mk_module(mring, Mat.zeros(mring, n, 0))
    rels = Mat.zeros(mring, 0, 0) if rels_doc == [] else decode_mat(mring, rels_doc, where + ".relations")
    if n is not None and rels.rows != n:
        raise InputError(f"{where}.generators: {n} generators, but 'relations' has {rels.rows} rows")
    return mk_module(mring, rels)


def _resolve_module(ring, spec, modules, where):
    """The module named by spec, or the module spec describes inline."""
    if isinstance(spec, str):
        if spec not in modules:
            raise InputError(f"{where}: unknown module {spec!r}")
        return modules[spec]
    return _decode_module(ring, spec, where)


def _decode_morphism(ring, doc, modules, where):
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object")
    for field in ("source", "target", "matrix"):
        if field not in doc:
            raise InputError(f"{where}: missing field {field!r}")
    src = _resolve_module(ring, doc["source"], modules, where + ".source")
    tgt = _resolve_module(ring, doc["target"], modules, where + ".target")
    mat = decode_mat(ring, doc["matrix"], where + ".matrix", rows=tgt.gens, cols=src.gens)
    return mk_morphism(src, tgt, mat)


def _decode_tower(ring, doc, modules, morphisms, where):
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected an object")
    direction = doc.get("direction", FORWARD)
    if direction not in (FORWARD, BACKWARD):
        raise InputError(f"{where}.direction: must be 'forward' or 'backward'")
    step_spec = doc.get("step")
    if step_spec is None:
        raise InputError(f"{where}: missing field 'step'")
    if isinstance(step_spec, str):
        if step_spec not in morphisms:
            raise InputError(f"{where}.step: unknown morphism {step_spec!r}")
        step = morphisms[step_spec]
    else:
        obj_spec = doc.get("object")
        if obj_spec is None:
            raise InputError(f"{where}: missing field 'object'")
        obj = _resolve_module(ring, obj_spec, modules, where + ".object")
        mat = decode_mat(ring, step_spec, where + ".step", rows=obj.gens, cols=obj.gens)
        step = mk_morphism(obj, obj, mat)
    return Tower(step, direction)


def _named(doc, field):
    """The (name, spec) pairs of an optional object of named entries."""
    table = doc.get(field)
    if table is None:
        return ()
    if not isinstance(table, dict):
        raise InputError(f"{field}: expected an object of named entries")
    return table.items()


def decode_input(doc):
    """Decode and validate a full input document (already-parsed JSON)."""
    if not isinstance(doc, dict):
        raise InputError("input: top level must be an object")
    if "ring" not in doc:
        raise InputError("input: missing 'ring'")
    ring = decode_ring(doc["ring"], "ring")
    phi = decode_ring_map(doc["map"], "map") if "map" in doc else None
    modules = {}
    for name, spec in _named(doc, "modules"):
        modules[name] = _decode_module(ring, spec, f"modules.{name}")
    morphisms = {}
    for name, spec in _named(doc, "morphisms"):
        morphisms[name] = _decode_morphism(ring, spec, modules, f"morphisms.{name}")
    towers = {}
    for name, spec in _named(doc, "towers"):
        towers[name] = _decode_tower(ring, spec, modules, morphisms, f"towers.{name}")
    known = {"ring", "map", "modules", "morphisms", "towers"}
    params = {k: v for k, v in doc.items() if k not in known}
    return InputDoc(ring, phi, modules, morphisms, towers, params)


def load_input(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return decode_input(doc)


def dumps(obj):
    """Stable serialization for reports: sorted keys, no float formatting."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
