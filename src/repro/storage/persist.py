"""JSON persistence of schemas, fact sets, and programs.

Every LOGRES artifact serializes to a tagged JSON form:

* values — ``{"$oid": 7}``, ``{"$tuple": {...}}``, ``{"$set": [...]}``,
  ``{"$multiset": [[v, n], ...]}``, ``{"$seq": [...]}``,
  ``{"$real": 2.5}``; elementary ints / strings / bools are plain JSON;
* types — ``{"$elem": "integer"}``, ``{"$named": "person"}``,
  ``{"$tupletype": [...]}``, ``{"$settype": t}`` etc.;
* terms and rules — one object per AST node class.

:func:`dumps_state` / :func:`loads_state` bundle a database state
``(E, R, S)`` (Section 3.1's triple) into one payload; module code wraps
them for whole-database persistence.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Callable, Iterable, Iterator
from operator import itemgetter
from typing import Any

from repro.errors import StorageError
from repro.testing.faults import FAULTS
from repro.language.ast import (
    Args,
    ArithExpr,
    BuiltinLiteral,
    CollectionTerm,
    Constant,
    FunctionApp,
    FunctionHead,
    Goal,
    Literal,
    Pattern,
    Program,
    Rule,
    Term,
    Var,
)
from repro.storage.factset import Fact, FactSet
from repro.types.descriptors import (
    ELEMENTARY_TYPES,
    ElementaryType,
    MultisetType,
    NamedType,
    SequenceType,
    SetType,
    TupleField,
    TupleType,
    TypeDescriptor,
)
from repro.types.equations import (
    FunctionDecl,
    IsaDeclaration,
    Kind,
    TypeEquation,
)
from repro.types.schema import Schema
from repro.values.complex import (
    MultisetValue,
    SequenceValue,
    SetValue,
    TupleValue,
    Value,
)
from repro.values.oids import Oid

#: v1 was checksum-less; v2 adds a sha256 checksum over the canonical
#: body so load detects torn/corrupted payloads (``docs/ROBUSTNESS.md``).
#: v1 payloads still load (legacy, unverified).
FORMAT_VERSION = 2
_LEGACY_VERSIONS = (1,)
_BODY_KEYS = ("schema", "edb", "program")


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------
def encode_value(value: Value) -> Any:
    if isinstance(value, bool) or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return {"$real": value}
    if isinstance(value, Oid):
        return {"$oid": value.number}
    if isinstance(value, TupleValue):
        return {"$tuple": {k: encode_value(v) for k, v in value.items}}
    if isinstance(value, SetValue):
        return {"$set": sorted((encode_value(v) for v in value),
                               key=json.dumps)}
    if isinstance(value, MultisetValue):
        return {"$multiset": sorted(
            ([encode_value(v), n] for v, n in value.counts),
            key=json.dumps,
        )}
    if isinstance(value, SequenceValue):
        return {"$seq": [encode_value(v) for v in value]}
    raise StorageError(f"cannot serialize value {value!r}")


def decode_value(payload: Any) -> Value:
    if isinstance(payload, (bool, int, str)):
        return payload
    if isinstance(payload, float):  # pragma: no cover - floats are tagged
        return payload
    if isinstance(payload, dict):
        if "$real" in payload:
            return float(payload["$real"])
        if "$oid" in payload:
            return Oid(int(payload["$oid"]))
        if "$tuple" in payload:
            return TupleValue({
                k: decode_value(v) for k, v in payload["$tuple"].items()
            })
        if "$set" in payload:
            return SetValue(decode_value(v) for v in payload["$set"])
        if "$multiset" in payload:
            counts = {
                decode_value(v): int(n) for v, n in payload["$multiset"]
            }
            return MultisetValue.from_counts(counts)
        if "$seq" in payload:
            return SequenceValue(decode_value(v) for v in payload["$seq"])
    raise StorageError(f"cannot deserialize value payload {payload!r}")


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------
def encode_type(t: TypeDescriptor) -> Any:
    if isinstance(t, ElementaryType):
        return {"$elem": t.name}
    if isinstance(t, NamedType):
        return {"$named": t.name}
    if isinstance(t, TupleType):
        return {"$tupletype": [
            [f.label, encode_type(f.type)] for f in t.fields
        ]}
    if isinstance(t, SetType):
        return {"$settype": encode_type(t.element)}
    if isinstance(t, MultisetType):
        return {"$multisettype": encode_type(t.element)}
    if isinstance(t, SequenceType):
        return {"$seqtype": encode_type(t.element)}
    raise StorageError(f"cannot serialize type {t!r}")


def decode_type(payload: Any) -> TypeDescriptor:
    if not isinstance(payload, dict):
        raise StorageError(f"bad type payload {payload!r}")
    if "$elem" in payload:
        return ELEMENTARY_TYPES[payload["$elem"]]
    if "$named" in payload:
        return NamedType(payload["$named"])
    if "$tupletype" in payload:
        return TupleType(tuple(
            TupleField(label, decode_type(t))
            for label, t in payload["$tupletype"]
        ))
    if "$settype" in payload:
        return SetType(decode_type(payload["$settype"]))
    if "$multisettype" in payload:
        return MultisetType(decode_type(payload["$multisettype"]))
    if "$seqtype" in payload:
        return SequenceType(decode_type(payload["$seqtype"]))
    raise StorageError(f"bad type payload {payload!r}")


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------
def encode_schema(schema: Schema) -> Any:
    return {
        "equations": [
            {"name": eq.name, "kind": eq.kind.value,
             "rhs": encode_type(eq.rhs)}
            for eq in schema.equations.values()
        ],
        "isa": [
            {"sub": d.sub, "sup": d.sup, "label": d.label}
            for d in schema.isa_declarations
        ],
        "functions": [
            {
                "name": f.name,
                "args": [encode_type(t) for t in f.arg_types],
                "arg_labels": list(f.arg_labels),
                "result": encode_type(f.result),
            }
            for f in schema.functions.values()
        ],
    }


def decode_schema(payload: Any) -> Schema:
    equations = {}
    for eq in payload["equations"]:
        equations[eq["name"]] = TypeEquation(
            eq["name"], Kind(eq["kind"]), decode_type(eq["rhs"])
        )
    isa = tuple(
        IsaDeclaration(d["sub"], d["sup"], d.get("label"))
        for d in payload["isa"]
    )
    functions = {}
    for f in payload["functions"]:
        result = decode_type(f["result"])
        if not isinstance(result, SetType):
            raise StorageError("function result must be a set type")
        functions[f["name"]] = FunctionDecl(
            f["name"],
            tuple(decode_type(t) for t in f["args"]),
            result,
            tuple(f["arg_labels"]),
        )
    return Schema(equations, isa, functions)


# ---------------------------------------------------------------------------
# fact sets
# ---------------------------------------------------------------------------
def _fact_entry(fact: Fact) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "pred": fact.pred,
        "value": encode_value(fact.value),
    }
    if fact.oid is not None:
        entry["oid"] = fact.oid.number
    return entry


def _in_canonical_order(facts: FactSet, render: Callable) -> list:
    """``render(entry)`` of every fact's encoded entry, sorted by the
    entry's default ``json.dumps``.  Only the sort keys and renderings
    are held, so a compact ``render`` never holds every entry at once."""
    keyed = []
    for fact in facts.facts():
        entry = _fact_entry(fact)
        keyed.append((json.dumps(entry), render(entry)))
    keyed.sort(key=itemgetter(0))
    return [rendered for _, rendered in keyed]


def encode_factset(facts: FactSet) -> Any:
    return _in_canonical_order(facts, lambda entry: entry)


#: the canonical (sorted, unspaced) encoding checksums and fingerprints
#: hash
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_fact_text(fact: Fact) -> str:
    """The canonical JSON of one :func:`encode_factset` entry."""
    return _CANONICAL.encode(_fact_entry(fact))


def canonical_fact_texts(facts: FactSet) -> list[str]:
    """The canonical JSON of each :func:`encode_factset` entry, in its
    order: ``"[" + ",".join(texts) + "]"`` is ``json.dumps(
    encode_factset(facts), sort_keys=True, separators=(",", ":"))``,
    with neither the entries nor the whole text ever built."""
    return _in_canonical_order(facts, _CANONICAL.encode)


def json_list_parts(texts: list[str]) -> Iterator[str]:
    """The pieces of ``"[" + ",".join(texts) + "]"``, for hashing
    without joining."""
    yield "["
    for i, text in enumerate(texts):
        yield "," + text if i else text
    yield "]"


def decode_factset(payload: Any) -> FactSet:
    facts = FactSet()
    for entry in payload:
        value = decode_value(entry["value"])
        if not isinstance(value, TupleValue):
            raise StorageError(f"fact value must be a tuple: {entry!r}")
        oid = Oid(int(entry["oid"])) if "oid" in entry else None
        facts.add(Fact(entry["pred"], value, oid))
    return facts


# ---------------------------------------------------------------------------
# terms, literals, rules
# ---------------------------------------------------------------------------
def encode_term(term: Term) -> Any:
    if isinstance(term, Var):
        return {"$var": term.name}
    if isinstance(term, Constant):
        return {"$const": encode_value(term.value)}
    if isinstance(term, FunctionApp):
        return {"$app": term.name,
                "args": [encode_term(a) for a in term.args]}
    if isinstance(term, ArithExpr):
        return {"$arith": term.op, "left": encode_term(term.left),
                "right": encode_term(term.right)}
    if isinstance(term, CollectionTerm):
        return {"$coll": term.kind,
                "elements": [encode_term(e) for e in term.elements]}
    if isinstance(term, Pattern):
        return {"$pattern": _encode_args(term.args)}
    raise StorageError(f"cannot serialize term {term!r}")


def decode_term(payload: Any) -> Term:
    if "$var" in payload:
        return Var(payload["$var"])
    if "$const" in payload:
        return Constant(decode_value(payload["$const"]))
    if "$app" in payload:
        return FunctionApp(
            payload["$app"], tuple(decode_term(a) for a in payload["args"])
        )
    if "$arith" in payload:
        return ArithExpr(payload["$arith"], decode_term(payload["left"]),
                         decode_term(payload["right"]))
    if "$coll" in payload:
        return CollectionTerm(
            payload["$coll"],
            tuple(decode_term(e) for e in payload["elements"]),
        )
    if "$pattern" in payload:
        return Pattern(_decode_args(payload["$pattern"]))
    raise StorageError(f"cannot deserialize term payload {payload!r}")


def _encode_args(args: Args) -> Any:
    return {
        "labeled": [[label, encode_term(t)] for label, t in args.labeled],
        "self": encode_term(args.self_term) if args.self_term else None,
        "tuple_var": args.tuple_var.name if args.tuple_var else None,
        "positional": [encode_term(t) for t in args.positional],
    }


def _decode_args(payload: Any) -> Args:
    return Args(
        labeled=tuple(
            (label, decode_term(t)) for label, t in payload["labeled"]
        ),
        self_term=decode_term(payload["self"]) if payload["self"] else None,
        tuple_var=Var(payload["tuple_var"]) if payload["tuple_var"] else None,
        positional=tuple(decode_term(t) for t in payload["positional"]),
    )


def _encode_body_literal(lit: Literal | BuiltinLiteral) -> Any:
    if isinstance(lit, Literal):
        return {"$lit": lit.pred, "args": _encode_args(lit.args),
                "negated": lit.negated}
    return {"$builtin": lit.name,
            "args": [encode_term(a) for a in lit.args],
            "negated": lit.negated}


def _decode_body_literal(payload: Any) -> Literal | BuiltinLiteral:
    if "$lit" in payload:
        return Literal(payload["$lit"], _decode_args(payload["args"]),
                       payload["negated"])
    return BuiltinLiteral(
        payload["$builtin"],
        tuple(decode_term(a) for a in payload["args"]),
        payload["negated"],
    )


def encode_rule(rule: Rule) -> Any:
    head: Any = None
    if isinstance(rule.head, Literal):
        head = _encode_body_literal(rule.head)
    elif isinstance(rule.head, FunctionHead):
        head = {
            "$fnhead": rule.head.function,
            "element": encode_term(rule.head.element),
            "args": [encode_term(a) for a in rule.head.args],
            "negated": rule.head.negated,
        }
    return {
        "head": head,
        "body": [_encode_body_literal(l) for l in rule.body],
        "name": rule.name,
    }


def decode_rule(payload: Any) -> Rule:
    head = None
    if payload["head"] is not None:
        if "$fnhead" in payload["head"]:
            h = payload["head"]
            head = FunctionHead(
                h["$fnhead"], decode_term(h["element"]),
                tuple(decode_term(a) for a in h["args"]), h["negated"],
            )
        else:
            head = _decode_body_literal(payload["head"])
    return Rule(
        head,
        tuple(_decode_body_literal(l) for l in payload["body"]),
        payload.get("name", ""),
    )


def encode_program(program: Program) -> Any:
    return {
        "rules": [encode_rule(r) for r in program.rules],
        "goal": (
            [_encode_body_literal(l) for l in program.goal.literals]
            if program.goal else None
        ),
    }


def decode_program(payload: Any) -> Program:
    goal = None
    if payload.get("goal") is not None:
        goal = Goal(tuple(
            _decode_body_literal(l) for l in payload["goal"]
        ))
    return Program(
        tuple(decode_rule(r) for r in payload["rules"]), goal
    )


# ---------------------------------------------------------------------------
# whole database states (E, R, S)
# ---------------------------------------------------------------------------
def state_checksum(body: dict) -> str:
    """sha256 over the canonical (sorted, unspaced) body encoding."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dumps_state(schema: Schema, edb: FactSet, program: Program) -> str:
    """Serialize a database state triple to a JSON string (format v2:
    version field + checksum over the canonical body)."""
    return "".join(iter_state_text(schema, edb, program))


#: EDB entries :func:`iter_state_text` renders per ``json.dumps`` call
_STATE_CHUNK = 256


def iter_state_text(schema: Schema, edb: FactSet, program: Program,
                    **envelope: Any) -> Iterator[str]:
    """:func:`dumps_state`'s text in pieces, with ``envelope`` as extra
    top-level fields outside the checksummed body.

    The EDB is rendered :data:`_STATE_CHUNK` entries at a time from
    :func:`canonical_fact_texts` (which its checksum hashes too), so
    neither its whole JSON tree nor the whole text is ever held."""
    texts = canonical_fact_texts(edb)
    rest = {"schema": encode_schema(schema),
            "program": encode_program(program)}
    # "edb" sorts first: the canonical body is '{"edb":[...]' + tail
    tail = _CANONICAL.encode({"edb": [], **rest})[len('{"edb":[]'):]
    digest = hashlib.sha256(b'{"edb":')
    for part in json_list_parts(texts):
        digest.update(part.encode("utf-8"))
    digest.update(tail.encode("utf-8"))
    payload = {"version": FORMAT_VERSION, "checksum": digest.hexdigest(),
               "edb": [], **rest, **envelope}
    # a top-level key is the only line indented by exactly one space
    # (strings hold no raw newlines), so this split point is unique
    marker = '\n "edb": []'
    head, after = json.dumps(payload, indent=1, sort_keys=True).split(
        marker, 1)
    yield head
    if not texts:
        yield marker
    else:
        yield '\n "edb": ['
        for start in range(0, len(texts), _STATE_CHUNK):
            entries = json.loads(
                "[" + ",".join(texts[start:start + _STATE_CHUNK]) + "]")
            # '[\n {...},\n {...}\n]' lists items one level deep; the
            # EDB's items sit one level deeper
            block = json.dumps(entries, indent=1, sort_keys=True)[2:-2]
            yield ("," if start else "") + "\n " + block.replace("\n", "\n ")
        yield "\n ]"
    yield after


def loads_state(text: str) -> tuple[Schema, FactSet, Program]:
    """Inverse of :func:`dumps_state`.

    Raises :class:`~repro.errors.StorageError` — never a bare decoding
    traceback — on truncated JSON, missing sections, a checksum
    mismatch, or a format version this build does not know.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt state payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise StorageError("corrupt state payload: not a JSON object")
    version = payload.get("version")
    if version != FORMAT_VERSION and version not in _LEGACY_VERSIONS:
        raise StorageError(
            f"unsupported state format version {version!r}"
            f" (this build reads v{FORMAT_VERSION} and legacy"
            f" v{', v'.join(map(str, _LEGACY_VERSIONS))})"
        )
    missing = [k for k in _BODY_KEYS if k not in payload]
    if missing:
        raise StorageError(
            "corrupt state payload: missing"
            f" {', '.join(missing)} section(s)"
        )
    if version >= 2:
        recorded = payload.get("checksum")
        computed = state_checksum({k: payload[k] for k in _BODY_KEYS})
        if recorded != computed:
            raise StorageError(
                "corrupt state payload: checksum mismatch"
                f" (recorded {str(recorded)[:12]!r}…,"
                f" computed {computed[:12]!r}…)"
            )
    return (
        decode_schema(payload["schema"]),
        decode_factset(payload["edb"]),
        decode_program(payload["program"]),
    )


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Crash-safe replacement write: temp file in the target directory,
    flush + fsync, then atomic rename over ``path``.  ``text`` may be
    an iterable of pieces, written as they come.

    A crash (or injected fault) at any point leaves either the old file
    intact or the new file complete — never a torn payload; the orphan
    temp file is removed on the error path.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    if FAULTS.enabled:
        FAULTS.fire("storage.write")
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            if isinstance(text, str):
                f.write(text)
            else:
                f.writelines(text)
            f.flush()
            if FAULTS.enabled:
                FAULTS.fire("storage.fsync")
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    # best-effort directory fsync so the rename itself is durable
    try:
        dirfd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dirfd)
    except OSError:
        pass
    finally:
        os.close(dirfd)


def dump_state(path, schema: Schema, edb: FactSet, program: Program) -> None:
    """Write a database state to ``path`` atomically."""
    atomic_write_text(path, dumps_state(schema, edb, program))


def load_state(path) -> tuple[Schema, FactSet, Program]:
    """Read a database state from ``path``.

    Every failure mode of the read — unreadable file, zero-length or
    truncated payload, corrupt body — surfaces as
    :class:`StorageError` naming the offending path, so callers (the
    CLI's exit-2/LG901 channel, the server's 422) diagnose uniformly.
    """
    if FAULTS.enabled:
        FAULTS.fire("storage.read")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise StorageError(
            f"cannot read database state {path}: {exc}"
        ) from exc
    if not text.strip():
        raise StorageError(
            f"empty database state {path}: zero-length file"
            " (crashed before any write, or truncated externally)"
        )
    try:
        return loads_state(text)
    except StorageError as exc:
        raise StorageError(f"{path}: {exc}") from exc
