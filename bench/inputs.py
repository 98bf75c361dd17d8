"""Benchmark inputs, built from ``--seed``.

Three fact shapes, the same as the ``reach``, ``kg`` and ``rbac``
workload families of the repository: bounded chains for reachability, a
stakeholder knowledge graph with ``isa`` classes and invented risk
cases, and role-based access control in the shape Liu et al. publish
scaling results for.

The *structure* of each input (chain lengths, tree shapes, which role a
user holds) is drawn from a fixed generator, so every seed measures the
same amount of work: the same fact counts, iterations and answer sizes.
The seed renames every constant through a random permutation and drives
the request schedule.  Different seeds therefore give different inputs
(different strings, hash orders and sort orders) of equal cost, which is
what lets runs on different seeds be compared.
"""

from __future__ import annotations

import os
import random

from repro import FactSet, Oid, TupleValue, parse_source
from repro.language.ast import Program
from repro.storage import dump_state

#: the fixed generator every input's structure comes from
STRUCTURE_SEED = 0

REACH_SCHEMA = """
associations
  edge = (src: string, dst: string).
  reach = (src: string, dst: string).
"""

REACH_PROGRAM = """
rules
  reach(src X, dst Y) <- edge(src X, dst Y).
  reach(src X, dst Z) <- edge(src X, dst Y), reach(src Y, dst Z).
"""

KG_SCHEMA = """
classes
  entity = (ename: string).
  stakeholder = (entity, kind: string).
  document = (entity, origin: string).
  riskcase = (subject: string, issue: string).
  stakeholder isa entity.
  document isa entity.
associations
  relates = (src: string, dst: string).
  mentions = (doc: string, subject: string).
  concerns = (subject: string, issue: string).
  influence = (src: string, dst: string).
  sourced = (subject: string, issue: string, doc: string).
"""

KG_PROGRAM = """
rules
  influence(src X, dst Y) <- relates(src X, dst Y).
  influence(src X, dst Z) <- relates(src X, dst Y),
                             influence(src Y, dst Z).
  riskcase(subject S, issue I) <- influence(src S, dst T),
                                  concerns(subject T, issue I).
  sourced(subject S, issue I, doc D) <- concerns(subject S, issue I),
                                        mentions(doc D, subject S).
  entity(self S) <- stakeholder(self S).
  entity(self S) <- document(self S).
goal
  ?- riskcase(subject S, issue I).
"""

RBAC_SOURCE = """
associations
  user_role = (user: string, role: string).
  role_parent = (sub: string, sup: string).
  role_perm = (role: string, perm: string).
  inherits = (sub: string, sup: string).
  can = (user: string, perm: string).
rules
  inherits(sub R, sup S) <- role_parent(sub R, sup S).
  inherits(sub R, sup T) <- role_parent(sub R, sup S),
                            inherits(sub S, sup T).
  can(user U, perm P) <- user_role(user U, role R),
                         role_perm(role R, perm P).
  can(user U, perm P) <- user_role(user U, role R),
                         inherits(sub R, sup S),
                         role_perm(role S, perm P).
"""


def _names(prefix: str, count: int, rng: random.Random) -> list[str]:
    """``count`` distinct constants, renamed by a seeded permutation."""
    numbers = list(range(count))
    rng.shuffle(numbers)
    return [f"{prefix}{n}" for n in numbers]


def reach_facts(edges: int, seed: int) -> FactSet:
    """Disjoint chains of 16 to 48 edges (the closure stays ~19x the
    edge count instead of going quadratic)."""
    shape = random.Random(STRUCTURE_SEED)
    lengths, produced = [], 0
    while produced < edges:
        lengths.append(min(shape.randrange(16, 49), edges - produced))
        produced += lengths[-1]
    node = _names("n", produced + len(lengths), random.Random(seed))
    out, at = FactSet(), 0
    for length in lengths:
        for _ in range(length):
            out.add_association("edge", TupleValue(src=node[at],
                                                   dst=node[at + 1]))
            at += 1
        at += 1
    return out


#: stakeholders per influence community (one random tree each)
_KG_CLUSTER = 32


def kg_facts(facts: int, seed: int) -> FactSet:
    """Stakeholders and documents under ``isa``, a forest of influence
    trees, provenance ``mentions`` edges and open concerns."""
    shape, rename = random.Random(STRUCTURE_SEED), random.Random(seed)
    stakeholders = (facts * 3) // 10
    documents = (facts * 2) // 10
    concerns = facts // 10
    relates = stakeholders - (stakeholders + _KG_CLUSTER - 1) // _KG_CLUSTER
    mentions = facts - stakeholders - documents - concerns - relates
    s_name = _names("s", stakeholders, rename)
    d_name = _names("d", documents, rename)
    kinds = ("regulator", "community", "supplier", "investor")
    issues = ("noise", "water", "heritage", "traffic", "emissions",
              "employment", "governance")
    out, oid = FactSet(), 0
    for s in range(stakeholders):
        oid += 1
        out.add_object("stakeholder", Oid(oid), TupleValue(
            ename=s_name[s], kind=kinds[shape.randrange(len(kinds))]))
        community = s - s % _KG_CLUSTER
        if s > community:
            out.add_association("relates", TupleValue(
                src=s_name[shape.randrange(community, s)], dst=s_name[s]))
    for d in range(documents):
        oid += 1
        out.add_object("document", Oid(oid), TupleValue(
            ename=d_name[d], origin=f"src{d % 13}"))
    for _ in range(mentions):
        out.add_association("mentions", TupleValue(
            doc=d_name[shape.randrange(documents)],
            subject=s_name[shape.randrange(stakeholders)]))
    for c in range(concerns):
        out.add_association("concerns", TupleValue(
            subject=s_name[shape.randrange(stakeholders)],
            issue=issues[c % len(issues)]))
    return out


class Rbac:
    """rbac[facts]: users over a random role tree, two permissions per
    role, and the names the request schedule draws from."""

    def __init__(self, facts: int, seed: int):
        shape, rename = random.Random(STRUCTURE_SEED), random.Random(seed)
        roles = facts // 20
        users = facts - (roles - 1) - 2 * roles
        self.roles = _names("r", roles, rename)
        self.users = _names("u", users, rename)
        perms = _names("p", roles + 7, rename)
        self.edb = FactSet()
        for r in range(1, roles):
            self.edb.add_association("role_parent", TupleValue(
                sub=self.roles[r], sup=self.roles[shape.randrange(r)]))
        for r in range(roles):
            for k in (2 * r, 2 * r + 1):
                self.edb.add_association("role_perm", TupleValue(
                    role=self.roles[r], perm=perms[k % (roles + 7)]))
        for u in range(users):
            self.edb.add_association("user_role", TupleValue(
                user=self.users[u], role=self.roles[shape.randrange(roles)]))


def write_fact(user: str, role: str) -> str:
    """The fact one write adds: a user-role assignment."""
    return f'user_role(user "{user}", role "{role}").'


def write_module(fact: str) -> str:
    """The RIDV module a write applies."""
    return f"rules\n  {fact}"


def read_goal(user: str) -> str:
    return f'?- can(user "{user}", perm P).'


def write_run_inputs(workdir: str, family: str, size: int,
                     seed: int) -> list[str]:
    """Write ``<family>.lg`` and ``<family>.state.json`` to ``workdir``;
    returns the ``repro run`` arguments that evaluate them."""
    if family == "reach":
        schema_src, program, edb = REACH_SCHEMA, REACH_PROGRAM, \
            reach_facts(size, seed)
        extra = []
    else:
        schema_src, program, edb = KG_SCHEMA, KG_PROGRAM, \
            kg_facts(size, seed)
        extra = ["--semantics", "stratified"]
    lg = os.path.join(workdir, f"{family}.lg")
    state = os.path.join(workdir, f"{family}.state.json")
    with open(lg, "w", encoding="utf-8") as f:
        f.write(program)
    dump_state(state, parse_source(schema_src).schema(), edb, Program(()))
    return ["run", lg, "--state", state, *extra]


def seed_server_dir(data_dir: str, rbac: Rbac, wal_writes: list[str]):
    """A served database ``bench``: a snapshot of ``rbac`` plus one WAL
    record per module in ``wal_writes`` (fewer than the server's
    snapshot interval, so they stay in the log and replay on start).
    Returns the state after the writes."""
    from repro.modules.module import Mode
    from repro.server.registry import ManagedDatabase

    unit = parse_source(RBAC_SOURCE)
    os.makedirs(data_dir, exist_ok=True)
    dump_state(os.path.join(data_dir, "bench.state.json"), unit.schema(),
               rbac.edb, Program(tuple(unit.rules)))
    managed = ManagedDatabase("bench", data_dir)
    managed.open()
    for module in wal_writes:
        managed.apply(module, Mode.RIDV)
    state = managed.db.state
    managed.close(snapshot=False)
    return state


def reference_instance(schema, rules, edb):
    """The instance under the reference kernel (copying, unplanned)."""
    from repro import Engine, EvalConfig

    engine = Engine(schema, Program(tuple(rules)),
                    EvalConfig(incremental=False, plan=False))
    return engine.run(edb)


def reference_permissions(state) -> dict[str, frozenset[str]]:
    """user -> the ``repr`` of every permission ``can`` grants it, as the
    server renders goal answers."""
    from repro.engine import answer_goal

    instance = reference_instance(state.schema, state.rules, state.edb)
    goal = parse_source("goal\n  ?- can(user U, perm P).").goal
    grants: dict[str, set[str]] = {}
    for row in answer_goal(goal, instance, state.schema):
        grants.setdefault(row["U"], set()).add(repr(row["P"]))
    return {user: frozenset(perms) for user, perms in grants.items()}


def reference_fact_count(state, facts: list[str]) -> int:
    """Facts in the instance of ``state`` plus every written fact (each
    joins as a bodyless rule, which derives the same instance as adding
    it to the EDB)."""
    extra = parse_source("rules\n" + "\n".join(facts)).rules \
        if facts else ()
    return reference_instance(state.schema,
                              tuple(state.rules) + tuple(extra),
                              state.edb).count()
