"""Seeded inputs and independent references for the five workloads.

Every generator takes ``(seed, params)`` and returns plain text — the
program under test only ever receives the generated files.  The same
seed gives the same text.  The seed picks the **constants** (a fresh
injection of every node into the integers) and the **order** of the
facts; the **shape** — graph structure, tag multiplicities, the update
script — comes from the fixed ``SHAPE`` stream, so every seed measures
the same amount of work and a work counter that differs between two
seeds is the engine's doing (hash order, dictionary ids), not the
input's.

References never come from the path under test (``optimize`` + the
default engine): closed forms and pure-Python graph searches here, and
for ``rules_wide`` the *unoptimized* program on the naive plan
interpreter (``naive_reference``).  A reference is a frozenset of
answer lines exactly as ``repro run`` prints them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

Row = tuple
Rels = dict  # predicate -> list of rows

#: seed of the stream that draws every workload's shape
SHAPE = 0xE2E

TC_RULES = "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\n"


@dataclass(frozen=True)
class Case:
    """One program + fact file + the answers it must print."""

    name: str
    program: str
    facts: str
    reference: frozenset  # of printed answer lines
    rows: int  # facts in the fact file


@dataclass(frozen=True)
class Session:
    """The ``serve_mixed`` update script over a forest of trees.

    ``script`` is a tuple of ``(kind, payload, expect)``: kind
    ``insert`` / ``retract`` carries ``edge`` rows and, at a checkpoint,
    the digest of the whole ``tc`` relation after the batch (else
    None); kind ``read`` carries one node and the digest of the answers
    of the point query ``tc(node, Y)``.  Digests come from a BFS over
    the script's own edge set, never from the engine.
    """

    edges: tuple
    script: tuple


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    cases: tuple
    session: Optional[Session] = None
    #: smaller instance of the same cases, for the unoptimized-vs-
    #: optimized comparison (``core.fact_ratio``, ``core.opt_speedup``)
    reduced: tuple = field(default=())


def line(row: Iterable) -> str:
    """One answer row as ``repro run`` prints it."""
    return ", ".join(map(str, row))


def lines(rows: Iterable[Row]) -> frozenset:
    return frozenset(line(r) for r in rows)


def facts_text(rels: Rels, rng: random.Random) -> tuple[str, int]:
    """The fact file: one ``pred(a, b).`` per line, shuffled."""
    out = [f"{p}({line(r)})." for p, rows in rels.items() for r in rows]
    rng.shuffle(out)
    return "\n".join(out) + "\n", len(out)


def relabel(n: int, rng: random.Random) -> list[int]:
    """A seeded injection of ``0..n-1`` into distinct integers."""
    return rng.sample(range(10 * n + 10), n)


def case(name: str, program: str, rels: Rels, reference, rng) -> Case:
    text, rows = facts_text(rels, rng)
    return Case(name, program, text, lines(reference), rows)


# ---------------------------------------------------------------------------
# pure-Python references


def successors(edges: Iterable[Row]) -> dict:
    out: dict = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    return out


def reachable(succ: Mapping, start) -> set:
    """Nodes reachable from *start* by at least one edge (BFS)."""
    seen: set = set()
    frontier = list(succ.get(start, ()))
    while frontier:
        node = frontier.pop()
        if node not in seen:
            seen.add(node)
            frontier.extend(succ.get(node, ()))
    return seen


def closure(edges: Iterable[Row]) -> set:
    """The transitive closure, one BFS per source."""
    succ = successors(edges)
    return {(a, b) for a in succ for b in reachable(succ, a)}


def digest(rows: Iterable[Row]) -> str:
    """An order-independent fingerprint of a relation."""
    return hashlib.sha1(repr(sorted(rows)).encode()).hexdigest()


def naive_reference(program_text: str, rels: Rels) -> set:
    """Answers of the program as written (no ``optimize``) on the naive
    plan interpreter with kernels, columnar plane, SCC scheduling and
    the cost planner off, projected onto the query's named variables
    (``run --optimize`` prints only those)."""
    from repro.datalog import Database, parse
    from repro.engine import EngineOptions, evaluate

    program = parse(program_text)
    options = EngineOptions(
        strategy="naive",
        use_kernels=False,
        use_columnar=False,
        use_scc=False,
        use_cost_planner=False,
    )
    result = evaluate(program, Database.from_dict(rels), options)
    named: list[int] = []
    seen: list[str] = []
    for arg in program.query.args:
        name = getattr(arg, "name", None)
        if name is None or name in seen:
            continue
        if not name.startswith("_"):
            named.append(len(seen))
        seen.append(name)
    return {tuple(row[i] for i in named) for row in result.answers()}


# ---------------------------------------------------------------------------
# tc_cycle


def tc_cycle(seed: int, p: Mapping) -> Inputs:
    def build(v: int, rng) -> Case:
        label = relabel(v, rng)
        edges = [(label[i], label[(i + 1) % v]) for i in range(v)]
        # closed form: on a directed cycle every node reaches itself
        return case(
            "tc_cycle", TC_RULES + "?- tc(X, X).\n", {"edge": edges},
            [(x,) for x in label], rng,
        )

    rng = random.Random(seed)
    return Inputs(
        "tc_cycle", seed, (build(p["nodes"], rng),),
        reduced=(build(p["reduced_nodes"], rng),),
    )


# ---------------------------------------------------------------------------
# exist_reach


def exist_reach(seed: int, p: Mapping) -> Inputs:
    from repro.workloads import families

    rules = "\n".join(map(str, families.reachability_with_payload(2).rules))
    program = f"q(Y) :- start(X), reach(X, Y, T0, T1).\n{rules}\n?- q(Y).\n"

    def build(layers: int, width: int, shape, rng) -> Case:
        n = layers * width
        label = relabel(n, rng)
        edges = set()
        for layer in range(layers - 1):
            for i in range(width):
                for t in shape.sample(range(width), p["fanout"]):
                    edges.add((label[layer * width + i],
                               label[(layer + 1) * width + t]))
        tags = [
            sorted({(label[v], f"{c}{shape.randrange(1000)}")
                    for v in range(n) for _ in range(p["tags"])})
            for c in "ab"
        ]
        starts = [label[v] for v in shape.sample(range(width), p["starts"])]
        rels = {"edge": sorted(edges), "tag0": tags[0], "tag1": tags[1],
                "start": [(s,) for s in starts]}
        succ = successors(edges)
        tagged = {v for v, _ in tags[0]} & {v for v, _ in tags[1]}
        found = set().union(*(reachable(succ, s) for s in starts)) & tagged
        return case("exist_reach", program, rels, [(y,) for y in found], rng)

    shape, rng = random.Random(SHAPE), random.Random(seed)
    return Inputs(
        "exist_reach", seed, (build(p["layers"], p["width"], shape, rng),),
        reduced=(build(p["reduced_layers"], p["reduced_width"], shape, rng),),
    )


# ---------------------------------------------------------------------------
# family_mix: seven program families, each with a closed-form or
# graph-search reference


def _same_generation(n: int, rng) -> tuple[Rels, set]:
    label = relabel(n, rng)
    tree = [(label[(i - 1) // 2], label[i]) for i in range(1, n)]
    rels = {"up": [(c, p) for p, c in tree], "down": tree,
            "flat": [(label[0], label[0])]}
    # pair search downwards from the flat pairs
    kids = successors(tree)
    seen = set(rels["flat"])
    frontier = list(seen)
    while frontier:
        u, v = frontier.pop()
        for x in kids.get(u, ()):
            for y in kids.get(v, ()):
                if (x, y) not in seen:
                    seen.add((x, y))
                    frontier.append((x, y))
    return rels, seen


def _digraph(n: int, m: int, shape, rng) -> list[Row]:
    label = relabel(n, rng)
    edges: set = set()
    while len(edges) < m:
        a, b = shape.randrange(n), shape.randrange(n)
        if a != b:
            edges.add((label[a], label[b]))
    return sorted(edges)


def _with_out_edge(edges) -> set:
    """``?- tc(X, _)`` and ``query(X) :- tc(X, Y)``: X reaches something
    iff it has an outgoing edge."""
    return {(a,) for a, _ in edges}


def _guarded_items(items: int, links: int, shape, rng) -> tuple[Rels, set]:
    label = relabel(links, rng)
    names = relabel(items, rng)
    rels = {
        "item": [(f"i{names[k]}", shape.randrange(7)) for k in range(items)],
        "link": [(label[k], label[k + 1]) for k in range(links - 1)],
        "mark": [(label[links - 1],)],
    }
    # witness(U, V) is link+; the guard holds iff some link ends in a
    # marked node, and then every item qualifies
    marked = {v for (v,) in rels["mark"]}
    guard = any(b in marked for _, b in rels["link"])
    return rels, {(x,) for x, _ in rels["item"]} if guard else set()


def _win_move(n: int, m: int, shape, rng) -> tuple[Rels, set]:
    moves = _digraph(n, m, shape, rng)
    nodes = sorted({a for a, _ in moves} | {b for _, b in moves})
    rels = {"move": moves, "position": [(v,) for v in nodes]}
    # stuck = position without a move, so escape = nodes with a move
    return rels, _with_out_edge(moves)


SIBLING_JOIN = (
    "".join(f"tc{i}(X, Y) :- edge{i}(X, Y).\n"
            f"tc{i}(X, Y) :- edge{i}(X, Z), tc{i}(Z, Y).\n" for i in (1, 2, 3))
    + "q(X, Y) :- tc1(X, Y), tc2(X, Y), tc3(X, Y).\n?- q(X, Y).\n"
)


def _siblings(n: int, shape, rng) -> tuple[Rels, set]:
    """Three chains over the same nodes in three orders.  Both columns
    of every closure are asked for, so (unlike
    ``families.sibling_components``, which ``optimize`` collapses to
    three scans) the three recursive units survive optimization."""
    label = relabel(n, rng)
    orders = [shape.sample(label, n) for _ in range(3)]
    rels = {f"edge{i}": [(order[j], order[j + 1]) for j in range(n - 1)]
            for i, order in enumerate(orders, 1)}
    # x reaches y in a chain iff it comes earlier in that order
    rank = [{v: j for j, v in enumerate(order)} for order in orders]
    ref = {(x, y) for x in label for y in label
           if all(r[x] < r[y] for r in rank)}
    return rels, ref


FANOUT_TRAP = "q(X, W) :- dim(X, Y), mid(Y, Z), sel(Z, W).\n?- q(X, W).\n"


def _fanout_trap(hub: int, dim: int, sel: int, shape, rng) -> tuple[Rels, set]:
    z = [f"z{v}" for v in relabel(hub, rng)]
    rels = {
        "dim": [(f"d{i}", "hub") for i in range(dim)],
        "mid": [("hub", v) for v in z],
        "sel": [(v, f"w{j}") for j, v in enumerate(shape.sample(z, sel))],
    }
    mid = successors(rels["mid"])
    out = successors(rels["sel"])
    ref = {(x, w) for x, y in rels["dim"] for v in mid.get(y, ())
           for w in out.get(v, ())}
    return rels, ref


def family_mix(seed: int, p: Mapping) -> Inputs:
    from repro.workloads import families as fam

    def build(s: Mapping, shape, rng) -> tuple:
        def text(program) -> str:
            return str(program) + "\n"

        nl = _digraph(s["nonlinear_nodes"], 4 * s["nonlinear_nodes"], shape, rng)
        src = _digraph(s["sources_nodes"], 3 * s["sources_nodes"], shape, rng)
        table: list[tuple[str, str, Rels, set]] = [
            ("same_generation", text(fam.same_generation()),
             *_same_generation(s["sg_nodes"], rng)),
            ("nonlinear_tc", text(fam.nonlinear_tc()),
             {"edge": nl}, _with_out_edge(nl)),
            ("tc_sources", text(fam.tc_sources()),
             {"edge": src}, _with_out_edge(src)),
            ("guarded_items", text(fam.guarded_items()),
             *_guarded_items(s["items"], s["links"], shape, rng)),
            ("win_move", text(fam.win_move_stratified()),
             *_win_move(s["move_nodes"], 2 * s["move_nodes"], shape, rng)),
            ("sibling3", SIBLING_JOIN,
             *_siblings(s["sibling_chain"], shape, rng)),
            ("fanout_trap", FANOUT_TRAP,
             *_fanout_trap(s["hub"], 40, 60, shape, rng)),
        ]
        return tuple(case(n, prog, rels, ref, rng)
                     for n, prog, rels, ref in table)

    shape, rng = random.Random(SHAPE), random.Random(seed)
    return Inputs("family_mix", seed, build(p, shape, rng),
                  reduced=build(p["reduced"], shape, rng))


# ---------------------------------------------------------------------------
# rules_wide: many programs, tiny EDBs


def rules_wide_programs(p: Mapping) -> dict:
    from repro.workloads import families as fam
    from repro.workloads import paper_examples as pe

    programs = {}
    for k in p["boolean_chain"]:
        programs[f"boolean_chain{k}"] = fam.boolean_chain(k)
    for k in p["sibling_components"]:
        programs[f"sibling_components{k}"] = fam.sibling_components(k)
    for c in p["payload"]:
        programs[f"payload{c}"] = fam.reachability_with_payload(c)
    for name in ("example1_program", "example2_program", "example5_program",
                 "example12_original", "example12_transformed"):
        programs[name] = getattr(pe, name)()
    return programs


def rules_wide(seed: int, p: Mapping) -> Inputs:
    from repro.workloads import random_edb

    rng = random.Random(seed)
    cases = []
    for i, (name, program) in enumerate(rules_wide_programs(p).items()):
        db = random_edb(program, rows=p["rows"], domain=p["domain"],
                        seed=SHAPE + i)
        label = relabel(p["domain"], rng)
        rels = {pred: sorted(tuple(label[v] for v in row)
                             for row in db.rows(pred))
                for pred in sorted(db.predicates())}
        text = str(program) + "\n"
        cases.append(case(name, text, rels, naive_reference(text, rels), rng))
    # the EDBs are already tiny: the reduced instance is the instance
    return Inputs("rules_wide", seed, tuple(cases), reduced=tuple(cases))


# ---------------------------------------------------------------------------
# serve_mixed


def serve_mixed(seed: int, p: Mapping) -> Inputs:
    shape, rng = random.Random(SHAPE), random.Random(seed)
    trees, size = p["trees"], p["tree_nodes"]
    label = relabel(trees * size, rng)

    def named(rows) -> list:
        return [tuple(label[v] for v in row) for row in rows]

    succ: dict = {}
    for t in range(trees):
        base = t * size
        for i in range(1, size):
            succ.setdefault(base + shape.randrange(i), set()).add(base + i)

    def live() -> list:
        return [(a, b) for a, targets in succ.items() for b in targets]

    edges = sorted(live())
    pool = list(edges)  # retraction candidates, kept in step with succ
    script: list = []
    for done in range(1, p["batches"] + 1):
        k = shape.randint(1, 4)
        if shape.random() < p["insert_share"]:
            # parent < child inside a tree, so an inserted edge keeps
            # the forest acyclic and the closure bounded
            batch: list = []
            while len(batch) < k:
                base = shape.randrange(trees) * size
                a, c = sorted(shape.sample(range(size), 2))
                if base + c not in succ.get(base + a, ()):
                    succ.setdefault(base + a, set()).add(base + c)
                    batch.append((base + a, base + c))
            pool.extend(batch)
            kind = "insert"
        else:
            batch = [pool.pop(shape.randrange(len(pool))) for _ in range(k)]
            for a, c in batch:
                succ[a].discard(c)
            kind = "retract"
        checkpoint = done % p["checkpoint_every"] == 0 or done == p["batches"]
        script.append((kind, tuple(named(batch)),
                       digest(named(closure(live()))) if checkpoint else None))
        if done % p["read_every"] == 0:
            node = shape.randrange(trees * size)
            script.append(("read", label[node],
                           digest(named((y,) for y in reachable(succ, node)))))

    query = case("forest_tc", TC_RULES + "?- tc(X, Y).\n",
                 {"edge": named(edges)}, named(closure(edges)), rng)
    return Inputs("serve_mixed", seed, (query,),
                  session=Session(tuple(named(edges)), tuple(script)),
                  reduced=(query,))


GENERATORS: dict[str, Callable[[int, Mapping], Inputs]] = {
    "tc_cycle": tc_cycle,
    "exist_reach": exist_reach,
    "family_mix": family_mix,
    "rules_wide": rules_wide,
    "serve_mixed": serve_mixed,
}
