"""Theorem 3.3 as an optimizer pass: regular chain recursions go monadic.

Theorem 3.3: a binary chain program has an equivalent *monadic* program
iff its language is regular.  :mod:`repro.grammar.regular` holds two
constructive fragments — one-sided-linear grammars and doubled
grammars, each to an automaton; this pass applies them inside
:func:`~repro.core.pipeline.optimize`, after projection pushing,
wherever a binary recursion is only ever asked for one endpoint.

A *chain component* is a recursive component of binary derived
predicates, none of them the query's, each of whose rules is a chain
``p(X, Y) :- a1(X, Z1), ..., an(Zn-1, Y)`` — component predicates or
other binary literals, read first argument to second — that may carry
*node tests*: a literal with one chain variable whose other positions
hold constants or variables occurring nowhere else in the rule
(``tag0(Y, T0)``).  Edges and tests are the terminals of the
component's grammar, which must be right- or left-linear, or
*doubled*: one member ``P`` whose rules are ``P -> P P``, ``P -> L P``,
``P -> P R`` or ``P -> B`` for words ``L``, ``R``, ``B`` of terminals,
as in non-linear transitive closure.  A doubled grammar is
self-embedding, yet its language ``(L* B R*)+`` is regular.

Every reader of the component must want one endpoint only:

- An adorned version of a member's base predicate that keeps one of the
  member's two positions (``witness@dn`` beside ``witness@nn``)
  computes that projection of the member, so its rules are replaced:
  state predicates propagate forward from any edge (backward to any
  node), and the version names the accepting state.  The query's own
  adorned predicate is redefined only for a doubled component: for a
  one-sided-linear one, section 5's deletion phase already removes the
  recursion (Example 6), but it cannot remove ``P -> P P``.
- In any other rule, a literal ``c(A, B)`` whose ``A`` side — the
  literals connected to ``A`` through variables other than ``B`` —
  shares no variable with the head, with ``B``'s side or with a negated
  literal, as in ``q(Y) :- start(X), reach(X, Y)``.  The side is the
  *seed*: state predicates propagate forward from it, and the literal
  and its seed become the accepting state's predicate on ``B``.  A
  ``B`` side seeds the mirror image, propagating backward.

The pass emits one unary predicate per state of the minimal DFA of the
language read in the propagation direction, and drops the component,
which nothing reads any more.  Anything else — the query predicate in
the component (``tc(X, X)``), a grammar neither one-sided linear nor
doubled (``P -> L P R``, doubling inside mutual recursion), both
endpoints needed, a reader outside the two shapes — declines on the
syntax alone, before any automaton is built.

The rewrite is *edb-only*: the binary predicates are no longer
computed, so rows given for them would be ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Optional

from ..datalog.analysis import is_recursive_component, strongly_connected_components
from ..datalog.ast import Atom
from ..datalog.builtins import is_builtin
from ..datalog.errors import TransformError
from ..datalog.terms import Variable
from .adornment import Adornment, AdornedLiteral, AdornedProgram, AdornedRule, split_adorned

__all__ = ["MonadicChain", "monadic_chains"]

FORWARD, BACKWARD = "forward", "backward"
_ANY = "any edge"


@dataclass(frozen=True)
class MonadicChain:
    """One reader of a component that :func:`monadic_chains` rewrote.

    ``component`` lists the binary predicates dropped; ``start`` is the
    member the reader consumed; ``direction`` is ``"forward"`` (seeded
    at the first argument) or ``"backward"``; ``seed`` renders the seed
    literals, or ``"any edge"`` for a redefined adorned version;
    ``reader`` is the rewired rule or the redefined predicate; and
    ``states`` are the unary predicates introduced for it.
    """

    component: tuple[str, ...]
    start: str
    direction: str
    seed: str
    reader: str
    states: tuple[str, ...]

    def __str__(self) -> str:
        through = f" through {', '.join(self.states)}" if self.states else ""
        return f"{self.start}: {self.direction} from {self.seed}{through} -> {self.reader}"


# -- the syntax: chains, tests, readers -----------------------------------


def _vars(lit: AdornedLiteral) -> set[Variable]:
    return {a for a in lit.atom.args if isinstance(a, Variable)}


def _test_key(lit: AdornedLiteral, anchor: Variable) -> tuple:
    """A test literal up to its private variables (each occurs once)."""
    return (
        lit.atom.predicate,
        tuple(
            "^" if a == anchor else "_" if isinstance(a, Variable) else repr(a)
            for a in lit.atom.args
        ),
    )


def _chain(rule: AdornedRule, members: frozenset[str], symbols: dict) -> Optional[tuple[str, ...]]:
    """The word of *rule*, registering each symbol's literals in
    *symbols*; None unless the rule is a chain with node tests.  An
    edge's symbol is its predicate; the tests at one chain variable
    are one symbol, ``"?"`` followed by their shape."""
    head = rule.head.atom.args
    if rule.negative or len(head) != 2 or head[0] == head[1]:
        return None
    if not all(isinstance(a, Variable) for a in head):
        return None
    counts: dict[Variable, int] = {v: 1 for v in head}
    for lit in rule.body:
        for a in lit.atom.args:
            if isinstance(a, Variable):
                counts[a] = counts.get(a, 0) + 1
    out: dict[Variable, AdornedLiteral] = {}
    tests: dict[Variable, list[AdornedLiteral]] = {}
    for lit in rule.body:
        if is_builtin(lit.atom.predicate):
            return None
        shared = {a for a in lit.atom.args if isinstance(a, Variable) and counts[a] > 1}
        args = lit.atom.args
        if len(args) == 2 and len(shared) == 2:
            if args[0] in out:
                return None
            out[args[0]] = lit
        elif len(shared) == 1 and lit.atom.predicate not in members:
            (anchor,) = shared
            if sum(a == anchor for a in args) != 1:
                return None
            tests.setdefault(anchor, []).append(lit)
        else:
            return None
    word: list[str] = []
    here, seen = head[0], {head[0]}

    def test_symbol(node: Variable) -> None:
        lits = tests.pop(node, None)
        if lits:
            lits.sort(key=lambda lit: _test_key(lit, node))
            symbol = "?" + repr(tuple(_test_key(lit, node) for lit in lits))
            symbols.setdefault(symbol, ("test", tuple((lit, node) for lit in lits)))
            word.append(symbol)

    while True:
        test_symbol(here)
        if here == head[1]:
            break
        lit = out.pop(here, None)
        if lit is None or lit.atom.args[1] in seen:
            return None
        symbols.setdefault(lit.atom.predicate, ("edge", lit))
        word.append(lit.atom.predicate)
        here = lit.atom.args[1]
        seen.add(here)
    if out or tests:
        return None
    return tuple(word)


def _side(
    rule: AdornedRule, skip: int, var: Variable, other: Variable, members: frozenset[str]
) -> Optional[tuple[int, ...]]:
    """The body literals connected to *var* without passing through
    literal *skip*, if they make a seed: none holds *other*, a component
    literal or a built-in, and together with *var* they share no
    variable with the head or a negated literal."""
    reach, side = {var}, []
    grew = True
    while grew:
        grew = False
        for j, lit in enumerate(rule.body):
            if j == skip or j in side or reach.isdisjoint(_vars(lit)):
                continue
            if (
                other in _vars(lit)
                or lit.atom.predicate in members
                or is_builtin(lit.atom.predicate)
            ):
                return None
            side.append(j)
            reach |= _vars(lit)
            grew = True
    outside = _vars(rule.head)
    for lit in rule.negative:
        outside |= _vars(lit)
    if not reach.isdisjoint(outside):
        return None
    return tuple(sorted(side))


def _reading(rule: AdornedRule, members: frozenset[str]):
    """The first component literal of *rule* it can rewire:
    ``(index, direction, seed indexes, seed variable, answer variable)``;
    None when it holds one but none is rewirable, ``()`` when it holds
    none."""
    found = False
    for i, lit in enumerate(rule.body):
        if lit.atom.predicate not in members:
            continue
        found = True
        a, b = lit.atom.args
        if not (isinstance(a, Variable) and isinstance(b, Variable)) or a == b:
            continue
        options = []
        for direction, var, other in ((FORWARD, a, b), (BACKWARD, b, a)):
            side = _side(rule, i, var, other, members)
            if side is not None:
                options.append((i, direction, side, var, other))
        if options:
            # a non-empty seed is the more selective start
            return next((o for o in options if o[2]), options[0])
    return None if found else ()


def _rewire(rule: AdornedRule, members, answer: Callable) -> Optional[AdornedRule]:
    """Rewire every component literal of *rule*, one at a time: the
    literal and its seed become ``answer(...)``'s unary literal on the
    answer variable.  None when some literal is not rewirable."""
    while True:
        reading = _reading(rule, members)
        if reading is None:
            return None
        if reading == ():
            return rule
        i, direction, side, var, target = reading
        seed = tuple(rule.body[j] for j in side)
        literal = answer(rule, rule.body[i].atom.predicate, direction, seed, var, target)
        body = [
            literal if j == i else lit
            for j, lit in enumerate(rule.body)
            if j not in side
        ]
        rule = AdornedRule(rule.head, tuple(body), rule.negative)


def _siblings(program: AdornedProgram, members: frozenset[str]) -> dict[str, tuple[str, str]]:
    """Adorned versions that keep one position of a member: version ->
    (member, direction)."""
    by_base: dict[str, list[str]] = {}
    for m in sorted(members):
        by_base.setdefault(split_adorned(m)[0], []).append(m)
    found: dict[str, tuple[str, str]] = {}
    for pred in program.derived_predicates():
        base, ad = split_adorned(pred)
        if ad is None or pred in members or len(ad.needed_positions) != 1:
            continue
        (kept,) = ad.needed_positions
        for m in by_base.get(base, ()):
            first, second = split_adorned(m)[1].needed_positions
            if kept in (first, second):
                found[pred] = (m, BACKWARD if kept == first else FORWARD)
                break
    return found


# -- the automaton side ------------------------------------------------------


def _dfa(grammar, start: str, direction: str):
    from ..grammar.regular import (
        doubled_to_nfa,
        is_left_linear,
        is_right_linear,
        left_linear_to_nfa,
        minimal_dfa,
        reverse_nfa,
        right_linear_to_nfa,
    )

    grammar = grammar.with_start(start)
    if is_right_linear(grammar):
        nfa = right_linear_to_nfa(grammar)
    elif is_left_linear(grammar):
        nfa = left_linear_to_nfa(grammar)
    else:
        nfa = doubled_to_nfa(grammar)
    return minimal_dfa(nfa if direction == FORWARD else reverse_nfa(nfa))


def _copy(lit: AdornedLiteral, mapping: dict, fresh) -> AdornedLiteral:
    """*lit* with its variables renamed by *mapping*, extended with the
    next of *fresh* for each variable it does not map yet."""
    for a in lit.atom.args:
        if isinstance(a, Variable) and a not in mapping:
            mapping[a] = next(fresh)
    args = tuple(mapping[a] if isinstance(a, Variable) else a for a in lit.atom.args)
    return AdornedLiteral(Atom(lit.atom.predicate, args), lit.adornment, lit.derived)


def _state_rules(dfa, symbols, direction, seed, names, state_lit) -> list[AdornedRule]:
    """Propagation rules over *dfa*: ``names[q](V)`` holds iff a path
    from a seed node (any node, when *seed* is None) to ``V`` — from
    ``V`` to a seed node, backward — spells a word leading the DFA to
    ``q``."""
    here, there = Variable("X"), Variable("Y")
    rules = []
    moves = sorted(dfa.transitions.items(), key=lambda kv: (int(kv[0][0]), kv[0][1]))
    for (state, symbol), (target,) in moves:
        kind, data = symbols[symbol]
        fresh = (Variable(f"T{i}") for i in count())
        if kind == "edge":
            args = (here, there) if direction == FORWARD else (there, here)
            step = (AdornedLiteral(Atom(data.atom.predicate, args), data.adornment, data.derived),)
            node = there
        else:
            mapping = {data[0][1]: here}
            step = tuple(_copy(lit, mapping, fresh) for lit, _anchor in data)
            node = here
        head = state_lit(target, node)
        if state == dfa.start:
            mapping = {} if seed is None else {seed[0]: here}
            pre = () if seed is None else tuple(_copy(lit, mapping, fresh) for lit in seed[1])
            rules.append(AdornedRule(head, pre + step))
        if state in names:
            rules.append(AdornedRule(head, (state_lit(state, here),) + step))
    return rules


# -- the pass ----------------------------------------------------------------


def _candidates(program: AdornedProgram) -> frozenset[str]:
    """Binary derived predicates, not the query's, all of whose rules
    are negation-free — the only possible component members."""
    query = program.query.atom.predicate
    binary, other = set(), set()
    for r in program.rules:
        pred = r.head.atom.predicate
        (binary if r.head.atom.arity == 2 and not r.negative else other).add(pred)
    return frozenset(binary - other - {query})


def monadic_chains(program: AdornedProgram) -> tuple[AdornedProgram, tuple[MonadicChain, ...]]:
    """Rewrite every chain component whose readers want one endpoint
    (see the module docstring); returns the program and one
    :class:`MonadicChain` per rewired reader, ``()`` when nothing
    fired."""
    candidates = _candidates(program)
    # the syntactic gate: some candidate must read a candidate
    if not any(
        r.head.atom.predicate in candidates
        and any(lit.atom.predicate in candidates for lit in r.body)
        for r in program.rules
    ):
        return program, ()
    graph: dict[str, set[str]] = {}
    for r in program.rules:
        deps = graph.setdefault(r.head.atom.predicate, set())
        deps.update(lit.atom.predicate for lit in (*r.body, *r.negative))
    graph_f = {p: frozenset(d) for p, d in graph.items()}
    chains: list[MonadicChain] = []
    for component in strongly_connected_components(graph_f):
        if component <= candidates and is_recursive_component(component, graph_f):
            rewritten = _rewrite_component(program, component)
            if rewritten is not None:
                program, found = rewritten
                chains.extend(found)
    return program, tuple(chains)


def _rewrite_component(program: AdornedProgram, members: frozenset[str]):
    from ..grammar.cfg import Grammar, Production
    from ..grammar.regular import is_doubled, is_left_linear, is_right_linear

    symbols: dict[str, tuple] = {}
    productions = []
    for r in program.rules:
        if r.head.atom.predicate not in members:
            continue
        word = _chain(r, members, symbols)
        if word is None:
            return None
        productions.append(Production(r.head.atom.predicate, word))
    grammar = Grammar(tuple(productions), min(members))
    doubled = is_doubled(grammar)
    if not (doubled or is_right_linear(grammar) or is_left_linear(grammar)):
        return None

    # readers: whole adorned versions, or rules rewired literal by literal
    siblings = _siblings(program, members)
    query = program.query.atom.predicate
    redefined: dict[str, tuple[str, str]] = {}
    readers: list[int] = []
    for index, r in enumerate(program.rules):
        pred = r.head.atom.predicate
        if pred in members:
            continue
        if any(lit.atom.predicate in members for lit in r.negative):
            return None
        if not any(lit.atom.predicate in members for lit in r.body):
            continue
        if pred in siblings:
            if pred == query and not doubled:
                return None
            redefined[pred] = siblings[pred]
        else:
            readers.append(index)

    def placeholder(rule, member, direction, seed, var, target):
        return AdornedLiteral(Atom("?" + member, (target,)), Adornment("n"), derived=True)

    for index in readers:
        if _rewire(program.rules[index], members, placeholder) is None:
            return None

    # the syntax holds: build the automata
    return _emit(program, members, grammar, symbols, redefined, readers)


def _emit(program, members, grammar, symbols, redefined, readers):
    component = tuple(sorted(members))
    taken = {lit.atom.predicate for r in program.rules for lit in (r.head, *r.body, *r.negative)}
    automata: dict[tuple[str, str], object] = {}
    new_rules: list[AdornedRule] = []
    chains: list[MonadicChain] = []

    def automaton(start: str, direction: str):
        key = (start, direction)
        if key not in automata:
            automata[key] = _dfa(grammar, start, direction)
        return automata[key]

    def fresh(start: str, direction: str) -> str:
        base = split_adorned(start)[0]
        tag = "fw" if direction == FORWARD else "bw"
        k = 1
        while f"{base}.{tag}{k}@n" in taken:
            k += 1
        taken.add(f"{base}.{tag}{k}@n")
        return f"{base}.{tag}{k}@n"

    def family(start, direction, seed, answer_lit):
        """Emit the state rules of one reader; returns the accepting
        predicate's (name, adornment) and the state predicates
        introduced.  *answer_lit* names the accepting state (a redefined
        adorned version), or None for a fresh name."""
        dfa = automaton(start, direction)
        if not dfa.finals:
            raise TransformError(f"{start} derives nothing")
        incoming = {t for dsts in dfa.transitions.values() for t in dsts}
        finals = sorted(dfa.finals, key=int)
        names: dict[str, tuple[str, Adornment]] = {}
        if answer_lit is not None and len(finals) == 1:
            names[finals[0]] = answer_lit
        for q in sorted(dfa.states, key=int):
            if q not in names and (q != dfa.start or q in incoming):
                names[q] = (fresh(start, direction), Adornment("n"))
        if len(finals) == 1:
            answer = names[finals[0]]
        else:
            answer = answer_lit or (fresh(start, direction), Adornment("n"))

        def state_lit(q, var):
            name, ad = names[q]
            return AdornedLiteral(Atom(name, (var,)), ad, derived=True)

        rules = _state_rules(dfa, symbols, direction, seed, names, state_lit)
        if answer not in names.values():
            v = Variable("X")
            head = AdornedLiteral(Atom(answer[0], (v,)), answer[1], derived=True)
            rules += [AdornedRule(head, (state_lit(f, v),)) for f in finals]
        new_rules.extend(rules)
        introduced = {n for n, _ in names.values()} | {answer[0]}
        return answer, tuple(sorted(introduced - set(redefined)))

    try:
        for pred, (member, direction) in sorted(redefined.items()):
            ad = split_adorned(pred)[1]
            _answer, states = family(member, direction, None, (pred, ad))
            chains.append(MonadicChain(component, member, direction, _ANY, pred, states))

        def answer(rule, member, direction, seed, var, target):
            (name, ad), states = family(member, direction, (var, seed), None)
            chains.append(MonadicChain(
                component, member, direction,
                ", ".join(str(lit) for lit in seed) or _ANY, str(rule), states,
            ))
            return AdornedLiteral(Atom(name, (target,)), ad, derived=True)

        rewired = {index: _rewire(program.rules[index], members, answer) for index in readers}
    except TransformError:
        return None

    rules: list[AdornedRule] = []
    placed = False
    for index, r in enumerate(program.rules):
        pred = r.head.atom.predicate
        if pred in members or pred in redefined:
            if not placed:
                rules.extend(new_rules)
                placed = True
            continue
        rules.append(rewired.get(index, r))
    return program.with_rules(rules), chains
