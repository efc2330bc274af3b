"""Regularity and the monadic-program construction (Theorem 3.3).

Theorem 3.3: a binary chain program with query ``p^dn`` (or ``p^nd``)
has an equivalent *monadic* chain program iff the language of the
corresponding CFG is regular — hence "can the recursion be made unary"
is undecidable.  This module implements the decidable machinery around
that theorem:

- :func:`is_self_embedding` — the classical sufficient test for
  regularity: a CFG with no self-embedding nonterminal (no
  ``A ⇒+ αAβ`` with non-empty ``α`` and ``β``) generates a regular
  language.  (The converse fails, matching the theorem's
  undecidability: a self-embedding grammar *may* still be regular.)
- :func:`is_right_linear` / :func:`is_left_linear` — one-sided linear
  grammars, the constructive fragment.
- :func:`right_linear_to_nfa` and :func:`nfa_to_monadic_program` — the
  positive direction of Theorem 3.3 for right-linear grammars: build
  the NFA for the language and turn its states into unary predicates
  ``can_reach_accept_from[q](X)``; :func:`monadic_program_for` glues
  the steps together, answering a ``p^nd`` query with a unary
  recursion.
- :func:`left_linear_to_nfa`, :func:`reverse_nfa` and
  :func:`minimal_dfa` — the automata of the optimizer's
  ``monadic_chains`` pass (:mod:`repro.core.monadic`), which covers
  both one-sided linear forms and both query directions, and emits one
  unary predicate per state of the minimal DFA.
- :func:`is_doubled` / :func:`doubled_to_nfa` — one self-embedding
  class that is still regular: a single nonterminal ``P`` with the
  doubling rule ``P -> P P`` beside ``P -> L P``, ``P -> P R`` and
  ``P -> B`` (``L``, ``R``, ``B`` terminal words), as in non-linear
  transitive closure.  Its language is ``(L* B R*)+``; the NFA is that
  of an equivalent right-linear grammar.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from ..datalog.ast import Atom, Program, Rule
from ..datalog.errors import TransformError
from ..datalog.terms import Variable
from .cfg import Grammar, Production, program_to_grammar

__all__ = [
    "is_self_embedding",
    "is_right_linear",
    "is_left_linear",
    "NFA",
    "right_linear_to_nfa",
    "is_doubled",
    "doubled_to_nfa",
    "nfa_accepts",
    "nfa_to_monadic_program",
    "monadic_program_for",
]


def is_self_embedding(grammar: Grammar) -> bool:
    """Does some nonterminal ``A`` satisfy ``A ⇒+ αAβ``, ``α,β ≠ ε``?

    Because chain grammars are ε-free, every grammar symbol derives a
    non-empty string, so "non-empty context" reduces to "some symbol is
    present on that side".  We explore states ``(B, l, r)``: from ``A``
    one can derive a form containing ``B`` with material on the left
    iff ``l``, on the right iff ``r``.  ``A`` is self-embedding iff
    ``(A, True, True)`` is reachable from ``A`` in one or more steps.
    Only nonterminals reachable *and* productive matter for the
    language, but the test is stated (and implemented) over the whole
    grammar — a conservative choice documented here.
    """
    nts = grammar.nonterminals
    for origin in nts:
        seen: set[tuple[str, bool, bool]] = set()
        queue: deque[tuple[str, bool, bool]] = deque()
        # one-step expansions of `origin`
        for p in grammar.productions_for(origin):
            for i, sym in enumerate(p.rhs):
                if sym in nts:
                    state = (sym, i > 0, i < len(p.rhs) - 1)
                    if state not in seen:
                        seen.add(state)
                        queue.append(state)
        while queue:
            sym, left, right = queue.popleft()
            if sym == origin and left and right:
                return True
            for p in grammar.productions_for(sym):
                for i, child in enumerate(p.rhs):
                    if child in nts:
                        state = (child, left or i > 0, right or i < len(p.rhs) - 1)
                        if state not in seen:
                            seen.add(state)
                            queue.append(state)
    return False


def is_right_linear(grammar: Grammar) -> bool:
    """Every production is ``A -> t1 ... tk`` or ``A -> t1 ... tk B``
    with the ``ti`` terminal and ``B`` a nonterminal."""
    nts = grammar.nonterminals
    for p in grammar.productions:
        for sym in p.rhs[:-1]:
            if sym in nts:
                return False
    return True


def is_left_linear(grammar: Grammar) -> bool:
    """Mirror image of :func:`is_right_linear`."""
    nts = grammar.nonterminals
    for p in grammar.productions:
        for sym in p.rhs[1:]:
            if sym in nts:
                return False
    return True


@dataclass(frozen=True)
class NFA:
    """A nondeterministic finite automaton without ε-transitions."""

    states: frozenset[str]
    start: str
    finals: frozenset[str]
    #: transitions[(state, symbol)] = set of successor states
    transitions: dict[tuple[str, str], frozenset[str]]

    def successors(self, state: str, symbol: str) -> frozenset[str]:
        return self.transitions.get((state, symbol), frozenset())


def right_linear_to_nfa(grammar: Grammar) -> NFA:
    """The standard right-linear-grammar → NFA construction.

    States are the nonterminals plus a fresh accepting state; a
    production ``A -> t1 ... tk B`` walks through fresh intermediate
    states consuming the terminals and lands in ``B``; a terminal-only
    production lands in the accepting state.  Chain grammars have no
    ε-productions, so the NFA needs no ε-moves.
    """
    if not is_right_linear(grammar):
        raise TransformError("grammar is not right-linear")
    nts = grammar.nonterminals
    accept = "$accept"
    states: set[str] = set(nts) | {accept}
    transitions: dict[tuple[str, str], set[str]] = {}

    def add(src: str, symbol: str, dst: str) -> None:
        transitions.setdefault((src, symbol), set()).add(dst)

    fresh = 0
    for p in grammar.productions:
        tail_nt = p.rhs[-1] if p.rhs[-1] in nts else None
        terminals = p.rhs[:-1] if tail_nt else p.rhs
        target = tail_nt if tail_nt else accept
        current = p.lhs
        for i, t in enumerate(terminals):
            if i == len(terminals) - 1:
                add(current, t, target)
            else:
                fresh += 1
                mid = f"$s{fresh}"
                states.add(mid)
                add(current, t, mid)
                current = mid
        if not terminals:
            # A -> B alone: a unit production; emulate with ε-closure by
            # copying B's outgoing behaviour later.  Chain programs do
            # produce these (unit rules), so handle them by fixpoint.
            transitions.setdefault(("$unit", p.lhs), set()).add(target)

    # Resolve unit productions A -> B: A inherits B's transitions and
    # finality, iterated to a fixpoint.
    unit_edges = {
        (src, dst)
        for (tag, src), dsts in list(transitions.items())
        if tag == "$unit"
        for dst in dsts
    }
    for key in [k for k in transitions if k[0] == "$unit"]:
        del transitions[key]

    finals: set[str] = {accept}
    changed = True
    while changed:
        changed = False
        for src, dst in unit_edges:
            if dst in finals and src not in finals:
                finals.add(src)
                changed = True
            for (state, symbol), dsts in list(transitions.items()):
                if state == dst:
                    bucket = transitions.setdefault((src, symbol), set())
                    if not dsts <= bucket:
                        bucket.update(dsts)
                        changed = True

    return NFA(
        states=frozenset(states),
        start=grammar.start,
        finals=frozenset(finals),
        transitions={k: frozenset(v) for k, v in transitions.items()},
    )


def reverse_nfa(nfa: NFA) -> NFA:
    """An NFA for the reversed language: every transition flipped, the
    old start the accepting state, and a fresh start state that makes
    the (flipped) last moves into every old accepting state."""
    start = "$rev"
    while start in nfa.states:
        start += "'"
    transitions: dict[tuple[str, str], set[str]] = {}
    for (src, symbol), dsts in nfa.transitions.items():
        for dst in dsts:
            transitions.setdefault((dst, symbol), set()).add(src)
            if dst in nfa.finals:
                transitions.setdefault((start, symbol), set()).add(src)
    finals = {nfa.start} | ({start} if nfa.start in nfa.finals else set())
    return NFA(
        states=nfa.states | {start},
        start=start,
        finals=frozenset(finals),
        transitions={k: frozenset(v) for k, v in transitions.items()},
    )


def left_linear_to_nfa(grammar: Grammar) -> NFA:
    """The mirror image of :func:`right_linear_to_nfa`: reverse every
    right-hand side (the grammar is now right-linear and generates the
    reversed language), build its NFA, and reverse that."""
    if not is_left_linear(grammar):
        raise TransformError("grammar is not left-linear")
    mirrored = Grammar(
        tuple(Production(p.lhs, p.rhs[::-1]) for p in grammar.productions),
        grammar.start,
    )
    return reverse_nfa(right_linear_to_nfa(mirrored))


def is_doubled(grammar: Grammar) -> bool:
    """One nonterminal, the start ``P``, with a doubling production
    ``P -> P P`` and every other production ``P -> w P``, ``P -> P w``
    or ``P -> w`` for a non-empty terminal word ``w``."""
    p = grammar.start
    if grammar.nonterminals != {p}:
        return False
    doubling = False
    for prod in grammar.productions:
        inner = [i for i, sym in enumerate(prod.rhs) if sym == p]
        if prod.rhs == (p, p):
            doubling = True
        elif (len(prod.rhs) == 1 and inner) or inner not in ([], [0], [len(prod.rhs) - 1]):
            return False
    return doubling


def doubled_to_nfa(grammar: Grammar) -> NFA:
    """The NFA of a doubled grammar (:func:`is_doubled`).

    ``P -> P P | L P | P R | B`` generates ``(L* B R*)+``: a derivation
    is a sequence of blocks, each a base word with left words before it
    and right words after it.  So does the ε-free right-linear grammar
    ``P -> L P | B | B P | B Q`` with ``Q -> R | R Q | R P`` (``Q``, a
    fresh nonterminal, only when some ``R`` exists), whose NFA is
    :func:`right_linear_to_nfa`'s.
    """
    if not is_doubled(grammar):
        raise TransformError("grammar is not doubled")
    p = grammar.start
    q = p + "$R"
    while q in grammar.terminals:
        q += "'"
    lefts, rights, bases = [], [], []
    for prod in grammar.productions:
        if prod.rhs == (p, p):
            continue
        if prod.rhs[-1] == p:
            lefts.append(prod.rhs)
        elif prod.rhs[0] == p:
            rights.append(prod.rhs[1:])
        else:
            bases.append(prod.rhs)
    tails = ((), (p,), (q,)) if rights else ((), (p,))
    productions = [Production(p, w) for w in lefts]
    productions += [Production(p, w + t) for w in bases for t in tails]
    productions += [Production(q, w + t) for w in rights for t in ((), (q,), (p,))]
    return right_linear_to_nfa(Grammar(tuple(productions), p))


#: The subset construction refuses to grow a DFA past this many states.
#: ``monadic_chains`` emits one predicate per state, so a blown-up
#: automaton would trade one binary recursion for hundreds of unary
#: rules; the pass declines instead.
MAX_DFA_STATES = 256


def minimal_dfa(nfa: NFA) -> NFA:
    """The minimal trim DFA of ``L(nfa)``, as an :class:`NFA` whose
    successor sets are singletons.

    Subset construction, then the states that cannot reach acceptance
    are dropped, then Moore's partition refinement merges equivalent
    states.  States are named ``"0"``, ``"1"``, ... in breadth-first
    order from the start ``"0"`` over sorted symbols, so the result
    does not depend on hash order.  Raises :class:`TransformError` when
    the subset construction exceeds :data:`MAX_DFA_STATES`.
    """
    alphabet = sorted({symbol for _state, symbol in nfa.transitions})
    first = frozenset({nfa.start})
    subsets, queue = {first: 0}, deque([first])
    delta: dict[int, dict[str, int]] = {}
    while queue:
        subset = queue.popleft()
        moves = delta.setdefault(subsets[subset], {})
        for symbol in alphabet:
            target = frozenset(s for q in subset for s in nfa.successors(q, symbol))
            if not target:
                continue
            if target not in subsets:
                if len(subsets) >= MAX_DFA_STATES:
                    raise TransformError(f"DFA exceeds {MAX_DFA_STATES} states")
                subsets[target] = len(subsets)
                queue.append(target)
            moves[symbol] = subsets[target]
    accepting = {i for subset, i in subsets.items() if subset & nfa.finals}
    # trim: keep the states from which acceptance is reachable
    live, changed = set(accepting), True
    while changed:
        changed = False
        for i, moves in delta.items():
            if i not in live and any(j in live for j in moves.values()):
                live.add(i)
                changed = True
    if 0 not in live:
        return NFA(frozenset({"0"}), "0", frozenset(), {})
    delta = {
        i: {a: j for a, j in moves.items() if j in live}
        for i, moves in delta.items()
        if i in live
    }
    # Moore: refine {accepting, rejecting} by each state's move signature
    block = {i: int(i in accepting) for i in delta}
    while True:
        signature = {
            i: (block[i], tuple(block.get(delta[i].get(a)) for a in alphabet))
            for i in delta
        }
        numbering: dict[tuple, int] = {}
        refined = {i: numbering.setdefault(signature[i], len(numbering)) for i in sorted(delta)}
        if len(numbering) == len(set(block.values())):
            break
        block = refined
    # rename blocks breadth-first from the start
    names: dict[int, str] = {block[0]: "0"}
    transitions: dict[tuple[str, str], frozenset[str]] = {}
    order = deque([0])
    seen = {block[0]}
    while order:
        i = order.popleft()
        for symbol in alphabet:
            j = delta[i].get(symbol)
            if j is None:
                continue
            if block[j] not in seen:
                seen.add(block[j])
                names[block[j]] = str(len(names))
                order.append(j)
            transitions[(names[block[i]], symbol)] = frozenset({names[block[j]]})
    return NFA(
        states=frozenset(names.values()),
        start="0",
        finals=frozenset(names[block[i]] for i in accepting if i in delta),
        transitions=transitions,
    )


def nfa_accepts(nfa: NFA, word: Iterable[str]) -> bool:
    """Membership test by subset simulation."""
    current = {nfa.start}
    for symbol in word:
        current = {s for state in current for s in nfa.successors(state, symbol)}
        if not current:
            return False
    return bool(current & nfa.finals)


def nfa_to_monadic_program(nfa: NFA, query_var: str = "X") -> Program:
    """Theorem 3.3, constructive direction.

    For the query ``p^nd(X)`` — "all X such that some word of the
    language labels a path starting at X" — define one unary predicate
    per NFA state: ``st_q(X)`` holds iff some path from ``X`` spells a
    word taking the NFA from ``q`` to acceptance::

        st_q(X) :- t(X, Y), st_q'(Y).     for q --t--> q'
        st_q(X) :- t(X, Y).               for q --t--> q', q' final

    The query is ``st_start(X)``.  The result is a *monadic* program:
    every recursive predicate is unary.
    """
    def pred(state: str) -> str:
        return "st_" + state.replace("$", "f")

    x, y = Variable(query_var), Variable("Y")
    has_outgoing = {state for (state, _symbol) in nfa.transitions}
    rules: list[Rule] = []
    for (state, symbol), dsts in sorted(
        nfa.transitions.items(), key=lambda kv: (kv[0][0], kv[0][1])
    ):
        for dst in sorted(dsts):
            if dst in has_outgoing:
                rules.append(
                    Rule(
                        Atom(pred(state), (x,)),
                        (Atom(symbol, (x, y)), Atom(pred(dst), (y,))),
                    )
                )
            if dst in nfa.finals:
                rules.append(Rule(Atom(pred(state), (x,)), (Atom(symbol, (x, y)),)))
    query = Atom(pred(nfa.start), (x,))
    return Program(tuple(rules), query)


def monadic_program_for(program: Program) -> Optional[Program]:
    """End-to-end Theorem 3.3 (positive direction) for a binary chain
    program queried as ``p^nd`` (``?- p(X, _)``): if the corresponding
    grammar is right-linear, return an equivalent monadic program;
    otherwise return None (the general question is undecidable and this
    constructive fragment stops at one-sided linearity).

    Any other query form returns None as well: ``p(X, Y)``, ``p(X, X)``
    or a constant argument asks for more than the first endpoint, which
    the program :func:`nfa_to_monadic_program` builds does not answer.
    """
    query = program.query
    if query is None or query.arity != 2:
        return None
    x, y = query.args
    if not (isinstance(x, Variable) and isinstance(y, Variable)):
        return None
    if x.name.startswith("_") or not y.name.startswith("_"):
        return None
    grammar = program_to_grammar(program)
    if not is_right_linear(grammar):
        return None
    nfa = right_linear_to_nfa(grammar)
    return nfa_to_monadic_program(nfa)
