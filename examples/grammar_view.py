"""Chain programs as context-free grammars (sections 1.1, 4, and
Theorem 3.3).

Demonstrates the grammar correspondence the paper's undecidability
results live on:

- dropping arguments turns a binary chain program into a CFG;
- ``L(G)`` vs. the extended language ``L^ex(G)`` separate plain from
  *uniform* equivalence (Lemma 4.1) — shown on the left-/right-linear
  transitive-closure pair of Example 5;
- the self-embedding test flags grammars that may not be regular;
- for a right-linear program asked for one endpoint (``a(X, _)``), the
  NFA construction yields an equivalent *monadic* program (Theorem
  3.3's positive direction).

Run:  python examples/grammar_view.py
"""

from repro import Database, evaluate, parse
from repro.grammar import (
    extended_language,
    is_right_linear,
    is_self_embedding,
    language,
    monadic_program_for,
    program_to_grammar,
)

RIGHT = parse(
    """
    a(X, Y) :- e(X, Z), a(Z, Y).
    a(X, Y) :- e(X, Y).
    ?- a(X, Y).
    """
)

LEFT = parse(
    """
    a(X, Y) :- a(X, Z), e(Z, Y).
    a(X, Y) :- e(X, Y).
    ?- a(X, Y).
    """
)

ANBN = parse(
    """
    s(X, Y) :- push(X, Z1), s(Z1, Z2), pop(Z2, Y).
    s(X, Y) :- push(X, Z), pop(Z, Y).
    ?- s(X, Y).
    """
)


def show(word_set, limit=6):
    words = sorted(word_set, key=lambda w: (len(w), w))[:limit]
    return ", ".join(" ".join(w) for w in words) or "(empty)"


def main() -> None:
    g_right = program_to_grammar(RIGHT)
    g_left = program_to_grammar(LEFT)
    g_anbn = program_to_grammar(ANBN)

    print("right-linear TC as a grammar:")
    print(g_right)
    print()
    print(f"L(right)  up to 4: {show(language(g_right, 4))}")
    print(f"L(left)   up to 4: {show(language(g_left, 4))}")
    print("-> identical languages: the programs are query equivalent (Lemma 4.1.2)")
    print()
    print(f"L^ex(right) up to 2: {show(extended_language(g_right, 2))}")
    print(f"L^ex(left)  up to 2: {show(extended_language(g_left, 2))}")
    print(
        "-> different extended languages: NOT uniformly equivalent "
        "(Lemma 4.1.3/4 — the Example 5 phenomenon)"
    )
    print()

    print(f"self-embedding(right TC)? {is_self_embedding(g_right)}")
    print(f"self-embedding(push^n pop^n)? {is_self_embedding(g_anbn)}")
    print(f"L(push^n pop^n) up to 6: {show(language(g_anbn, 6))}")
    print("-> the balanced language is a witness for Theorem 3.3's undecidability")
    print()

    print(f"right TC right-linear? {is_right_linear(g_right)}")
    sources = RIGHT.with_query(parse("?- a(X, _).").query)
    monadic = monadic_program_for(sources)
    print("equivalent monadic program for ?- a(X, _) (Theorem 3.3, constructive direction):")
    print(monadic)
    db = Database.from_dict({"e": [(0, 1), (1, 2), (2, 0), (5, 6)]})
    binary = {t[0] for t in evaluate(sources, db).answers()}
    unary = {t[0] for t in evaluate(monadic, db).answers()}
    assert binary == unary
    print(f"-> agrees with the binary program on a sample graph: {sorted(unary)}")
    print()
    print(f"monadic_program_for(a(X, Y)) = {monadic_program_for(RIGHT)}")
    print("-> None: a pair query asks for both endpoints")
    print(f"monadic_program_for(push^n pop^n) = {monadic_program_for(ANBN)}")
    print("-> None: outside the constructive fragment, as expected")


if __name__ == "__main__":
    main()
