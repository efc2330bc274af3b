"""A tour of the section-6 extensions this library implements.

The paper closes with a research agenda: generalize to negation and
evaluable functions, detect subsumption by other rules, and explore
transformations that add or delete body literals.  This script walks
each implemented answer with a small runnable scenario:

1. θ-subsumption deletion;
2. unfolding (literal-level transformation);
3. stratified negation;
4. comparison built-ins;
5. the tabled top-down evaluator vs Magic Sets (the two classic routes
   to goal direction the bottom-up framing competes with).

Run:  python examples/extensions_tour.py
"""

from repro import Database, evaluate, optimize, parse
from repro.core import delete_subsumed, theta_subsumes
from repro.datalog import parse_rule
from repro.engine import evaluate_topdown
from repro.rewriting import magic_sets
from repro.workloads.graphs import chain


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    banner("1. θ-subsumption: 'subsumption of a rule by other rules'")
    general = parse_rule("reachable(X) :- edge(X, Y).")
    special = parse_rule("reachable(X) :- edge(X, Y), audited(Y, Z).")
    print(f"{general}\n{special}")
    print(f"-> first subsumes second: {theta_subsumes(general, special)}")
    program = parse(
        """
        reachable(X) :- edge(X, Y).
        reachable(X) :- edge(X, Y), audited(Y, Z).
        ?- reachable(X).
        """
    )
    trimmed, deleted = delete_subsumed(program)
    print(f"-> delete_subsumed removed {len(deleted)} rule(s); kept:")
    print(trimmed)

    banner("2. Unfolding: splice single-rule predicates into consumers")
    program = parse(
        """
        alert(X) :- risky(X, Y).
        risky(X, Y) :- transfer(X, Y), flagged(Y).
        ?- alert(X).
        """
    )
    result = optimize(program)
    print(result.final)
    print(f"-> unfolded predicates: {result.record('unfold_nonrecursive').report}")

    banner("3. Stratified negation")
    program = parse(
        """
        covered(X) :- endpoint(X), scan(X, R).
        gap(X) :- endpoint(X), not covered(X).
        ?- gap(X).
        """
    )
    db = Database.from_dict(
        {"endpoint": [(i,) for i in range(5)], "scan": [(0, 1), (3, 2)]}
    )
    print(program)
    print(f"-> gaps: {sorted(evaluate(program, db).answers())}")

    banner("4. Comparison built-ins (evaluable predicates)")
    program = parse(
        """
        hop_up(X, Y) :- edge(X, Y), lt(X, Y).
        climb(X, Y) :- hop_up(X, Y).
        climb(X, Y) :- hop_up(X, Z), climb(Z, Y).
        ?- climb(0, Y).
        """
    )
    db = Database.from_dict({"edge": [(0, 3), (3, 1), (3, 5), (5, 9), (9, 2)]})
    print(program)
    print(f"-> strictly-increasing reachability from 0: {sorted(evaluate(program, db).answers())}")

    banner("5. Goal direction: unrestricted vs Magic Sets vs tabling")
    program = parse(
        """
        tc(X, Y) :- edge(X, Y).
        tc(X, Y) :- edge(X, Z), tc(Z, Y).
        ?- tc(90, Y).
        """
    )
    db = Database.from_dict({"edge": chain(100)})
    plain = evaluate(program, db)
    magic = evaluate(magic_sets(program).program, db)
    tabled = evaluate_topdown(program, db)
    assert plain.answers() == magic.answers() == tabled.answers
    print(f"answers from node 90 on a 100-chain: {len(plain.answers())}")
    print(f"unrestricted bottom-up: {plain.stats.facts_derived} facts derived")
    print(f"magic sets:             {magic.stats.facts_derived} facts derived")
    print(f"tabled top-down:        {tabled.stats.facts_derived} facts derived")


if __name__ == "__main__":
    main()
