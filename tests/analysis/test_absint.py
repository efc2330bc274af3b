"""The abstract-interpretation framework: domains and codes.

Two layers of coverage:

- lattice/unit tests for the sort algebra and the degree sketches
  (join/meet laws, persistence round-trips);
- one trigger *and* one non-trigger fixture per diagnostic code
  DL018–DL024.
"""

from repro.analysis import analyze_program
from repro.analysis.domains import (
    TOP,
    load_profiles,
    save_profiles,
    sort_join,
    sort_meet,
    sort_of_values,
    sort_types,
)
from repro.datalog import Database, parse
from repro.engine.cost import BoundCostModel, RelationProfile


def db_of(**relations):
    """Database from ``name=(rows...)`` keyword relations."""
    db = Database()
    for name, rows in relations.items():
        rows = [r if isinstance(r, tuple) else (r,) for r in rows]
        arity = len(rows[0]) if rows else 1
        db.ensure(name, arity).update(rows)
    return db


def codes_of(result):
    return {d.code for d in result.report.diagnostics}


# -- the sort lattice -------------------------------------------------------


class TestSortLattice:
    def test_join_unions_constants(self):
        a = sort_of_values([1, 2])
        b = sort_of_values([3])
        assert sort_join(a, b) == sort_of_values([1, 2, 3])

    def test_top_absorbs(self):
        a = sort_of_values([1])
        assert sort_join(a, TOP) is TOP
        assert sort_meet(TOP, a) == a

    def test_meet_disjoint_constants_is_bottom(self):
        conflict = sort_meet(sort_of_values([1, 2]), sort_of_values([3]))
        assert conflict == frozenset()

    def test_overflow_widens_to_types(self):
        wide = sort_of_values(range(100))
        assert sort_types(wide) == frozenset(["int"])
        # still meets compatibly with a small same-typed sort
        assert sort_meet(wide, sort_of_values([5])) != frozenset()

    def test_type_disjoint_meet(self):
        ints = sort_of_values(range(100))
        strs = sort_of_values([f"v{i}" for i in range(100)])
        assert sort_meet(ints, strs) == frozenset()


# -- degree sketches --------------------------------------------------------


class TestDegreeSketch:
    """``RelationProfile`` as the analyzer's degree sketch (the class
    name keeps the test ids stable)."""

    def test_join_is_pointwise_max_and_measured_and(self):
        a = RelationProfile.from_counts(10, [3, 1])
        b = RelationProfile.from_counts(40, [1, 5])
        j = a.join(b)
        assert j.size == max(a.size, b.size)
        assert j.degree == tuple(
            max(x, y) for x, y in zip(a.degree, b.degree)
        )
        assert j.measured
        assert not a.join(RelationProfile.assumed(2)).measured

    def test_join_idempotent(self):
        a = RelationProfile.from_counts(10, [3, 1])
        assert a.join(a) == a

    def test_synthetic_is_not_measured(self):
        s = RelationProfile.assumed(3)
        assert not s.measured
        assert len(s.degree) == 3

    def test_dict_round_trip(self):
        a = RelationProfile.from_counts(10, [3, 1])
        assert RelationProfile.from_dict(a.to_dict()) == a

    def test_profile_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "profiles.json")
        sketches = {
            "edge": RelationProfile.from_counts(100, [4, 1]),
            "node": RelationProfile.assumed(1),
        }
        save_profiles(path, sketches)
        loaded = load_profiles(path)
        assert loaded == sketches

    def test_to_profile_feeds_planner(self):
        # no conversion: the analyzer's value *is* the planner's profile
        profile = RelationProfile.from_counts(100, [4, 1])
        model = BoundCostModel({"edge": profile})
        assert model.profiles["edge"] is profile
        assert model.signature()[2] == (("edge", (127, (7, 1))),)


# -- per-code fixtures ------------------------------------------------------


class TestDL018EmptyJoin:
    def test_trigger_value_disjoint_join(self):
        program = parse(
            "a(1). a(2). c(3). c(4). p(X) :- a(X), c(X). ?- p(X)."
        )
        result = analyze_program(program)
        assert "DL018" in codes_of(result)

    def test_non_trigger_overlap(self):
        program = parse(
            "a(1). a(2). c(2). c(3). p(X) :- a(X), c(X). ?- p(X)."
        )
        assert "DL018" not in codes_of(analyze_program(program))


class TestDL019SortMismatch:
    def test_trigger_type_conflict(self):
        program = parse("a(1). b('x'). p(X) :- a(X), b(X). ?- p(X).")
        assert "DL019" in codes_of(analyze_program(program))

    def test_non_trigger_same_type(self):
        program = parse("a(1). b(1). p(X) :- a(X), b(X). ?- p(X).")
        assert "DL019" not in codes_of(analyze_program(program))


TC = """
    tc(X, Y) :- edge(X, Y).
    tc(X, Y) :- edge(X, Z), tc(Z, Y).
    ?- tc(X, Y).
"""


class TestDL020ConstantPosition:
    def test_trigger_pinned_column(self):
        # a pure hub: every edge starts at 0, so tc's first position
        # is provably the constant 0 — and the hub key is maximally
        # skewed, so DL022 fires alongside
        db = db_of(edge=[(0, i) for i in range(1, 101)])
        result = analyze_program(parse(TC), db)
        assert codes_of(result) == {"DL020", "DL022"}

    def test_non_trigger_diverse_column(self):
        db = db_of(edge=[(i, i + 1) for i in range(100)])
        assert "DL020" not in codes_of(analyze_program(parse(TC), db))


class TestDL021MeasuredBlowup:
    def test_trigger_cross_product(self):
        program = parse("pair(X, Y) :- a(X), b(Y). ?- pair(X, Y).")
        db = db_of(a=list(range(200)), b=list(range(200)))
        assert "DL021" in codes_of(analyze_program(program, db))

    def test_non_trigger_small_relations(self):
        program = parse("pair(X, Y) :- a(X), b(Y). ?- pair(X, Y).")
        db = db_of(a=list(range(5)), b=list(range(5)))
        assert "DL021" not in codes_of(analyze_program(program, db))

    def test_non_trigger_without_measurements(self):
        # no EDB: sketches are synthetic, so the measured-bound code
        # must stay silent (DL017 already covers the synthetic story)
        program = parse("pair(X, Y) :- a(X), b(Y). ?- pair(X, Y).")
        assert "DL021" not in codes_of(analyze_program(program))


class TestDL022SkewedDegree:
    def test_trigger_hub_key(self):
        db = db_of(edge=[(0, i) for i in range(1, 101)])
        assert "DL022" in codes_of(analyze_program(parse(TC), db))

    def test_non_trigger_uniform_key(self):
        db = db_of(edge=[(i, i + 1) for i in range(100)])
        assert "DL022" not in codes_of(analyze_program(parse(TC), db))

    def test_non_trigger_below_size_floor(self):
        # a tiny hub is not worth narrating
        db = db_of(edge=[(0, i) for i in range(1, 5)])
        assert "DL022" not in codes_of(analyze_program(parse(TC), db))


class TestDL023BoundedRecursion:
    def test_trigger_no_frontier_variables(self):
        # the recursive rule re-derives p over the same variable: one
        # round saturates, the recursion is bounded
        program = parse(
            "s(1). e(1). p(X) :- s(X). p(X) :- p(X), e(X). ?- p(X)."
        )
        assert "DL023" in codes_of(analyze_program(program))

    def test_non_trigger_growing_recursion(self):
        # transitive closure introduces a fresh frontier variable Z:
        # genuinely unbounded, no DL023
        db = db_of(edge=[(i, i + 1) for i in range(100)])
        assert "DL023" not in codes_of(analyze_program(parse(TC), db))


class TestDL024NoBaseCase:
    def test_trigger_only_recursive_rules(self):
        program = parse("e(1). p(X) :- p(X), e(X). ?- p(X).")
        assert "DL024" in codes_of(analyze_program(program))

    def test_non_trigger_with_base_case(self):
        program = parse(
            "s(1). e(1). p(X) :- s(X). p(X) :- p(X), e(X). ?- p(X)."
        )
        assert "DL024" not in codes_of(analyze_program(program))


# -- result surface ---------------------------------------------------------


class TestAnalysisResult:
    def test_measured_sketches_from_database(self):
        db = db_of(edge=[(i, i + 1) for i in range(20)])
        result = analyze_program(parse(TC), db)
        assert result.measured
        sketches = result.sketches()
        assert sketches["edge"].measured
        assert "tc" in sketches  # propagated IDB estimate, base name

    def test_cost_profiles_keyed_by_base_names(self):
        db = db_of(edge=[(i, i + 1) for i in range(20)])
        profiles = analyze_program(parse(TC), db).sketches()
        assert set(profiles) >= {"edge", "tc"}
        assert all("@" not in p for p in profiles)

    def test_unadorned_fallback_still_analyzes(self):
        # no query: adornment declines, the raw program is analyzed
        program = parse("p(X) :- a(X), c(X). a(1). c(3).")
        result = analyze_program(program)
        assert not result.adorned
        assert "DL018" in codes_of(result)

    def test_to_dict_covers_all_three_domains(self):
        db = db_of(edge=[(i, i + 1) for i in range(10)])
        data = analyze_program(parse(TC), db).to_dict()
        assert set(data["domains"]) == {
            "sorts", "cardinality", "boundedness"
        }
        assert data["measured"] is True
