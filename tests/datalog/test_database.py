"""Unit tests for relations, indexes, and databases."""

import pytest

from repro.datalog import ArityError, Database, Relation, ValidationError, atom
from repro.engine.plan import DeltaIndex


class TestRelation:
    def test_add_and_contains(self):
        r = Relation(2)
        assert r.add((1, 2))
        assert (1, 2) in r
        assert (2, 1) not in r

    def test_add_duplicate_returns_false(self):
        r = Relation(2, [(1, 2)])
        assert not r.add((1, 2))
        assert len(r) == 1

    def test_arity_enforced(self):
        r = Relation(2)
        with pytest.raises(ArityError):
            r.add((1, 2, 3))

    def test_update_counts_new(self):
        r = Relation(1)
        assert r.update([(1,), (2,), (1,)]) == 2

    def test_index_lookup(self):
        r = Relation(2, [(1, 2), (1, 3), (2, 3)])
        assert sorted(r.lookup((0,), (1,))) == [(1, 2), (1, 3)]
        assert r.lookup((1,), (3,)) and len(r.lookup((1,), (3,))) == 2
        assert r.lookup((0, 1), (2, 3)) == [(2, 3)]

    def test_empty_positions_returns_all(self):
        r = Relation(2, [(1, 2), (2, 3)])
        assert len(r.lookup((), ())) == 2

    def test_index_maintained_incrementally(self):
        r = Relation(2, [(1, 2)])
        r.index_for((0,))
        r.add((1, 3))
        assert sorted(r.lookup((0,), (1,))) == [(1, 2), (1, 3)]

    def test_missing_key_empty(self):
        r = Relation(2, [(1, 2)])
        assert r.lookup((0,), (9,)) == []

    def test_copy_independent(self):
        r = Relation(1, [(1,)])
        c = r.copy()
        c.add((2,))
        assert len(r) == 1 and len(c) == 2

    def test_equality(self):
        assert Relation(1, [(1,)]) == Relation(1, [(1,)])
        assert Relation(1, [(1,)]) != Relation(1, [(2,)])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Relation(1))


def _key(row, positions):
    return tuple(row[p] for p in positions)


def _generator_index(rows, positions):
    """The reference index: generator-expression keys, rows posted in
    iteration order."""
    index = {}
    for row in rows:
        index.setdefault(_key(row, positions), []).append(row)
    return index


#: 40 distinct rows, every key at every position set repeated
ROWS3 = [(i % 4, (i * 7) % 5, i % 3) for i in range(40)]


@pytest.mark.parametrize("positions", [(0,), (2,), (1, 0), (0, 2), (2, 0, 1)])
class TestIndexKeys:
    """Index keys are ``(row[p],)`` for one position and an
    ``itemgetter`` tuple for more: the same keys, key order and posting
    order as the generator form."""

    def test_build(self, positions):
        r = Relation(3, ROWS3)
        assert list(r.index_for(positions).items()) == list(
            _generator_index(r, positions).items()
        )

    def test_add_and_discard(self, positions):
        r = Relation(3, ROWS3[:20])
        ref = _generator_index(r, positions)
        r.index_for(positions)
        for row in ROWS3[20:]:
            assert r.add(row)
            ref.setdefault(_key(row, positions), []).append(row)
        for row in ROWS3[::3]:
            assert r.discard(row)
            posting = ref[_key(row, positions)]
            posting.remove(row)
            if not posting:
                del ref[_key(row, positions)]
        for row in ROWS3[:6]:
            r.add(row)
            if row not in ref.get(_key(row, positions), []):
                ref.setdefault(_key(row, positions), []).append(row)
        assert list(r.index_for(positions).items()) == list(ref.items())

    def test_delta_lookup(self, positions):
        delta = DeltaIndex(ROWS3)
        ref = _generator_index(ROWS3, positions)
        for key, posting in ref.items():
            assert delta.lookup(positions, key) == posting
        assert list(delta._groups[positions]) == list(ref)


class TestDatabase:
    def test_from_dict(self):
        db = Database.from_dict({"edge": [(1, 2), (2, 3)]})
        assert db.rows("edge") == {(1, 2), (2, 3)}

    def test_from_dict_rejects_empty(self):
        with pytest.raises(ValidationError):
            Database.from_dict({"edge": []})

    def test_from_facts(self):
        db = Database.from_facts([atom("p", 1), atom("q", 2, 3)])
        assert db.rows("p") == {(1,)}
        assert db.rows("q") == {(2, 3)}

    def test_ensure_creates_empty(self):
        db = Database()
        rel = db.ensure("p", 2)
        assert len(rel) == 0 and "p" in db

    def test_ensure_arity_conflict(self):
        db = Database.from_dict({"p": [(1,)]})
        with pytest.raises(ArityError):
            db.ensure("p", 2)

    def test_missing_relation_empty_rows(self):
        assert Database().rows("nope") == frozenset()

    def test_add_fact_and_add(self):
        db = Database()
        assert db.add("p", 1, 2)
        assert not db.add_fact(atom("p", 1, 2))

    def test_facts_iteration(self):
        db = Database.from_dict({"p": [(1,)], "q": [(2, 3)]})
        assert set(db.facts()) == {("p", (1,)), ("q", (2, 3))}

    def test_fact_count(self):
        db = Database.from_dict({"p": [(1,), (2,)], "q": [(3, 4)]})
        assert db.fact_count() == 3

    def test_active_domain(self):
        db = Database.from_dict({"p": [(1, "a")]})
        assert db.active_domain() == {1, "a"}

    def test_copy_independent(self):
        db = Database.from_dict({"p": [(1,)]})
        c = db.copy()
        c.add("p", 2)
        assert db.rows("p") == {(1,)}

    def test_merged_with(self):
        a = Database.from_dict({"p": [(1,)]})
        b = Database.from_dict({"p": [(2,)], "q": [(3, 4)]})
        merged = a.merged_with(b)
        assert merged.rows("p") == {(1,), (2,)}
        assert merged.rows("q") == {(3, 4)}
        assert a.rows("p") == {(1,)}

    def test_restrict(self):
        db = Database.from_dict({"p": [(1,)], "q": [(2,)]})
        assert db.restrict(["p"]).predicates() == {"p"}

    def test_equality_ignores_empty_relations(self):
        a = Database.from_dict({"p": [(1,)]})
        b = Database.from_dict({"p": [(1,)]})
        b.ensure("q", 2)
        assert a == b
