"""A stateful model of the relation's packed image.

One :class:`Relation` of arity 1-3 and its copies are driven through
every path that writes or invalidates the store — raw ``add`` /
``discard``, ``bulk_load``, the vectorized absorb, ``copy``, lazy index
builds, degree profiling, a dictionary epoch change — in arbitrary
interleavings, against a plain ``set`` per relation.  This is the
interleaving where the store-invalidation cost hid: the store is a
stamped cache, and the only thing that may ever go wrong with a cache
is answering from a stale stamp.

After every step the non-perturbing reads (``len``, ``select``) are
checked on every relation; the reads that themselves move state
(``rows()`` materializes deferred packed chunks, ``packed_novel_mask``
re-packs stale runs) are checked on a drawn subset, so deferred and
stale states survive across steps and get exercised by the next write.
"""

from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.datalog.columnar import (
    global_dictionary,
    numpy_available,
    pack_rows,
)
from repro.datalog.database import Relation
from repro.engine import EvalStats, batch_kernel, scheduler

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the packed image needs numpy"
)

VALUES = [0, 1, 2, 3, "a", "b"]
WIDE_ROWS = st.tuples(*[st.sampled_from(VALUES)] * 3)


def _packed(rows, arity):
    return pack_rows(rows, arity, global_dictionary())


class StoreModel(RuleBasedStateMachine):
    @initialize(arity=st.integers(1, 3))
    def start(self, arity):
        self.arity = arity
        self.rels = [Relation(arity)]
        self.models = [set()]

    def _pick(self, data):
        i = data.draw(st.integers(0, len(self.rels) - 1), label="relation")
        return self.rels[i], self.models[i]

    def _rows(self, data, **kw):
        wide = data.draw(st.lists(WIDE_ROWS, **kw), label="rows")
        return [row[: self.arity] for row in wide]

    # -- writers ---------------------------------------------------------------

    @rule(data=st.data())
    def add(self, data):
        rel, model = self._pick(data)
        (row,) = self._rows(data, min_size=1, max_size=1)
        assert rel.add(row) == (row not in model)
        model.add(row)
        self._observe(data)

    @rule(data=st.data())
    def discard(self, data):
        rel, model = self._pick(data)
        (row,) = self._rows(data, min_size=1, max_size=1)
        assert rel.discard(row) == (row in model)
        model.discard(row)
        self._observe(data)

    @precondition(lambda self: len(self.rels) < 4)
    @rule(data=st.data())
    def bulk_load(self, data):
        rows = self._rows(data, max_size=12)
        twin = Relation(self.arity)
        assert twin.bulk_load(rows) == len(set(rows))
        self.rels.append(twin)
        self.models.append(set(rows))
        self._observe(data)

    @rule(data=st.data())
    def absorb(self, data):
        """A vector kernel's batch: known, new and in-batch-duplicate
        rows, absorbed packed — counted and ordered like the tuple
        kernel's one-at-a-time inserts."""
        rel, model = self._pick(data)
        rows = self._rows(data, min_size=1, max_size=12)
        fresh = [r for r in dict.fromkeys(rows) if r not in model]
        stats, added = EvalStats(), {}
        scheduler._absorb_packed(rel, "p", _packed(rows, self.arity), stats, added)
        assert (stats.facts_derived, stats.duplicates) == (
            len(fresh), len(rows) - len(fresh)
        )
        assert list(added.get("p", ())) == fresh  # first-occurrence order
        model.update(fresh)
        self._observe(data)

    @precondition(lambda self: len(self.rels) < 4)
    @rule(data=st.data())
    def copy(self, data):
        rel, model = self._pick(data)
        self.rels.append(rel.copy())
        self.models.append(set(model))
        self._observe(data)

    @rule()
    def clear_dictionary(self):
        global_dictionary().clear()

    # -- readers that build or memoize -----------------------------------------

    @rule(data=st.data())
    def index_for(self, data):
        rel, model = self._pick(data)
        p = data.draw(st.integers(0, self.arity - 1), label="position")
        index = rel.index_for((p,))
        assert sorted(map(repr, (r for rows in index.values() for r in rows))) == (
            sorted(map(repr, model))
        )
        assert all(r[p] == key[0] for key, rows in index.items() for r in rows)
        self._observe(data)

    @rule(data=st.data())
    def degree_profile(self, data):
        rel, model = self._pick(data)
        degrees = tuple(
            max(Counter(r[p] for r in model).values(), default=0)
            for p in range(self.arity)
        )
        assert rel.degree_profile() == (len(model), degrees)
        self._observe(data)

    @rule(data=st.data())
    def csr_image(self, data):
        """The probe image decodes, key by key, to the raw index's
        posting lists in posting order."""
        rel, model = self._pick(data)
        p = data.draw(st.integers(0, self.arity - 1), label="position")
        csr = batch_kernel._csr_for(rel, p)
        index = rel.index_for((p,))
        values = global_dictionary().values_list()
        assert sorted(csr.keys.tolist()) == csr.keys.tolist()
        assert {(values[k],) for k in csr.keys.tolist()} == set(index)
        for slot, key_id in enumerate(csr.keys.tolist()):
            lo, hi = int(csr.offsets[slot]), int(csr.offsets[slot + 1])
            cols = [[values[c] for c in col[lo:hi].tolist()] for col in csr.cols]
            assert list(zip(*cols)) == index[(values[key_id],)]
        self._observe(data)

    # -- observation -------------------------------------------------------------

    def _observe(self, data):
        p = data.draw(st.integers(0, self.arity - 1), label="bound position")
        v = data.draw(st.sampled_from(VALUES), label="bound value")
        probe = sorted(set(self._rows(data, min_size=1, max_size=8)), key=repr)
        for rel, model in zip(self.rels, self.models):
            assert len(rel) == len(model)
            assert rel.select({p: v}) == {r for r in model if r[p] == v}
            if data.draw(st.booleans(), label="read rows()"):
                assert rel.rows() == model
            if data.draw(st.booleans(), label="probe membership"):
                packed = _packed(probe, self.arity)
                order = packed.argsort()
                novel = rel.packed_novel_mask(packed[order]).tolist()
                assert [probe[i] not in model for i in order.tolist()] == novel

    def teardown(self):
        for rel, model in zip(getattr(self, "rels", ()), self.models):
            assert rel.rows() == model and len(rel) == len(model)


StoreModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, derandomize=True, deadline=None
)
TestStoreModel = StoreModel.TestCase
