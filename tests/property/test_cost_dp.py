"""The join-order DP over variable bitsets orders exactly as the DP over
frozensets it replaced.

``reference_order_remaining`` and ``reference_bound_walk`` below are the
frozenset Held–Karp of :class:`repro.engine.cost.BoundCostModel`, kept
verbatim (``self`` is the model): every subset re-prices each of its
literals through :meth:`BoundCostModel.literal_bound`.  The property
draws bodies of 1…``DP_LITERAL_LIMIT`` literals — constants, repeated
variables, a forced-first literal, drawn *needed* sets, and measured,
assumed and missing (``_unknown``) profiles, some with fewer degrees than
the literal has positions — and requires the same order, the same
``plans_costed`` and the same ``bound_walk`` triple, floats compared
exactly.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.analysis import anchored, body_components
from repro.datalog.ast import Atom
from repro.datalog.terms import Constant, Variable
from repro.engine.cost import DP_LITERAL_LIMIT, BoundCostModel, RelationProfile


def reference_order_remaining(
    self,
    body: Sequence[Atom],
    remaining: Sequence[int],
    bound_vars: frozenset,
    needed: frozenset,
) -> Optional[tuple[int, ...]]:
    k = len(remaining)
    if k > DP_LITERAL_LIMIT:
        return None
    self.plans_costed += 1
    if k <= 1:
        return tuple(remaining)

    items = list(remaining)
    item_vars = [frozenset(body[i].variables()) for i in items]
    full = (1 << k) - 1
    # vars_of[mask]: variables bound once the literals in *mask*
    # (plus any forced-first literal) have been placed
    vars_of: list[frozenset] = [frozenset()] * (full + 1)
    vars_of[0] = frozenset(bound_vars)
    for mask in range(1, full + 1):
        low = mask & -mask
        vars_of[mask] = vars_of[mask ^ low] | item_vars[low.bit_length() - 1]
    # later_of[mask]: variables that keep new bindings alive when
    # the literals *not yet placed* are exactly the complement of
    # mask — the DP analogue of the lowering's backward cut scan
    later_of = [needed | vars_of[full ^ mask] for mask in range(full + 1)]

    # best[mask] = (cost, card, order); ascending masks visit every
    # submask before its supersets
    best: list[Optional[tuple[float, float, tuple[int, ...]]]] = (
        [None] * (full + 1)
    )
    best[0] = (0.0, 1.0, ())
    for mask in range(1, full + 1):
        choice: Optional[tuple[float, float, tuple[int, ...]]] = None
        later = later_of[mask]
        for j in range(k):
            bit = 1 << j
            if not mask & bit:
                continue
            prev = best[mask ^ bit]
            if prev is None:
                continue
            cost, card, order = prev
            new_card = card * self.literal_bound(
                body[items[j]], vars_of[mask ^ bit], later
            )
            cand = (cost + new_card, new_card, order + (items[j],))
            if choice is None or (cand[0], cand[2]) < (choice[0], choice[2]):
                choice = cand
        best[mask] = choice
    assert best[full] is not None
    return best[full][2]


def reference_bound_walk(
    self,
    body: Sequence[Atom],
    needed: Iterable[Variable],
    bound: frozenset = frozenset(),
) -> tuple[tuple[int, ...], float, float]:
    needed = frozenset(needed)
    live = tuple(sorted(
        i
        for comp in body_components(body)
        if anchored(body, comp, needed)
        for i in comp
    ))
    if not live:
        return (), 1.0, 1.0
    order = reference_order_remaining(self, body, live, bound, needed) or live
    bound_vars = set(bound)
    card, worst = 1.0, 0.0
    for pos, i in enumerate(order):
        later = needed.union(*(body[j].variables() for j in order[pos + 1:]))
        card *= self.literal_bound(body[i], bound_vars, later)
        worst = max(worst, card)
        bound_vars.update(body[i].variables())
    return order, card, worst


PREDICATES = ("p", "q", "r", "s", "t")
VARS = tuple(Variable(n) for n in ("X", "Y", "Z", "W", "V", "U"))
#: few distinct sizes, so exact cost ties (the order tie-break) are common
SIZES = st.sampled_from((0, 1, 2, 3, 7, 15, 1023))

terms = st.one_of(
    st.sampled_from(VARS), st.builds(Constant, st.integers(0, 2))
)
atoms = st.builds(
    Atom,
    st.sampled_from(PREDICATES),
    st.integers(0, 3).flatmap(lambda n: st.tuples(*[terms] * n)),
)
profiles = st.one_of(
    st.builds(
        RelationProfile.from_counts, SIZES, st.lists(SIZES, max_size=3)
    ),
    st.builds(
        RelationProfile.assumed, st.integers(0, 3), SIZES, SIZES
    ),
)


@st.composite
def problems(draw):
    body = draw(st.lists(atoms, min_size=1, max_size=DP_LITERAL_LIMIT))
    # a predicate left out of the map is priced as the model's _unknown
    known = draw(st.dictionaries(st.sampled_from(PREDICATES), profiles))
    first = draw(st.none() | st.integers(0, len(body) - 1))
    needed = frozenset(draw(st.lists(st.sampled_from(VARS), max_size=4)))
    return body, known, first, needed


@given(problems())
@settings(max_examples=300, deadline=None)
def test_bitset_dp_orders_as_the_frozenset_dp(problem):
    body, known, first, needed = problem
    remaining = tuple(i for i in range(len(body)) if i != first)
    bound_vars = frozenset(body[first].variables()) if first is not None else frozenset()
    model, reference = BoundCostModel(known), BoundCostModel(known)
    assert model.order_remaining(
        body, remaining, bound_vars, needed
    ) == reference_order_remaining(reference, body, remaining, bound_vars, needed)
    assert model.plans_costed == reference.plans_costed

    assert model.bound_walk(body, needed, bound_vars) == reference_bound_walk(
        reference, body, needed, bound_vars
    )
    assert model.plans_costed == reference.plans_costed


def test_wide_bodies_decline_alike():
    body = [Atom("p", (VARS[i % 6], VARS[(i + 1) % 6])) for i in range(11)]
    model, reference = BoundCostModel({}), BoundCostModel({})
    everything = tuple(range(len(body)))
    assert model.order_remaining(body, everything, frozenset(), frozenset()) is None
    assert reference_order_remaining(
        reference, body, everything, frozenset(), frozenset()
    ) is None
    assert model.plans_costed == reference.plans_costed == 0
