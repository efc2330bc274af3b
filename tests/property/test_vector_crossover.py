"""Recursions whose frontier crosses the vector kernel's crossover.

A firing whose frontier holds fewer than ``batch_kernel.CROSSOVER_ROWS``
rows runs on the tuple kernel, so one recursion mixes both rungs: a
wide round on the vector kernel, a narrow one on the tuple kernel, in
either order.  The drawn graphs make every run cross the crossover:

- a *fan into a chain*: a root, a fan of at least ``CROSSOVER_ROWS``
  nodes below it, and a chain the fan feeds, under left- or
  right-linear transitive closure: the frontier (the pairs at one
  distance) holds every edge, then about the fan's width, and last the
  one pair from the root to the chain's end;
- a *tree grown from its root*: level widths multiplied by a drawn
  factor until a level reaches the crossover, then divided down below
  it again, each node hanging from a drawn parent one level up.  Under
  transitive closure the frontier shrinks as above; under
  same-generation (``sg`` over ``up``, ``down`` and the root's ``flat``
  pair) it is the pairs of one level, so it grows past the crossover
  and shrinks below it again.

Runs are cold, then warm on the same base relations, as a served query
runs.  Answers, fact counts and every engine-invariant counter must
equal the tuple kernel's and the interpreter's, and the default's runs
must fire delta plans on both rungs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.columnar import numpy_available
from repro.datalog.database import Database
from repro.datalog.parser import parse
from repro.engine import EngineOptions, batch_kernel, evaluate
from repro.workloads.families import same_generation
from tests.conftest import record_vector_rungs

RIGHT_TC = "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- edge(X, Z), tc(Z, Y).\n?- tc(X, Y)."
LEFT_TC = "tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\n?- tc(X, Y)."


def _tree(draw, rng, wide) -> list:
    """Edges of a tree grown from root 0: level widths multiplied by a
    drawn factor until ``wide(width)``, then divided until not."""
    factor = draw(st.integers(2, 4))
    widths = [1]
    while not wide(widths[-1]):
        widths.append(widths[-1] * factor)
    while wide(widths[-1]):
        widths.append(-(-widths[-1] // factor))
    edges, level, label = [], [0], 1
    for width in widths[1:]:
        below = list(range(label, label + width))
        edges += [(rng.choice(level), v) for v in below]
        level, label = below, label + width
    return edges


@st.composite
def crossing_recursions(draw):
    """(program text, base relations) of a recursion whose frontier
    crosses the crossover."""
    cross = batch_kernel.CROSSOVER_ROWS
    rng = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(["fan", "tree", "sg"]))
    if shape == "fan":
        fan = list(range(1, 1 + draw(st.integers(cross, cross + 40))))
        chain = list(range(len(fan) + 1, len(fan) + 1 + draw(st.integers(4, 12))))
        feeds = [chain[0]] + [rng.choice(chain[:3]) for _ in fan[1:]]
        edges = [(0, f) for f in fan] + list(zip(fan, feeds)) + list(zip(chain, chain[1:]))
    elif shape == "tree":
        edges = _tree(draw, rng, lambda width: width >= cross)
    else:
        edges = _tree(draw, rng, lambda width: width * width >= cross)
    # relabel, so packed ids and row order are not the graph's order
    nodes = sorted({v for e in edges for v in e})
    names = dict(zip(nodes, rng.sample(range(10 * len(nodes)), len(nodes))))
    edges = [(names[u], names[v]) for u, v in edges]
    if shape == "sg":
        root = names[0]
        data = {"up": [(v, u) for u, v in edges], "down": edges, "flat": [(root, root)]}
        return str(same_generation()), data
    return draw(st.sampled_from([RIGHT_TC, LEFT_TC])), {"edge": edges}


def _cold_and_warm(program, data, **overrides):
    """(answers, fact counts, invariant counters) of a cold and then a
    warm evaluation over one fresh database."""
    db = Database.from_dict(data)
    states = []
    for _ in range(2):
        res = evaluate(program, db, EngineOptions(**overrides))
        states.append(
            (res.answers(), res.stats.fact_counts, res.stats.as_dict(engine_invariant=True))
        )
    return states


@pytest.mark.skipif(not numpy_available(), reason="the vector kernel needs numpy")
@given(crossing_recursions())
@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_recursions_crossing_the_crossover_match_the_tuple_kernel(case):
    text, data = case
    program = parse(text)
    tup = _cold_and_warm(program, data, use_columnar=False)
    interp = _cold_and_warm(program, data, use_columnar=False, use_kernels=False)
    with pytest.MonkeyPatch.context() as mp:
        taken = record_vector_rungs(mp)
        col = _cold_and_warm(program, data)
    delta = [committed for plan_id, committed in taken if plan_id is not None]
    assert any(delta) and not all(delta), delta
    for run, c, t, i in zip(("cold", "warm"), col, tup, interp):
        assert c == t, f"columnar/tuple divergence ({run})"
        assert c == i, f"columnar/interpreter divergence ({run})"
