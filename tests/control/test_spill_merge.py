"""Receiver-arena merge vs the clone-and-sort merge it replaced.

Spillover used to clone every forwarded request into a single-row
``Request`` and hand each receiver ``sorted([*home, *clones],
key=arrival)``, re-indexed.  :func:`repro.control.tenancy._merge_spill_ins`
builds the receiver's stream as one arena from ``(donor arena, row)``
references instead.  The old merge is kept here verbatim as the
oracle: both must agree row for row — arrival, deadline, priority,
model, profile, SLO class and index — in the same order, including
spill-ins whose arrival + hop ties a home arrival (home rows first)
and donor classes the receiver does not define.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control.tenancy import _merge_spill_ins
from repro.serve import Request, RequestArena, service_profile

MODELS = ("edge-tiny", "mobilenet-v1-224", "mobilenet-v2-dsc")
PROFILES = {name: service_profile(name) for name in MODELS}
CLASSES = ("gold", "silver", "only", "default")
#: Dyadic arrival grid and hops: ``arrival + hop`` is exact, so a
#: spill-in lands bit-exactly on home arrivals often.
TICK = 2.0**-10


def _oracle_merge(home, spill_ins, hop_s):
    """The clone + stable sort + reindex merge, verbatim from the
    tenancy module before receivers merged into one arena."""
    profiles = {p.name: p for p in home.profiles}
    clones = []
    for donor, row in spill_ins:
        request = donor.view(row)
        clone = Request(
            index=0,  # re-indexed after the receiver merge
            model=request.model,
            profile=profiles[request.model],
            arrival=request.arrival + hop_s,
            slo=request.slo,
            priority=request.priority,
            deadline=request.deadline,
        )
        clones.append(clone)
    merged = sorted(
        [*home, *clones],
        key=lambda request: request.arrival,
    )
    for i, request in enumerate(merged):
        request.index = i
    return merged, clones


def _arena(draw, n, models, classes):
    """A sorted-arrival arena over ``models``/``classes`` side tables."""
    arena = RequestArena(
        n, tuple(models), tuple(PROFILES[m] for m in models), classes
    )
    arena.arrival[:] = sorted(
        draw(st.lists(st.integers(0, 48), min_size=n, max_size=n))
    )
    arena.arrival *= TICK
    arena.model_idx[:] = draw(
        st.lists(
            st.integers(0, len(models) - 1), min_size=n, max_size=n
        )
    )
    if classes:
        arena.class_idx[:] = draw(
            st.lists(
                st.integers(0, len(classes) - 1), min_size=n, max_size=n
            )
        )
        arena.deadline[:] = arena.arrival + TICK * np.asarray(
            draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
        )
        arena.priority[:] = draw(
            st.lists(st.integers(0, 2), min_size=n, max_size=n)
        )
    return arena


@st.composite
def receivers(draw):
    """(home arena, spill-ins, hop) with several donors, foreign
    classes and model tables ordered unlike the receiver's."""
    home_models = draw(st.permutations(MODELS))[
        : draw(st.integers(1, len(MODELS)))
    ]
    home_classes = tuple(
        draw(st.lists(st.sampled_from(CLASSES), unique=True, max_size=2))
    )
    home = _arena(draw, draw(st.integers(0, 12)), home_models, home_classes)
    spill_ins = []
    for _ in range(draw(st.integers(1, 3))):
        donor_models = draw(st.permutations(MODELS))
        donor_classes = tuple(
            draw(
                st.lists(
                    st.sampled_from(CLASSES), unique=True, max_size=3
                )
            )
        )
        donor = _arena(
            draw, draw(st.integers(1, 12)), donor_models, donor_classes
        )
        # Only rows whose model the receiver serves can spill to it;
        # a donor forwards a subset of its rows in stream order.
        eligible = [
            row
            for row in range(len(donor))
            if donor.model_names[donor.model_idx[row]] in home_models
        ]
        for row in eligible:
            if draw(st.booleans()):
                spill_ins.append((donor, row))
    hop_s = draw(st.sampled_from([0.0, TICK, 3 * TICK, 0.5e-3]))
    return home, spill_ins, hop_s


def _assert_same_merge(home, spill_ins, hop_s):
    merged, spill_rows = _merge_spill_ins(home, spill_ins, hop_s)
    oracle, clones = _oracle_merge(home, spill_ins, hop_s)
    assert len(merged) == len(oracle)
    # Order: where each home row and each spill-in landed.
    clone_of = {id(clone): j for j, clone in enumerate(clones)}
    expected = [
        ("spill", clone_of[id(request)])
        if id(request) in clone_of
        else ("home", request.i)
        for request in oracle
    ]
    got = [None] * len(merged)
    for j, row in enumerate(spill_rows):
        got[row] = ("spill", j)
    home_rows = iter(range(len(home)))
    got = [slot or ("home", next(home_rows)) for slot in got]
    assert got == expected
    for row, want in enumerate(oracle):
        view = merged.view(row)
        assert view.arrival == want.arrival
        assert view.deadline == want.deadline
        assert view.priority == want.priority
        assert view.model == want.model
        assert view.profile is want.profile
        assert view.slo == want.slo
        assert view.index == want.index == row
    # Foreign donor classes extend the receiver's table in first-seen
    # order — the order the receiver's report grows class rows in.
    foreign = []
    for clone in clones:
        if clone.slo and clone.slo not in home.slo_names:
            if clone.slo not in foreign:
                foreign.append(clone.slo)
    assert merged.slo_names == home.slo_names + tuple(foreign)


@settings(max_examples=300, deadline=None)
@given(case=receivers())
def test_merge_matches_clone_and_sort(case):
    _assert_same_merge(*case)


def test_tie_keeps_home_rows_first():
    """A spill-in whose arrival + hop equals a home arrival lands
    after that home row, as the stable clone sort placed it."""
    home = RequestArena(2, ("edge-tiny",), (PROFILES["edge-tiny"],))
    home.arrival[:] = [2 * TICK, 3 * TICK]
    donor = RequestArena(
        1, ("edge-tiny",), (PROFILES["edge-tiny"],), ("gold",)
    )
    donor.arrival[0] = TICK
    donor.class_idx[0] = 0
    merged, spill_rows = _merge_spill_ins(home, [(donor, 0)], TICK)
    assert spill_rows.tolist() == [1]
    assert merged.arrival.tolist() == [2 * TICK, 2 * TICK, 3 * TICK]
    assert merged.slo_names == ("gold",)
    _assert_same_merge(home, [(donor, 0)], TICK)


@pytest.mark.parametrize("hop_s", [0.0, 0.5e-3])
def test_no_spill_ins_is_the_home_stream(hop_s):
    home = RequestArena(3, ("edge-tiny",), (PROFILES["edge-tiny"],))
    home.arrival[:] = [TICK, 2 * TICK, 2 * TICK]
    merged, spill_rows = _merge_spill_ins(home, [], hop_s)
    assert spill_rows.size == 0
    assert np.array_equal(merged.arrival, home.arrival)
    assert merged.index.tolist() == [0, 1, 2]
