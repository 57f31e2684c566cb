"""Ultrametric state spaces built from traces and model chains."""

import dataclasses
import functools
import re
import time
import warnings

import numpy as np
import pytest

from ultradiffusion import ultrametric
from ultradiffusion.generator import build_generator, check_rate_ultrametricity
from ultradiffusion.spectral import TreeModel, space_from_tree
from ultradiffusion.traces import EventTrace
from ultradiffusion.ultrametric import (
    TripleReport,
    UltrametricSpace,
    build_from_trace,
    uniform_chain,
    verify_ultrametric,
)

WORKED_TRACE = EventTrace(
    story_id="worked",
    events=np.array([1.0, 5.0, 6.0, 8.0, 12.0, 17.0]),
    horizon=17.0,
)

WORKED_MATRIX = np.array(
    [
        [0, 17, 17, 17, 17, 17, 17],
        [17, 0, 12, 12, 12, 12, 12],
        [17, 12, 0, 8, 8, 8, 8],
        [17, 12, 8, 0, 6, 6, 6],
        [17, 12, 8, 6, 0, 5, 5],
        [17, 12, 8, 6, 5, 0, 1],
        [17, 12, 8, 6, 5, 1, 0],
    ],
    dtype=float,
)


def reference_report(space):
    """Plain scan of every ordered triple of distinct states, in lexicographic order."""
    d, labels, n = space.dist, space.labels, space.size
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3 and d[i, j] > max(d[i, k], d[k, j]):
                    return TripleReport(
                        triple=(i, j, k),
                        message=f"d({labels[i]:g},{labels[j]:g})={d[i, j]:g} exceeds "
                        f"max(d(.,{labels[k]:g}))={max(d[i, k], d[k, j]):g}",
                    )
    return TripleReport(triple=None, message=f"all {n} states ultrametric")


def space_of(dist):
    n = len(dist)
    return UltrametricSpace(
        labels=np.arange(1.0, n + 1),
        dist=np.array(dist, dtype=float),
    )


def small_spaces(st):
    """Spaces of 1-12 states over a few distances, so ties are common.

    Each starts ultrametric, d(i, j) = max(level_i, level_j), and then has a
    few symmetric pairs overwritten, which may or may not break it. Half the
    draws sort the levels in descending order, as in a trace space, so an
    ultrametric proves in its own order.
    """
    values = st.sampled_from([1.0, 2.0, 3.0, 4.0, np.inf])

    @st.composite
    def spaces(draw):
        n = draw(st.integers(1, 12))
        levels = np.array(draw(st.lists(values, min_size=n, max_size=n)))
        if draw(st.booleans()):
            levels = np.sort(levels)[::-1]
        dist = np.maximum.outer(levels, levels)
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), values)
        for i, j, v in draw(st.lists(pairs, max_size=2 * n)):
            dist[i, j] = dist[j, i] = v
        np.fill_diagonal(dist, 0.0)
        return space_of(dist)

    return spaces()


class TestBuildFromTrace:
    def test_worked_timeline_reproduces_known_matrix_exactly(self):
        space = build_from_trace(WORKED_TRACE)
        np.testing.assert_array_equal(space.labels, [0, 5, 9, 11, 12, 16, 17])
        np.testing.assert_array_equal(space.dist, WORKED_MATRIX)

    def test_distance_between_subscripts_11_and_5_is_12(self):
        space = build_from_trace(WORKED_TRACE)
        i = int(np.where(space.labels == 11)[0][0])
        j = int(np.where(space.labels == 5)[0][0])
        assert space.dist[i, j] == 12.0

    def test_diagonal_is_zero(self):
        space = build_from_trace(WORKED_TRACE)
        np.testing.assert_array_equal(np.diagonal(space.dist), np.zeros(space.size))

    def test_no_rebroadcast_state_is_last_at_the_horizon(self):
        space = build_from_trace(WORKED_TRACE)
        assert space.size == WORKED_TRACE.count + 1
        assert space.labels[-1] == WORKED_TRACE.horizon
        # Its distance to any other state is that state's event time T - a.
        np.testing.assert_array_equal(
            space.dist[-1, :-1], WORKED_TRACE.horizon - space.labels[:-1]
        )

    def test_simultaneous_events_collapse_into_one_state(self):
        trace = EventTrace(
            story_id="tied", events=np.array([2.0, 2.0, 5.0]), horizon=5.0
        )
        space = build_from_trace(trace)
        np.testing.assert_array_equal(space.labels, [0.0, 3.0, 5.0])
        np.testing.assert_array_equal(
            space.dist, [[0, 5, 5], [5, 0, 2], [5, 2, 0]]
        )

    def test_tied_times_give_one_state_each_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def tied_traces(draw):
            # Times rounded to one decimal tie often, and a draw of the
            # horizon itself puts events exactly at it.
            span = draw(st.sampled_from([1.0, 2.5, 17.0]))
            times = st.one_of(st.just(span), st.floats(0.1, span).map(lambda t: round(t, 1)))
            events = np.sort(draw(st.lists(times, min_size=1, max_size=30)))
            return EventTrace(story_id="tied", events=events, horizon=span)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(tied_traces())
        def check(trace):
            space, reference = build_from_trace(trace), reference_trace_space(trace)
            assert space.labels.tobytes() == reference.labels.tobytes()
            assert space.dist.tobytes() == reference.dist.tobytes()

        check()

    def test_event_at_horizon_yields_subscript_zero(self):
        trace = EventTrace(story_id="edge", events=np.array([3.0]), horizon=3.0)
        space = build_from_trace(trace)
        assert space.labels[0] == 0.0

    def test_rows_are_constant_right_of_the_diagonal(self):
        # d depends only on the smaller subscript, so each row repeats a
        # single value for every later state.
        space = build_from_trace(WORKED_TRACE)
        for i in range(space.size - 1):
            row = space.dist[i, i + 1 :]
            assert np.all(row == row[0])

    def test_random_traces_always_pass_verification(self):
        rng = np.random.default_rng(101)
        for k in range(100):
            n = int(rng.integers(1, 201))
            horizon = float(rng.uniform(1.0, 1000.0))
            events = np.sort(horizon * (1.0 - rng.random(n)))
            trace = EventTrace(story_id=f"r{k}", events=events, horizon=horizon)
            report = verify_ultrametric(build_from_trace(trace))
            assert report.ok, report.message


class TestVerifyUltrametric:
    def test_worked_matrix_passes(self):
        report = verify_ultrametric(build_from_trace(WORKED_TRACE))
        assert report.ok
        assert report.triple is None

    def test_reports_first_violating_triple(self):
        space = UltrametricSpace(
            labels=np.array([1.0, 2.0, 3.0]),
            dist=np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]),
        )
        report = verify_ultrametric(space)
        assert not report.ok
        assert report.triple == (0, 2, 1)
        assert "5" in report.message

    def test_two_state_space_always_passes(self):
        space = UltrametricSpace(
            labels=np.array([1.0, 2.0]),
            dist=np.array([[0.0, 7.0], [7.0, 0.0]]),
        )
        assert verify_ultrametric(space).ok

    def test_roundoff_sized_violations_fail(self):
        space = UltrametricSpace(
            labels=np.array([1.0, 2.0, 3.0]),
            dist=np.array(
                [
                    [0.0, 1.0, 1.0 + 1e-12],
                    [1.0, 0.0, 1.0],
                    [1.0 + 1e-12, 1.0, 0.0],
                ]
            ),
        )
        assert not verify_ultrametric(space).ok

    def test_matches_the_reference_scan(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        verdicts = set()

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(small_spaces(st))
        def check(space):
            report = verify_ultrametric(space)
            assert report == reference_report(space)
            assert report.ok is (report.triple is None)
            verdicts.add(report.ok)

        check()
        assert verdicts == {True, False}

    def test_dendrogram_spaces_match_the_reference_scan(self, dendrogram_spaces):
        # Uniform entries almost always fail; these mostly pass, so they reach
        # the proof in their own order and the comparison with a linkage's
        # subdominant ultrametric as well as the located row's test.
        hypothesis = pytest.importorskip("hypothesis")

        verdicts = set()

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(dendrogram_spaces)
        def check(space):
            report = verify_ultrametric(space)
            assert report == reference_report(space)
            assert report.ok is (report.triple is None)
            verdicts.add(report.ok)

        check()
        assert verdicts == {True, False}

    def test_largest_double_beside_infinity(self):
        # Infinite entries are ranked before linkage; the largest double must
        # keep its order below inf without an overflow warning.
        big = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            passing = verify_ultrametric(space_of([[0, big, np.inf], [big, 0, np.inf], [np.inf, np.inf, 0]]))
            failing = verify_ultrametric(space_of([[0, np.inf, big], [np.inf, 0, big], [big, big, 0]]))
        assert passing == TripleReport(triple=None, message="all 3 states ultrametric")
        assert failing == TripleReport(
            triple=(0, 1, 2), message="d(1,2)=inf exceeds max(d(.,3))=1.79769e+308"
        )

    def test_infinite_distances(self):
        assert verify_ultrametric(space_of([[0, np.inf, np.inf], [np.inf, 0, 1], [np.inf, 1, 0]])).ok
        report = verify_ultrametric(space_of([[0, 1, np.inf], [1, 0, 1], [np.inf, 1, 0]]))
        assert report == TripleReport(
            triple=(0, 2, 1), message="d(1,3)=inf exceeds max(d(.,2))=1"
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_states_pass_at_any_tolerance(self, n):
        space = space_of(np.ones((n, n)) - np.eye(n))
        assert verify_ultrametric(space) == TripleReport(
            triple=None, message=f"all {n} states ultrametric"
        )

    def test_first_triple_and_message_are_exact(self):
        report = verify_ultrametric(space_of([[0, 1, 5], [1, 0, 1], [5, 1, 0]]))
        assert report == TripleReport(
            triple=(0, 2, 1), message="d(1,3)=5 exceeds max(d(.,2))=1"
        )

class TestVerifyAtScale:
    """A 3001-state trace space: the proof, and the scan of the one row it
    names when it fails, each take about a second."""

    @staticmethod
    def big_space():
        rng = np.random.default_rng(7)
        events = np.sort(1000.0 * (1.0 - rng.random(3000)))
        space = build_from_trace(EventTrace(story_id="big", events=events, horizon=1000.0))
        assert space.size == 3001
        return space

    def test_trace_space_passes(self):
        assert verify_ultrametric(self.big_space()) == TripleReport(
            triple=None, message="all 3001 states ultrametric"
        )

    def test_one_changed_pair_in_row_zero_is_found(self):
        space = self.big_space()
        dist = space.dist.copy()
        # Row 0 is constant at the largest distance D. Shrinking d(0, 5) below
        # d(1, 5) < D breaks (0, 1, 5): d(0, 1) = D > max(d(0, 5), d(5, 1)).
        # No j < 1 exists, and k = 5 is the only state that breaks (0, 1, k).
        dist[0, 5] = dist[5, 0] = dist[1, 5] / 2
        broken = UltrametricSpace(labels=space.labels, dist=dist)
        labels = space.labels
        assert verify_ultrametric(broken) == TripleReport(
            triple=(0, 1, 5),
            message=f"d({labels[0]:g},{labels[1]:g})={dist[0, 1]:g} exceeds "
            f"max(d(.,{labels[5]:g}))={dist[1, 5]:g}",
        )

    def test_one_changed_pair_in_a_late_row_is_found_quickly(self):
        space = self.big_space()
        dist = space.dist.copy()
        # Row i holds d(i, j) = T - label of min(i, j), so cutting d(2998, 3000)
        # to a third breaks (2998, 2999, 3000) and leaves every earlier row
        # intact: a row scan from i = 0 would sweep 2998 clean rows first.
        dist[2998, 3000] = dist[3000, 2998] = dist[2998, 3000] / 3
        broken = UltrametricSpace(labels=space.labels, dist=dist)
        labels = space.labels
        start = time.process_time()
        report = verify_ultrametric(broken)
        assert time.process_time() - start < 10.0
        assert report == TripleReport(
            triple=(2998, 2999, 3000),
            message=f"d({labels[2998]:g},{labels[2999]:g})={dist[2998, 2999]:g} exceeds "
            f"max(d(.,{labels[3000]:g}))={dist[3000, 2999]:g}",
        )


def test_verify_peak_memory_stays_below_one_and_a_half_matrices(peak_rise):
    # The 3001-state trace space holds one 72 MB matrix. Its proof in its
    # own order leaves the peak where it was; the proof that copied the
    # upper triangle and sorted a second copy raised it by 1.06 matrices,
    # and ranking the values as well by 3.1 matrices.
    size, nbytes, rise = peak_rise(
        "import numpy as np\n"
        "from ultradiffusion.traces import EventTrace\n"
        "from ultradiffusion.ultrametric import build_from_trace, uniform_chain, verify_ultrametric\n"
        "events = np.sort(1000.0 * (1.0 - np.random.default_rng(7).random(3000)))\n"
        'space = build_from_trace(EventTrace(story_id="big", events=events, horizon=1000.0))\n'
        "verify_ultrametric(uniform_chain(3))",
        "assert verify_ultrametric(space).ok",
        "space.size, space.dist.nbytes",
    )
    assert size == 3001
    assert rise < 1.5 * nbytes


def test_passing_proof_leaves_the_peak_within_a_tenth_of_a_matrix(peak_rise):
    # The own-order proof holds a block of rows at a time, about 2 MB
    # against the 72 MB matrix of the 3001-state trace space; the rise
    # reads 0, against 1.06 matrices for the proof by linkage and sort.
    size, nbytes, rise = peak_rise(
        "import numpy as np\n"
        "from ultradiffusion.traces import EventTrace\n"
        "from ultradiffusion.ultrametric import build_from_trace, uniform_chain, verify_ultrametric\n"
        "events = np.sort(1000.0 * (1.0 - np.random.default_rng(7).random(3000)))\n"
        'space = build_from_trace(EventTrace(story_id="big", events=events, horizon=1000.0))\n'
        "verify_ultrametric(uniform_chain(3))",
        "assert verify_ultrametric(space).ok",
        "space.size, space.dist.nbytes",
    )
    assert size == 3001
    assert rise < 0.1 * nbytes


@pytest.mark.parametrize("broken", [False, True])
def test_out_of_order_peak_memory_stays_below_one_and_a_quarter_matrices(peak_rise, broken):
    # The permuted 3001-state trace space fails the own-order proof, so it
    # takes the linkage: the condensed values and their cophenetic copy, half
    # a matrix each, and a boolean of unequal pairs raise the peak by 1.07
    # matrices whether it passes or has one pair broken. The leaf-order
    # re-proof and the n x n scan of the located row raised it by 1.70 when
    # a pair was broken.
    size, nbytes, rise = peak_rise(
        "import numpy as np\n"
        "from ultradiffusion.traces import EventTrace, _unchecked\n"
        "from ultradiffusion.ultrametric import UltrametricSpace, build_from_trace, verify_ultrametric\n"
        "events = np.sort(1000.0 * (1.0 - np.random.default_rng(7).random(3000)))\n"
        'space = build_from_trace(EventTrace(story_id="big", events=events, horizon=1000.0))\n'
        # d(i, j) = max(h_i, h_j) off the diagonal, with h = T - label, built
        # permuted once the trace's own matrix is freed, so that the peak
        # before the measured call is one matrix.
        "heights = (1000.0 - space.labels)[np.random.default_rng(2).permutation(space.size)]\n"
        "del space\n"
        "dist = np.maximum.outer(heights, heights)\n"
        "np.fill_diagonal(dist, 0.0)\n"
        "if sys.argv[1] == 'True':\n"
        "    dist[0, 1] = dist[1, 0] = dist[0, 1] * 1.5\n"
        "space = _unchecked(UltrametricSpace, labels=np.arange(1.0, heights.size + 1), dist=dist)\n"
        # Three states out of their order: scipy.cluster is imported first.
        "verify_ultrametric(UltrametricSpace(labels=np.arange(1.0, 4), dist=[[0, 2, 1], [2, 0, 2], [1, 2, 0]]))",
        "assert verify_ultrametric(space).ok is (sys.argv[1] == 'False')",
        "space.size, space.dist.nbytes",
        str(broken),
    )
    assert size == 3001
    assert rise < 1.25 * nbytes


@pytest.mark.parametrize("n", [3, 40, 600])
@pytest.mark.parametrize("kind", ["trace", "chain", "caterpillar"])
def test_built_spaces_prove_in_their_own_order(kind, n, built_space, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the proof fell back to a linkage")

    monkeypatch.setattr("scipy.cluster.hierarchy.linkage", refuse)
    space = built_space(kind, n)
    assert verify_ultrametric(space) == TripleReport(
        triple=None, message=f"all {space.size} states ultrametric"
    )


def test_an_out_of_order_matrix_takes_exactly_one_linkage(dendrogram_spaces):
    # The linkage whose subdominant ultrametric proves an ultrametric also
    # locates the first violation: a matrix that fails the proof in
    # its own order takes one linkage, whether it passes or fails, and one
    # that passes in its own order takes none. So do a generator's rates.
    hypothesis = pytest.importorskip("hypothesis")
    import scipy.cluster.hierarchy as hierarchy

    linkage, calls = hierarchy.linkage, []

    def counted(*args, **kwargs):
        calls.append(1)
        return linkage(*args, **kwargs)

    def linkages(verify, arg):
        calls.clear()
        report = verify(arg)
        return len(calls), report.ok

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(dendrogram_spaces)
    def check(space):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rates that underflow
            gen = build_generator(space, 0.5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hierarchy, "linkage", counted)
            for matrix, join, verify, arg in (
                (space.dist, np.maximum, verify_ultrametric, space),
                (gen.rates, np.minimum, check_rate_ultrametricity, gen),
            ):
                in_order = space.size < 3 or ultrametric._holds_in_order(matrix, join)
                assert linkages(verify, arg)[0] == (0 if in_order else 1)

    check()
    # A permuted 600-state trace space, passing and with one pair broken,
    # and the generators of both.
    space = build_from_trace(
        EventTrace("p", np.sort(600 * np.random.default_rng(1).random(599)), 600.0)
    )
    order = np.random.default_rng(2).permutation(space.size)
    dist = space.dist[np.ix_(order, order)]
    broken = dist.copy()
    broken[0, 1] = broken[1, 0] = dist[0, 1] * 1.5
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hierarchy, "linkage", counted)
        for matrix in (dist, broken):
            permuted = ultrametric.UltrametricSpace(
                labels=np.arange(1.0, space.size + 1),
                dist=matrix,
            )
            seen.append(linkages(verify_ultrametric, permuted))
            seen.append(linkages(check_rate_ultrametricity, build_generator(permuted, 0.01)))
    assert seen == [(1, True), (1, True), (1, False), (1, False)]


def test_small_blocks_give_the_same_proof_and_report(dendrogram_spaces):
    # Shrinking the row blocks makes every space of four or more states take
    # several blocks of one to a few rows, each with its leading square masked.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(dendrogram_spaces, st.integers(1, 4))
    def check(space, side):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rates that underflow
            gen = build_generator(space, 0.5)
        verdicts = [
            ultrametric._holds_in_order(space.dist, np.maximum),
            ultrametric._holds_in_order(gen.rates, np.minimum),
        ]
        reports = [verify_ultrametric(space), check_rate_ultrametricity(gen)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ultrametric, "_SIDE", side)
            patch.setattr(ultrametric, "_BLOCK_ENTRIES", side * side)
            # A fresh cache, so the small mask is made and dropped with the patch.
            patch.setattr(ultrametric, "_upper", functools.cache(ultrametric._upper.__wrapped__))
            assert verdicts == [
                ultrametric._holds_in_order(space.dist, np.maximum),
                ultrametric._holds_in_order(gen.rates, np.minimum),
            ]
            assert reports == [verify_ultrametric(space), check_rate_ultrametricity(gen)]
        assert reports[0] == reference_report(space)

    check()


def brute_force_violation(m, negate=False):
    """First (i, j, k) in lexicographic order, of distinct indices, with
    m[i, j] > max(m[i, k], m[k, j]) (with `negate`, m[i, j] < min(...)), or
    None: every triple is counted, in O(n^3) per distinct value v of m, by
    a product of 0/1 matrices that counts the k with m[i, k] < v and
    m[k, j] < v; the first violating row is then scanned for (j, k)."""
    d = np.negative(m) if negate else np.array(m, dtype=float)
    n = len(d)
    np.fill_diagonal(d, np.inf)  # so no k equal to i or j is below any value
    off = ~np.eye(n, dtype=bool)
    rows = np.zeros(n, dtype=bool)
    for v in np.unique(d):
        below = (d < v).astype(np.float32)  # counts up to n stay exact
        rows |= ((d == v) & off & (below @ below > 0)).any(axis=1)
    if not rows.any():
        return None
    i = int(np.argmax(rows))
    bad = d[i][:, None] > np.maximum(d[i], d.T)
    bad[i] = False
    j, k = np.argwhere(bad)[0]
    return i, int(j), int(k)


@pytest.mark.parametrize("n", [3, 7, 600, 1100])
def test_the_proof_agrees_with_a_brute_force_scan_across_row_blocks(n):
    # A dendrogram space in its leaf order, or permuted, with one pair
    # changed in the first or the last row of a block of the order proof,
    # where the proof's left (-1) and lower (+n) neighbours cross the
    # block's edges. 600 states take two blocks and 1100 five.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = [1.0, 2.0, 3.0, np.inf, 5e-324, np.finfo(float).max]

    @st.composite
    def spaces(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # In leaf order, d(i, j) is the largest of the gaps between i and j.
        gaps = rng.choice(values, size=n - 1)
        dist = np.zeros((n, n))
        for i in range(n - 1):
            dist[i, i + 1 :] = np.maximum.accumulate(gaps[i:])
        dist = np.maximum(dist, dist.T)
        step = max(1, ultrametric._BLOCK_ENTRIES // n)
        top = draw(st.sampled_from(range(0, n - 2, step)))
        row = draw(st.sampled_from([top, min(top + step, n - 2) - 1]))
        col = draw(st.integers(row + 1, n - 1))
        with np.errstate(over="ignore"):  # the largest double's next is inf
            near = [np.nextafter(dist[row, col], 0), np.nextafter(dist[row, col], np.inf)]
        # Positive, as the constructor requires: 5e-324's lower neighbour is 0.
        new = draw(st.sampled_from([v for v in (*values, *near) if v > 0]))
        dist[row, col] = dist[col, row] = new
        order = rng.permutation(n) if draw(st.booleans()) else np.arange(n)
        return UltrametricSpace(labels=np.arange(1.0, n + 1), dist=dist[np.ix_(order, order)])

    @hypothesis.settings(max_examples=10, deadline=None)
    @hypothesis.given(spaces())
    def check(space):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # rates that underflow
            gen = build_generator(space, 0.5)
        for matrix, join, report, negate in (
            (space.dist, np.maximum, verify_ultrametric(space), False),
            (gen.rates, np.minimum, check_rate_ultrametricity(gen), True),
        ):
            triple = brute_force_violation(matrix, negate)
            assert report.triple == triple
            if ultrametric._holds_in_order(matrix, join):
                assert triple is None
        if n < 600:
            assert brute_force_violation(space.dist) == reference_report(space).triple

    check()


def test_single_linkage_takes_negative_values_and_keeps_them_as_heights():
    # When a matrix fails in its own order, the proof hands scipy's single
    # linkage the negated rates (<= 0, -0.0 included) and compares the
    # cophenetic matrix of the |height| tree with the |values|. The heights
    # must be input values, not sums of them, and each pair's height must
    # be its minimax path value U, the subdominant ultrametric.
    from scipy.cluster.hierarchy import cophenet, linkage
    from scipy.spatial.distance import squareform

    values = -np.random.default_rng(3).choice([0.0, 5e-324, 0.25, 1.0, 7.0], size=66)
    zeros = values[values == 0]
    assert zeros.size and np.signbit(zeros).all() and len(np.unique(values)) < len(values)
    tree = linkage(values, "single")
    assert np.all(np.diff(tree[:, 2]) >= 0)
    assert np.isin(tree[:, 2], values).all()
    np.abs(tree[:, 2], out=tree[:, 2])
    # Minimax closure by Floyd-Warshall over the 12 points.
    closure = squareform(values)
    np.fill_diagonal(closure, -np.inf)
    for k in range(12):
        closure = np.minimum(closure, np.maximum.outer(closure[:, k], closure[k]))
    np.testing.assert_array_equal(cophenet(tree), np.abs(squareform(closure, checks=False)))


class TestUltrametricSpaceInvariants:
    def test_a_space_is_its_labels_and_distances(self):
        space = build_from_trace(WORKED_TRACE)
        assert [f.name for f in dataclasses.fields(space)] == ["labels", "dist"]
        report = verify_ultrametric(space)
        assert [f.name for f in dataclasses.fields(report)] == ["triple", "message"]
        assert report.ok is True

    def test_rejects_labels_that_are_not_one_dimensional(self):
        with pytest.raises(ValueError, match="^labels must be one-dimensional$"):
            UltrametricSpace(labels=np.array([[1.0, 2.0]]), dist=np.zeros((2, 2)))

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError, match="symmetric"):
            UltrametricSpace(
                labels=np.array([1.0, 2.0]),
                dist=np.array([[0.0, 1.0], [2.0, 0.0]]),
            )

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            UltrametricSpace(
                labels=np.array([1.0, 2.0]),
                dist=np.array([[1.0, 1.0], [1.0, 0.0]]),
            )

    def test_rejects_zero_distance_between_distinct_states(self):
        with pytest.raises(ValueError, match="positive"):
            UltrametricSpace(
                labels=np.array([1.0, 2.0]),
                dist=np.zeros((2, 2)),
            )

    def test_rejects_unsorted_labels(self):
        with pytest.raises(ValueError, match="ascending"):
            UltrametricSpace(
                labels=np.array([2.0, 1.0]),
                dist=np.array([[0.0, 1.0], [1.0, 0.0]]),
            )

    @pytest.mark.parametrize(
        "labels", [[1.0, np.inf, np.inf], [1.0, np.nan, 3.0], [np.nan] * 3], ids=str
    )
    def test_rejects_labels_that_do_not_compare_as_ascending(self, labels):
        # Their differences are NaN, which a test on `<= 0` let through with
        # a RuntimeWarning; under `-W error` no warning may come first.
        dist = np.ones((3, 3)) - np.eye(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^labels must be strictly ascending$"):
                UltrametricSpace(labels=np.array(labels), dist=dist)

    def test_copies_a_writable_caller_matrix(self):
        dist = WORKED_MATRIX.copy()
        space = UltrametricSpace(labels=np.arange(7.0), dist=dist)
        dist[0, 1] = dist[1, 0] = 99.0
        assert space.dist[0, 1] == 17.0
        assert not space.dist.flags.writeable

    def test_copies_a_read_only_matrix_too(self):
        # A built space's arrays are read-only and own their data; the
        # checked constructor copies them all the same.
        space = build_from_trace(WORKED_TRACE)
        again = UltrametricSpace(labels=space.labels, dist=space.dist)
        for field in ("labels", "dist"):
            assert not np.shares_memory(getattr(again, field), getattr(space, field))


def checked_again(space):
    """`space` passed through the public constructor and its O(n^2) checks.

    A builder hands over arrays that are read-only and own their data; the
    constructor keeps an equal, frozen copy of each.
    """
    again = UltrametricSpace(labels=space.labels, dist=space.dist)
    for field in ("labels", "dist"):
        built, kept = getattr(space, field), getattr(again, field)
        assert not built.flags.writeable and built.base is None
        assert not kept.flags.writeable and kept.base is None
        assert np.array_equal(kept, built)
    assert space.labels.dtype == space.dist.dtype == float
    return again


def reference_trace_space(trace):
    """The trace space built with `np.unique` and the public constructor."""
    span = trace.horizon
    labels = np.concatenate([(span - np.unique(trace.events))[::-1], [span]])
    dist = np.maximum.outer(span - labels, span - labels)
    np.fill_diagonal(dist, 0.0)
    return UltrametricSpace(labels=labels, dist=dist)


class TestBuiltSpacesPassThePublicConstructor:
    """The builders skip the constructor's O(n^2) checks; each space they
    make must pass them unchanged."""

    def test_trace_spaces(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # Ties are common; 1e-14 and 5e-324 sit so near 0 that T - t rounds
        # to T, and T - 1e-13 and T itself sit at the horizon.
        horizons = st.sampled_from([1.0, 17.0, 1000.0, 1e300])
        offsets = st.sampled_from([0.0, 1e-13, 0.5, 3.0, "tiny", "smallest"])

        @st.composite
        def traces(draw):
            horizon = draw(horizons)
            times = []
            for offset in draw(st.lists(offsets, min_size=1, max_size=12)):
                if offset == "tiny":
                    times.append(1e-14)
                elif offset == "smallest":
                    times.append(5e-324)
                else:
                    times.append(max(horizon - offset * horizon / 17.0, 1e-14))
            return EventTrace(story_id="h", events=np.sort(times), horizon=horizon)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(traces())
        def check(trace):
            try:
                reference = reference_trace_space(trace)
            except ValueError as err:
                with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                    build_from_trace(trace)
                return
            space = checked_again(build_from_trace(trace))
            for field in ("labels", "dist"):
                assert np.array_equal(getattr(space, field), getattr(reference, field))

        check()

    @pytest.mark.parametrize("n", [2, 3, 17, 200])
    def test_uniform_chains(self, n):
        space = checked_again(uniform_chain(n))
        levels = np.arange(n, dtype=float)
        expected = np.maximum.outer(levels, levels)
        np.fill_diagonal(expected, 0.0)
        assert np.array_equal(space.dist, expected)

    def test_tree_spaces(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def trees(draw):
            # Each new node hangs below a node of positive height on the path
            # from the root to the node before it, which keeps the numbering
            # in pre-order and the heights falling.
            parent, height, path = [-1], [draw(st.sampled_from([1.0, 7.0, 1e300]))], [0]
            for v in range(1, draw(st.integers(1, 16))):
                up = draw(st.sampled_from([u for u in path if height[u] > 0]))
                parent.append(up)
                height.append(height[up] * draw(st.sampled_from([0.0, 0.5, 0.75])))
                path = path[: path.index(up) + 1] + [v]
            return TreeModel(np.array(parent), np.array(height))

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(trees())
        def check(tree):
            space = checked_again(space_from_tree(tree))
            # d(x, y) is the height of the lowest common ancestor.
            ancestors = []
            for leaf in tree.leaves.tolist():
                chain = [leaf]
                while chain[-1]:
                    chain.append(int(tree.parent[chain[-1]]))
                ancestors.append(chain)
            for a, first in enumerate(ancestors):
                for b, second in enumerate(ancestors):
                    meet = next(v for v in first if v in second)
                    expected = 0.0 if a == b else tree.height[meet]
                    assert space.dist[a, b] == expected

        check()

    @pytest.mark.parametrize(
        "events", [[1e-14], [5e-324], [1e-14, 5.0], [5e-324, 1e-14, 999.0]]
    )
    def test_events_that_round_to_the_silent_state_refuse_by_their_labels(self, events):
        # T - t rounds to T, so two states share subscript T and their
        # distance is 0: the labels are refused first, as the constructor
        # refuses them.
        trace = EventTrace(story_id="a", events=np.array(events), horizon=1000.0)
        with pytest.raises(ValueError, match="^labels must be strictly ascending$"):
            build_from_trace(trace)

    @pytest.mark.parametrize(
        "labels, heights",
        [
            ([1.0, 2.0, 3.0], [1.0, 0.0, -0.0]),
            ([1.0, 2.0, 3.0], [-1.0, 2.0, 0.0]),
            ([1.0, 1.0, 3.0], [0.0, 0.0, 1.0]),
            ([1.0, 2.0, 3.0], [2.0, 1.0, 0.0]),
        ],
    )
    def test_max_space_refuses_in_its_inputs_what_the_constructor_refuses(
        self, labels, heights
    ):
        # A trace or chain never reaches the height check, since its labels
        # ascend to T and only T has height 0; the check is pinned here,
        # against the constructor on the same outer maximum.
        labels, heights = np.array(labels), np.array(heights)
        dist = np.maximum.outer(heights, heights)
        np.fill_diagonal(dist, 0.0)
        try:
            expected = UltrametricSpace(labels=labels, dist=dist)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                ultrametric._max_space(labels, heights)
        else:
            assert np.array_equal(ultrametric._max_space(labels, heights).dist, expected.dist)


@pytest.mark.parametrize(
    "setup, build, states",
    [
        (
            "from ultradiffusion.traces import EventTrace\n"
            "from ultradiffusion.ultrametric import build_from_trace\n"
            'trace = EventTrace(story_id="s", events=np.arange(1.0, 3001.0), horizon=3001.0)',
            "space = build_from_trace(trace)",
            3001,
        ),
        (
            "from ultradiffusion.spectral import caterpillar_tree, space_from_tree\n"
            "tree = caterpillar_tree(3000, 0.1)",
            "space = space_from_tree(tree)",
            3000,
        ),
    ],
    ids=["trace", "caterpillar"],
)
def test_build_peak_memory_stays_within_a_twentieth_over_one_matrix(
    peak_rise, setup, build, states
):
    # A 3000-state space holds one 72 MB matrix, and its builders make it
    # valid by construction, so building it raises the peak by that matrix
    # alone. A second O(n^2) check of it, whose positivity count makes a
    # bool copy of the matrix, reads 1.129.
    size, nbytes, rise = peak_rise(
        "import numpy as np\n" + setup, build, "space.size, space.dist.nbytes"
    )
    assert size == states
    assert rise < 1.05 * nbytes


class TestUniformChain:
    def test_three_state_distances(self):
        space = uniform_chain(3)
        assert space.dist[0, 1] == 1.0
        assert space.dist[0, 2] == 2.0
        assert space.dist[1, 2] == 2.0

    def test_two_state_chain_has_unit_distance(self):
        space = uniform_chain(2)
        assert space.dist[0, 1] == 1.0

    def test_rejects_fewer_than_two_states(self):
        with pytest.raises(ValueError, match="at least 2"):
            uniform_chain(1)

    @pytest.mark.parametrize("n", [2, 5, 17, 50])
    def test_chains_pass_verification(self, n):
        assert verify_ultrametric(uniform_chain(n)).ok


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: UltrametricSpace(np.array([]), np.zeros((0, 0))),
         "state space needs at least one state"),
        (lambda: UltrametricSpace(np.array([0.0, 1.0]), np.zeros((3, 3))),
         "distance matrix must be 2x2, got (3, 3)"),
    ],
    ids=["no-labels", "matrix-of-another-size"],
)
def test_refusals_read_as_pinned(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
