"""Rate-matrix construction over ultrametric spaces."""

import math
import time
import warnings

import numpy as np
import pytest

from ultradiffusion.generator import (
    Generator,
    build_generator,
    check_rate_ultrametricity,
)
from ultradiffusion.traces import EventTrace
from ultradiffusion.ultrametric import (
    TripleReport,
    UltrametricSpace,
    build_from_trace,
    uniform_chain,
)


def worked_space():
    trace = EventTrace(
        story_id="worked",
        events=np.array([1.0, 5.0, 6.0, 8.0, 12.0, 17.0]),
        horizon=17.0,
    )
    return build_from_trace(trace)


def reference_report(gen):
    """Plain scan of every ordered triple of distinct states, in lexicographic order."""
    r, n = gen.rates, gen.size
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3 and r[i, j] < min(r[i, k], r[k, j]):
                    return TripleReport(
                        triple=(i, j, k),
                        message=f"rate({i},{j})={r[i, j]:g} falls below "
                        f"min via state {k}: {min(r[i, k], r[k, j]):g}",
                    )
    return TripleReport(triple=None, message=f"all {n} states rate-ultrametric")


def space_of(dist):
    n = len(dist)
    return UltrametricSpace(
        labels=np.arange(1.0, n + 1),
        dist=np.array(dist, dtype=float),
    )


def quiet_generator(space, mu):
    """`build_generator` without its warning about rates that underflow to zero."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return build_generator(space, mu)


def signed_zero_rates(gen, upper, lower):
    """`gen` with its zero rates set to `upper` above the diagonal and to
    `lower` below it.

    -0.0 == 0.0, so the rates stay symmetric, and a proof that only
    compares them must reach the reference scan's report.
    """
    rates = gen.rates.copy()
    zero = rates == 0
    rates[np.triu(zero, 1)] = upper
    rates[np.tril(zero, -1)] = lower
    return Generator(rates=rates)


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


class TestBuildGenerator:
    def test_zero_mu_chain_gives_unit_rates_and_conservation_diagonal(self):
        gen = build_generator(uniform_chain(3), mu=0.0)
        off = gen.rates[~np.eye(3, dtype=bool)]
        np.testing.assert_array_equal(off, np.ones(6))
        np.testing.assert_array_equal(np.diagonal(gen.rates), [-2.0, -2.0, -2.0])

    def test_two_state_chain_at_mu_log2(self):
        gen = build_generator(uniform_chain(2), mu=math.log(2.0))
        assert gen.rates[0, 1] == pytest.approx(0.5)
        assert gen.rates[0, 0] == pytest.approx(-0.5)

    def test_adjacent_rate_on_worked_space(self):
        gen = build_generator(worked_space(), mu=0.1)
        # States with subscripts 16 and 17 sit at distance 1.
        assert gen.rates[5, 6] == pytest.approx(math.exp(-0.1), abs=1e-9)
        assert gen.rates[5, 6] == pytest.approx(0.904837, abs=1e-6)

    def test_rows_sum_to_zero(self):
        gen = build_generator(worked_space(), mu=0.3)
        drift = np.max(np.abs(gen.rates.sum(axis=1)))
        assert drift <= 1e-12

    def test_matrix_is_exactly_symmetric(self):
        gen = build_generator(worked_space(), mu=0.7)
        assert np.array_equal(gen.rates, gen.rates.T)

    def test_larger_mu_weakly_decreases_every_off_diagonal_rate(self):
        space = worked_space()
        low = build_generator(space, mu=0.2).rates
        high = build_generator(space, mu=0.9).rates
        mask = ~np.eye(space.size, dtype=bool)
        assert np.all(high[mask] <= low[mask])

    def test_negative_mu_is_rejected(self):
        for mu in (-0.1, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                build_generator(uniform_chain(3), mu=mu)

    def test_zero_mu_with_an_infinite_distance_is_refused_by_name(self):
        # e^(-0 * inf) is NaN, which the rate matrix would only refuse as asymmetric.
        space = space_of([[0, np.inf, np.inf], [np.inf, 0, 1], [np.inf, 1, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mu = 0 leaves .* undefined at an infinite distance"):
                build_generator(space, mu=0.0)

    def test_underflowing_distances_warn(self):
        trace = EventTrace(
            story_id="wide", events=np.array([1.0, 1e5]), horizon=1e5
        )
        space = build_from_trace(trace)
        with pytest.warns(RuntimeWarning, match=r"once mu\*d exceeds about 745"):
            build_generator(space, mu=1.0)

    def test_build_is_deterministic(self):
        a = build_generator(worked_space(), mu=0.4).rates
        b = build_generator(worked_space(), mu=0.4).rates
        assert np.array_equal(a, b)


class TestGeneratorInvariants:
    def test_rejects_an_empty_matrix(self):
        # As `UltrametricSpace` refuses zero states; numpy's reductions in
        # the oracle would otherwise fail on it.
        with pytest.raises(ValueError, match="^a generator needs at least one state$"):
            Generator(rates=np.zeros((0, 0)))

    def test_rejects_asymmetric_rates(self):
        bad = np.array([[-1.0, 1.0], [2.0, -2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            Generator(rates=bad)

    def test_rejects_nonvanishing_row_sums(self):
        bad = np.array([[-1.0, 2.0], [2.0, -1.0]])
        with pytest.raises(ValueError, match="row sums"):
            Generator(rates=bad)

    @pytest.mark.parametrize("diagonal", [-np.inf, -1.0])
    def test_rejects_an_infinite_rate(self, diagonal):
        # Its row sums are NaN or inf, and the drift bound scales with the
        # largest rate, so no row-sum test could refuse it.
        bad = np.array([[diagonal, np.inf, 1.0], [np.inf, diagonal, 1.0], [1.0, 1.0, -2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rates must be finite"):
                Generator(rates=bad)

    def test_rejects_negative_off_diagonal(self):
        bad = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            Generator(rates=bad)

    def test_rejects_negative_off_diagonal_beside_negative_diagonal(self):
        # Rows sum to zero; the negative diagonal entries are allowed, the
        # negative rate between states 0 and 2 is not.
        bad = np.array([[-1.0, 2.0, -1.0], [2.0, -3.0, 1.0], [-1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            Generator(rates=bad)

    def test_copies_a_writable_caller_matrix(self):
        rates = np.array([[-1.0, 1.0], [1.0, -1.0]])
        gen = Generator(rates=rates)
        rates[0, 1] = 5.0
        assert gen.rates[0, 1] == 1.0


def checked_generator(gen, space, mu):
    """`gen = build_generator(space, mu)` passed through the public
    constructor and its O(n^2) checks, and compared with e^(-mu*d)."""
    rates = gen.rates
    assert not rates.flags.writeable and rates.base is None
    assert Generator(rates=rates).rates is rates
    off = ~np.eye(space.size, dtype=bool)
    with np.errstate(over="ignore"):  # mu times the largest double
        assert np.array_equal(rates[off], np.exp(-mu * space.dist[off]))
    assert np.array_equal(np.diagonal(rates), -np.where(off, rates, 0.0).sum(axis=1))


class TestBuiltGeneratorsPassThePublicConstructor:
    """`build_generator` skips `Generator`'s O(n^2) checks; every generator
    it makes must pass them unchanged."""

    MUS = [0.0, 0.1, 1.0, 800.0]  # 800 underflows every distance >= 1

    def test_dendrogram_spaces(self, dendrogram_spaces):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(dendrogram_spaces, st.sampled_from(self.MUS))
        def check(space, mu):
            if mu == 0 and np.isinf(space.dist).any():
                with pytest.raises(ValueError, match="^mu = 0 leaves the rate"):
                    build_generator(space, mu)
                return
            checked_generator(quiet_generator(space, mu), space, mu)

        check()

    def test_trace_spaces_with_ties(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        times = st.sampled_from([1e-14, 0.5, 1.0, 3.0, 16.0, 17.0])

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.lists(times, min_size=1, max_size=12), st.sampled_from(self.MUS))
        def check(events, mu):
            trace = EventTrace(story_id="h", events=np.sort(events), horizon=17.0)
            space = build_from_trace(trace)
            checked_generator(quiet_generator(space, mu), space, mu)

        check()

    @pytest.mark.parametrize("n", [2, 3, 40, 200])
    @pytest.mark.parametrize("mu", MUS)
    def test_chains(self, n, mu):
        space = uniform_chain(n)
        if mu == 800.0:
            with pytest.warns(RuntimeWarning, match="underflowed"):
                gen = build_generator(space, mu)
        else:
            gen = build_generator(space, mu)
        checked_generator(gen, space, mu)

    def test_an_infinite_distance(self):
        space = space_of([[0, np.inf, np.inf], [np.inf, 0, 1], [np.inf, 1, 0]])
        with pytest.warns(RuntimeWarning, match="underflowed"):
            gen = build_generator(space, 0.5)
        checked_generator(gen, space, 0.5)
        assert gen.rates[0, 1] == 0.0 and gen.rates[1, 2] == math.exp(-0.5)


class TestRateUltrametricity:
    @pytest.mark.parametrize("n", [2, 5, 20, 50])
    def test_chain_generators_pass(self, n):
        gen = build_generator(uniform_chain(n), mu=0.15)
        assert check_rate_ultrametricity(gen).ok

    def test_trace_generators_pass(self):
        rng = np.random.default_rng(23)
        for k in range(25):
            events = np.sort(100.0 * (1.0 - rng.random(30)))
            trace = EventTrace(story_id=f"r{k}", events=events, horizon=100.0)
            gen = build_generator(build_from_trace(trace), mu=0.05)
            report = check_rate_ultrametricity(gen)
            assert report.ok, report.message

    def test_two_state_generator_passes_trivially(self):
        gen = build_generator(uniform_chain(2), mu=1.0)
        assert check_rate_ultrametricity(gen).ok

    def test_hand_built_violation_is_located(self):
        # rate(0, 2) is far below both rates through state 1.
        rates = np.array(
            [
                [-1.001, 1.0, 0.001],
                [1.0, -2.0, 1.0],
                [0.001, 1.0, -1.001],
            ]
        )
        report = check_rate_ultrametricity(Generator(rates=rates))
        assert not report.ok
        assert report.triple == (0, 2, 1)
        assert report.message == "rate(0,2)=0.001 falls below min via state 1: 1"

    def test_matches_the_reference_scan(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        # At mu = 250 the rates at distance 3 and beyond underflow to zero,
        # which are then written as 0.0 or -0.0.
        zeros = st.sampled_from([0.0, -0.0])

        verdicts = set()

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(small_spaces(st), st.sampled_from([0.5, 250.0]), zeros, zeros)
        def check(space, mu, upper, lower):
            gen = signed_zero_rates(quiet_generator(space, mu), upper, lower)
            report = check_rate_ultrametricity(gen)
            assert report == reference_report(gen)
            assert report.ok is (report.triple is None)
            verdicts.add(report.ok)

        check()
        assert verdicts == {True, False}

    def test_dendrogram_spaces_match_the_reference_scan(self, dendrogram_spaces):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        zeros = st.sampled_from([0.0, -0.0])

        verdicts = set()

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(dendrogram_spaces, st.sampled_from([0.5, 250.0]), zeros, zeros)
        def check(space, mu, upper, lower):
            gen = signed_zero_rates(quiet_generator(space, mu), upper, lower)
            report = check_rate_ultrametricity(gen)
            assert report == reference_report(gen)
            assert report.ok is (report.triple is None)
            verdicts.add(report.ok)

        check()
        assert verdicts == {True, False}

    def test_infinite_distances_give_zero_rates(self):
        gen = quiet_generator(space_of([[0, np.inf, np.inf], [np.inf, 0, 1], [np.inf, 1, 0]]), 1.0)
        assert check_rate_ultrametricity(gen).ok
        gen = quiet_generator(space_of([[0, 1, np.inf], [1, 0, 1], [np.inf, 1, 0]]), 1.0)
        assert check_rate_ultrametricity(gen) == TripleReport(
            triple=(0, 2, 1), message="rate(0,2)=0 falls below min via state 1: 0.367879"
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_states_pass_at_any_tolerance(self, n):
        gen = build_generator(space_of(np.ones((n, n)) - np.eye(n)), 1.0)
        assert check_rate_ultrametricity(gen) == TripleReport(
            triple=None, message=f"all {n} states rate-ultrametric"
        )


class TestRateUltrametricityAtScale:
    """A 3001-state trace generator: the proof, and the scan of the one row it
    names when it fails, each take about a second."""

    @staticmethod
    def big_space():
        rng = np.random.default_rng(7)
        events = np.sort(1000.0 * (1.0 - rng.random(3000)))
        space = build_from_trace(EventTrace(story_id="big", events=events, horizon=1000.0))
        assert space.size == 3001
        return space

    def test_trace_generator_passes(self):
        gen = build_generator(self.big_space(), mu=0.001)
        assert check_rate_ultrametricity(gen) == TripleReport(
            triple=None, message="all 3001 states rate-ultrametric"
        )

    def test_one_changed_pair_in_row_zero_is_found(self):
        space = self.big_space()
        dist = space.dist.copy()
        # Row 0 is constant at the largest distance D, so rate(0, j) is the
        # smallest rate. Shrinking d(0, 5) below d(1, 5) < D raises rate(0, 5)
        # above rate(0, 1), which breaks (0, 1, 5) and no earlier triple.
        dist[0, 5] = dist[5, 0] = dist[1, 5] / 2
        broken = UltrametricSpace(labels=space.labels, dist=dist)
        gen = build_generator(broken, mu=0.001)
        r = gen.rates
        assert check_rate_ultrametricity(gen) == TripleReport(
            triple=(0, 1, 5),
            message=f"rate(0,1)={r[0, 1]:g} falls below min via state 5: {r[1, 5]:g}",
        )

    def test_one_changed_pair_in_a_late_row_is_found_quickly(self):
        space = self.big_space()
        dist = space.dist.copy()
        # Cutting d(2998, 3000) to a third raises rate(2998, 3000) above
        # rate(2998, 2999), which breaks (2998, 2999, 3000); every earlier row
        # still passes.
        dist[2998, 3000] = dist[3000, 2998] = dist[2998, 3000] / 3
        broken = UltrametricSpace(labels=space.labels, dist=dist)
        gen = build_generator(broken, mu=0.001)
        r = gen.rates
        start = time.process_time()
        report = check_rate_ultrametricity(gen)
        assert time.process_time() - start < 10.0
        assert report == TripleReport(
            triple=(2998, 2999, 3000),
            message=f"rate(2998,2999)={r[2998, 2999]:g} falls below "
            f"min via state 3000: {r[3000, 2999]:g}",
        )


def test_check_rate_peak_memory_stays_below_one_and_a_half_matrices(peak_rise):
    # The 3001-state trace space and its generator hold two 72 MB matrices.
    # The proof in the rates' own order leaves the peak where it was; the
    # proof that negated a condensed copy of the rates and sorted a second
    # copy raised it by 1.06 rate matrices, and negating the whole rate
    # matrix first by 2.1.
    size, nbytes, rise = peak_rise(
        "import numpy as np\n"
        "from ultradiffusion.generator import build_generator, check_rate_ultrametricity\n"
        "from ultradiffusion.traces import EventTrace\n"
        "from ultradiffusion.ultrametric import build_from_trace, uniform_chain\n"
        "events = np.sort(1000.0 * (1.0 - np.random.default_rng(7).random(3000)))\n"
        'space = build_from_trace(EventTrace(story_id="big", events=events, horizon=1000.0))\n'
        "gen = build_generator(space, 0.001)\n"
        "check_rate_ultrametricity(build_generator(uniform_chain(3), 0.1))",
        "assert check_rate_ultrametricity(gen).ok",
        "gen.size, gen.rates.nbytes",
    )
    assert size == 3001
    assert rise < 1.5 * nbytes


def test_passing_proof_leaves_the_peak_within_a_tenth_of_a_matrix(peak_rise):
    # The proof takes min where verify_ultrametric takes max, on a block of
    # rows at a time, so it negates nothing; the rise reads 0, against 1.06
    # rate matrices for the proof by linkage and sort.
    size, nbytes, rise = peak_rise(
        "import numpy as np\n"
        "from ultradiffusion.generator import build_generator, check_rate_ultrametricity\n"
        "from ultradiffusion.traces import EventTrace\n"
        "from ultradiffusion.ultrametric import build_from_trace, uniform_chain\n"
        "events = np.sort(1000.0 * (1.0 - np.random.default_rng(7).random(3000)))\n"
        'space = build_from_trace(EventTrace(story_id="big", events=events, horizon=1000.0))\n'
        "gen = build_generator(space, 0.001)\n"
        "check_rate_ultrametricity(build_generator(uniform_chain(3), 0.1))",
        "assert check_rate_ultrametricity(gen).ok",
        "gen.size, gen.rates.nbytes",
    )
    assert size == 3001
    assert rise < 0.1 * nbytes


@pytest.mark.parametrize("n", [3, 40, 600])
@pytest.mark.parametrize("kind", ["trace", "chain", "caterpillar"])
def test_built_generators_prove_in_their_own_order(kind, n, built_space, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the proof fell back to a linkage")

    monkeypatch.setattr("scipy.cluster.hierarchy.linkage", refuse)
    gen = build_generator(built_space(kind, n), 0.05)
    assert check_rate_ultrametricity(gen) == TripleReport(
        triple=None, message=f"all {gen.size} states rate-ultrametric"
    )


@pytest.mark.parametrize(
    "call, message",
    [(lambda: Generator(np.zeros((2, 3))), "rates must be square, got (2, 3)")],
    ids=["not-square"],
)
def test_refusals_read_as_pinned(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
