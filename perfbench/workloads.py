"""Inputs, passes and output checks of the four benchmark workloads.

Event times are drawn from the workload seed through `fitting.sample_events`
(memoryless stories use uniform event times instead), so one seed always
gives the same bytes; the (t_N, mu) spread is fixed. The program sees only
the generated CSV. A pass is one unit of timed work; `check` looks at what
the pass left behind, outside the timed region, and never raises on a bad
output: it reports it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ultradiffusion import (
    checks,
    cli,
    fitting,
    generator,
    oracle,
    spectral,
    ultrametric,
)

# The ROADMAP's reference batch, 1000 stories x 1000 events, about 1M rows.
# batch-aggregate reads all of it in every pass; batch-fit fits it a hundred
# stories per pass, in turn, so a pass takes about a second and a run of
# ten passes or more covers the whole batch.
BATCH_STORIES = 1000
BATCH_EVENTS = 1000
FIT_CHUNK = 100
# Short stories for compare-export: every state space stays under the
# 500-state matrix export cap. Five stories per pass, in turn, so a run of
# ten passes or more covers fifty stories and the work of a run depends
# little on which stories the seed drew.
EXPORT_STORIES = 50
EXPORT_EVENTS = 400
EXPORT_CHUNK = 5
# No traffic data exists, so the saturating stories are centred on the
# repository's own parameters: `simulate` defaults to t_N = 50, mu = 0.1,
# and the end-to-end self check uses mu = 0.2. t_N spans +-10 around 50,
# the scatter of the recovered t_N at M = 1000 the ROADMAP reports (39..66);
# mu is log-uniform on 0.05..0.2, centred on 0.1 and reaching 0.2.
T_N_RANGE = (40, 60)
MU_RANGE = (0.05, 0.2)
# The first story of every hundred is memoryless: uniform event times, a
# straight-line curve, the fitter's slow-decay boundary. A reference batch
# made by `simulate` has none; this small share is a choice, not a measured
# one. Its fits cost about nine times a saturating one; the traced run reports
# their share of the fitting time as `fitting.fit_memoryless_share`.
MEMORYLESS_EVERY = 100
# The (t_N, mu) spread comes from this fixed stream, the same for every
# workload seed: a seed changes the sampled events, not the mix of decay
# rates, so runs on different seeds do comparable work.
PARAMS_SEED = 20131009
GRID_POINTS = 200  # the CLI's default --grid-points

# Ground-truth limits for batch-fit, about three times the medians seen over
# seeds 1-7 (h2 0.025-0.030, median 0.028; t_N 0.22-0.24, median 0.23).
H2_REL_ERR_P50_LIMIT = 0.08
T_N_REL_ERR_P50_LIMIT = 0.7

# model-verify sweep: sizes beyond what oracle-check reaches (traces of at
# most 200 events, chains of at most 40 states). space_from_tree recurses
# once per level, so the 2000-level caterpillar is where it fails today.
SWEEP_TRACE_EVENTS = (250, 500)
SWEEP_CHAIN_SIZES = (200, 500, 2000)
SWEEP_MU = 0.1
SWEEP_TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 63)])
CROSS_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class Story:
    """One generated story; `params` is None for a memoryless story."""

    story_id: str
    events: np.ndarray  # event times, rounded to the 9 digits the CSV holds
    params: fitting.UltradiffusionParams | None

    @property
    def memoryless(self) -> bool:
        return self.params is None


def _draw_params(rng: np.random.Generator, m: int) -> fitting.UltradiffusionParams:
    t_n = int(rng.integers(T_N_RANGE[0], T_N_RANGE[1] + 1))
    mu = float(np.exp(rng.uniform(*np.log(MU_RANGE))))
    return fitting.UltradiffusionParams(t_N=t_n, mu=mu, M=m)


def make_stories(seed: int, stories: int, events: int) -> list[Story]:
    """Stories with a spread of (t_N, mu); the first of every hundred memoryless."""
    out = []
    spread = np.random.default_rng(PARAMS_SEED)
    # Story k depends only on (seed, events, k): a smaller batch is a prefix
    # of a larger one.
    children = np.random.SeedSequence([seed, events]).spawn(stories)
    for k, child in enumerate(children):
        rng = np.random.default_rng(child)
        params = _draw_params(spread, events)
        if k % MEMORYLESS_EVERY == 0:
            # Same window a saturating story with these parameters would get.
            window = 5.0 / fitting.decay_rate(params)
            times = np.sort(window * (1.0 - rng.random(events)))
            params = None
        else:
            times = fitting.sample_events(params, seed=rng).events
        values = np.array([float(f"{t:.9g}") for t in times])
        out.append(Story(f"story_{k + 1:04d}", values, params))
    return out


def write_csv(path: Path, stories: list[Story]) -> None:
    """One story at a time, so the benchmark never holds the whole text:
    its own memory stays below the program's peak."""
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("story_id,timestamp\n")
        for story in stories:
            # A 9-digit value formats back to the same 9 digits.
            handle.write("".join(f"{story.story_id},{t:.9g}\n" for t in story.events))


def input_properties(stories: list[Story]) -> dict:
    """Shape of a generated batch, as stated in the benchmark's documentation."""
    tied = [np.mean(s.events == s.events.max()) for s in stories if not s.memoryless]
    return {
        "stories": len(stories),
        "rows": sum(s.events.size for s in stories),
        "events_per_story": stories[0].events.size,
        "memoryless_share": sum(s.memoryless for s in stories) / len(stories),
        "tied_at_horizon_share": float(np.mean(tied)),
    }


def _curve(events: np.ndarray):
    """Independent empirical curve: grid and cumulative event fraction.

    The grid is horizon * (k/n) so its last point is the horizon exactly and
    the events tied there are counted.
    """
    grid = events.max() * (np.arange(1, GRID_POINTS + 1) / GRID_POINTS)
    return grid, np.searchsorted(np.sort(events), grid, side="right") / events.size


def _read_tsv(path: Path) -> np.ndarray:
    """Numeric body of a table; matrix tables (header "state") lose their
    label column."""
    lines = path.read_text().splitlines()
    skip = 1 if lines[0].startswith("state\t") else 0
    return np.array([[float(v) for v in line.split("\t")[skip:]] for line in lines[1:]])


@dataclass
class PassOutcome:
    """What one pass attempted, how much of it failed, and what was wrong.

    A failure is an operation the program refused or got wrong in a way its
    method allows (a story it reported failed, a kernel call that raised, a
    memoryless story judged saturating). A problem is an
    output that disagrees with its check; any problem makes the run
    incorrect.
    """

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


class CliWorkload:
    """A workload that drives one `cli.main` call per pass, on the whole
    batch or, with `chunk` set, on the next `chunk` stories of it in turn."""

    name = ""
    command: tuple[str, ...] = ()
    # Nominal CPU seconds of a pass on a 2-core Xeon VM, which sets how many
    # passes --seconds holds; the reference (reference.py) whose speed
    # follows this workload's, and how often it runs after each pass: about
    # a fifth of a pass's CPU time.
    pass_s = 1.0
    reference_part = "fit"
    reference_runs = 6
    # The whole run on one CPU. The CLI's pool threads take turns on the
    # GIL; spread over two vCPUs of a shared host, a thread waiting for the
    # GIL held on a vCPU the host has taken away spins through timed waits,
    # and batch-fit runs with steal took 10-20 % more CPU time than runs
    # without. On one CPU the threads stop together when the host takes it,
    # and the reference runs where the passes run.
    one_cpu = True
    stories = BATCH_STORIES
    events = BATCH_EVENTS
    chunk: int | None = None
    result_file = ""

    def __init__(self, stories: int | None = None):
        if stories is not None:
            self.stories = stories
        self._digests: dict[int, str] = {}
        self._passes = 0

    def prepare(self, workdir: Path, seed: int) -> dict:
        self.batch = make_stories(seed, self.stories, self.events)
        self.by_id = {s.story_id: s for s in self.batch}
        size = self.chunk or len(self.batch)
        self.csvs = []
        for start in range(0, len(self.batch), size):
            self.csvs.append(workdir / f"input-{len(self.csvs)}.csv")
            write_csv(self.csvs[-1], self.batch[start : start + size])
        self.chunk_ids = [
            {s.story_id for s in self.batch[start : start + size]}
            for start in range(0, len(self.batch), size)
        ]
        self.warm_csv = workdir / "warm.csv"
        write_csv(self.warm_csv, make_stories(seed, 2, 100))
        return {**input_properties(self.batch), "stories_per_pass": size}

    def _call(self, csv: Path, out: Path):
        argv = [*self.command, "--input", str(csv), "--out-dir", str(out)]
        chatter = io.StringIO()
        with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
            code = cli.main(argv)
        return code, chatter.getvalue()

    def warm_up(self, out: Path) -> None:
        self._call(self.warm_csv, out)

    def run(self, out: Path):
        k = self._passes % len(self.csvs)
        self._passes += 1
        return (k, *self._call(self.csvs[k], out))

    def check(self, out: Path, raw) -> PassOutcome:
        k, code, chatter = raw
        ids = self.chunk_ids[k]
        outcome = PassOutcome(attempted=len(ids))
        if code != 0:
            outcome.failed = len(ids)
            outcome.problems.append(f"{self.name}: exit code {code}, want 0: {chatter[-300:]}")
            return outcome
        result = out / self.result_file
        if not result.exists():
            outcome.failed = len(ids)
            outcome.problems.append(f"{self.name}: {self.result_file} missing")
            return outcome
        digest = hashlib.sha256(result.read_bytes()).hexdigest()
        if self._digests.setdefault(k, digest) != digest:
            outcome.problems.append(f"{self.name}: {self.result_file} differs between passes")
        self._check(out, json.loads(result.read_text()), chatter, outcome, ids)
        return outcome

    def _check_records(self, records: list, chatter: str, outcome: PassOutcome, ids: set) -> dict:
        """Each input story has one record, or is named in the command's
        output (the reason it was refused); refused stories count as failed.
        Only the story id is looked for, so the wording of the message is
        free to change."""
        got = {r["story_id"]: r for r in records}
        if len(got) != len(records):
            outcome.problems.append(f"{self.name}: duplicate story ids in {self.result_file}")
        if set(got) - ids:
            outcome.problems.append(f"{self.name}: records for stories not in the input")
        missing = ids - set(got)
        silent = [sid for sid in missing if not re.search(rf"\b{sid}\b", chatter)]
        if silent:
            outcome.problems.append(
                f"{self.name}: {len(silent)} stories neither written nor reported"
            )
        outcome.failed = len(missing)
        return got

    def _check(self, out: Path, payload, chatter: str, outcome: PassOutcome, ids: set) -> None:
        raise NotImplementedError


class BatchFit(CliWorkload):
    name = "batch-fit"
    command = ("fit",)
    chunk = FIT_CHUNK
    # One untraced pass and ten traced ones: 1000 fit samples, ten of them
    # beyond the 99th percentile.
    min_traced_passes = 11
    result_file = "fits.json"

    def _check(self, out, payload, chatter, outcome, ids):
        got = self._check_records(payload, chatter, outcome, ids)
        curves = list(out.glob("*_curve.tsv"))
        if len(curves) != len(got):
            outcome.problems.append(
                f"batch-fit: {len(curves)} curve tables for {len(got)} fitted stories"
            )
        first = min(got) if got else None
        if first is not None:
            table = _read_tsv(out / f"{first}_curve.tsv")
            grid, values = _curve(self.by_id[first].events)
            if np.max(np.abs(table[:, 1] - values)) > 1e-8 or np.max(
                np.abs(table[:, 0] - grid) / grid
            ) > 1e-8:
                outcome.problems.append(f"batch-fit: curve table of {first} is wrong")
        h2_err, t_n_err = [], []
        for sid, rec in got.items():
            params = self.by_id[sid].params
            if params is None:
                continue
            rate = fitting.decay_rate(params)
            h2_err.append(abs(rec["h2"] - rate) / rate)
            t_n_err.append(abs(rec["t_N"] - params.t_N) / params.t_N)
        if not h2_err:
            outcome.problems.append("batch-fit: no saturating story was fitted")
            return
        h2_p50, t_n_p50 = float(np.median(h2_err)), float(np.median(t_n_err))
        outcome.values["fitting.h2_rel_err_p50"] = h2_p50
        outcome.values["fitting.tN_rel_err_p50"] = t_n_p50
        if not h2_p50 <= H2_REL_ERR_P50_LIMIT:
            outcome.problems.append(
                f"batch-fit: median h2 error {h2_p50:.4g} above {H2_REL_ERR_P50_LIMIT}"
            )
        if not t_n_p50 <= T_N_REL_ERR_P50_LIMIT:
            outcome.problems.append(
                f"batch-fit: median t_N error {t_n_p50:.4g} above {T_N_REL_ERR_P50_LIMIT}"
            )


class BatchAggregate(CliWorkload):
    name = "batch-aggregate"
    command = ("aggregate",)
    pass_s = 1.2
    reference_runs = 8
    result_file = "aggregate_fit.json"

    def _check(self, out, payload, chatter, outcome, ids):
        outcome.failed = len(ids) - int(payload.get("n_stories", 0))
        if outcome.failed:
            outcome.problems.append(
                f"batch-aggregate: {payload.get('n_stories')} of {len(ids)} stories aggregated"
            )
        curves = [_curve(s.events) for s in self.batch]
        span = max(g[-1] for g, _ in curves)
        grid = span * (np.arange(1, GRID_POINTS + 1) / GRID_POINTS)
        mean = np.mean([np.interp(grid, g, v) for g, v in curves], axis=0)
        table = _read_tsv(out / "aggregate_curve.tsv")
        if table.shape[0] != GRID_POINTS or np.max(np.abs(table[:, 1] - mean)) > 1e-8:
            outcome.problems.append("batch-aggregate: mean curve disagrees with the stories")
        if not (payload["h2"] > 0 and 0 < payload["h1"] < 1 and payload["r2"] <= 1):
            outcome.problems.append(f"batch-aggregate: implausible fit {payload}")


class CompareExport(CliWorkload):
    name = "compare-export"
    command = ("compare", "--export-matrices")
    stories = EXPORT_STORIES
    events = EXPORT_EVENTS
    chunk = EXPORT_CHUNK
    result_file = "comparison.json"

    def _check(self, out, payload, chatter, outcome, ids):
        got = self._check_records(payload, chatter, outcome, ids)
        for sid, rec in got.items():
            if not self.by_id[sid].memoryless:
                if rec["verdict"] != "saturating":
                    outcome.problems.append(f"compare-export: {sid} judged {rec['verdict']}")
            elif rec["verdict"] != "memoryless":
                # 400 uniform event times can bend the curve enough for the
                # saturating exponential to beat the line (seen on seeds 102,
                # 105, 108 and 109): a missed call, counted, not a wrong file.
                outcome.failed += 1
                outcome.notes.append(f"{sid}: memoryless story judged {rec['verdict']}")
            if rec["mu"] is None and not self.by_id[sid].memoryless:
                # The same refusal `fit` reports as a failed story.
                outcome.failed += 1
                outcome.notes.append(f"{sid}: no parameters inferred: {rec['note']}")
            if not (out / f"{sid}_distance.tsv").exists():
                outcome.failed += 1
                outcome.problems.append(f"compare-export: no distance matrix for {sid}")
            if (rec["mu"] is not None) != (out / f"{sid}_generator.tsv").exists():
                outcome.problems.append(f"compare-export: rate matrix of {sid} mismatched")
        exported = sorted(sid for sid, rec in got.items() if rec["mu"] is not None)
        if exported:
            self._check_matrices(out, exported[0], got[exported[0]]["mu"], outcome)

    def _check_matrices(self, out: Path, sid: str, mu: float, outcome: PassOutcome) -> None:
        """Distances are the later event time, d(x, y) = max(t_x, t_y), with
        t = 0 for the no-rebroadcast state; rates are e^(-mu d) with zero
        row sums."""
        times = np.concatenate([np.unique(self.by_id[sid].events)[::-1], [0.0]])
        want = np.maximum.outer(times, times)
        np.fill_diagonal(want, 0.0)
        dist = _read_tsv(out / f"{sid}_distance.tsv")
        if dist.shape != want.shape or np.max(np.abs(dist - want)) > 1e-8 * want.max():
            outcome.problems.append(f"compare-export: distance matrix of {sid} is wrong")
            return
        rates = _read_tsv(out / f"{sid}_generator.tsv")
        off = ~np.eye(len(times), dtype=bool)
        scale = float(np.max(np.abs(rates)))
        if (
            np.max(np.abs(rates - rates.T)) > 1e-8 * scale
            or np.max(np.abs(rates.sum(axis=1))) > 1e-6 * scale
            or np.max(np.abs(rates[off] - np.exp(-mu * want[off]))) > 1e-6 * scale
        ):
            outcome.problems.append(f"compare-export: rate matrix of {sid} is wrong")


class ModelVerify:
    """`checks.run_all()` plus a relaxation sweep past the oracle-check sizes."""

    name = "model-verify"
    pass_s = 8.0
    reference_part = "kernels"
    reference_runs = 100
    # Single-threaded, so the scheduler may move it to the faster vCPU;
    # pinned, its runs spread more (quartile distance over median 0.135
    # against 0.085 over seeds).
    one_cpu = False

    def __init__(
        self,
        trace_events: tuple[int, ...] = SWEEP_TRACE_EVENTS,
        chain_sizes: tuple[int, ...] = SWEEP_CHAIN_SIZES,
        run_checks: bool = True,
    ):
        self.trace_events = trace_events
        self.chain_sizes = chain_sizes
        self.run_checks = run_checks

    def prepare(self, workdir: Path, seed: int) -> dict:
        children = np.random.SeedSequence([seed, 0]).spawn(len(self.trace_events))
        spread = np.random.default_rng(PARAMS_SEED)
        self.traces = []
        for m, child in zip(self.trace_events, children):
            params = _draw_params(spread, m)
            self.traces.append((fitting.sample_events(params, seed=child), params.mu))
        return {
            "trace_events": list(self.trace_events),
            "trace_states": [ultrametric.build_from_trace(t).size for t, _ in self.traces],
            "chain_sizes": list(self.chain_sizes),
        }

    def warm_up(self, out: Path) -> None:
        small = ModelVerify((20,), (10, 20), run_checks=False)
        small.prepare(out, 0)
        small.run(out)

    def run(self, out: Path):
        start = time.perf_counter()
        checked = checks.run_all() if self.run_checks else []
        middle = time.perf_counter()
        sweep = _Sweep()
        for trace, mu in self.traces:
            self._trace_ops(sweep, trace, mu)
        for n in self.chain_sizes:
            self._chain_ops(sweep, n, dense=n == min(self.chain_sizes))
        return checked, sweep, middle - start, time.perf_counter() - middle

    @staticmethod
    def _trace_ops(sweep: "_Sweep", trace, mu: float) -> None:
        n = trace.count

        def ultrametric_ok(report):
            return None if report.ok else report.message

        space = sweep.call(f"build_from_trace[{n}]", ultrametric.build_from_trace, trace)
        sweep.call(f"verify_ultrametric[{n}]", ultrametric.verify_ultrametric, space, check=ultrametric_ok)
        gen = sweep.call(f"build_generator[{n}]", generator.build_generator, space, mu)
        sweep.call(
            f"check_rate_ultrametricity[{n}]",
            generator.check_rate_ultrametricity,
            gen,
            check=ultrametric_ok,
        )

    @staticmethod
    def _chain_ops(sweep: "_Sweep", n: int, dense: bool) -> None:
        t, mu = SWEEP_TIMES, SWEEP_MU
        spec = sweep.call(f"chain_spectrum[{n}]", spectral.chain_spectrum, n, mu)
        chain = {
            i: sweep.call(f"autocorrelation_chain[{n},{i}]", spectral.autocorrelation_chain, spec, i, t)
            for i in (1, n)
        }
        # Two independent routes to one number: the caterpillar tree encodes
        # the chain (leaf i is state i), and survival is the last state's
        # return probability.
        sweep.call(
            f"survival_probability[{n}]",
            spectral.survival_probability,
            n,
            mu,
            t,
            check=lambda v: _gap(v, chain[n], CROSS_CHECK_TOL),
        )
        tree = sweep.call(f"caterpillar_tree[{n}]", spectral.caterpillar_tree, n, mu)
        for i in (1, n):
            sweep.call(
                f"tree_autocorrelation[{n},{i}]",
                spectral.tree_autocorrelation,
                tree,
                i,
                t,
                check=lambda v, i=i: _gap(v, chain[i], CROSS_CHECK_TOL),
            )
        sweep.call(f"space_from_tree[{n}]", spectral.space_from_tree, tree, check=_is_chain_space)
        if not dense:
            return
        chain_space = sweep.call(f"uniform_chain[{n}]", ultrametric.uniform_chain, n)
        gen = sweep.call(f"build_generator[chain {n}]", generator.build_generator, chain_space, mu)
        sweep.call(
            f"numeric_spectrum[{n}]",
            oracle.numeric_spectrum,
            gen,
            check=lambda v: None
            if spec is None
            else _gap(v[0], np.sort(spec.eigenvalues), 1e-9 * np.max(np.abs(v[0]))),
        )
        grid = np.linspace(0.0, 5.0 / abs(spec.eigenvalues[1]), 51)[1:] if spec else None
        sweep.call(
            f"integrate_master_equation[{n}]",
            oracle.integrate_master_equation,
            gen,
            oracle.ProbabilityVector.characteristic(n, n),
            grid,
            check=lambda v: _gap(v[:, n - 1], spectral.autocorrelation_chain(spec, n, grid), 1e-6),
        )

    def check(self, out: Path, raw) -> PassOutcome:
        checked, sweep, checks_s, sweep_s = raw
        ops = sweep.verify()
        outcome = PassOutcome(attempted=len(checked) + len(ops))
        outcome.values["checks.run_all_s"] = checks_s
        outcome.values["bench.relax_sweep_s"] = sweep_s
        for r in checked:
            outcome.values[f"checks.{r.name}_s"] = r.runtime_s
            if not r.passed:
                outcome.failed += 1
                outcome.notes.append(
                    f"check {r.name} failed: measured {r.measured:.4g} against "
                    f"{r.tolerance:.4g}, {r.runtime_s:.2f} s of a {r.budget_s:.2f} s budget"
                )
                if not _only_slow(r):
                    outcome.problems.append(f"model-verify: check {r.name} failed: {r.detail[:200]}")
        for name, status, detail in ops:
            if status != "ok":
                outcome.failed += 1
                outcome.notes.append(f"{name} {status}: {detail}")
            if status == "wrong":
                outcome.problems.append(f"model-verify: {name}: {detail}")
        return outcome


# Self checks whose measured value must reach the tolerance (a floor), or
# stay strictly below it; every other check passes at or below it.
_FLOOR_CHECKS = frozenset({"end-to-end-synthetic"})
_STRICT_CHECKS = frozenset({"poisson-discriminator"})


def _only_slow(result: checks.CheckResult) -> bool:
    """True when a failed self check ran over its time budget with its
    measured value inside the tolerance: slowness, counted as a failure.
    Anything else is a wrong result. A check's other pass conditions (such
    as the recovered t_N of end-to-end-synthetic) are not in `measured`, so
    a check over budget is judged on `measured` alone."""
    if result.runtime_s < result.budget_s:
        return False
    if result.name in _FLOOR_CHECKS:
        return result.measured >= result.tolerance
    if result.name in _STRICT_CHECKS:
        return result.measured < result.tolerance
    return result.measured <= result.tolerance


class _Sweep:
    """Runs kernel calls in order and records each one's status.

    A call is "ok", "refused" (it raised), "skipped" (an input it needs was
    refused) or "wrong" (its check returned a reason). Checks run in
    `verify`, after the timed sweep, on the values the calls returned.
    Every planned call is recorded, so the operation count of a pass does
    not depend on outcomes.
    """

    def __init__(self):
        self.ops: list[list[str]] = []
        self._pending: list[tuple[list[str], object, object]] = []

    def call(self, name, func, *args, check=None):
        if any(a is None for a in args):
            self.ops.append([name, "skipped", "an input was refused"])
            return None
        try:
            value = func(*args)
        except (RecursionError, ValueError, RuntimeError, FloatingPointError) as err:
            self.ops.append([name, "refused", f"{type(err).__name__}: {str(err)[:120]}"])
            return None
        self.ops.append([name, "ok", ""])
        if check is not None:
            self._pending.append((self.ops[-1], check, value))
        return value

    def verify(self) -> list[list[str]]:
        """Runs the deferred checks and returns every call's
        [name, status, detail]."""
        for op, check, value in self._pending:
            reason = check(value)
            if reason:
                op[1:] = ["wrong", reason]
        self._pending.clear()
        return self.ops


def _is_chain_space(space) -> str | None:
    """Reason when a caterpillar's leaf space is not the chain's: leaves
    i < j join at height mu*(j-1), so row j holds that value left of the
    diagonal. Checked row by row, so the check allocates no n x n matrix
    and does not raise the run's peak memory."""
    dist = space.dist
    for j in range(1, dist.shape[0]):
        if not np.all(dist[j, :j] == SWEEP_MU * j):
            return f"row {j + 1} is not mu*{j}"
    return None


def _gap(a, b, tol: float) -> str | None:
    """Reason when arrays differ by more than `tol`; None when they agree or
    when `b` is missing because its own call was refused."""
    if b is None:
        return None
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return f"shape {a.shape} against {b.shape}"
    gap = float(np.max(np.abs(a - b)))
    return None if gap <= tol else f"gap {gap:.3g} above {tol:.3g}"


WORKLOADS = {
    "batch-fit": BatchFit,
    "batch-aggregate": BatchAggregate,
    "compare-export": CompareExport,
    "model-verify": ModelVerify,
}
