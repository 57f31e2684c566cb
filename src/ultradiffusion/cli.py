"""Command-line batch driver.

Five subcommands: `fit` ingests an event CSV and writes per-story fits and
curves, `aggregate` runs the same pipeline on the mean curve, `simulate` draws
synthetic traces from given parameters, `compare` scores the saturating
exponential against a straight line (the memoryless-arrivals signature), and
`oracle-check` runs the pinned self-check suite and prints its report.

Exit codes: 0 success, 1 input error (bad options or data, an unreadable or
undecodable input, an unusable output directory), 2 numerical failure, 3
self-check failure; `main` alone maps an escaping error to its code and one
`error:` line. A story whose curve cannot be built or fitted is reported and
left out, in `aggregate` too. Given the same inputs and seed, re-runs write
byte-identical files; outputs are written to a temporary name and renamed,
so interrupted runs leave no partial files.

`fit` and `compare` run a pass as one block: the parsed stories' curves are
their horizons and the rows of a (stories x 200) values array
(`curve_block`), and one `fit_block` call fits them all. No grid array is
held: `infer_params`, the simulated curve's r_squared, `compare`'s line and
the curve tables run story by story, each building the story's grid from its
horizon with `uniform_grid`, so each story's outputs are byte for byte those
of handling it alone. `aggregate` fits the block's mean on the grid of its
longest story (`aggregate_mean`) as one curve of M events, M the summed
event count of the averaged stories.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from .baselines import fit_linear
from .fitting import (
    FitError,
    UltradiffusionParams,
    fit_block,
    fit_exponential,
    infer_params,
    r_squared,
    sample_events,
    simulate_curve,
)
from .generator import build_generator
from .serialize import (
    write_curve_tsv,
    write_distance_tsv,
    write_generator_tsv,
    write_json,
    write_spectrum_tsv,
    write_trace_csv,
)
from .spectral import chain_spectrum
from .traces import aggregate_mean, curve_block, parse_trace_csv, uniform_grid
from .ultrametric import build_from_trace

__all__ = ["CommandError", "build_parser", "main"]

MATRIX_EXPORT_CAP = 500
# Errors bad data raises: a fit that cannot be made, parameters that cannot
# be inferred. They fail a story (or the aggregate curve); anything else is a
# bug and propagates.
_DATA_ERRORS = (FitError, ValueError, FloatingPointError)


class CommandError(Exception):
    """Failure with a designated process exit code."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _check_args(args: argparse.Namespace) -> None:
    """Reject option values no run can use; options the subcommand lacks
    are not checked."""
    if getattr(args, "min_events", 1) < 1:
        raise CommandError(1, "minimum event count must be at least 1")
    if getattr(args, "stories", 1) < 1:
        raise CommandError(1, "need at least one story")
    if getattr(args, "seed", 0) < 0:
        raise CommandError(1, "seed must be nonnegative")
    if args.horizon is not None:
        if not math.isfinite(args.horizon):
            raise CommandError(1, "horizon must be finite")
        if args.horizon <= 0:
            raise CommandError(1, "horizon must be positive")


def _safe_name(story_id: str) -> str:
    # Cut to 100 characters: with every suffix, far below a 255-byte file name.
    return re.sub(r"[^A-Za-z0-9._-]+", "_", story_id).strip("._")[:100] or "story"


def _unique_names(story_ids: list[str]) -> dict[str, str]:
    # Sorted input keeps collision suffixes stable across runs. Names are
    # compared lower-cased, as case-insensitive filesystems compare them;
    # `_safe_name` leaves only ASCII, so lower-casing is exact.
    names: dict[str, str] = {}
    used: set[str] = set()
    for sid in story_ids:
        base = _safe_name(sid)
        name, k = base, 2
        while name.lower() in used:
            name = f"{base}_{k}"
            k += 1
        used.add(name.lower())
        names[sid] = name
    return names


def _load_qualifying(args: argparse.Namespace):
    _check_args(args)
    kept = []
    for trace in parse_trace_csv(Path(args.input), horizon=args.horizon):
        if trace.count < args.min_events:
            print(
                f"skipping story {trace.story_id!r}: {trace.count} events "
                f"is below the minimum of {args.min_events}",
                file=sys.stderr,
            )
            continue
        kept.append(trace)
    if not kept:
        raise CommandError(
            1, f"no stories pass the {args.min_events}-event filter"
        )
    return kept


def _map_fits(horizons, observed, counts, fits):
    """Map each fit of a curve block to chain parameters.

    Row n of `observed` is a curve of horizon `horizons[n]` and `counts[n]`
    events, and `fits[n]` its fit, or the error that refuses it. Returns one
    outcome per row: that error, or a pair (record, refusal): the fit record,
    which also holds the mapped fields `t_N`, `mu`, `M` and `r2_simulated`
    when the refusal is None, and otherwise the ValueError refusing the map.
    """
    outcomes: list = []
    for horizon, row, count, fit in zip(horizons, observed, counts, fits):
        if isinstance(fit, Exception):
            outcomes.append(fit)
            continue
        record = {"h1": fit.h1, "h2": fit.h2, "h3": fit.h3, "r2": fit.r2}
        try:
            params = infer_params(fit, M=count)
        except ValueError as err:
            outcomes.append((record, err))
            continue
        r2_simulated = r_squared(row, simulate_curve(params, horizon).values)
        record.update(t_N=params.t_N, mu=params.mu, M=params.M, r2_simulated=r2_simulated)
        outcomes.append((record, None))
    return outcomes


def _report(failed) -> None:
    for sid in sorted(failed):
        err = failed[sid]
        print(f"story {sid!r} failed: {type(err).__name__}: {err}", file=sys.stderr)


def _curve_rows(traces):
    """The traces whose curve can be built, their horizons and observed
    block, one row each, and {story id: error} of the others."""
    horizons, observed, faults = curve_block(traces)
    built = [n for n, fault in enumerate(faults) if fault is None]
    failed = {trace.story_id: fault for trace, fault in zip(traces, faults) if fault}
    return [traces[n] for n in built], horizons[built], observed[built], failed


def _run_each(traces, worker, offset: bool, out_dir: Path):
    """Fit and map every trace's curve, all as one block, and apply `worker`
    to each (trace, observed row, fit record, refusal) whose fit `_map_fits`
    made. Returns [(file name, result)] in story-id order.

    A story fails when its curve cannot be built, the fitter refuses the
    curve, or `worker` raises one of the data errors: failures are printed
    in story-id order, and when every story failed the run exits 2.
    Otherwise `out_dir` is created.
    """
    built, horizons, observed, failed = _curve_rows(traces)
    fits = fit_block(horizons, observed, offset=offset)
    outcomes = _map_fits(horizons, observed, [trace.count for trace in built], fits)
    results = {}
    for trace, observed_row, outcome in zip(built, observed, outcomes):
        try:
            # A fit that is an error fails its story, as if raised here.
            if isinstance(outcome, Exception):
                raise outcome
            results[trace.story_id] = worker(trace, observed_row, *outcome)
        except _DATA_ERRORS as err:
            failed[trace.story_id] = err
    _report(failed)
    if not results:
        raise CommandError(2, "every qualifying story failed to fit")
    out_dir.mkdir(parents=True, exist_ok=True)
    order = sorted(results)
    names = _unique_names(order)
    return [(names[sid], results[sid]) for sid in order]


def _fit_story(trace, observed, record, refusal):
    if refusal is not None:
        raise refusal
    return {"story_id": trace.story_id, **record}, trace.horizon, observed


def cmd_fit(args: argparse.Namespace) -> int:
    kept = _load_qualifying(args)
    out = Path(args.out_dir)
    done = _run_each(kept, _fit_story, args.offset, out)
    for name, (record, horizon, observed) in done:
        write_curve_tsv(out / f"{name}_curve.tsv", uniform_grid(horizon), observed)
    write_json(out / "fits.json", [record for _, (record, _, _) in done])
    print(f"fitted {len(done)} of {len(kept)} stories -> {out}")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    built, horizons, observed, failed = _curve_rows(_load_qualifying(args))
    _report(failed)
    try:
        mean = aggregate_mean(horizons, observed)
        fit = fit_exponential(mean, offset=args.offset)
        M = sum(trace.count for trace in built)
        ((record, refusal),) = _map_fits([mean.horizon], [mean.values], [M], [fit])
        if refusal is not None:
            raise refusal
    except _DATA_ERRORS as err:
        raise CommandError(2, f"aggregate curve: {err}") from err
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_curve_tsv(out / "aggregate_curve.tsv", mean.grid, mean.values)
    write_json(
        out / "aggregate_fit.json",
        {"story_id": "aggregate", "n_stories": len(built), **record},
    )
    print(f"aggregated {len(built)} stories -> {out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_args(args)
    children = np.random.SeedSequence(args.seed).spawn(args.stories)
    params = UltradiffusionParams(t_N=args.t_n, mu=args.mu, M=args.m_events)
    traces = [
        sample_events(params, seed=child, horizon=args.horizon, story_id=f"story_{k + 1:03d}")
        for k, child in enumerate(children)
    ]
    span = traces[0].horizon
    model = simulate_curve(params, span)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / "trace.csv", traces)
    write_curve_tsv(out / "model_curve.tsv", model.grid, model.values)
    write_spectrum_tsv(out / "spectrum.tsv", chain_spectrum(args.t_n, args.mu).eigenvalues)
    print(
        f"wrote {args.stories} stories x {args.m_events} events "
        f"(t_N={args.t_n}, mu={args.mu:g}, horizon={span:g}) -> {out}"
    )
    return 0


def _compare_record(trace, observed, record, refusal):
    _, _, r2_lin = fit_linear(uniform_grid(trace.horizon), observed)
    compared = {
        "story_id": trace.story_id,
        "r2_exponential": record["r2"],
        "r2_linear": r2_lin,
        "r2_simulated": record.get("r2_simulated"),
        "t_N": record.get("t_N"),
        "mu": record.get("mu"),
        "verdict": "saturating" if record["r2"] > r2_lin else "memoryless",
        "note": "" if refusal is None else f"parameter mapping failed: {refusal}",
    }
    return compared, trace


def cmd_compare(args: argparse.Namespace) -> int:
    kept = _load_qualifying(args)
    out = Path(args.out_dir)
    done = _run_each(kept, _compare_record, args.offset, out)
    write_json(out / "comparison.json", [record for _, (record, _) in done])
    if args.export_matrices:
        for name, (record, trace) in done:
            sid = trace.story_id
            # One state per distinct event time plus the no-rebroadcast state,
            # counted before the n-by-n matrix is built.
            states = np.unique(trace.events).size + 1
            if states > MATRIX_EXPORT_CAP:
                print(
                    f"story {sid!r}: {states} states exceeds the "
                    f"{MATRIX_EXPORT_CAP}-state matrix export cap, skipping",
                    file=sys.stderr,
                )
                continue
            try:
                space = build_from_trace(trace)
            except ValueError as err:
                # An event so close to 0 that T - t rounds to T gives two
                # states one subscript; the story's other outputs stand.
                print(
                    f"story {sid!r}: state space refused ({err}), skipping matrix export",
                    file=sys.stderr,
                )
                continue
            write_distance_tsv(out / f"{name}_distance.tsv", space)
            if record["mu"] is None:
                print(
                    f"story {sid!r}: no inferred mu, skipping rate-matrix export",
                    file=sys.stderr,
                )
                continue
            # One line per story that warns, naming it, with no source location.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                gen = build_generator(space, record["mu"])
            for warning in caught:
                print(f"story {sid!r}: {warning.message}", file=sys.stderr)
            write_generator_tsv(out / f"{name}_generator.tsv", gen)
    print(f"compared {len(done)} of {len(kept)} stories -> {out}")
    return 0


def _format_runtime(seconds: float) -> str:
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def cmd_oracle_check(args: argparse.Namespace) -> int:
    # Imported here, so the other commands do not load the suite.
    from . import checks

    # Made first, so an unusable --out-dir fails before the suite runs.
    out = None if args.out_dir is None else Path(args.out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    results = checks.run_all()
    width = max(len(r.name) for r in results) + 2
    print(f"{'check':<{width}}{'measured':>13}{'tolerance':>11}{'runtime':>11}  verdict")
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}{r.measured:>13.4e}{r.tolerance:>11.1e}"
            f"{_format_runtime(r.runtime_s):>11}  {verdict}"
        )
    print()
    print(results[0].detail)
    for r in results[1:]:
        if not r.passed:
            print(f"\n{r.name}: {r.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"\n{n_pass}/{len(results)} checks passed")
    if out is not None:
        rows = [dataclasses.asdict(r) for r in results]
        for row in rows:
            del row["detail"]
        write_json(out / "oracle_report.json", rows)
    return 0 if n_pass == len(results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultradiffusion",
        description="Fit, simulate, and verify relaxation curves of event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="event CSV with header story_id,timestamp")
        p.add_argument("--out-dir", required=True, help="directory for output tables")
        p.add_argument("--offset", action="store_true", help="fit the additive constant h3")
        p.add_argument("--min-events", type=int, default=50, help="skip smaller stories")
        p.add_argument(
            "--horizon",
            type=float,
            default=None,
            help="observation window; default is each story's last event",
        )

    p_fit = sub.add_parser("fit", help="fit each story's curve and map parameters")
    add_trace_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_agg = sub.add_parser("aggregate", help="fit the mean curve over all stories")
    add_trace_flags(p_agg)
    p_agg.set_defaults(func=cmd_aggregate)

    p_sim = sub.add_parser("simulate", help="draw synthetic event traces")
    p_sim.add_argument("--out-dir", required=True, help="directory for output tables")
    p_sim.add_argument("--t-n", type=int, default=50, help="chain length t_N")
    p_sim.add_argument("--mu", type=float, default=0.1, help="distance decay mu")
    p_sim.add_argument("--m-events", type=int, default=1000, help="events per story")
    p_sim.add_argument("--stories", type=int, default=1, help="number of stories")
    p_sim.add_argument(
        "--horizon", type=float, default=None, help="window; default five relaxation times"
    )
    p_sim.add_argument("--seed", type=int, default=0, help="base seed, split per story")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser(
        "compare", help="score saturating vs linear explanations per story"
    )
    add_trace_flags(p_cmp)
    p_cmp.add_argument(
        "--export-matrices",
        action="store_true",
        help="also write per-story distance and rate matrices",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser("oracle-check", help="run the pinned self-check suite")
    p_chk.add_argument(
        "--out-dir", default=None, help="optionally write the report as JSON"
    )
    p_chk.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our contract reserves 2 for
        # numerical failures, so usage problems map to the input-error code.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (CommandError, ValueError, OSError, RuntimeError) as err:
        # Bad values and unusable paths are input errors, FitError numerical.
        print(f"error: {err}", file=sys.stderr)
        if isinstance(err, CommandError):
            return err.exit_code
        return 2 if isinstance(err, RuntimeError) else 1


if __name__ == "__main__":
    sys.exit(main())
