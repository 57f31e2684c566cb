"""Command-line batch driver.

Five subcommands: `fit` ingests an event CSV and writes per-story fits and
curves, `aggregate` runs the same pipeline on the mean curve, `simulate` draws
synthetic traces from given parameters, `compare` scores the saturating
exponential against a straight line (the memoryless-arrivals signature), and
`oracle-check` runs the pinned self-check suite and prints its report.

Exit codes: 0 success, 1 input error (bad options or data, an unreadable or
undecodable input, an unusable output directory), 2 numerical failure, 3
self-check failure. `main` alone maps an escaping error to its code, by its
type alone: a ValueError (a TraceFormatError too) or OSError exits 1, a
RuntimeError (a FitError too) 2, each with one `error:` line. Given the
same inputs and seed, re-runs write byte-identical files; outputs are
written to a temporary name and renamed, so interrupted runs leave no
partial files.

`fit`, `compare` and `aggregate` give each parsed story one outcome in one
pass (`_outcomes`), print the stories' stderr lines from that list and write
their files from it. A pass fits its curves as one block (`curve_block`,
`fit_block`) and maps each fit to chain parameters story by story, on the
story's own grid (`_mapped`), so each story's outputs are byte for byte those
of handling it alone. `aggregate` fits the mean of the averaged curves
(`aggregate_mean`) and maps it through the same `_mapped`, as one curve of
their summed event count.
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
from .traces import EventTrace, aggregate_mean, curve_block, parse_trace_csv, uniform_grid
from .ultrametric import build_from_trace

__all__ = ["build_parser", "main"]

MATRIX_EXPORT_CAP = 500
# Errors bad data raises: a fit that cannot be made, parameters that cannot
# be inferred. They fail a story (or the aggregate curve); anything else is a
# bug and propagates.
_DATA_ERRORS = (FitError, ValueError)


def _check_args(args: argparse.Namespace) -> None:
    """Reject option values no run can use; options the subcommand lacks
    are not checked."""
    if getattr(args, "min_events", 1) < 1:
        raise ValueError("minimum event count must be at least 1")
    if getattr(args, "stories", 1) < 1:
        raise ValueError("need at least one story")
    if getattr(args, "seed", 0) < 0:
        raise ValueError("seed must be nonnegative")
    horizon = getattr(args, "horizon", None)
    if horizon is not None:
        if not math.isfinite(horizon):
            raise ValueError("horizon must be finite")
        if horizon <= 0:
            raise ValueError("horizon must be positive")


def _safe_name(story_id: str) -> str:
    # Cut to 100 characters: with every suffix, far below a 255-byte file name.
    return re.sub(r"[^A-Za-z0-9._-]+", "_", story_id).strip("._")[:100] or "story"


def _unique_names(outcomes: list[_Outcome]) -> None:
    # Sorted input keeps collision suffixes stable across runs. Names are
    # compared lower-cased, as case-insensitive filesystems compare them;
    # `_safe_name` leaves only ASCII, so lower-casing is exact.
    used: set[str] = set()
    for o in outcomes:
        base = _safe_name(o.trace.story_id)
        name, k = base, 2
        while name.lower() in used:
            name = f"{base}_{k}"
            k += 1
        used.add(name.lower())
        o.name = name


@dataclasses.dataclass(slots=True)
class _Outcome:
    """A parsed story's fate in a run: its `status` ("skipped", "refused",
    "failed", "fitted" or "averaged"), the `reason` it was left out (the
    skip notice or the error; None for a story fitted or averaged), the
    `record` the command writes, its curve's `values` and its file `name`."""

    trace: EventTrace
    status: str = "skipped"
    reason: object = None
    record: dict | None = None
    values: np.ndarray | None = None
    name: str = ""


def _mapped(fit, horizon, values, count):
    """Map the fit of a curve of horizon `horizon`, `values` and `count`
    events to chain parameters. Returns the record of the fit's `h1`, `h2`,
    `h3` and `r2` and the mapped `t_N`, `mu`, `M` and `r2_simulated`; the
    ValueError of `infer_params` refusing the fit propagates."""
    params = infer_params(fit, M=count)
    r2_simulated = r_squared(values, simulate_curve(params, horizon).values)
    return {"h1": fit.h1, "h2": fit.h2, "h3": fit.h3, "r2": fit.r2, "t_N": params.t_N,
            "mu": params.mu, "M": params.M, "r2_simulated": r2_simulated}


def _print_outcomes(outcomes: list[_Outcome]) -> None:
    """Print a line for each story skipped, in the list's order, then one
    for each story refused or failed, in story-id order."""
    for o in outcomes:
        if o.status == "skipped":
            print(f"skipping story {o.trace.story_id!r}: {o.reason}", file=sys.stderr)
    for o in sorted(outcomes, key=lambda o: o.trace.story_id):
        if o.status in ("refused", "failed"):
            why = f"{type(o.reason).__name__}: {o.reason}"
            print(f"story {o.trace.story_id!r} failed: {why}", file=sys.stderr)


def _outcomes(args: argparse.Namespace, step=None) -> list[_Outcome]:
    """One outcome per story parsed from `args.input`, in story-id order.

    A story of fewer than --min-events events is skipped, and one with an
    event past --horizon is refused; the others' curves are built as one
    block, and a curve `curve_block` refuses is refused. A curve built is
    averaged, or with `step` fitted as one block (`fit_block`): the story is
    fitted when `step(trace, values, fit)` returns its record (the step maps
    the fit, `_mapped`), and failed when its fit is an error or `step` raises
    a data error; only a story left out keeps a `reason`. Fitted stories take
    file names in story-id order, so a failed one uses up none. The stories'
    lines are printed; then a run in which no story qualified raises a
    ValueError, and one in which none was fitted or averaged a FitError.
    """
    outcomes = [_Outcome(trace) for trace in parse_trace_csv(Path(args.input))]
    for o in outcomes:
        if o.trace.count < args.min_events:
            o.reason = f"{o.trace.count} events is below the minimum of {args.min_events}"
        elif args.horizon is not None:
            try:
                o.trace = EventTrace(o.trace.story_id, o.trace.events, args.horizon)
            except ValueError as err:
                o.status, o.reason = "refused", err
    within = [o for o in outcomes if o.reason is None]
    horizons, values, faults = curve_block([o.trace for o in within])
    for o, fault in zip(within, faults):
        o.status, o.reason = ("refused", fault) if fault else ("averaged", None)
    members = [o for o in within if o.status == "averaged"]
    built = [fault is None for fault in faults]
    horizons, values = horizons[built], values[built]
    for o, row in zip(members, values):
        o.values = row
    if step is not None:
        fits = fit_block(horizons, values, offset=args.offset)
        for o, fit in zip(members, fits):
            try:
                # A fit that is an error fails its story, as if raised here.
                if isinstance(fit, Exception):
                    raise fit
                o.record = step(o.trace, o.values, fit)
                o.status = "fitted"
            except _DATA_ERRORS as err:
                o.status, o.reason = "failed", err
    _print_outcomes(outcomes)
    # A story that qualified is never left skipped.
    if all(o.status == "skipped" for o in outcomes):
        raise ValueError(f"no stories pass the {args.min_events}-event filter")
    if not any(o.status in ("fitted", "averaged") for o in outcomes):
        raise FitError("every qualifying story failed to fit")
    outcomes.sort(key=lambda o: o.trace.story_id)
    _unique_names([o for o in outcomes if o.status == "fitted"])
    return outcomes


def _fit_record(trace, values, fit):
    return {"story_id": trace.story_id, **_mapped(fit, trace.horizon, values, trace.count)}


def cmd_fit(args: argparse.Namespace) -> int:
    outcomes = _outcomes(args, _fit_record)
    done = [o for o in outcomes if o.status == "fitted"]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for o in done:
        write_curve_tsv(out / f"{o.name}_curve.tsv", uniform_grid(o.trace.horizon), o.values)
    write_json(out / "fits.json", [o.record for o in done])
    qualified = sum(o.status != "skipped" for o in outcomes)
    print(f"fitted {len(done)} of {qualified} stories -> {out}")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    members = [o for o in _outcomes(args) if o.status == "averaged"]
    try:
        mean = aggregate_mean([o.trace.horizon for o in members], [o.values for o in members])
        fit = fit_exponential(mean, offset=args.offset)
        record = _mapped(fit, mean.horizon, mean.values, sum(o.trace.count for o in members))
    except _DATA_ERRORS as err:
        raise FitError(f"aggregate curve: {err}") from err
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_curve_tsv(out / "aggregate_curve.tsv", mean.grid, mean.values)
    write_json(
        out / "aggregate_fit.json",
        {"story_id": "aggregate", "n_stories": len(members), **record},
    )
    print(f"aggregated {len(members)} stories -> {out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    params = UltradiffusionParams(t_N=args.t_n, mu=args.mu, M=args.m_events)
    children = np.random.SeedSequence(args.seed).spawn(args.stories)
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


def _compare_record(trace, values, fit):
    _, _, r2_lin = fit_linear(uniform_grid(trace.horizon), values)
    try:
        mapped, note = _mapped(fit, trace.horizon, values, trace.count), ""
    except ValueError as err:
        mapped, note = {}, f"parameter mapping failed: {err}"
    return {
        "story_id": trace.story_id,
        "r2_exponential": fit.r2,
        "r2_linear": r2_lin,
        "r2_simulated": mapped.get("r2_simulated"),
        "t_N": mapped.get("t_N"),
        "mu": mapped.get("mu"),
        "verdict": "saturating" if fit.r2 > r2_lin else "memoryless",
        "note": note,
    }


def _export_matrices(o: _Outcome, out: Path) -> list[str]:
    """Write a compared story's distance and rate matrices; returns the
    notes to print about it."""
    # One state per distinct event time plus the no-rebroadcast state,
    # counted before the n-by-n matrix is built.
    states = np.unique(o.trace.events).size + 1
    if states > MATRIX_EXPORT_CAP:
        return [f"{states} states exceeds the {MATRIX_EXPORT_CAP}-state matrix export cap, "
                "skipping"]
    try:
        space = build_from_trace(o.trace)
    except ValueError as err:
        # An event so close to 0 that T - t rounds to T gives two states one
        # subscript; the story's other outputs stand.
        return [f"state space refused ({err}), skipping matrix export"]
    write_distance_tsv(out / f"{o.name}_distance.tsv", space)
    if o.record["mu"] is None:
        return ["no inferred mu, skipping rate-matrix export"]
    # A warning is a note, naming the story, with no source location.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gen = build_generator(space, o.record["mu"])
    write_generator_tsv(out / f"{o.name}_generator.tsv", gen)
    return [str(warning.message) for warning in caught]


def cmd_compare(args: argparse.Namespace) -> int:
    outcomes = _outcomes(args, _compare_record)
    done = [o for o in outcomes if o.status == "fitted"]
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "comparison.json", [o.record for o in done])
    if args.export_matrices:
        for o in done:
            for note in _export_matrices(o, out):
                print(f"story {o.trace.story_id!r}: {note}", file=sys.stderr)
    qualified = sum(o.status != "skipped" for o in outcomes)
    print(f"compared {len(done)} of {qualified} stories -> {out}")
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
            # Strict JSON has no NaN: a check that measured nothing writes null.
            if not math.isfinite(row["measured"]):
                row["measured"] = None
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
        _check_args(args)
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        # The type alone sets the code: bad values and unusable paths are
        # input errors, a FitError (a RuntimeError) numerical.
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, RuntimeError) else 1


if __name__ == "__main__":
    sys.exit(main())
