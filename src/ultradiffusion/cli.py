"""Command-line batch driver.

Five subcommands: `fit` ingests an event CSV and writes per-story fit tables,
`aggregate` runs the same pipeline on the mean curve, `simulate` draws
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
the rows of a (stories x grid points) grid array and a values array
(`curve_block`), one `fit_block` call fits them all, and the simulated
curves and their r_squared are array expressions over the block. Only
`infer_params`, and `compare`'s straight line, run story by story. Each
story's outputs are byte for byte those of handling it alone.
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
    decay_rate,
    exponential_model,
    fit_block,
    fit_exponential,
    infer_params,
    sample_events,
    simulate_curve,
)
from .generator import build_generator
from .serialize import (
    write_curve_tsv,
    write_distance_tsv,
    write_fit_curve_tsv,
    write_generator_tsv,
    write_json,
    write_spectrum_tsv,
    write_trace_csv,
)
from .spectral import chain_spectrum
from .traces import _block_curve, aggregate_mean, curve_block, parse_trace_csv, uniform_grid
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
    if args.horizon is not None:
        if not math.isfinite(args.horizon):
            raise CommandError(1, "horizon must be finite")
        if args.horizon <= 0:
            raise CommandError(1, "horizon must be positive")


def _safe_name(story_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", story_id).strip("._") or "story"


def _unique_names(story_ids: list[str]) -> dict[str, str]:
    # Sorted input keeps collision suffixes stable across runs.
    names: dict[str, str] = {}
    used: set[str] = set()
    for sid in story_ids:
        base = _safe_name(sid)
        name, k = base, 2
        while name in used:
            name = f"{base}_{k}"
            k += 1
        used.add(name)
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


def _map_fits(grid, observed, counts, fits):
    """Map each fit of a curve block to chain parameters and simulate them.

    Row n of `grid` and `observed` is a curve of `counts[n]` events and
    `fits[n]` its fit, or the error that refuses it. Returns (outcomes,
    simulated). Per row, the outcome is that error, or a pair: the fit
    record, and either the mapped fields (`t_N`, `mu`, `M`, `r2_simulated`)
    or the ValueError that refuses the mapping. `simulated` is the block of
    simulated curves, a row meaningful where its fit has a mapping.
    `infer_params` maps each fit alone; the simulated curves and their
    r_squared are block expressions that do, entry for entry, the
    operations of `simulate_curve` and `r_squared`.
    """
    outcomes: list = []
    mapped, rates, amplitudes = [], [], []
    for n, fit in enumerate(fits):
        if isinstance(fit, Exception):
            outcomes.append(fit)
            continue
        record = {"h1": fit.h1, "h2": fit.h2, "h3": fit.h3, "r2": fit.r2}
        try:
            params = infer_params(fit, M=counts[n])
        except ValueError as err:
            outcomes.append((record, err))
            continue
        mapping = {"t_N": params.t_N, "mu": params.mu, "M": params.M}
        outcomes.append((record, mapping))
        mapped.append(n)
        rates.append(decay_rate(params))
        amplitudes.append((params.t_N - 1) / params.t_N)
    simulated = np.full(grid.shape, np.nan)
    rate, amplitude = np.array(rates)[:, None], np.array(amplitudes)[:, None]
    simulated[mapped] = model = amplitude * (1.0 - np.exp(-rate * grid[mapped]))
    obs = observed[mapped]
    total = ((obs - obs.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    r2_simulated = 1.0 - ((obs - model) ** 2).sum(axis=1) / total
    for n, r2 in zip(mapped, r2_simulated.tolist()):
        outcomes[n][1]["r2_simulated"] = r2
    return outcomes, simulated


def _report(failed) -> None:
    for sid in sorted(failed):
        err = failed[sid]
        print(f"story {sid!r} failed: {type(err).__name__}: {err}", file=sys.stderr)


def _curve_rows(traces):
    """The traces whose curve can be built, the grid and observed blocks of
    their curves, one row each, and {story id: error} of the others."""
    grid, observed, faults = curve_block(traces)
    built = [n for n, fault in enumerate(faults) if fault is None]
    failed = {trace.story_id: fault for trace, fault in zip(traces, faults) if fault}
    return [traces[n] for n in built], grid[built], observed[built], failed


def _run_each(traces, worker, offset: bool, out_dir: Path):
    """Fit and map every trace's curve, all as one block, and apply `worker`
    to each (trace, grid row, observed row, fit record, mapping) whose fit
    `_map_fits` made. Returns [(file name, block row, result)] in story-id
    order, and the block as (grid, observed, fitted, simulated).

    A story fails when its curve cannot be built, the fitter refuses the
    curve, or `worker` raises one of the data errors: failures are printed
    in story-id order, and when every story failed the run exits 2.
    Otherwise `out_dir` is created.
    """
    built, grid, observed, failed = _curve_rows(traces)
    fits, fitted = fit_block(grid, observed, offset=offset)
    outcomes, simulated = _map_fits(grid, observed, [trace.count for trace in built], fits)
    results: dict[str, tuple] = {}
    for row, (trace, outcome) in enumerate(zip(built, outcomes)):
        try:
            # A fit that is an error fails its story, as if raised here.
            if isinstance(outcome, Exception):
                raise outcome
            results[trace.story_id] = row, worker(trace, grid[row], observed[row], *outcome)
        except _DATA_ERRORS as err:
            failed[trace.story_id] = err
    _report(failed)
    if not results:
        raise CommandError(2, "every qualifying story failed to fit")
    out_dir.mkdir(parents=True, exist_ok=True)
    order = sorted(results)
    names = _unique_names(order)
    return [(names[sid], *results[sid]) for sid in order], (grid, observed, fitted, simulated)


def _fit_story(trace, grid, observed, record, mapping):
    if isinstance(mapping, Exception):
        raise mapping
    return {"story_id": trace.story_id, **record, **mapping}


def cmd_fit(args: argparse.Namespace) -> int:
    kept = _load_qualifying(args)
    out = Path(args.out_dir)
    done, block = _run_each(kept, _fit_story, args.offset, out)
    for name, row, _ in done:
        write_fit_curve_tsv(out / f"{name}_curve.tsv", *(part[row] for part in block))
    write_json(out / "fits.json", [record for _, _, record in done])
    print(f"fitted {len(done)} of {len(kept)} stories -> {out}")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    built, grid, observed, failed = _curve_rows(_load_qualifying(args))
    _report(failed)
    try:
        mean = aggregate_mean([
            _block_curve(g, v, trace.count) for trace, g, v in zip(built, grid, observed)
        ])
        fit = fit_exponential(mean, offset=args.offset)
        ((record, mapping),), simulated = _map_fits(
            mean.grid[None], mean.values[None], [mean.saturation_count], [fit]
        )
        if isinstance(mapping, Exception):
            raise mapping
    except _DATA_ERRORS as err:
        raise CommandError(2, f"aggregate curve: {err}") from err
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fitted = exponential_model(mean.grid, fit.h1, fit.h2, fit.h3)
    write_fit_curve_tsv(
        out / "aggregate_curve.tsv", mean.grid, mean.values, fitted, simulated[0]
    )
    write_json(
        out / "aggregate_fit.json",
        {"story_id": "aggregate", "n_stories": len(built), **record, **mapping},
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
    model = simulate_curve(params, uniform_grid(span))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out / "trace.csv", traces)
    write_curve_tsv(out / "model_curve.tsv", model)
    write_spectrum_tsv(out / "spectrum.tsv", chain_spectrum(args.t_n, args.mu).eigenvalues)
    print(
        f"wrote {args.stories} stories x {args.m_events} events "
        f"(t_N={args.t_n}, mu={args.mu:g}, horizon={span:g}) -> {out}"
    )
    return 0


def _compare_record(trace, grid, observed, record, mapping):
    _, _, r2_lin = fit_linear(grid, observed)
    compared = {
        "story_id": trace.story_id,
        "r2_exponential": record["r2"],
        "r2_linear": r2_lin,
        "r2_simulated": None,
        "t_N": None,
        "mu": None,
        "verdict": "saturating" if record["r2"] > r2_lin else "memoryless",
        "note": "",
    }
    if isinstance(mapping, Exception):
        compared["note"] = f"parameter mapping failed: {mapping}"
    else:
        compared.update({key: mapping[key] for key in ("r2_simulated", "t_N", "mu")})
    return compared, trace


def cmd_compare(args: argparse.Namespace) -> int:
    kept = _load_qualifying(args)
    out = Path(args.out_dir)
    done, _ = _run_each(kept, _compare_record, args.offset, out)
    write_json(out / "comparison.json", [record for _, _, (record, _) in done])
    if args.export_matrices:
        for name, _, (record, trace) in done:
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
    # Imported here, so the other commands load neither the suite nor the
    # ODE integrator behind it.
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
