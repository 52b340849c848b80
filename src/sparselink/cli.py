"""Command-line front end.

Subcommands: gen, sweep, rank, reroute, synth, run, render. Exit codes:
0 success, 2 infeasible countermeasure (InfeasibleOutcome), 3 pattern not
stabilizable (PatternNotStabilizable), 4 input error (any InputError, a
malformed document among them, or a file or directory the OS rejects on
read or write, such as an --out that names an existing file), 5 solver
failure (any SolverFailure: a numerical solver gave up). The categories
are those of sparselink.errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    InfeasibleOutcome,
    InputError,
    InvalidAssumption,
    PatternNotStabilizable,
    SolverFailure,
)
from .priority import rank_links
from .render import render_pattern
from .reroute import select_reroute
from .scenario import (
    GeneratorSpec,
    generate_plant,
    load_scenario,
    report_csv,
    report_to_doc,
    run_pipeline,
    write_artifacts,
)
from .serialize import (
    _loads,
    attack_from_doc,
    dumps_canonical,
    gain_from_doc,
    gain_to_doc,
    outcome_from_doc,
    outcome_to_doc,
    pattern_from_doc,
    plant_from_doc,
    plant_to_doc,
    read_json,
    table_from_doc,
    table_to_doc,
)
from .sparse import _sweep_rows, sparsity_sweep, sweep_csv
from .structured import synthesize_structured_info


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags, which is reserved for the
    # infeasible countermeasure; surface argument problems as input errors.
    def error(self, message):
        raise InvalidAssumption(message)


def _emit(text: str, out: str | None, name: str) -> None:
    # --out names a directory; each subcommand writes its canonical
    # artifact name into it, mirroring the full-pipeline layout.
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text, encoding="utf-8")


def _cmd_gen(args) -> int:
    plant = generate_plant(
        args.n_nodes, args.seed, args.delta, node_state=args.node_state, node_input=args.node_input
    )
    _emit(dumps_canonical(plant_to_doc(plant)), args.out, "plant.json")
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    sweep = sparsity_sweep(scenario.resolve_plant(), scenario.beta_schedule)
    if args.format == "csv":
        _emit(sweep_csv(sweep), args.out, "sweep.csv")
    else:
        _emit(dumps_canonical(_sweep_rows(sweep)), args.out, "sweep.json")
    return 0


def _cmd_rank(args) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    plant = scenario.resolve_plant()
    sweep = sparsity_sweep(plant, scenario.beta_schedule)
    table = rank_links(plant, sweep)
    _emit(dumps_canonical(table_to_doc(table)), args.out, "table.json")
    return 0


def _cmd_reroute(args) -> int:
    table = table_from_doc(read_json(args.table))
    # --attack takes a JSON file path or an inline JSON literal
    if args.attack.lstrip().startswith(("{", "[")):
        attack_doc = _loads(args.attack, "--attack")
    else:
        attack_doc = read_json(args.attack)
    attack = attack_from_doc(attack_doc, table.r1)
    outcome = select_reroute(table, attack)
    _emit(dumps_canonical(outcome_to_doc(outcome)), args.out, "outcome.json")
    return 0 if outcome.feasible else 2


def _cmd_synth(args) -> int:
    plant = plant_from_doc(read_json(args.plant))
    pattern = pattern_from_doc(read_json(args.pattern))
    init = None
    if args.init is not None:
        init = gain_from_doc(read_json(args.init), plant.partition)
    info = synthesize_structured_info(plant, pattern, init=init)
    _emit(dumps_canonical(gain_to_doc(info, pattern)), args.out, "gain.json")
    return 0


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, seed=args.seed)
    if args.out is not None:  # an --out the OS rejects fails before the pipeline runs
        Path(args.out).mkdir(parents=True, exist_ok=True)
    result = run_pipeline(scenario)
    if args.out is not None:
        write_artifacts(result, args.out)
    if args.format == "csv":
        sys.stdout.write(report_csv([result.report]))
    else:
        sys.stdout.write(dumps_canonical(report_to_doc(result.report)))
    return 0 if result.outcome.feasible else 2


def _cmd_render(args) -> int:
    if args.pattern is not None:
        source = pattern_from_doc(read_json(args.pattern))
    elif args.table is not None:
        source = table_from_doc(read_json(args.table))
    else:
        source = outcome_from_doc(read_json(args.outcome))
    name = "pattern.txt" if args.format == "text" else "pattern.svg"
    _emit(render_pattern(source, args.format), args.out, name)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparselink", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    # the flags several commands share, each defined once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", required=True)
    scenario.add_argument("--seed", type=int, default=None)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("csv", "json"), default="csv")

    gen = sub.add_parser("gen", parents=[out], help="generate a random coupled plant")
    gen.add_argument("--n-nodes", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--delta", type=float, default=GeneratorSpec.delta)
    gen.add_argument("--node-state", type=int, default=GeneratorSpec.node_state)
    gen.add_argument("--node-input", type=int, default=GeneratorSpec.node_input)
    gen.set_defaults(func=_cmd_gen)

    sweep = sub.add_parser("sweep", parents=[scenario, out, report], help="run the sparsity sweep")
    sweep.set_defaults(func=_cmd_sweep)

    rank = sub.add_parser("rank", parents=[scenario, out], help="sweep and rank links into a priority table")
    rank.set_defaults(func=_cmd_rank)

    reroute = sub.add_parser("reroute", parents=[out], help="apply the rerouting countermeasure")
    reroute.add_argument("--table", required=True)
    reroute.add_argument("--attack", required=True)
    reroute.set_defaults(func=_cmd_reroute)

    synth = sub.add_parser("synth", parents=[out], help="structured gain synthesis on a pattern")
    synth.add_argument("--plant", required=True)
    synth.add_argument("--pattern", required=True)
    synth.add_argument("--init", default=None)
    synth.set_defaults(func=_cmd_synth)

    run = sub.add_parser(
        "run", parents=[scenario, out, report], help="full pipeline: sweep, rank, attack, reroute, resynthesize"
    )
    run.set_defaults(func=_cmd_run)

    render = sub.add_parser("render", parents=[out], help="render a pattern, table or outcome grid")
    source = render.add_mutually_exclusive_group(required=True)  # exactly one
    source.add_argument("--pattern", default=None)
    source.add_argument("--table", default=None)
    source.add_argument("--outcome", default=None)
    render.add_argument("--format", choices=("text", "svg"), default="text")
    render.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            print(parser.format_usage(), file=sys.stderr, end="")
            return 4
        return args.func(args)
    except InfeasibleOutcome as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except PatternNotStabilizable as exc:
        print(f"not stabilizable: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
