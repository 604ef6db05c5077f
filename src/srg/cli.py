"""Command-line front end: batch analyses over network files.

Exit codes: 0 success (or admissible / non-empty result), 1 inadmissible
or empty result, 2 usage or parse error, 3 state-space limit refusal or
out of memory, 130 (128 + SIGINT) when interrupted with Ctrl-C, 141
(128 + SIGPIPE) when the reader of stdout closed the pipe.
"""

from __future__ import annotations

import argparse
import os
import sys

from .boolenc import check_simulation_equivalence, encode_network, to_boolnet
from .core import step
from .dynamics import DEFAULT_STATE_LIMIT, build_sts, enumerate_attractors, simulate
from .errors import ParseError, SRGError, StateSpaceLimitError
from .netio import (
    EXAMPLE_NETWORKS,
    analysis_report,
    attractor_json,
    decision_json,
    equivalence_json,
    export_dot,
    format_state,
    load_example,
    parse_network,
    parse_phenotype,
    parse_state,
    render_report,
    serialize_network,
    state_json,
    trajectory_json,
    transition_lines,
    witness_json,
)
from .phenotype import attractors_with_phenotype, decide_phenotype, phenotype_witness

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
_EXIT_CLOSED_PIPE = 141  # what a shell reports for a process killed by SIGPIPE
_EXIT_INTERRUPTED = 130  # what a shell reports for a process killed by SIGINT

_COMPLETIONS = {"minus": -1, "zero": 0, "plus": 1}


def _load_network(source: str):
    if os.path.exists(source):
        with open(source, encoding="utf-8") as handle:
            return parse_network(handle.read())
    if source in EXAMPLE_NETWORKS:
        return load_example(source)
    raise ParseError(f"no such network file or bundled example: {source!r}")


def _emit(report):
    print(render_report(report), end="")


def _print_states(header, states):
    print(header)
    for s in states:
        print(f"  {format_state(s)}")


def _print_attractors(header, attractors):
    print(header)
    for k, attractor in enumerate(attractors, start=1):
        _print_states(f"attractor {k} (period {attractor.period}):", attractor.states)


def _cmd_step(graph, args):
    state = parse_state(args.state, graph)
    if args.steps < 1:
        raise ParseError("-n must be positive")
    states = []
    current = state
    for _ in range(args.steps):
        current = step(graph, current)
        states.append(current)
    if args.json:
        _emit(analysis_report("step", graph, {
            "start": state_json(state),
            "states": [state_json(s) for s in states],
        }))
    else:
        for s in states:
            print(format_state(s))
    return EXIT_OK


def _cmd_simulate(graph, args):
    state = parse_state(args.state, graph)
    trajectory = simulate(graph, state, max_steps=args.max_steps)
    if args.json:
        _emit(analysis_report("simulate", graph, trajectory_json(trajectory)))
        return EXIT_OK
    _print_states("transient:", trajectory.transient)
    _print_states(f"cycle (period {trajectory.period}):", trajectory.cycle)
    return EXIT_OK


def _cmd_attractors(graph, args):
    attractors = enumerate_attractors(graph, state_limit=args.limit)
    if args.json:
        _emit(analysis_report("attractors", graph, {
            "count": len(attractors),
            "attractors": [attractor_json(a) for a in attractors],
        }))
        return EXIT_OK
    _print_attractors(f"{len(attractors)} attractors", attractors)
    return EXIT_OK


def _cmd_sts(graph, args):
    system = build_sts(graph, state_limit=args.limit)
    sys.stdout.writelines(transition_lines(system, args.dot))
    return EXIT_OK


def _cmd_graph(graph, args):
    if args.dot:
        print(export_dot(graph), end="")
        return EXIT_OK
    print("vertices:", " ".join(graph.vertices))
    for line in serialize_network(graph).splitlines()[graph.n:]:
        print(line)
    return EXIT_OK


def _cmd_phenotype_check(graph, args):
    phenotype = parse_phenotype(args.target)
    if args.mode == "oracle":
        matches = attractors_with_phenotype(graph, phenotype, state_limit=args.limit)
        if args.json:
            _emit(analysis_report("phenotype-check", graph, {
                "mode": "oracle",
                "admissible": bool(matches),
                "attractors": [attractor_json(a) for a in matches],
            }))
        else:
            _print_attractors(f"{len(matches)} matching attractors", matches)
        return EXIT_OK if matches else EXIT_EMPTY
    decision = decide_phenotype(graph, phenotype, mode=args.mode)
    if args.json:
        _emit(analysis_report("phenotype-check", graph, decision_json(decision)))
        return EXIT_OK if decision.admissible else EXIT_EMPTY
    print("admissible" if decision.admissible else "inadmissible")
    for v in decision.violations:
        path = " -> ".join(v.activation_path)
        if v.inhibition_edge:
            x, tgt = v.inhibition_edge
            print(f"  rule ({v.rule}): active {v.source}: {path} then {x} -| {tgt} (active)")
        else:
            print(f"  rule ({v.rule}): active {v.source}: {path} reaches inactive {v.target}")
    return EXIT_OK if decision.admissible else EXIT_EMPTY


def _cmd_phenotype_witness(graph, args):
    phenotype = parse_phenotype(args.target)
    witness = phenotype_witness(graph, phenotype, completion=_COMPLETIONS[args.completion])
    if args.json:
        _emit(analysis_report("phenotype-witness", graph, witness_json(witness)))
        return EXIT_OK if witness.admissible else EXIT_EMPTY
    if not witness.admissible:
        print(f"inadmissible: marking conflict at {witness.marking.conflict}")
        return EXIT_EMPTY
    marked = ", ".join(f"{k}={v}" for k, v in witness.marking.marked.items())
    print(f"marking: {marked if marked else '(none)'}")
    print(f"start: {format_state(witness.start)}")
    attractor = witness.attractor
    _print_states(f"witness attractor (period {attractor.period}):", attractor.states)
    return EXIT_OK


def _cmd_encode_bn(graph, args):
    text = to_boolnet(encode_network(graph))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_verify_bn(graph, args):
    report = check_simulation_equivalence(
        graph, samples=args.samples, state_limit=args.limit, seed=args.seed
    )
    if args.json:
        _emit(analysis_report("verify-bn", graph, equivalence_json(report)))
        return EXIT_OK if report.ok else EXIT_EMPTY
    if report.ok:
        print(f"ok: {report.states_checked} states agree, no invalid codes")
        return EXIT_OK
    state, expected, got = report.counterexample
    print(f"mismatch after {report.states_checked} states")
    print(f"  state:    {format_state(state)}")
    print(f"  expected: {format_state(expected)}")
    print(f"  bits:     {''.join(str(b) for b in got)}")
    return EXIT_EMPTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srg",
        description="Analyze ternary regulatory networks under the unanimous update rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def network_arg(p):
        p.add_argument(
            "network",
            help=f"network file path, or one of the bundled examples {', '.join(EXAMPLE_NETWORKS)}",
        )

    def json_flag(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def limit_flag(p):
        p.add_argument(
            "--limit", type=int, default=DEFAULT_STATE_LIMIT,
            help="refuse state spaces larger than this many states",
        )

    p = sub.add_parser("step", help="apply the synchronous update to a state")
    network_arg(p)
    p.add_argument("state", help='state literal, "(-1,1,1)" or "A=-1,B=1,C=1"')
    p.add_argument("-n", "--steps", type=int, default=1, help="number of steps")
    json_flag(p)
    p.set_defaults(func=_cmd_step)

    p = sub.add_parser("simulate", help="run until the trajectory cycles")
    network_arg(p)
    p.add_argument("state", help='start state literal, "(-1,1,1)" or "A=-1,B=1,C=1"')
    p.add_argument("--max-steps", type=int, default=None,
                   help="fail if no state repeats within this many steps (default 3^n)")
    json_flag(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("attractors", help="enumerate every attractor exhaustively")
    network_arg(p)
    limit_flag(p)
    json_flag(p)
    p.set_defaults(func=_cmd_attractors)

    p = sub.add_parser("sts", help="dump the full state-transition system")
    network_arg(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of arrow lines")
    limit_flag(p)
    p.set_defaults(func=_cmd_sts)

    p = sub.add_parser("graph", help="dump the regulatory graph")
    network_arg(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a summary")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("phenotype", help="phenotype admissibility analyses")
    psub = p.add_subparsers(dest="subcommand", required=True)

    pc = psub.add_parser("check", help="decide whether a matching attractor can exist")
    network_arg(pc)
    pc.add_argument("--target", required=True, help='phenotype, e.g. "FOXO3=-1,AKT=1"')
    pc.add_argument(
        "--mode", choices=("paths", "literal", "oracle"), default="paths",
        help="paths: authoritative wiring test; literal: diagnostic weaker test; "
        "oracle: exhaustive enumeration (works with clamps)",
    )
    limit_flag(pc)
    json_flag(pc)
    pc.set_defaults(func=_cmd_phenotype_check)

    pw = psub.add_parser("witness", help="construct an attractor carrying the phenotype")
    network_arg(pw)
    pw.add_argument("--target", required=True)
    pw.add_argument(
        "--completion", choices=tuple(_COMPLETIONS), default="minus",
        help="value given to vertices the marking leaves free",
    )
    json_flag(pw)
    pw.set_defaults(func=_cmd_phenotype_witness)

    p = sub.add_parser("encode-bn", help="export the two-bit Boolean network")
    network_arg(p)
    p.add_argument("-o", "--output", help="write the rule file here instead of stdout")
    p.set_defaults(func=_cmd_encode_bn)

    p = sub.add_parser("verify-bn", help="check the Boolean encoding against the ternary step")
    network_arg(p)
    p.add_argument("--samples", type=int, default=None,
                   help="check this many random states instead of every clamp-consistent one")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the --samples draws; the exhaustive check ignores it")
    limit_flag(p)
    json_flag(p)
    p.set_defaults(func=_cmd_verify_bn)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(_load_network(args.network), args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at interpreter exit
        # does not fail again on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_CLOSED_PIPE
    except KeyboardInterrupt:
        print("srg: interrupted", file=sys.stderr)
        return _EXIT_INTERRUPTED
    except MemoryError:
        print("srg: out of memory; try a smaller network or a lower --limit", file=sys.stderr)
        return EXIT_LIMIT
    except StateSpaceLimitError as exc:
        print(f"srg: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (SRGError, ValueError, OSError) as exc:
        print(f"srg: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
