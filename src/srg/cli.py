"""Command-line front end: batch analyses over network files. Every `--json`
report, streamed or not, goes through one writer, `_write_report`.

Exit codes: 0 success (or admissible / non-empty result), 1 inadmissible
or empty result, 2 usage or parse error, 3 state-space limit refusal or
out of memory, 130 (128 + SIGINT) when interrupted with Ctrl-C, 141
(128 + SIGPIPE) when the reader of stdout closed the pipe.

`main` registers `gc.freeze` as an exit handler, once per process. Exit
handlers run before the final collection, which then skips what the call made.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import os
import sys

# Each command imports the analysis module it runs, so a call loads only those.
from .core import DEFAULT_STATE_LIMIT, step
from .errors import ParseError, SRGError, StateSpaceLimitError
from .netio import (
    EXAMPLE_NETWORKS,
    analysis_report,
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


def _write_report(command, graph, result, code=EXIT_OK, chunks=None):
    """Write the `--json` report of `result` and return `code`; given `chunks`,
    write them in place of the empty placeholder `[]` of its last key."""
    text = render_report(analysis_report(command, graph, result))
    if chunks is None:
        sys.stdout.write(text)
    else:
        head, _, tail = text.rpartition("[]")
        sys.stdout.writelines(itertools.chain([head], chunks, [tail]))
    return code


def _state_array(states):
    """The "states" array of `step --json` as `json.dumps(indent=2)` nests it
    in the report, a state at a time: no list of the states is kept."""
    opener, sep = "[\n      [\n        ", ",\n        "
    for s in states:
        yield opener + sep.join(map(str, s)) + "\n      ]"
        opener = ",\n      [\n        "
    yield "\n    ]"


def _print_states(header, states):
    print(header)
    for s in states:
        print(f"  {format_state(s)}")


def _cmd_step(graph, args):
    state = parse_state(args.state, graph)
    if args.steps < 1:
        raise ParseError("-n must be positive")
    # The states after the start, stepped one at a time as they are printed.
    steps = itertools.accumulate(range(args.steps), lambda s, _: step(graph, s), initial=state)
    states = itertools.islice(steps, 1, None)
    if args.json:
        result = {"start": state_json(state), "states": []}
        return _write_report("step", graph, result, chunks=_state_array(states))
    for s in states:
        print(format_state(s))
    return EXIT_OK


def _cmd_simulate(graph, args):
    from .dynamics import simulate

    state = parse_state(args.state, graph)
    trajectory = simulate(graph, state, max_steps=args.max_steps)
    if args.json:
        return _write_report("simulate", graph, trajectory_json(trajectory))
    _print_states("transient:", trajectory.transient)
    _print_states(f"cycle (period {trajectory.period}):", trajectory.cycle)
    return EXIT_OK


def _write_cycles(header, command, graph, result, walk, as_json):
    """Write `header` and the blocks of a `dynamics._cycle_codes` walk, or the report
    of `result` with them as its last key's array; no cycles keep its `[]`, exit 1."""
    code, text = EXIT_EMPTY, None
    if len(walk[-1]):
        from ._kernel import _cycle_text  # only past the refusals: it loads numpy
        code, text = EXIT_OK, _cycle_text(*walk, as_json)
    if as_json:
        return _write_report(command, graph, result, code, text)
    print(header)
    sys.stdout.writelines(text or ())
    return code


def _cmd_attractors(graph, args):
    from .dynamics import _cycle_codes

    walk = _cycle_codes(graph, state_limit=args.limit)
    result = {"count": len(walk[-1]), "attractors": []}
    return _write_cycles(f"{len(walk[-1])} attractors", "attractors", graph, result, walk,
                         args.json)


def _cmd_sts(graph, args):
    from .dynamics import build_sts

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
    from .dynamics import _cycle_codes
    from .phenotype import decide_phenotype

    phenotype = parse_phenotype(args.target)
    if args.mode == "oracle":
        walk = _cycle_codes(graph, args.limit, phenotype.assignment)
        result = {"mode": "oracle", "admissible": len(walk[-1]) > 0, "attractors": []}
        return _write_cycles(f"{len(walk[-1])} matching attractors", "phenotype-check", graph,
                             result, walk, args.json)
    decision = decide_phenotype(graph, phenotype, mode=args.mode)
    code = EXIT_OK if decision.admissible else EXIT_EMPTY
    if args.json:
        return _write_report("phenotype-check", graph, decision_json(decision), code)
    print("admissible" if decision.admissible else "inadmissible")
    for v in decision.violations:
        path = " -> ".join(v.activation_path)
        if v.inhibition_edge:
            x, tgt = v.inhibition_edge
            print(f"  rule ({v.rule}): active {v.source}: {path} then {x} -| {tgt} (active)")
        else:
            print(f"  rule ({v.rule}): active {v.source}: {path} reaches inactive {v.target}")
    return code


def _cmd_phenotype_witness(graph, args):
    from .phenotype import phenotype_witness

    phenotype = parse_phenotype(args.target)
    witness = phenotype_witness(graph, phenotype, completion=_COMPLETIONS[args.completion])
    code = EXIT_OK if witness.admissible else EXIT_EMPTY
    if args.json:
        return _write_report("phenotype-witness", graph, witness_json(witness), code)
    if not witness.admissible:
        print(f"inadmissible: marking conflict at {witness.marking.conflict}")
        return code
    marked = ", ".join(f"{k}={v}" for k, v in witness.marking.marked.items())
    print(f"marking: {marked if marked else '(none)'}")
    print(f"start: {format_state(witness.start)}")
    attractor = witness.attractor
    _print_states(f"witness attractor (period {attractor.period}):", attractor.states)
    return code


def _cmd_encode_bn(graph, args):
    from .boolenc import encode_network, to_boolnet

    text = to_boolnet(encode_network(graph))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_verify_bn(graph, args):
    from .boolenc import check_simulation_equivalence

    report = check_simulation_equivalence(
        graph, samples=args.samples, state_limit=args.limit, seed=args.seed
    )
    code = EXIT_OK if report.ok else EXIT_EMPTY
    if args.json:
        return _write_report("verify-bn", graph, equivalence_json(report), code)
    if report.ok:
        print(f"ok: {report.states_checked} states agree, no invalid codes")
        return code
    state, expected, got = report.counterexample
    print(f"mismatch after {report.states_checked} states")
    print(f"  state:    {format_state(state)}")
    print(f"  expected: {format_state(expected)}")
    print(f"  bits:     {''.join(str(b) for b in got)}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srg",
        description="Analyze ternary regulatory networks under the unanimous update rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, handler, help):
        p = parent.add_parser(name, help=help)
        p.add_argument(
            "network",
            help=f"network file path, or one of the bundled examples {', '.join(EXAMPLE_NETWORKS)}",
        )
        p.set_defaults(func=handler)
        return p

    def json_flag(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def limit_flag(p, note=""):
        p.add_argument(
            "--limit", type=int, default=DEFAULT_STATE_LIMIT,
            help="refuse state spaces larger than this many states" + note,
        )

    p = command(sub, "step", _cmd_step, "apply the synchronous update to a state")
    p.add_argument("state", help='state literal, "(-1,1,1)" or "A=-1,B=1,C=1"')
    p.add_argument("-n", "--steps", type=int, default=1, help="number of steps")
    json_flag(p)

    p = command(sub, "simulate", _cmd_simulate, "run until the trajectory cycles")
    p.add_argument("state", help='start state literal, "(-1,1,1)" or "A=-1,B=1,C=1"')
    p.add_argument("--max-steps", type=int, default=None,
                   help="fail if no state repeats within this many steps (default 3^n)")
    json_flag(p)

    p = command(sub, "attractors", _cmd_attractors, "enumerate every attractor exhaustively")
    limit_flag(p)
    json_flag(p)

    p = command(sub, "sts", _cmd_sts, "dump the full state-transition system")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of arrow lines")
    limit_flag(p)

    p = command(sub, "graph", _cmd_graph, "dump the regulatory graph")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a summary")

    p = sub.add_parser("phenotype", help="phenotype admissibility analyses")
    psub = p.add_subparsers(dest="subcommand", required=True)

    p = command(psub, "check", _cmd_phenotype_check,
                "decide whether a matching attractor can exist")
    p.add_argument("--target", required=True, help='phenotype, e.g. "FOXO3=-1,AKT=1"')
    p.add_argument(
        "--mode", choices=("paths", "literal", "oracle"), default="paths",
        help="paths: authoritative wiring test; literal: diagnostic weaker test; "
        "oracle: exhaustive enumeration",
    )
    limit_flag(p, "; --mode paths or literal ignores it")
    json_flag(p)

    p = command(psub, "witness", _cmd_phenotype_witness,
                "construct an attractor carrying the phenotype")
    p.add_argument("--target", required=True)
    p.add_argument(
        "--completion", choices=tuple(_COMPLETIONS), default="minus",
        help="value given to vertices the marking leaves free",
    )
    json_flag(p)

    p = command(sub, "encode-bn", _cmd_encode_bn, "export the two-bit Boolean network")
    p.add_argument("-o", "--output", help="write the rule file here instead of stdout")

    p = command(sub, "verify-bn", _cmd_verify_bn,
                "check the Boolean encoding against the ternary step")
    p.add_argument("--samples", type=int, default=None,
                   help="check this many random states instead of every clamp-consistent one")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the --samples draws; the exhaustive check ignores it")
    limit_flag(p, "; --samples ignores it")
    json_flag(p)

    return parser


def main(argv=None) -> int:
    """Run one `srg` command and return its exit code."""
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "limit", 1) < 1:  # every command with --limit, before it reads a file
            raise ValueError("--limit must be positive")
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
