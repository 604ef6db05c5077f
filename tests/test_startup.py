"""Start-up: each call loads only the modules it runs, and numpy only to walk
the state space.

`import srg` loads no submodule: the package resolves each public name on
first access.  `import srg.cli` loads `core`, `errors` and `netio`, and each
command imports its analysis module as it runs: a step or the graph loads
nothing more, a trajectory adds `dynamics`, a phenotype decision or witness
adds `phenotype` and the `dynamics` it imports, and the encoding adds
`boolenc` alone: `dynamics` loads only to lay out the exhaustive Boolean
cross-check's space.  The exact sets are checked below, from the loaded
modules that `helpers.run_srg_fresh` reports.

`srg._kernel` is the one module that imports numpy.  `enumerate_attractors`,
`check_simulation_equivalence` and the successor blocks of a transition
system import it on first use, after `dynamics._free_strides` has decided
the space (`build_sts` alone lays the space out and imports nothing), so
`sts` loads numpy only as it renders; a step, a trajectory, a
phenotype decision, a witness, the graph and its encoding start without
numpy, and so does a space that `_free_strides` refuses, over `--limit` or
past 3^32 states, and an oracle whose target is clamped the other way,
in the command and the library; `test_cli.py` checks the refusals' output.

No call loads `dataclasses`, whose import pulls in `inspect`, `ast`, `dis`
and `tokenize`: the result records are `typing.NamedTuple`s, and `srg.core`
imports `typing` already.  A call loads `logging` only to issue the
literal-versus-paths warning, and `json` only to render a `--json` report,
so the text calls start without it.  Each check runs in a fresh interpreter,
since an imported module stays in `sys.modules`.
"""

import pytest

from helpers import LAZY_STDLIB, run_python, run_srg_fresh

CLI = {"srg", "srg.cli", "srg.core", "srg.errors", "srg.netio"}
DYNAMICS = CLI | {"srg.dynamics"}
PHENOTYPE = DYNAMICS | {"srg.phenotype"}
BOOLENC = CLI | {"srg.boolenc"}
KERNEL = DYNAMICS | {"srg._kernel"}
LOADED_BY = {"import srg": {"srg"}, "import srg.cli": CLI}
JSON = {"json"}  # loaded only to render a --json report


@pytest.mark.parametrize("statement", ["import srg.cli", "import srg"])
def test_import_loads_no_numpy(statement):
    proc = run_python("-X", "importtime", "-c", statement)
    assert proc.returncode == 0, proc.stderr
    # Each line reads "import time: self [us] | cumulative | imported package".
    imported = [line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert {name for name in imported if name.partition(".")[0] == "srg"} == LOADED_BY[statement]
    assert [name for name in imported if name.partition(".")[0] == "numpy"] == []


@pytest.mark.parametrize("argv, code, modules", [
    (("step", "fig1a", "(-1,1,1)", "-n", "3"), 0, CLI),
    (("simulate", "mapk", "(-1,-1,-1,-1,1,1,-1)", "--json"), 0, DYNAMICS | JSON),
    (("graph", "mapk"), 0, CLI),
    (("graph", "fig1a", "--dot"), 0, CLI),
    (("encode-bn", "mapk"), 0, BOOLENC),
    (("phenotype", "check", "fig1a", "--target", "A=1,B=-1"), 1, PHENOTYPE),
    (("phenotype", "check", "fig1b", "--target", "A=1,B=1", "--mode", "literal"), 0, PHENOTYPE),
    (("phenotype", "witness", "fig1b", "--target", "A=1", "--json"), 0, PHENOTYPE | JSON),
    (("phenotype", "check", "mapk", "--target", "AKT=1"), 0, PHENOTYPE),
    (("phenotype", "witness", "mapk", "--target", "AKT=1"), 0, PHENOTYPE),
    # a target clamped the other way: the oracle answers with no walk
    (("phenotype", "check", "mapk", "--target", "RTK=1", "--mode", "oracle", "--json"), 1,
     PHENOTYPE | JSON),
], ids=["step", "simulate", "graph", "graph-dot", "encode-bn", "paths", "literal", "witness",
        "paths-clamped", "witness-clamped", "oracle-clamp-conflict"])
def test_calls_that_never_enumerate_load_no_numpy(argv, code, modules):
    got, _, _, numpy_loaded, loaded = run_srg_fresh(*argv)
    assert (got, numpy_loaded, loaded) == (code, False, modules)


@pytest.mark.parametrize("command", ["attractors", "sts", "verify-bn"])
def test_space_past_any_array_is_refused_before_numpy_loads(tmp_path, command):
    # 3^40 states: within --limit 3^45, past the 3^32 that any array of codes holds.
    names = [f"v{i}" for i in range(40)]
    path = tmp_path / "chain40.srg"
    path.write_text("".join(f"{u} -> {v}\n" for u, v in zip(names, names[1:])))
    *got, loaded = run_srg_fresh(command, str(path), "--limit", str(3 ** 45))
    assert got == [3, "", "srg: out of memory; try a smaller network or a lower --limit\n", False]
    assert loaded & LAZY_STDLIB == set()


@pytest.mark.parametrize("argv, modules", [
    (("attractors", "fig1a"), KERNEL),
    (("sts", "fig1b", "--dot"), KERNEL),
    (("verify-bn", "fig1b"), KERNEL | BOOLENC),
    (("verify-bn", "mapk", "--samples", "200"), BOOLENC | {"srg._kernel"}),
    (("phenotype", "check", "mapk", "--target", "FOXO3=-1,AKT=1", "--mode", "oracle"),
     KERNEL | PHENOTYPE),
], ids=["attractors", "sts", "verify-bn", "verify-bn-sampled", "oracle"])
def test_enumerating_calls_load_numpy(argv, modules):
    code, _, _, numpy_loaded, loaded = run_srg_fresh(*argv)
    assert (code, numpy_loaded, loaded) == (0, True, modules)


@pytest.mark.parametrize("mode, code, lazy", [
    ("literal", 0, {"logging"}), ("paths", 1, set()), ("oracle", 1, set()),
], ids=["literal", "paths", "oracle"])
def test_logging_loads_only_to_warn(tmp_path, mode, code, lazy):
    # w activates u and u inhibits v: w=1,v=1 passes the literal check only,
    # and the literal decision warns that the path-based one fails.
    path = tmp_path / "divergence.srg"
    path.write_text("w -> u\nu -| v\n")
    argv = ("phenotype", "check", str(path), "--target", "w=1,v=1", "--mode", mode)
    got, _, err, _, loaded = run_srg_fresh(*argv)
    assert (got, "path-based" in err, loaded & LAZY_STDLIB) == (code, bool(lazy), lazy)


def test_transition_system_loads_numpy_only_when_its_blocks_are_read():
    proc = run_python("-c", "\n".join([
        "import sys",
        "from srg import build_sts, load_example",
        "sts = build_sts(load_example('fig1b'))",
        "print(len(sts), 'numpy' in sys.modules)",
        "codes = [b.tolist() for b in sts.successor_blocks()]",
        "print(len(codes[0]), 'numpy' in sys.modules)",
    ]))
    assert (proc.returncode, proc.stdout) == (0, "27 False\n27 True\n"), proc.stderr


def test_oracle_with_a_target_clamped_the_other_way_loads_no_numpy():
    proc = run_python("-c", "\n".join([
        "import sys",
        "from srg import Phenotype, attractors_with_phenotype, load_example",
        "found = attractors_with_phenotype(load_example('mapk'), Phenotype({'RTK': 1}))",
        "print(found, 'numpy' in sys.modules)",
    ]))
    assert (proc.returncode, proc.stdout) == (0, "[] False\n"), proc.stderr
