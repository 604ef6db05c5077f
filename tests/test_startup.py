"""Start-up: numpy loads only in the calls that walk the state space.

`srg._kernel` is the one module that imports numpy.  `enumerate_attractors`,
`check_simulation_equivalence` and the successor blocks of a transition
system import it on first use, after `dynamics._free_strides` has decided
the space (`build_sts` alone lays the space out and imports nothing), so
`sts` loads numpy only as it renders; a step, a trajectory, a
phenotype decision, a witness, the graph and its encoding start without
numpy, and so does a space that `_free_strides` refuses, over `--limit` or
past 3^32 states; `test_cli.py` checks the refusals' output.  Each check
runs in a fresh interpreter, since an imported module stays in
`sys.modules`.
"""

import pytest

from helpers import run_python, run_srg_fresh


@pytest.mark.parametrize("statement", ["import srg.cli", "import srg"])
def test_import_loads_no_numpy(statement):
    proc = run_python("-X", "importtime", "-c", statement)
    assert proc.returncode == 0, proc.stderr
    # Each line reads "import time: self [us] | cumulative | imported package".
    imported = [line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "srg.dynamics" in imported
    assert [name for name in imported if name.partition(".")[0] == "numpy"] == []


@pytest.mark.parametrize("argv, code", [
    (("step", "fig1a", "(-1,1,1)", "-n", "3"), 0),
    (("simulate", "mapk", "(-1,-1,-1,-1,1,1,-1)", "--json"), 0),
    (("graph", "mapk"), 0),
    (("graph", "fig1a", "--dot"), 0),
    (("encode-bn", "mapk"), 0),
    (("phenotype", "check", "fig1a", "--target", "A=1,B=-1"), 1),
    (("phenotype", "check", "fig1b", "--target", "A=1,B=1", "--mode", "literal"), 0),
    (("phenotype", "witness", "fig1b", "--target", "A=1", "--json"), 0),
    (("phenotype", "check", "mapk", "--target", "AKT=1"), 0),
    (("phenotype", "witness", "mapk", "--target", "AKT=1"), 0),
], ids=["step", "simulate", "graph", "graph-dot", "encode-bn", "paths", "literal", "witness",
        "paths-clamped", "witness-clamped"])
def test_calls_that_never_enumerate_load_no_numpy(argv, code):
    got, _, _, numpy_loaded = run_srg_fresh(*argv)
    assert (got, numpy_loaded) == (code, False)


@pytest.mark.parametrize("command", ["attractors", "sts", "verify-bn"])
def test_space_past_any_array_is_refused_before_numpy_loads(tmp_path, command):
    # 3^40 states: within --limit 3^45, past the 3^32 that any array of codes holds.
    names = [f"v{i}" for i in range(40)]
    path = tmp_path / "chain40.srg"
    path.write_text("".join(f"{u} -> {v}\n" for u, v in zip(names, names[1:])))
    got = run_srg_fresh(command, str(path), "--limit", str(3 ** 45))
    assert got == (3, "", "srg: out of memory; try a smaller network or a lower --limit\n", False)


@pytest.mark.parametrize("argv", [
    ("attractors", "fig1a"),
    ("sts", "fig1b", "--dot"),
    ("verify-bn", "fig1b"),
    ("verify-bn", "mapk", "--samples", "200"),
    ("phenotype", "check", "mapk", "--target", "FOXO3=-1,AKT=1", "--mode", "oracle"),
], ids=["attractors", "sts", "verify-bn", "verify-bn-sampled", "oracle"])
def test_enumerating_calls_load_numpy(argv):
    code, _, _, numpy_loaded = run_srg_fresh(*argv)
    assert (code, numpy_loaded) == (0, True)


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
