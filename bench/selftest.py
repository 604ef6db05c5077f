"""Self-test of the benchmark at toy sizes; takes about two minutes.

Usage: python3 bench/selftest.py

Checks that every metric of BENCHMARK.json is reported with its unit, that
a doctored output is caught as a failed call, that a lean-launched
`srg graph fig1a` peaks under 40 MB, and that another seed changes the
generated graphs but not the set of metrics.  Exits 1 on any failure.
Imports neither numpy nor srg, like the launcher it tests.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

LEAN_RSS_MB = 40


def metric_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_metric_names_and_units():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace, seeds in ((False, (1, 2)), (True, (1,))):
            for seed in seeds:
                _, result = run.execute(workload, seed, 0.1, trace, toy=True)
                assert result["correct"] and result["failed"] == 0, (workload, result)
                assert result["attempted"] >= 1
                assert metric_units(result) == expected[trace], (workload, trace, seed, result)


def test_seed_changes_graphs():
    texts = {}
    for seed in (1, 2):
        work = os.path.join(run.ROOT, ".bench_work", f"selftest-seed{seed}")
        texts[seed] = {}
        for workload in workloads.WORKLOADS:
            for call in workloads.build(workload, seed, work, toy=True):
                if os.path.exists(call.net.path):
                    with open(call.net.path, encoding="utf-8") as handle:
                        texts[seed][(workload, os.path.basename(call.net.path))] = handle.read()
        run.shutil.rmtree(work)
    assert texts[1].keys() == texts[2].keys()
    changed = [key for key in texts[1] if texts[1][key] != texts[2][key]]
    assert len(changed) >= len(texts[1]) // 2, f"only {changed} changed with the seed"


def test_doctored_output_is_caught():
    bench = run.Run("kernels", 7, toy=True)
    bench.setup()
    bench.untraced_pass()
    assert bench.check()["failures"] == []
    path = os.path.join(bench.out, "attractors-unclamped.first")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    state = report["result"]["attractors"][0]["states"][0]
    state[-1] = 0 if state[-1] != 0 else 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report, indent=2) + "\n")
    failures = bench.check()["failures"]
    run.shutil.rmtree(bench.work)
    assert [f["call"] for f in failures] == ["attractors-unclamped"], failures


def test_lean_launch_rss():
    work = os.path.join(run.ROOT, ".bench_work", "selftest-lean")
    os.makedirs(work, exist_ok=True)
    launcher = run.Launcher()
    _, rss, code, _ = launcher.run([sys.executable, "-c", run.SRG, "graph", "fig1a"],
                                   os.path.join(work, "graph"))
    run.shutil.rmtree(work)
    assert code == 0
    assert rss < LEAN_RSS_MB, f"srg graph fig1a peaked at {rss:.1f} MB"
    return rss


def main():
    tests = [test_lean_launch_rss, test_doctored_output_is_caught, test_seed_changes_graphs,
             test_metric_names_and_units]
    failed = 0
    for test in tests:
        try:
            note = test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}" + (f" ({note:.1f} MB)" if note else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
