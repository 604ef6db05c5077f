"""End-to-end benchmark of the `srg` command.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's seeded networks under .bench_work/, then times every
call of the workload as a separate `srg` child process: a closed loop with
one client, one child at a time.  Before each call, and once after the
last, the launcher times the workload's reference task (workloads.REFERENCE)
in a child too; the end-to-end times are reported in units of the
reference's wall time around each call, which cancels the speed of the
shared host at the time.  Passes over the call list repeat while another
pass fits in S seconds.  The outputs of the first pass are checked
by bench/check.py in a separate process after the timed region, and every
later pass must reproduce them byte for byte.

This process is the launcher and stays lean: on Linux a child's peak RSS
includes the RSS its parent had when it spawned the child, so nothing here
imports numpy or srg, and child stdout goes to files that are only hashed.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 untraced and traced passes alternate, the traced ones replaying
each call through bench/trace.py, and the last line holds the per-layer
metrics.  The lines before it record the environment and the inputs.
See bench/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRG = "import sys; from srg.cli import main; sys.exit(main())"
SETUP_REPEATS = 7
TAIL_SHARE = 0.9
# A call is scaled by the median of the REF_SPAN references timed before it
# and the REF_SPAN timed after it.
REF_SPAN = 2


class Launcher:
    """Spawns one child at a time and reads its peak RSS with os.wait4."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.rss_at_spawn_mb = 0.0

    def run(self, argv, stdout_path):
        """Run `argv` with stdout to a file; return (wall s, peak RSS MB, exit code, epochs)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.rss_at_spawn_mb = max(self.rss_at_spawn_mb, own)
        with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
            spawned = time.time()
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            reaped = time.time()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode, (spawned, reaped)


def digest(path):
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


class Run:
    """One benchmark run: set-up, timed passes, checks and metrics."""

    def __init__(self, workload, seed, toy=False):
        self.workload = workload
        self.seed = seed
        self.toy = toy
        self.work = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}")
        self.out = os.path.join(self.work, "out")
        self.launcher = Launcher()
        self.calls = []
        self.first = {}
        self.samples = {}
        self.refs = []
        self.instances = []
        self.setup_s = []
        self.traced = []

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Generate the networks and make one untimed warm-up call, SETUP_REPEATS
        times; the inputs must come out byte-identical every time.  Each
        repetition is followed by one run of the start-up reference, which
        scales its time to the host speed where that takes STARTUP_S."""
        inputs = None
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.work, ignore_errors=True)
            os.makedirs(self.out)
            started = time.perf_counter()
            self.calls = workloads.build(self.workload, self.seed, self.work, self.toy)
            warm = self.calls[0]
            _, _, code, _ = self.launcher.run(
                [sys.executable, "-c", SRG, "graph", warm.net.path],
                os.path.join(self.out, "warm-up"))
            took = time.perf_counter() - started
            self.setup_s.append((took, self.reference(workloads.STARTUP)))
            if code != 0:
                with open(os.path.join(self.out, "warm-up.err"), encoding="utf-8") as err:
                    raise SystemExit(f"warm-up call failed with exit code {code}:\n{err.read()}")
            files = sorted(f for f in os.listdir(self.work) if f.endswith(".srg"))
            now = {f: digest(os.path.join(self.work, f)) for f in files}
            if inputs is not None and now != inputs:
                raise SystemExit("the same seed generated different inputs")
            inputs = now

    # -- timed passes -------------------------------------------------------

    def record(self, call, code, path):
        """Keep the first output of each call; later ones must repeat it."""
        if call.name not in self.first:
            self.first[call.name] = (code, digest(path), os.path.getsize(path))
            os.replace(path, os.path.join(self.out, call.name + ".first"))
            self.instances.append((call.name, True))
        else:
            self.instances.append((call.name, (code, digest(path)) == self.first[call.name][:2]))

    def reference(self, code):
        """Run a reference task once; return its wall time."""
        path = os.path.join(self.out, "reference")
        took, _, exit_code, _ = self.launcher.run([sys.executable, "-c", code], path)
        if exit_code != 0:
            with open(path + ".err", encoding="utf-8") as err:
                raise SystemExit(f"reference task failed with exit code {exit_code}:\n{err.read()}")
        return took

    def untraced_pass(self):
        for call in self.calls:
            self.refs.append(self.reference(workloads.REFERENCE[self.workload]))
            path = os.path.join(self.out, call.name)
            took, rss, code, _ = self.launcher.run([sys.executable, "-c", SRG, *call.argv], path)
            self.samples.setdefault(call.name, []).append((took, rss, len(self.refs)))
            self.record(call, code, path)

    def traced_pass(self):
        """Replay every call under bench/trace.py; keep the summed wall time
        and the per-call traces."""
        wall = 0.0
        traces = []
        for call in self.calls:
            path = os.path.join(self.out, call.name)
            argv = [sys.executable, os.path.join(BENCH, "trace.py"), path + ".spans", "--",
                    *call.argv]
            took, _, code, (spawned, reaped) = self.launcher.run(argv, path)
            wall += took
            if not os.path.exists(path + ".spans"):
                with open(path + ".err", encoding="utf-8") as err:
                    raise SystemExit(f"traced call {call.name} wrote no spans:\n{err.read()}")
            with open(path + ".spans", encoding="utf-8") as handle:
                trace, last_epoch = handle.read().split("\n")[:2]
            trace = json.loads(trace)
            trace["proc_s"] = (trace["first_epoch"] - spawned) + (reaped - float(last_epoch))
            trace["stdout_bytes"] = os.path.getsize(path)
            traces.append(trace)
            self.record(call, code, path)
        self.traced.append((wall, traces))

    def measure(self, seconds, trace):
        started = time.perf_counter()
        passes = []
        while True:
            begun = time.perf_counter()
            self.untraced_pass()
            if trace:
                self.traced_pass()
            passes.append(time.perf_counter() - begun)
            if time.perf_counter() - started + statistics.median(passes) > seconds:
                self.refs.append(self.reference(workloads.REFERENCE[self.workload]))
                return len(passes)

    # -- checks -------------------------------------------------------------

    def check(self):
        listing = []
        for call in self.calls:
            entry = call.to_json()
            entry["exit"] = self.first[call.name][0]
            entry["stdout"] = os.path.join(self.out, call.name + ".first")
            listing.append(entry)
        calls_json = os.path.join(self.work, "calls.json")
        with open(calls_json, "w", encoding="utf-8") as handle:
            json.dump(listing, handle)
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "check.py"), calls_json],
            capture_output=True, text=True, cwd=ROOT, env=self.launcher.env,
            check=False)
        if proc.returncode != 0:
            raise SystemExit(f"output checker failed:\n{proc.stderr}")
        return json.loads(proc.stdout)

    # -- metrics ------------------------------------------------------------

    def untraced_wall(self):
        """One pass over the calls in seconds, from each call's median."""
        return sum(statistics.median(t for t, _, _ in s) for s in self.samples.values())

    def scaled(self, took, after):
        """`took` in reference wall times; `after` indexes the first
        reference timed after the call."""
        return took / statistics.median(self.refs[max(0, after - REF_SPAN):after + REF_SPAN])

    def end_to_end(self):
        scaled = {name: statistics.median(self.scaled(t, after) for t, _, after in s)
                  for name, s in self.samples.items()}
        # Percentiles over the calls of one pass, each at its median over the
        # run's passes, so that they do not move with the number of passes.
        # Nearest-rank p90, because `kernels` has only four calls, so no
        # percentile has ten above it.
        latencies = sorted(scaled.values())
        wall = sum(latencies)
        rank = math.ceil(TAIL_SHARE * len(latencies)) - 1
        states = sum(call.states for call in self.calls)
        metrics = {
            "wall_refs": (wall, "ref"),
            "states_per_ref": (states / wall, "states/ref"),
            "peak_rss_mb": (max(r for s in self.samples.values() for _, r, _ in s), "MB"),
            "call_p50_refs": (statistics.median(latencies), "ref"),
            "call_tail_refs": (latencies[rank], "ref"),
            "setup_s": (statistics.median(t / ref for t, ref in self.setup_s)
                        * workloads.STARTUP_S, "s"),
        }
        seconds = sorted(statistics.median(t for t, _, _ in s) for s in self.samples.values())
        notes = {
            "states_per_pass": states,
            "calls_timed": sum(len(s) for s in self.samples.values()),
            "call_tail_percentile": round(100 * (rank + 1) / len(latencies), 1),
            "call_tail_calls_above": len(latencies) - 1 - rank,
            "call_median_refs": scaled,
            "reference_s": statistics.median(self.refs),
            "setup_unscaled_s": statistics.median(t for t, _ in self.setup_s),
            "references_timed": len(self.refs),
            "wall_s": sum(seconds),
            "call_p50_s": statistics.median(seconds),
            "call_tail_s": seconds[rank],
        }
        return metrics, notes

    def per_layer(self):
        traced = [layer_metrics(traces) for _, traces in self.traced]
        metrics = {name: (statistics.median(t[name] for t in traced), unit)
                   for name, unit in LAYER_UNITS.items()}
        untraced = self.untraced_wall()
        overhead = statistics.median(w for w, _ in self.traced) - untraced
        self_sum = statistics.median(t["_self_sum"] for t in traced)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.accounted_share"] = ((self_sum - overhead) / untraced, "ratio")
        return metrics


# name -> unit of every per-layer metric derived from the spans
LAYER_UNITS = {
    "dynamics.enumerate_s": "s",
    "dynamics.enumerate_rss_mb": "MB",
    "dynamics.states": "count",
    "dynamics.attractors": "count",
    "dynamics.attractor_states": "count",
    "phenotype.oracle_self_s": "s",
    "dynamics.build_sts_s": "s",
    "dynamics.build_sts_rss_mb": "MB",
    "netio.render_s": "s",
    "netio.render_bytes": "bytes",
    "cli.stdout_bytes": "bytes",
    "boolenc.check_s": "s",
    "boolenc.check_self_s": "s",
    "boolenc.bn_step_s": "s",
    "boolenc.bn_step_calls": "count",
    "boolenc.encode_state_s": "s",
    "boolenc.states_checked": "count",
    "core.step_s": "s",
    "core.step_calls": "count",
    "dynamics.enumerate_states_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "netio.parse_s": "s",
    "dynamics.simulate_s": "s",
    "dynamics.simulate_calls": "count",
    "phenotype.decide_s": "s",
    "phenotype.witness_s": "s",
    "proc.self_s": "s",
}

NETIO_PARSE = {"srg.netio.parse_network", "srg.netio.parse_phenotype", "srg.netio.parse_state",
               "srg.netio.example_network_text"}

# metric -> ("incl" | "self", span name); inclusive time counts only the
# outermost span of a name, so recursion is not counted twice
SPAN_TIMES = {
    "dynamics.enumerate_s": ("incl", "srg.dynamics.enumerate_attractors"),
    "phenotype.oracle_self_s": ("self", "srg.phenotype.attractors_with_phenotype"),
    "dynamics.build_sts_s": ("incl", "srg.dynamics.build_sts"),
    "boolenc.check_s": ("incl", "srg.boolenc.check_simulation_equivalence"),
    "boolenc.check_self_s": ("self", "srg.boolenc.check_simulation_equivalence"),
    "dynamics.enumerate_states_s": ("incl", "srg.dynamics.enumerate_states"),
    "cli.import_s": ("incl", "import srg.cli"),
    "cli.main_s": ("incl", "srg.cli.main"),
    "cli.self_s": ("self", "srg.cli.main"),
    "dynamics.simulate_s": ("incl", "srg.dynamics.simulate"),
    "phenotype.decide_s": ("incl", "srg.phenotype.decide_phenotype"),
    "phenotype.witness_s": ("incl", "srg.phenotype.phenotype_witness"),
}

HOT_TIMES = {
    "boolenc.bn_step": "srg.boolenc.bn_step",
    "boolenc.encode_state": "srg.boolenc.encode_state",
    "core.step": "srg.core.step",
}


def layer_metrics(traces):
    """Per-layer totals of one traced pass (a list of per-call traces)."""
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    self_sum = 0.0
    for trace in traces:
        spans = trace["spans"]
        for name, parent, start, end, child, extra in spans:
            own = end - start - child
            self_sum += own
            outer = True
            while parent is not None:
                outer = outer and spans[parent][0] != name
                parent = spans[parent][1]
            for metric, (kind, span) in SPAN_TIMES.items():
                if name == span and (kind == "self" or outer):
                    m[metric] += own if kind == "self" else end - start
            if name.startswith("srg.netio."):
                m["netio.parse_s" if name in NETIO_PARSE else "netio.render_s"] += end - start
            if name == "srg.dynamics.simulate":
                m["dynamics.simulate_calls"] += 1
            extra = extra or {}
            if name == "srg.dynamics.enumerate_attractors" and extra:
                for key in ("states", "attractors", "attractor_states"):
                    m["dynamics." + key] += extra[key]
                m["dynamics.enumerate_rss_mb"] = max(m["dynamics.enumerate_rss_mb"], extra["rss_mb"])
            if name == "srg.dynamics.build_sts":
                m["dynamics.build_sts_rss_mb"] = max(m["dynamics.build_sts_rss_mb"], extra["rss_mb"])
            m["netio.render_bytes"] += extra.get("bytes", 0)
            m["boolenc.states_checked"] += extra.get("states_checked", 0)
        for name, (_, total) in trace["hot"].items():
            self_sum += total
            if name.startswith("srg.netio."):
                m["netio.render_s"] += total
        for metric, name in HOT_TIMES.items():
            count, total = trace["hot"].get(name, (0, 0.0))
            m[metric + "_s"] += total
            if metric + "_calls" in m:
                m[metric + "_calls"] += count
        m["proc.self_s"] += trace["proc_s"]
        self_sum += trace["proc_s"]
        m["cli.stdout_bytes"] += trace["stdout_bytes"]
    m["_self_sum"] = self_sum
    return m


def git_commit(root):
    """HEAD's commit, read from root/.git alone; "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def execute(workload, seed, seconds, trace, toy=False):
    """Run one workload; return (record, result) as printed by main()."""
    if not os.path.isfile(os.path.join(ROOT, "src", "srg", "cli.py")):
        raise SystemExit(f"no srg sources under {os.path.join(ROOT, 'src')}")
    run = Run(workload, seed, toy)
    run.setup()
    passes = run.measure(seconds, trace)
    checked = run.check()
    failed_calls = {f["call"] for f in checked["failures"]}
    failed = sum(1 for name, repeated in run.instances if name in failed_calls or not repeated)
    metrics, notes = run.end_to_end()
    if trace:
        metrics = run.per_layer()
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "passes": passes,
        "environment": {
            "nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": checked["numpy"], "commit": git_commit(ROOT),
            "launcher_rss_at_spawn_mb": round(run.launcher.rss_at_spawn_mb, 1),
        },
        "inputs": checked["nets"],
        "output_bytes_per_state": {
            call.name: run.first[call.name][2] / call.states for call in run.calls if call.states
        },
        **notes,
        "failures": checked["failures"],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(run.instances),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    shutil.rmtree(run.work, ignore_errors=True)
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record, result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print("record " + json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
