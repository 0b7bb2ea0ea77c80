#!/usr/bin/env python3
"""End-to-end benchmark of the verifier (see bench/e2e/README.md).

Run from the root of a checkout:

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                           [--json FILE] [--trace-file FILE]
  python3 bench/e2e/run.py --smoke
  python3 bench/e2e/run.py compare PARENT.json ... -- CHANGE.json ...

A run builds bench/e2e/main.exe with dune, then starts one fresh
process per rep until --seconds have passed (at least three reps) and
prints every metric with its unit on stderr and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 1 instead runs the traced pass and reports the per-layer
metrics.  The exit code is 0 unless a verdict was wrong or the run
could not complete.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "bench", "e2e", "main.exe")
TMP_ROOT = ".bench_tmp"
WORKLOADS = ["paper_verify", "fuzz_verify", "explore_large", "daemon_mix"]
NEEDS_REFERENCE = ("fuzz_verify", "daemon_mix")
MIN_REPS = 3
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def child_env():
    # The explorer reads PSOPT_J at start-up; the benchmark measures
    # the default single-domain engine.
    env = {k: v for k, v in os.environ.items() if k not in ("PSOPT_J", "OCAMLRUNPARAM")}
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    if not os.path.exists("dune-project"):
        raise BenchError("no dune-project here: run from the root of a checkout")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./bench/e2e/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, env=child_env(), timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build: {e}")
    if r.returncode != 0:
        raise BenchError("build failed")


def stop_group(pgid):
    """Kill a child's whole process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def child(args, stdin_text=""):
    """Run main.exe in a fresh process group; return its stdout."""
    p = subprocess.Popen([EXE] + args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         env=child_env(), text=True, start_new_session=True)
    try:
        out, _ = p.communicate(stdin_text, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.wait()
        raise BenchError(f"{' '.join(args)}: timed out")
    finally:
        stop_group(p.pid)
    if p.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit code {p.returncode}")
    return out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def percentile(values, p):
    """Linearly interpolated percentile, p in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * p) - 1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# --------------------------------------------------------------------------
# One run


def reference(workload, seed, smoke):
    if workload not in NEEDS_REFERENCE:
        return "", 0
    out = child(["reference", workload, str(seed)] + (["--smoke"] if smoke else []))
    # A registered pass refuted past ww-RF(source) is wrong in the
    # reference run too.
    wrong = sum(1 for l in out.splitlines() if l.endswith(" F"))
    return out, wrong


def operations(reps):
    """Each operation's latency: the median over its repeats in the run.
    paper_verify and explore_large run the same named items in every
    rep, so a burst of host noise during one rep is voted out; fuzz
    cases and daemon requests never repeat."""
    repeats = {}
    for i, r in enumerate(reps):
        keys = r.get("keys") or [f"{i}/{j}" for j in range(len(r["latency_s"]))]
        for k, x in zip(keys, r["latency_s"]):
            repeats.setdefault(k, []).append(x)
    return [statistics.median(v) for v in repeats.values()]


def rep_metrics(reps):
    """End-to-end metrics of a list of reps, as {name: value}."""
    ops = operations(reps)
    attempted = sum(r["attempted"] for r in reps)
    succeeded = 1 - sum(r["failed"] for r in reps) / attempted
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "throughput_per_s": succeeded * len(ops) / sum(ops),
        "latency_p50_ms": 1e3 * percentile(ops, 0.50),
        "latency_p90_ms": 1e3 * percentile(ops, 0.90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "decided_ratio": sum(r["decided"] for r in reps) / attempted,
    }


def run_reps(workload, seed, seconds, tmp, refs, smoke):
    extra = ["--tmp", tmp] + (["--smoke"] if smoke else [])
    reps = []
    start = time.monotonic()
    # Reps run until the next one would end past --seconds.
    while len(reps) < (1 if smoke else MIN_REPS) or \
            (time.monotonic() - start) * (len(reps) + 1) / len(reps) <= seconds:
        spawned = time.time()
        rep = last_json(child(["rep", workload, str(seed), str(len(reps))] + extra, refs))
        # Set-up is everything a user waits for before the first
        # operation: process start, input generation and parsing, and
        # for daemon_mix the daemon's start and prewarm.
        rep["setup_s"] = rep["ready_at"] - spawned
        reps.append(rep)
    return reps


def result_line(bench, section, values, attempted, failed, wrong):
    metrics = {}
    for m in bench[section]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(args, smoke=False):
    bench = load_benchmark()
    tmp = os.path.join(TMP_ROOT, str(os.getpid()))
    os.makedirs(tmp)
    try:
        refs, ref_wrong = reference(args.workload, args.seed, smoke)
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "nproc": os.cpu_count(), "git_rev": git_rev()}
        if args.trace:
            extra = ["--tmp", tmp] + (["--smoke"] if smoke else [])
            if args.trace_file:
                extra += ["--trace-file", args.trace_file]
            out = last_json(child(["traced", args.workload, str(args.seed)] + extra, refs))
            values = out["metrics"]
            detail.update(out["detail"])
            attempted, failed = out["attempted"], out["failed"]
            wrong = out["wrong"] + ref_wrong
            line = result_line(bench, "per_layer", values, attempted, failed, wrong)
        else:
            reps = run_reps(args.workload, args.seed, args.seconds, tmp, refs, smoke)
            values = rep_metrics(reps)
            attempted = sum(r["attempted"] for r in reps)
            failed = sum(r["failed"] for r in reps)
            wrong = sum(r["wrong"] for r in reps) + ref_wrong
            line = result_line(bench, "end_to_end", values, attempted, failed, wrong)
            per_rep = [rep_metrics([r]) for r in reps]
            detail["reps"] = len(reps)
            detail["samples_per_rep"] = [len(r["latency_s"]) for r in reps]
            detail["quartiles_over_reps"] = {
                k: quartiles([m[k] for m in per_rep]) for k in values}
            detail["config"] = reps[0]["config"]
            match = re.search(r"\bj=(\d+)", reps[0]["config"])
            detail["domains"] = int(match.group(1)) if match else None
        detail["wrong"] = wrong
        detail["result"] = line
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    for name, m in line["metrics"].items():
        print(f"{args.workload:14} {name:26} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload:14} attempted={attempted} failed={failed} wrong={wrong}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(detail, f, indent=1)
    return line, detail


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        return r.stdout.strip() or None
    except OSError:
        return None


# --------------------------------------------------------------------------
# Smoke: every workload at tiny size, with its oracles, the result
# schema and the trace file checked.


def smoke():
    bench = load_benchmark()
    problems = []
    os.makedirs(TMP_ROOT, exist_ok=True)
    for w in WORKLOADS:
        for trace in (0, 1):
            trace_file = os.path.join(TMP_ROOT, f"smoke-{w}.trace") if trace else None
            a = argparse.Namespace(workload=w, seed=1, seconds=0, trace=trace, json=None,
                                   trace_file=trace_file)
            line, detail = run(a, smoke=True)
            section = "per_layer" if trace else "end_to_end"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w}: result keys {sorted(line)}")
            if set(line["metrics"]) != {m["name"] for m in bench[section]}:
                problems.append(f"{w}: {section} metrics differ from BENCHMARK.json")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{w} trace={trace}: {line['attempted']} attempted, "
                                f"{line['failed']} failed, correct={line['correct']}")
            if trace and w in ("paper_verify", "fuzz_verify") and detail["attribution_error"] > 0.02:
                problems.append(f"{w}: layer times miss the traced wall time by "
                                f"{detail['attribution_error']:.1%}")
            if trace_file:
                os.remove(trace_file)
    try:
        os.rmdir(TMP_ROOT)
    except OSError:
        pass
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


# --------------------------------------------------------------------------
# compare: the choosing-metrics section 8 rule over >= 10 pairs


def compare(argv):
    if "--" not in argv:
        raise BenchError("usage: run.py compare PARENT.json ... -- CHANGE.json ...")
    cut = argv.index("--")
    parent, change = argv[:cut], argv[cut + 1:]
    bench = load_benchmark()
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    def load(paths):
        runs = {}
        for p in paths:
            with open(p) as f:
                d = json.load(f)
            runs.setdefault(d["workload"], []).append(d["result"])
        return runs

    p_runs, c_runs = load(parent), load(change)
    print(f"{'workload':14} {'metric':26} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'wins':>5}  label")
    for w in sorted(p_runs):
        ps, cs = p_runs[w], c_runs.get(w, [])
        if len(ps) < 10 or len(ps) != len(cs):
            raise BenchError(f"{w}: need >= 10 parent/change pairs, got {len(ps)}/{len(cs)}")
        # A gain does not count when more operations fail than at the
        # parent.
        more_failures = sum(r["failed"] for r in cs) > sum(r["failed"] for r in ps)
        for name in ps[0]["metrics"]:
            m = spec.get(name, {"better": "lower"})
            lower = m["better"] == "lower"
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            pm, cm = statistics.median(pv), statistics.median(cv)
            (p1, p3), (c1, c3) = quartiles(pv), quartiles(cv)
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            wins = sum(1 for a, b in zip(pv, cv) if better(b, a)) / len(pv)
            all_better = all(better(c, p) for c in cv for p in pv)
            worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
            spread = (p3 - p1) / pm if pm else 0.0
            bound = m.get("bound")
            if wins >= 0.9 and better(cm, pm) and abs(cm - pm) > p3 - p1 and not more_failures:
                label = "improved"
            elif bound is None:
                label = "no bound"
            elif spread > bound and not all_better:
                label = "unresolved"
            elif worse > bound:
                label = "regressed"
            else:
                label = "unchanged"
            print(f"{w:14} {name:26} {p1:>9.4g} {pm:>9.4g} {p3:>9.4g}  "
                  f"{c1:>9.4g} {cm:>9.4g} {c3:>9.4g} {wins:>5.2f}  {label}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        compare(sys.argv[2:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the detailed results here")
    ap.add_argument("--trace-file", help="with --trace 1: write the spans here")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    line, _ = run(args)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
