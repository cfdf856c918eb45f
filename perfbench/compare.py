#!/usr/bin/env python3
"""Repeat, compare and stress the benchmark (run from the repository root).

    python3 perfbench/compare.py spread --workload hpl64-1x1 [--runs 10]
        Runs the workload once per seed and reports, per end-to-end metric,
        the median, the quartiles and the spread (inter-quartile distance
        over the median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/compare.py diff BASE.jsonl NEW.jsonl
        Compares two sets of saved runs metric by metric: each side's
        median, the change in the metric's "worse" direction, and whether
        it is worse beyond the bound.

    python3 perfbench/compare.py sensitivity [--runs 2] [--seconds S]
        Shows what the time_to_solution_s bound resolves: traced hpl64-1x1
        runs without and with a delay injected through the RHPL_TRACE_SLOW_*
        knobs (which fire only under tracing), compared as `diff` does.
        Exits non-zero if a delay of all of UPDATE's self-time fails to
        trip the bound.

Every run's result line is saved as one JSON line (with its workload,
seed and injected environment) under --out-dir, default
.bench_build/perfbench-results.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
RESULTS = os.path.join(
    os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
    "perfbench-results",
)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace="0", env_extra=None, extra=()):
    """One run.py invocation; returns its parsed result line plus context."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace,
           *extra]
    env = dict(os.environ, **(env_extra or {}))
    p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"compare: {' '.join(cmd)} exited {p.returncode}")
    res = json.loads(lines[-1])
    res.update(workload=workload, seed=seed, env=env_extra or {})
    return res


def save(path, results):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as f:
        for r in results:
            f.write(json.dumps(r) + "\n")


def load(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def spread(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3, (q3 - q1) / statistics.median(vals)


def cmd_spread(a):
    spec = bench_spec()
    seconds = a.seconds or spec["run_seconds"]
    results = []
    for i in range(a.runs):
        r = run_once(a.workload, a.seed0 + i, seconds)
        results.append(r)
        print(f"run {i + 1}/{a.runs} seed={r['seed']} correct={r['correct']} "
              f"failed={r['failed']}/{r['attempted']}", flush=True)
    save(os.path.join(a.out_dir, f"spread-{a.workload}.jsonl"), results)
    ok = all(r["correct"] for r in results)
    print(f"\n{a.workload}: {a.runs} runs of {seconds} s, seeds "
          f"{a.seed0}..{a.seed0 + a.runs - 1}, all correct: {ok}")
    for m in spec["end_to_end"]:
        med, q1, q3, s = spread(values(results, m["name"]))
        verdict = "steady" if s < m["bound"] / 3 else (
            "within bound" if s <= m["bound"] else "TOO WIDE")
        note = " (set-up: spread not gated)" if m["name"] == "setup_s" else ""
        print(f"  {m['name']:<20} median {med:.6g} {m['unit']:<8} q1 {q1:.6g} "
              f"q3 {q3:.6g} spread {s:.4f} bound {m['bound']} -> {verdict}{note}")
    return 0 if ok else 1


def diff(base, new, label=""):
    """Prints the per-metric comparison; returns {metric: worse_beyond}."""
    verdicts = {}
    print(f"\n{label}base {len(base)} runs, new {len(new)} runs")
    for m in bench_spec()["end_to_end"]:
        b, n = values(base, m["name"]), values(new, m["name"])
        if not b or not n:
            continue
        mb, mn = statistics.median(b), statistics.median(n)
        worse = (mn - mb) / mb if m["better"] == "lower" else (mb - mn) / mb
        beyond = worse > m["bound"]
        verdicts[m["name"]] = beyond
        tag = ("WORSE beyond bound" if beyond else
               "worse within bound" if worse > 0 else "not worse")
        print(f"  {m['name']:<20} base {mb:.6g} new {mn:.6g} {m['unit']:<8} "
              f"worse by {worse:+.2%} (bound {m['bound']:.0%}) -> {tag}")
    return verdicts


def cmd_diff(a):
    diff(load(a.base), load(a.new))
    return 0


def cmd_sensitivity(a):
    w = "hpl64-1x1"
    seconds = a.seconds or bench_spec()["run_seconds"]
    probe = run_once(w, a.seed, seconds, trace="1")["metrics"]
    update_ns = probe["trace.update_ms"]["value"] * 1e6
    fact_ns = probe["trace.fact_ms"]["value"] * 1e6
    n_upd = probe["trace.update_spans"]["value"]
    n_fact = probe["trace.fact_spans"]["value"]
    print(f"probe: UPDATE {update_ns / 1e6:.1f} ms over {n_upd:.0f} spans, "
          f"FACT {fact_ns / 1e6:.1f} ms over {n_fact:.0f} spans")
    # (slug, description, must trip, env). The first two add a quarter of
    # UPDATE's traced self-time, through UPDATE and through FACT spans; the
    # third a quarter of FACT's own. The last two add all of UPDATE's
    # self-time again, which the end-to-end bound must catch.
    def update(share):
        return {"RHPL_TRACE_SLOW_PHASE": "update",
                "RHPL_TRACE_SLOW_NS": str(int(share * update_ns / n_upd))}

    def fact(total_ns):
        return {"RHPL_TRACE_SLOW_FACT": str(int(total_ns / n_fact))}

    cases = [
        ("update", "UPDATE +25% of UPDATE", False, update(0.25)),
        ("fact", "FACT +25% of UPDATE", False, fact(0.25 * update_ns)),
        ("fact-own", "FACT +25% of FACT", False, fact(0.25 * fact_ns)),
        ("update-x4", "UPDATE +100% of UPDATE", True, update(1.0)),
        ("fact-x4", "FACT +100% of UPDATE", True, fact(update_ns)),
    ]
    extra = ("--traced-solves",)
    base, slowed = [], {slug: [] for slug, *_ in cases}
    for i in range(a.runs):
        # Alternate sides so drift in the host's load hits both alike.
        base.append(run_once(w, a.seed, seconds, extra=extra))
        for slug, _, _, env in cases:
            slowed[slug].append(run_once(w, a.seed, seconds, env_extra=env, extra=extra))
        print(f"round {i + 1}/{a.runs} done", flush=True)
    save(os.path.join(a.out_dir, "sensitivity-base.jsonl"), base)
    ok = True
    summary = []
    for slug, desc, must, env in cases:
        save(os.path.join(a.out_dir, f"sensitivity-{slug}.jsonl"), slowed[slug])
        tripped = diff(base, slowed[slug], label=f"[{desc}: {env}] ")["time_to_solution_s"]
        ok &= tripped or not must
        summary.append(f"  {desc:<24} {'yes' if tripped else 'no'}"
                       f"{'' if tripped or not must else '  (expected yes)'}")
    print("\ntime_to_solution_s worse beyond its bound:")
    print("\n".join(summary))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seconds", type=float, default=None)
    s.add_argument("--seed0", type=int, default=1)
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    t = sub.add_parser("sensitivity")
    t.add_argument("--runs", type=int, default=2)
    t.add_argument("--seconds", type=float, default=None)
    t.add_argument("--seed", type=int, default=42)
    for p in (s, t):
        p.add_argument("--out-dir", default=RESULTS)
    a = ap.parse_args()
    sys.exit({"spread": cmd_spread, "diff": cmd_diff,
              "sensitivity": cmd_sensitivity}[a.cmd](a))


if __name__ == "__main__":
    main()
