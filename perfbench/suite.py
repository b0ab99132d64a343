#!/usr/bin/env python3
"""Run the benchmark's workloads together, from the root of a checkout.

    python3 perfbench/suite.py all [--seed N]
        Every workload untraced, then traced, on one seed. Prints every
        end-to-end metric by name and unit, the operations attempted and
        failed, the per-layer table, and the tracing overhead: the traced
        minus the untraced pass_s and verify_ms.

    python3 perfbench/suite.py steady [--runs 10] [--seed 100]
        Two separate sets of untraced runs of every workload, each run on its
        own seed. Reports each end-to-end metric's median and quartile spread
        per set, and passes only if every spread stays within the metric's
        bound, the two sets' medians differ by no more than the bound, in
        either direction, and every run fails the same share of operations.

Each run is ``python3 perfbench/run.py`` in a child process, one at a time.
Results are also written to .perfbench/<command>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
SETS = 2
RUN = Path(__file__).resolve().parent / "run.py"


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload:<13} seed {seed:<4} trace {trace}: correct {result['correct']}, "
          f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
    return result


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def cmd_all(args) -> int:
    bench = declared()
    names = [w["name"] for w in bench["workloads"]]
    results = {w: {t: run_once(w, args.seed, bench["run_seconds"], t) for t in (0, 1)}
               for w in names}
    print("\nend-to-end metrics (untraced):")
    print(f"  {'metric':<16}" + "".join(f"{w:>16}" for w in names))
    for m in bench["end_to_end"]:
        row = "".join(f"{value(results[w][0], m['name']):>16.6g}" for w in names)
        print(f"  {m['name'] + ' (' + m['unit'] + ')':<16}{row}")
    for w in names:
        r = results[w][0]
        print(f"  {w}: correct {r['correct']}, {r['attempted']} operations, {r['failed']} failed")
    print("\nper-layer metrics (traced), per pass:")
    print(f"  {'metric':<30}" + "".join(f"{w:>16}" for w in names))
    for m in bench["per_layer"]:
        row = "".join(f"{value(results[w][1], m['name']):>16.6g}" for w in names)
        print(f"  {m['name']:<30}{row}  {m['unit']}")
    print("\ntracing overhead (traced minus untraced median):")
    for traced, plain in (("trace.pass_s", "pass_s"), ("trace.verify_ms", "verify_ms")):
        for w in names:
            t, u = value(results[w][1], traced), value(results[w][0], plain)
            print(f"  {plain:<10} {w:<13} {t - u:+.6g} ({(t - u) / u:+.1%})")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "all.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    return 0 if all(results[w][t]["correct"] for w in names for t in (0, 1)) else 1


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile distance as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def cmd_steady(args) -> int:
    bench = declared()
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [[] for _ in range(SETS)] for w in names}
    for k in range(SETS):
        print(f"set {k + 1} of {SETS}")
        for i in range(args.runs):
            for w in names:
                runs[w][k].append(
                    run_once(w, args.seed + k * args.runs + i, bench["run_seconds"], 0))
    ok = True
    report = {}
    for w in names:
        print(f"\n{w}:")
        flat = [r for s in runs[w] for r in s]
        shares = {Fraction(r["failed"], r["attempted"]) for r in flat}
        correct = all(r["correct"] for r in flat)
        print(f"  failed share of operations: {', '.join(str(s) for s in sorted(shares))}"
              f"{'' if len(shares) == 1 else '  <- differs between runs'}; correct {correct}")
        ok &= len(shares) == 1 and correct
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [spread([value(r, name) for r in s]) for s in runs[w]]
            (first, _), (second, _) = stats
            change = (second - first) / first
            spread_ok = all(sp <= bound for _, sp in stats)
            median_ok = abs(change) <= bound
            ok &= spread_ok and median_ok
            cells = "  ".join(f"median {med:.6g} spread {sp:.1%}" for med, sp in stats)
            flag = "" if spread_ok and median_ok else "  <- outside bound"
            steady = all(sp < bound / 3 for _, sp in stats)
            print(f"  {name:<13} bound {bound:.0%}: {cells}  second set {change:+.1%}"
                  f"{'' if steady else '  (spread above a third of bound)'}{flag}")
            report.setdefault(w, {})[name] = {"sets": stats, "change": change}
    print(f"\n{'STEADY' if ok else 'NOT STEADY'}")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / "steady.json").write_text(
        json.dumps({"report": report, "runs": runs}, indent=1), encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    a = sub.add_parser("all", help="every workload, untraced and traced")
    a.add_argument("--seed", type=int, default=0)
    s = sub.add_parser("steady", help="two sets of runs, compared against the bounds")
    s.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    s.add_argument("--seed", type=int, default=100, help="first seed; each run gets its own")
    args = p.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a proxymark checkout", file=sys.stderr)
        return 2
    return {"all": cmd_all, "steady": cmd_steady}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
