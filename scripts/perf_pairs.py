#!/usr/bin/env python3
"""Runs alternating base/head pairs of one perfbench workload and compares.

Usage, from the root of the repository:

    python3 scripts/perf_pairs.py --base HEAD~1 --workload port_churn \\
        --seeds 1-10 --seconds 30

Each revision is exported with `git archive` into its own directory under
--workdir (default .bench_build/perf_pairs/<sha>) and builds its own
perfbench through that tree's perfbench/run.py, with CARGO_TARGET_DIR set to
that directory, so the two sides never share a build.  Without --head the
head side is the working tree as it is, uncommitted changes included, built
into .bench_build as run.py does by default.

One pair per seed; the side that runs first alternates from pair to pair.
Each run's stdout is saved as --workdir/runs/<workload>-<seed>-<side>.txt,
and after its result the script prints the run's raw (unscaled) p50 lines
and its `reference:` line, which tell a slower program from a reference
routine that moved.  For every end-to-end metric BENCHMARK.json declares,
the script then prints each side's median and quartiles and how many pairs
the head won, then every run's `correct` and `failed`.  It exits 1 if any
run was incorrect or did not produce a result line, and 0 otherwise.  It
reads perfbench/ and never changes it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, workdir):
    """The directory holding `rev`'s files, exported once."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(workdir, sha)
    if not os.path.exists(os.path.join(tree, "perfbench", "run.py")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"perf_pairs: git archive {rev} failed")
    return tree


def run(tree, target, workload, seed, seconds, log):
    """One untraced run, its stdout saved to `log`; returns the result
    line's object (None if there is none) and the raw p50 lines."""
    env = dict(os.environ)
    if target is not None:
        env["CARGO_TARGET_DIR"] = target
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    with open(log, "w") as handle:
        handle.write(result.stdout)
    lines = result.stdout.strip().splitlines()
    raw = [line for line in lines[:-1] if "p50" in line]
    try:
        return json.loads(lines[-1]), raw
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(result.stderr[-2000:])
        return None, raw


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", help="head revision (default: working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--workdir",
                        default=os.path.join(ROOT, ".bench_build",
                                             "perf_pairs"))
    args = parser.parse_args()

    workdir = os.path.abspath(args.workdir)
    base_tree = export(args.base, workdir)
    sides = {"base": (base_tree, os.path.join(base_tree, ".bench_build"))}
    if args.head:
        head_tree = export(args.head, workdir)
        sides["head"] = (head_tree, os.path.join(head_tree, ".bench_build"))
    else:
        sides["head"] = (ROOT, None)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]

    logs = os.path.join(workdir, "runs")
    os.makedirs(logs, exist_ok=True)
    runs = {"base": [], "head": []}
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = ("base", "head") if index % 2 == 0 else ("head", "base")
        for side in order:
            tree, target = sides[side]
            log = os.path.join(logs, f"{args.workload}-{seed}-{side}.txt")
            result, raw = run(tree, target, args.workload, seed,
                              args.seconds, log)
            runs[side].append((seed, result))
            print(f"seed {seed} {side}: " +
                  ("no result" if result is None else json.dumps(
                      {name: round(value["value"], 4)
                       for name, value in result["metrics"].items()})),
                  flush=True)
            for line in raw:
                print(f"  {side} {line}", flush=True)

    complete = [i for i in range(len(runs["base"]))
                if runs["base"][i][1] is not None
                and runs["head"][i][1] is not None]
    print(f"\n{args.workload}: {len(complete)} complete pairs, "
          f"base {args.base}, head {args.head or 'working tree'}")
    print("metric        base median [q1, q3]        "
          "head median [q1, q3]        head won")
    for metric in metrics:
        name = metric["name"]
        base = [runs["base"][i][1]["metrics"][name]["value"] for i in complete]
        head = [runs["head"][i][1]["metrics"][name]["value"] for i in complete]
        if not base:
            continue
        lower = metric["better"] == "lower"
        won = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        bq, hq = quartiles(base), quartiles(head)
        print(f"{name:<13} {bq[1]:>10.4f} [{bq[0]:.4f}, {bq[2]:.4f}]   "
              f"{hq[1]:>10.4f} [{hq[0]:.4f}, {hq[2]:.4f}]   "
              f"{won}/{len(base)}")

    ok = True
    for side in ("base", "head"):
        for seed, result in runs[side]:
            if result is None:
                ok = False
                print(f"{side} seed {seed}: no result line")
                continue
            ok = ok and result["correct"] is True
            print(f"{side} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
