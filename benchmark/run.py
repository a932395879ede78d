#!/usr/bin/env python3
"""Build and run the Coterie benchmark (benchmark/coterie_bench.cc).

One workload, one result line (the last line of stdout):
    python3 benchmark/run.py --workload fleet_des --seed 7 --seconds 20 --trace 0
Every workload, untraced then traced, each in a fresh process, repeated
back to back into one run file:
    python3 benchmark/run.py --suite --repeat 5 --seed 42 --out run.json
Two sets of run files, judged against the bounds in BENCHMARK.json:
    python3 benchmark/run.py --compare A1.json A2.json -- B1.json B2.json

Before anything runs, the binary is built from source into build-bench/
at the checkout root, by the tree's own CMake build with
benchmark/hook.cmake as its project include. Every workload process gets
COTERIE_THREADS = min(4, available CPUs), and only one runs at a time.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "coterie_bench"
THREADS = min(4, len(os.sched_getaffinity(0)))
# A workload run ends well inside this; the build gets its own budget.
RUN_TIMEOUT_S = 170


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def env():
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, COTERIE_THREADS=str(THREADS), TMPDIR=str(tmp))


def build():
    """Configure once, then bring coterie_bench up to date."""
    if not (ROOT / "CMakeLists.txt").exists():
        sys.exit("run.py: no CMakeLists.txt at " + str(ROOT) +
                 ": run from a full checkout of the repository")
    steps = [["cmake", "--build", str(BUILD), "-j", str(THREADS),
              "--target", "coterie_bench"]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                         "-DCMAKE_PROJECT_INCLUDE=" +
                         str(ROOT / "benchmark" / "hook.cmake")])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env()).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_workload(workload, seed, seconds, trace, out_dir):
    """Run one workload process; returns (exit code, result line)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env())
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    finally:
        if proc.poll() is None:  # timed out, or run.py is being stopped
            proc.kill()
            proc.wait()
    sys.stdout.write(stdout)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is None:
        return proc.returncode or 1, None
    listed = spec()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != want or set(result) != {"correct", "attempted", "failed",
                                      "metrics"}:
        print("run.py: the result line does not match BENCHMARK.json",
              file=sys.stderr)
        return 1, result
    return proc.returncode, result


def suite(seed, seconds, repeat, out):
    """Every workload untraced then traced, `repeat` times back to back;
    one run file with every run and a per-metric summary."""
    workloads = [x["name"] for x in spec()["workloads"]]
    out_dir = BUILD / "suite"
    runs = []
    ok = True
    for _ in range(repeat):
        run = {}
        for w in workloads:
            entry = {}
            for trace in (0, 1):
                # A run that dies before writing its file leaves none,
                # rather than the previous repeat's.
                detail_file = out_dir / f"{w}.trace{trace}.json"
                detail_file.unlink(missing_ok=True)
                code, result = run_workload(w, seed, seconds, trace, out_dir)
                good = (code == 0 and bool(result) and result["correct"]
                        and detail_file.exists())
                ok = ok and good
                entry["correct_traced" if trace else "correct"] = good
                if not detail_file.exists():
                    continue
                detail = json.loads(detail_file.read_text())
                key = "per_layer" if trace else "end_to_end"
                entry[key] = {k: v["value"]
                              for k, v in detail["metrics"].items()}
                entry.setdefault("digest", detail["digest"])
                entry.setdefault("sim", detail["sim"])
            run[w] = entry
        runs.append({"workloads": run})
    summary = {}
    for w in workloads:
        summary[w] = {}
        for m in spec()["end_to_end"]:
            values = measured(runs, w, m["name"])
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            summary[w][m["name"]] = {
                "median": q2, "q1": q1, "q3": q3,
                "iqr_frac": (q3 - q1) / q2,
                "max_over_min": max(values) / min(values)}
    doc = {"meta": meta(seed, seconds), "runs": runs, "summary": summary}
    Path(out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"run.py: wrote {out}", file=sys.stderr)
    return 0 if ok else 1


def meta(seed, seconds):
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                               "--version"], stdout=subprocess.PIPE,
                              text=True).stdout.splitlines()[0]
    # The tree leaves CMAKE_BUILD_TYPE empty in the cache and picks its
    # default in CMakeLists.txt, so record the flags the binary got.
    commands = json.loads((BUILD / "compile_commands.json").read_text())
    command = next(c["command"] for c in commands
                   if c["file"].endswith("coterie_bench.cc"))
    flags = [f for f in command.split() if f.startswith(("-O", "-g", "-D"))]
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True).stdout.strip() or None
    return {"seed": seed, "seconds": seconds, "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "coterie_threads": THREADS, "machine": platform.machine(),
            "compiler": compiler, "build_flags": flags, "commit": commit}


def measured(runs, workload, metric):
    """The metric's value in every run whose untraced process wrote one."""
    return [r["workloads"][workload]["end_to_end"][metric] for r in runs
            if "end_to_end" in r["workloads"][workload]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(a_files, b_files):
    """Per workload x end-to-end metric: improved / unchanged / worse /
    unresolved (choosing-metrics guide, sections 6.5 and 8)."""
    def load(files):
        runs = []
        for f in files:
            doc = json.loads(Path(f).read_text())
            runs += [dict(r, seed=doc["meta"]["seed"]) for r in doc["runs"]]
        return runs
    a_runs, b_runs = load(a_files), load(b_files)
    spec_ = spec()
    failed = False
    print(f"{'workload':13} {'metric':13} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'worse by':>9} {'bound':>6}  verdict")
    for w in (x["name"] for x in spec_["workloads"]):
        for m in spec_["end_to_end"]:
            a = measured(a_runs, w, m["name"])
            b = measured(b_runs, w, m["name"])
            if not a or not b:
                print(f"{w:13} {m['name']:13} not measured on one side")
                failed = True
                continue
            qa, qb = quartiles(a), quartiles(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (qb[1] - qa[1]) / qa[1]
            spread = max(qa[2] - qa[0], qb[2] - qb[0]) / qa[1]
            b_all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if spread > m["bound"] and not b_all_better:
                verdict = "unresolved"
            elif worse_by > m["bound"]:
                verdict = "worse"
            elif -worse_by > spread and b_all_better:
                verdict = "improved"
            else:
                verdict = "unchanged"
            failed = failed or verdict == "worse"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{w:13} {m['name']:13} {fmt.format(*qa):>30} "
                  f"{fmt.format(*qb):>30} {worse_by:>+9.2%} "
                  f"{m['bound']:>6.0%}  {verdict}")
        # Deterministic outputs: equal on every run of one seed, on any
        # commit that does not change the model.
        by_seed = {}
        for r in a_runs + b_runs:
            entry = r["workloads"][w]
            if "digest" not in entry:
                continue  # wrote no run file: reported as failed below
            by_seed.setdefault(r["seed"], set()).add(
                json.dumps([entry["digest"], entry["sim"]], sort_keys=True))
        for seed, outputs in sorted(by_seed.items()):
            if len(outputs) > 1:
                print(f"{w}: digest or sim-time results differ at seed {seed}")
                failed = True
    for r in a_runs + b_runs:
        for w, entry in r["workloads"].items():
            if not (entry["correct"] and entry["correct_traced"]):
                print(f"{w}: a run failed its output checks")
                failed = True
    return 1 if failed else 0


def main():
    # SIGTERM unwinds like an exception, so a running workload is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"]:
        if "--" not in argv:
            sys.exit("usage: run.py --compare A.json... -- B.json...")
        split = argv.index("--")
        a_files, b_files = argv[1:split], argv[split + 1:]
        if not a_files or not b_files:
            sys.exit("usage: run.py --compare A.json... -- B.json...")
        return compare(a_files, b_files)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int,
                        default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=str(BUILD / "run.json"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.repeat < 1:
        parser.error("--seed and --seconds must be >= 0, --repeat >= 1")
    if bool(args.suite) == bool(args.workload):
        parser.error("give exactly one of --workload and --suite")
    build()
    if args.suite:
        return suite(args.seed, args.seconds, args.repeat, args.out)
    code, _ = run_workload(args.workload, args.seed, args.seconds,
                           args.trace, BUILD / "out")
    return code


if __name__ == "__main__":
    sys.exit(main())
