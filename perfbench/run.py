#!/usr/bin/env python3
"""The repository benchmark: two AVMEM workloads, end to end and by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --workload all    # every workload, one table

NAME is manage-20k or avmon-10k (perfbench/metrics.json says why each
exists). The first run in a checkout builds the workload runner from
source with CMake into .bench_build (or $CARGO_TARGET_DIR when it is set).

With --trace 0 the run reports the end-to-end metrics of an untraced pass;
with --trace 1 it reports the per-layer profile of a traced pass and
writes that pass's spans as Chrome trace-event JSON (open it in Perfetto).
Every metric is printed by name with its unit; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}. The full
record, with the run manifest, goes to .bench_build/results/.

Exit codes: 0 ran (see "correct"); 2 bad arguments or an AVMEM_*
variable in the environment (it would leak into the workload config);
3 the determinism gate failed (a sim digest differs between passes,
phase repetitions, a restored system and its original, or two runs of
the same source and seed); 1 anything else, e.g. a failed build.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOGUE = json.loads((HERE / "metrics.json").read_text())
WORKLOADS = list(CATALOGUE["workloads"])
DEFAULT_SEED = 20070101
RUNNER_TIMEOUT_S = 170


class BenchError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def seed_arg(text):
    if not re.fullmatch(r"[0-9]{1,20}", text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2^64): {text!r}")
    return int(text)


def seconds_arg(text):
    if not re.fullmatch(r"[0-9]{1,4}", text) or not 1 <= int(text) <= 3600:
        raise argparse.ArgumentTypeError(f"seconds must be an integer in [1, 3600]: {text!r}")
    return int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=seed_arg, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=seconds_arg, default=10)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--smoke", action="store_true",
                   help="~2000 nodes and minutes of sim time (self-test size)")
    return p.parse_args(argv)


def refuse_leaked_environment():
    leaked = sorted(k for k in os.environ if k.startswith("AVMEM_"))
    if leaked:
        raise BenchError(
            "refusing to run with " + ", ".join(leaked) + " set: the scenario "
            "code reads AVMEM_* variables into the workload config", code=2)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(out):
    if not (ROOT / "src").is_dir() or not (HERE / "CMakeLists.txt").is_file():
        raise BenchError(f"no AVMEM sources under {ROOT}: nothing to build")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "avmem_perfbench"


def source_digest():
    """sha256 over the sources the runner is built from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and p.suffix in {".cpp", ".hpp", ".txt", ".py", ".json"})
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_state():
    """(sha, dirty) of the checkout, or (None, None) when it is not the top
    of a git work tree (source_digest still identifies the sources)."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        return git("rev-parse", "HEAD"), git("status", "--porcelain") != ""
    except (OSError, subprocess.CalledProcessError):
        return None, None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest(result, seconds, trace, src):
    sha, dirty = git_state()
    return {
        "git_sha": sha, "git_dirty": dirty, "source_digest": src,
        "compiler": result["compiler"], "cxx_flags": result["cxx_flags"],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "plan_threads": result["plan_threads"],
        "config_fingerprint": result["config_fingerprint"],
        "workload": result["workload"], "hosts": result["hosts"],
        "seed": result["seed"], "seconds": seconds, "trace": trace,
        "smoke": result["smoke"], "bench_version": result["bench_version"],
    }


def check_determinism(out, src, result):
    """Runs of one source tree with one (workload, seed) must agree."""
    key = f"{result['workload']}-{result['seed']}{'-smoke' if result['smoke'] else ''}"
    path = out / "digests" / src / f"{key}.json"
    mine = {k: result[k] for k in ("config_fingerprint", "setup_digest", "sim_digest")}
    if path.is_file():
        seen = json.loads(path.read_text())
        if seen != mine:
            raise BenchError(f"{key}: this run's digests {mine} differ from an "
                             f"earlier run's {seen}", code=3)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(mine) + "\n")


def attach_units(result, section):
    """Values from the runner, units from the catalogue; the two name sets
    must match exactly."""
    declared = {m["name"]: m for m in CATALOGUE[section]}
    values = result.get(section, {})
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise BenchError(f"{section}: runner and catalogue disagree "
                         f"(missing {missing}, undeclared {extra})")
    for name, v in values.items():
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError(f"{section}: {name} = {v!r} is not a finite number")
    return {n: {"value": values[n], "unit": declared[n]["unit"]} for n in declared}


def run_workload(workload, seed, seconds, trace, smoke, binary, out, src):
    traces = out / "traces"
    results = out / "results"
    traces.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-{seed}{'-smoke' if smoke else ''}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    if smoke:
        cmd.append("--smoke")
    if trace == "1":
        cmd += ["--trace-out", str(traces / f"{tag}.trace.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: runner exceeded {RUNNER_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(f"{workload}: runner exited {done.returncode}",
                         code=3 if done.returncode == 3 else 1)
    try:
        result = json.loads(done.stdout)
    except ValueError:
        raise BenchError(f"{workload}: runner printed no JSON result")
    check_determinism(out, src, result)
    section = "per_layer" if trace == "1" else "end_to_end"
    metrics = attach_units(result, section)
    record = {"manifest": manifest(result, seconds, trace, src),
              "correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"], "phase_walls_s": result["phase_walls_s"],
              "digests": {k: result[k] for k in
                          ("setup_digest", "sim_digest", "view_digest")},
              "metrics": metrics}
    if trace == "1":
        record["end_to_end_untraced"] = attach_units(result, "end_to_end")
        record["trace_events"] = os.path.relpath(traces / f"{tag}.trace.json", ROOT)
    (results / f"{tag}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv):
    try:
        args = parse_args(argv)
        refuse_leaked_environment()
        out = build_dir()
        binary = build(out)
        src = source_digest()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        records = {}
        for name in names:
            log(f"{name}: seed {args.seed}, trace {args.trace}")
            rec = run_workload(name, args.seed, args.seconds, args.trace,
                               args.smoke, binary, out, src)
            records[name] = rec
            print(json.dumps({"manifest": rec["manifest"],
                              "digests": rec["digests"]}))
            for metric, m in rec["metrics"].items():
                print(f"{name:13s} {metric:30s} {m['value']:>16.6g} {m['unit']}")
    except BenchError as e:
        log(str(e))
        return e.code
    if args.workload == "all":
        summary = {n: {"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": r["metrics"]}
                   for n, r in records.items()}
        print(json.dumps(summary))
        return 0 if all(r["correct"] for r in records.values()) else 1
    rec = records[args.workload]
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
