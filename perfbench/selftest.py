#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark (about 2000 nodes, minutes of
simulated time per workload):

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with perfbench/metrics.json; that every
workload's output has the contract schema with traced and untraced runs;
that each phase's per-layer parts plus its residual equal the phase wall;
that the trace-event file is written; that a leaked AVMEM_* variable, bad
arguments and a tampered digest record are refused; and that a checkout
holding only the benchmark fails without printing a result. Exits 0 when
every check passes.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
BUILD = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
SEED = "7"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("AVMEM_")}
    env.update(extra)
    return env


def run(args, env=None, cwd=ROOT, cmd=None):
    return subprocess.run((cmd or RUN) + args, cwd=cwd, env=env or clean_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_manifest():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cat = json.loads((HERE / "metrics.json").read_text())
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    check([w["name"] for w in bench["workloads"]] == list(cat["workloads"]) and
          all(w["why"] == cat["workloads"][w["name"]] for w in bench["workloads"]),
          "BENCHMARK.json workloads match the catalogue")
    for section, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                          ("per_layer", ("name", "unit", "better"))):
        mine = [{k: m[k] for k in keys} for m in cat[section]]
        check(bench[section] == mine, f"BENCHMARK.json {section} matches the catalogue")
    names = [w["name"] for w in bench["workloads"]] + \
        [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names),
          "names are unique and well-formed")
    check(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
              for m in bench["end_to_end"] + bench["per_layer"]), "units and directions are well-formed")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    setup = next((m for m in bench["end_to_end"] if m["name"] == "setup_s"), None)
    check(setup is not None and setup["unit"] == "s" and setup["better"] == "lower"
          and setup["bound"] == max(bounds.values()) and max(bounds.values()) <= 0.25,
          "setup_s is present with the largest bound, every bound <= 0.25")
    check(all(m.get("class") in ("host-perf", "sim-invariant")
              for m in cat["end_to_end"] + cat["per_layer"]) and
          all(all(mv["workload"] in cat["workloads"] and mv["metric"] in bounds
                  for mv in m["moves"]) for m in cat["per_layer"]),
          "every metric has a class; every per-layer 'moves' names a workload and an end-to-end metric")
    return bench, cat


def check_result(workload, trace, bench, proc):
    section = "per_layer" if trace == "1" else "end_to_end"
    res = last_json(proc.stdout)
    check(proc.returncode == 0 and res is not None and set(res) == RESULT_KEYS,
          f"{workload} trace {trace}: exit 0 and a result line with the contract keys")
    if res is None or set(res) != RESULT_KEYS:
        sys.stderr.write(proc.stderr[-2000:])
        return
    units = {m["name"]: m["unit"] for m in bench[section]}
    metrics = res["metrics"]
    check(set(metrics) == set(units) and all(
        set(v) == {"value", "unit"} and v["unit"] == units[k] and
        isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
        for k, v in metrics.items()), f"{workload} trace {trace}: every {section} metric, with its unit")
    check(res["correct"] is True and isinstance(res["attempted"], int) and res["attempted"] >= 1
          and res["failed"] == 0, f"{workload} trace {trace}: correct, attempted >= 1, failed == 0")


def check_parts(workload):
    record = json.loads((BUILD / "results" /
                         f"{workload}-{SEED}-smoke-trace1.json").read_text())
    m = {k: v["value"] for k, v in record["metrics"].items()}
    phases = {
        "setup": ("setup.wall_s", ["setup.construct_s", "setup.core.plan_s",
                                   "setup.core.commit_s", "setup.avmon.shuffle_plan_s",
                                   "setup.avmon.shuffle_commit_s"], "setup.residual_s"),
        "run": ("run.wall_s", ["core.plan_s", "core.commit_s", "avmon.shuffle_plan_s",
                               "avmon.shuffle_commit_s", "core.anycast_s", "core.multicast_s",
                               "avmon.probe_s", "snapshot.save_s", "snapshot.restore_s"],
                "run.residual_s"),
    }
    for phase, (wall, parts, residual) in phases.items():
        total = sum(m[p] for p in parts) + m[residual]
        check(abs(total - m[wall]) <= 1e-9 * max(1.0, m[wall]) and
              m[residual] >= -0.02 * m[wall] and all(m[p] >= 0 for p in parts),
              f"{workload}: {phase} parts + residual = wall ({total:.6f} vs {m[wall]:.6f})")
    trace = ROOT / record["trace_events"]
    events = json.loads(trace.read_text()).get("traceEvents", []) if trace.is_file() else []
    check(len(events) == int(m["tracing.spans"]) > 0 and
          all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
          f"{workload}: trace-event file holds every span")


def check_refusals():
    proc = run(["--workload", "manage-20k", "--smoke", "--seed", SEED, "--seconds", "1"],
               env=clean_env(AVMEM_THREADS="2"))
    check(proc.returncode == 2 and proc.stdout.strip() == "", "a leaked AVMEM_THREADS is refused")
    for args in (["--workload", "nope"], ["--workload", "manage-20k", "--seed", "abc"],
                 ["--workload", "manage-20k", "--seed", "-1"],
                 ["--workload", "manage-20k", "--trace", "2"],
                 ["--workload", "manage-20k", "--seconds", "0"]):
        proc = run(args)
        check(proc.returncode != 0 and proc.stdout.strip() == "", f"bad arguments {args} fail closed")


def check_digest_gate():
    digests = BUILD / "digests"
    records = sorted(digests.rglob(f"manage-20k-{SEED}-smoke.json"))
    if not records:
        check(False, "a digest record exists for manage-20k")
        return
    path = max(records, key=lambda p: p.stat().st_mtime)
    saved = path.read_text()
    tampered = json.loads(saved)
    tampered["sim_digest"] = "0" * 16
    path.write_text(json.dumps(tampered))
    try:
        proc = run(["--workload", "manage-20k", "--smoke", "--seed", SEED, "--seconds", "1"])
    finally:
        path.write_text(saved)
    check(proc.returncode == 3 and last_json(proc.stdout) is None,
          "a run disagreeing with an earlier run of the same source exits 3")


def check_bare_checkout():
    bare = BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = clean_env()
    env.pop("CARGO_TARGET_DIR", None)
    proc = run(["--workload", "manage-20k", "--seed", "1", "--seconds", "1", "--trace", "0"],
               env=env, cwd=bare, cmd=[sys.executable, "perfbench/run.py"])
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and last_json(proc.stdout) is None,
          "a checkout holding only the benchmark fails without a result")


def main():
    bench, cat = check_manifest()
    for workload in cat["workloads"]:
        for trace in ("0", "1", "0"):  # the repeat exercises the cross-run digest gate
            proc = run(["--workload", workload, "--smoke", "--seed", SEED,
                        "--seconds", "2", "--trace", trace])
            check_result(workload, trace, bench, proc)
        check_parts(workload)
    check_refusals()
    check_digest_gate()
    check_bare_checkout()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
