#!/usr/bin/env python3
"""End-to-end benchmark of the DIO stack: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload live-fluentbit --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the `perfbench` binary in a fresh process. With --trace 1 it
runs the binary twice, plain and then traced, and reports the per-layer
metrics of the traced run plus the tracing overhead between the two.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The exit code is 0 only when every output check
passed, including the recorded reference of reference.json for the seed.

    python3 perfbench/run.py --record-reference --workload W --seed N --seconds S
records the reference outputs of (W, N, S) into reference.json instead.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
# A result must come within 180 s (after the build); a traced result needs
# two runs of the binary.
RUN_TIMEOUT_S = 170
# End-to-end metrics whose plain-vs-traced difference is the tracing overhead.
OVERHEAD_OF = ["app_syscall_us_p50", "freshness_ms_p50", "diagnosis_s",
               "explore_ms_p50"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no DIO sources next to perfbench/ "
                         f"(expected {ROOT / 'src'})")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(step)}")
    return out / "perfbench"


def run_binary(binary, args, traced, spans=None):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if args.record_reference:
        cmd += ["--reference-only", "1"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S // (2 if args.trace else 1))
    if done.stderr:
        log(done.stderr.rstrip())
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise SystemExit(f"perfbench: no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    if done.returncode not in (0, 1):
        raise SystemExit(f"perfbench: binary failed (exit {done.returncode})")
    return result


def reference_key(result):
    return f"{result['workload']}/{result['seed']}/{result['session_events']}"


def load_references():
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def check_reference(result, checks):
    """Compares the run's outputs with the recorded reference, if any."""
    expected = load_references().get(reference_key(result))
    if expected is None:
        checks["reference"] = "not recorded for this seed"
        return True
    ok = expected == result["reference"]
    checks["reference"] = ok
    if not ok:
        log("perfbench: outputs differ from reference.json:",
            json.dumps(expected), "!=", json.dumps(result["reference"]))
    return ok


def select(spec, measured):
    """The metrics BENCHMARK.json names, with their units."""
    out = {}
    for metric in spec:
        name = metric["name"]
        if name not in measured:
            raise SystemExit(f"perfbench: metric {name} was not measured")
        out[name] = {"value": measured[name], "unit": metric["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    plain = run_binary(binary, args, traced=False)
    checks = dict(plain["checks"])
    if args.record_reference:
        if not plain["correct"]:
            raise SystemExit("perfbench: run failed its checks; not recorded")
        references = load_references()
        references[reference_key(plain)] = plain["reference"]
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True)
                             + "\n")
        log("recorded", reference_key(plain))
        return 0

    correct = plain["correct"] and check_reference(plain, checks)
    attempted, failed = plain["attempted"], plain["failed"]
    if args.trace:
        spans = build_dir() / f"spans-{args.workload}-{args.seed}.csv"
        traced = run_binary(binary, args, traced=True, spans=spans)
        traced_checks = dict(traced["checks"])
        correct = (correct and traced["correct"] and
                   check_reference(traced, traced_checks))
        checks.update({f"traced.{k}": v for k, v in traced_checks.items()})
        measured = dict(traced["metrics"])
        for name in OVERHEAD_OF:
            base = plain["metrics"][name]
            measured[f"trace_overhead.{name}_pct"] = (
                100.0 * (traced["metrics"][name] - base) / base if base else 0.0)
        metrics = select(spec["per_layer"], measured)
        attempted += traced["attempted"]
        failed += traced["failed"]
        log(f"spans written to {spans}")
    else:
        metrics = select(spec["end_to_end"], plain["metrics"])

    for name, metric in metrics.items():
        log(f"  {name:44s} {metric['value']:>14.4f} {metric['unit']}")
    log("checks:", json.dumps(checks))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
