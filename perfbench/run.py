"""gafunc benchmark: one workload per call, against src/ of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: defective-cl42-batch and cli-oneshot, the two BENCHMARK.json
lists, and generic-n6-exp, which runs the same way but is left out of that
list so that the other two get longer runs (see perfbench/README.md).  The set-up is timed in SETUP_SAMPLES fresh
processes (one of them goes on to run the workload); the workload runs in
one process, one call at a time, for S seconds; then every output is
checked here, outside the timed process.  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
Exits non-zero without that line when the run cannot be made, for example
when src/gafunc is missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("generic-n6-exp", "defective-cl42-batch", "cli-oneshot")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
RUN_GRACE_S = 90  # beyond --seconds: the last operation, then serialising


def spawn_worker(args: list, timeout: float):
    """Run worker.py; returns (seconds from spawn to READY, stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker {' '.join(args)} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    ready = [line for line in stdout.splitlines() if line.startswith("READY ")]
    if not ready:
        raise SystemExit("worker never reported READY")
    return float(ready[0].split()[1]) - start, stdout


def end_to_end(record, statuses, setup_samples) -> dict:
    ops = record["ops"]
    done = [op["s"] for op, st in zip(ops, statuses) if not st.startswith("failed")]
    busy = sum(op["s"] for op in ops)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(done) / busy, "1/s"),
        "op_ms.p50": (1000 * statistics.median(done), "ms"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer_metrics(record) -> dict:
    from layers import merge, per_layer

    traces = record["traces"]
    ops = len(record["ops"])
    if record["workload"] == "cli-oneshot":
        present = [t for t in traces if t]
        import_ms = statistics.mean(t["import_ms"] for t in present)
        raw = merge(present)
    else:
        import_ms = record["import_ms"]
        raw = merge(traces)
    return per_layer(raw, ops, import_ms)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gafunc" / "__init__.py").is_file():
        print(f"no gafunc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops_file = OUT / f"{tag}.ops.json"
    def probe():
        return spawn_worker(["--workload", args.workload, "--setup-only"], PROBE_TIMEOUT_S)[0]

    # Set-up probes on both sides of the run, so their median does not rest
    # on the machine's speed at one moment.
    setup_samples = [probe() for _ in range(SETUP_SAMPLES // 2)]
    ready, _ = spawn_worker(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(ops_file)],
        args.seconds + RUN_GRACE_S,
    )
    setup_samples.append(ready)
    setup_samples += [probe() for _ in range(SETUP_SAMPLES - len(setup_samples))]
    record = json.loads(ops_file.read_text())

    sys.path.insert(0, str(ROOT / "src"))  # checks read rep_of's blade matrices
    from checks import check

    statuses = check(args.workload, args.seed, record["ops"])
    for k, (op, st) in enumerate(zip(record["ops"], statuses)):
        if st in ("wrong", "failed"):
            detail = op.get("error") or (op.get("stderr") or "").strip()[-300:]
            print(f"operation {k} {op.get('name', '')}: {st} {detail}", file=sys.stderr)

    metrics = per_layer_metrics(record) if args.trace else end_to_end(record, statuses, setup_samples)
    result = {
        "correct": not any(st in ("wrong", "failed") for st in statuses),
        "attempted": len(statuses),
        "failed": sum(st.startswith("failed") for st in statuses),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.result.json").write_text(
        json.dumps({**result, "statuses": statuses, "setup_samples": setup_samples}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
