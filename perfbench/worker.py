"""One workload in one process, one call at a time.

    python3 perfbench/worker.py --workload NAME --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out FILE

The process imports gafunc from ``src/`` of the checkout it sits in, warms
the lazy tables the workload uses, and prints ``READY <monotonic time>``.
With ``--setup-only`` it stops there (run.py times several such set-ups).
Otherwise it draws inputs from the seed, times each operation, reads its
peak memory, and only then writes every output, exactly, to ``--out`` for
run.py to check.  Nothing is checked here, so the checks cost no memory
or time in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from inputs import (  # noqa: E402
    DEFECTIVE_FUNCTIONS,
    PRECISION,
    T_SIGNATURE,
    cli_round,
    defective_inputs,
    generic_inputs,
)

GENERIC_SIGNATURES = [(p, 6 - p) for p in range(7)]
CLI_TIMEOUT_S = 60
# The in-process workloads read their peak RSS after this many operations:
# the module-level cache keeps every element analysed, so a peak read at
# the end of the run would grow with how fast the machine happened to be.
RSS_AFTER_OPS = 30


def load_gafunc():
    """Import gafunc and gafunc.cli from src/; returns the import time in ms."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import gafunc
    import gafunc.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(gafunc.__file__).resolve().parent != SRC / "gafunc":
        raise SystemExit(f"gafunc was imported from {gafunc.__file__}, not from {SRC}")
    return 1000 * elapsed


def warm(workload: str):
    """Fill the lazy tables the timed operations would otherwise fill: the
    product table of each signature, mpmath's constants at the working
    precision, and the Cl(4,2) blade representations.  The warm-up element
    is the scalar 2, which no workload draws."""
    from gafunc import Signature, builtin, matrix_function, mv_function, parse_mv, rep_of

    if workload == "generic-n6-exp":
        for sig in GENERIC_SIGNATURES:
            mv_function(parse_mv("2", Signature(*sig)), builtin("exp"), PRECISION)
    elif workload == "defective-cl42-batch":
        two = parse_mv("2", Signature(*T_SIGNATURE))
        for name in DEFECTIVE_FUNCTIONS:
            mv_function(two, builtin(name), PRECISION)
        matrix_function(rep_of(two), builtin("exp"), PRECISION)


# -- exact serialisation of mpmath results ------------------------------------


def _mpf(x) -> list:
    """[sign, mantissa, exponent] of an mpf: value (-1)^sign * man * 2^exp.
    A special value (inf, nan) has mantissa 0 and a nonzero exponent."""
    sign, man, exp, _ = x._mpf_
    return [sign, int(man), exp]


def _mpc(z) -> list:
    return [_mpf(z.real), _mpf(z.imag)]


def _mv(result) -> list:
    return [_mpc(c) for c in result.value.coeffs]


def _matrix(result) -> list:
    return [[_mpc(x) for x in row] for row in result.value]


# -- the three workloads ------------------------------------------------------


def _timed(call):
    start = time.perf_counter()
    try:
        out, error = call(), None
    except Exception as exc:  # an operation that fails is counted, not fatal
        out, error = None, f"{type(exc).__name__}: {exc}"[:300]
    return time.perf_counter() - start, out, error


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def run_in_process(elements, operation, seconds, tracer):
    """Time ``operation`` on each parsed element until ``seconds`` pass;
    returns the operations and the peak RSS after RSS_AFTER_OPS of them."""
    ops, rss = [], None
    begin = time.monotonic()
    while time.monotonic() - begin < seconds:
        a = next(elements)
        tracer.active = True
        dt, res, err = _timed(lambda: operation(a))
        tracer.active = False
        ops.append({"s": dt, "error": err, "result": res})
        if len(ops) == RSS_AFTER_OPS:
            rss = _peak_rss_mb()
    return ops, rss if rss is not None else _peak_rss_mb()


def run_generic(seed, seconds, tracer):
    from gafunc import Signature, builtin, mv_function, parse_mv

    elements = (parse_mv(x.text, Signature(*x.sig)) for x in generic_inputs(seed))
    return run_in_process(elements, lambda a: mv_function(a, builtin("exp"), PRECISION), seconds, tracer)


def run_defective(seed, seconds, tracer):
    from gafunc import Signature, builtin, matrix_function, mv_function, parse_mv, rep_of

    sig = Signature(*T_SIGNATURE)

    def element(a):
        rep = rep_of(a)
        out = {name: mv_function(a, builtin(name), PRECISION) for name in DEFECTIVE_FUNCTIONS}
        out["matrix-exp"] = matrix_function(rep, builtin("exp"), PRECISION)
        return out

    elements = (parse_mv(x.text, sig) for x in defective_inputs(seed))
    return run_in_process(elements, element, seconds, tracer)


def run_cli(seed, seconds, trace_dir):
    """Whole rounds only, so every run attempts the same share of each kind
    of operation (and of the known-faulty ones)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    ops = []
    begin = time.monotonic()
    r = 0
    while time.monotonic() - begin < seconds:
        for op in cli_round(seed, r):
            if trace_dir is None:
                cmd = [sys.executable, "-m", "gafunc.cli", *op.argv]
            else:
                trace_file = trace_dir / f"cli-{len(ops)}.json"
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *op.argv]
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, input=op.stdin, capture_output=True, text=True,
                    cwd=ROOT, env=env, timeout=CLI_TIMEOUT_S,
                )
                exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:  # killed and reaped by run()
                exit_code, stdout, stderr = None, "", f"timed out after {CLI_TIMEOUT_S} s"
            dt = time.perf_counter() - start
            ops.append({
                "s": dt, "round": r, "name": op.name, "exit": exit_code,
                "stdout": stdout, "stderr": stderr[-2000:],
            })
        r += 1
    return ops, _peak_rss_mb(resource.RUSAGE_CHILDREN)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("generic-n6-exp", "defective-cl42-batch", "cli-oneshot"))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    import_ms = load_gafunc()
    warm(args.workload)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    from layers import Tracer

    tracer = Tracer()
    trace_dir = None
    if args.trace:
        tracer.install()
        if args.workload == "cli-oneshot":
            trace_dir = args.out.with_suffix(".cli-traces")
            trace_dir.mkdir(parents=True, exist_ok=True)
            for old in trace_dir.glob("cli-*.json"):
                old.unlink()

    # peak memory is read before any output is serialised
    if args.workload == "generic-n6-exp":
        ops, peak_rss_mb = run_generic(args.seed, args.seconds, tracer)
    elif args.workload == "defective-cl42-batch":
        ops, peak_rss_mb = run_defective(args.seed, args.seconds, tracer)
    else:
        ops, peak_rss_mb = run_cli(args.seed, args.seconds, trace_dir)

    for op in ops:
        res = op.pop("result", None)
        if res is None:
            continue
        if args.workload == "generic-n6-exp":
            op["value"] = _mv(res)
        else:
            op["value"] = {k: (_matrix(v) if k == "matrix-exp" else _mv(v)) for k, v in res.items()}

    traces = [tracer.raw()]
    if trace_dir is not None:
        traces = []
        for k in range(len(ops)):
            path = trace_dir / f"cli-{k}.json"
            traces.append(json.loads(path.read_text()) if path.exists() else None)
    record = {
        "workload": args.workload, "seed": args.seed, "import_ms": import_ms,
        "peak_rss_mb": peak_rss_mb, "ops": ops,
        "traces": traces if args.trace else None,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
