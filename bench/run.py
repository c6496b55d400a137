"""lieq benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {qcalc,cohom,battery} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/lieq`` and ``tests/oracles.py``
must exist).  One client sends requests back to back, one process at a
time.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same request list untraced once and traced twice,
reports per-layer metrics from the first traced pass, the tracing
overhead, and checks that the deterministic counts of the two traced
passes are identical.  Every answer is checked against an independent
reference after its timer stops.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
from worker import REQUEST_LIMIT_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CLI_LIMIT_S = 60.0          # one battery command running longer counts as failed
BATTERY_LIMIT_S = 120.0     # battery commands not started by then count as failed
SETUP_SPAWNS = 5            # extra set-up-only workers for qcalc and cohom
TRACE_SHARE = 1 / 3         # the traced run sizes its request list for this share of --seconds

END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: <module>.<function>.<stat>.  Stats named in
# DETERMINISTIC must repeat exactly between two traced passes.
LAYER_STATS = {
    "exactnum.poly_mul": ("calls", "self_s", "term_pairs"),
    "exactnum.poly_divexact": ("calls", "self_s", "quot_terms"),
    "exactnum.poly_add": ("calls", "self_s"),
    "linalg.rref": ("calls", "self_s", "rows_in", "pivots", "pivot_ratio"),
    "linalg.matmul": ("calls", "self_s"),
    "cohomology.differential_matrix": ("calls", "self_s", "columns", "repeat_ratio"),
    "cohomology.derivation_dims": ("calls", "self_s"),
    "liealg.invariant_signature": ("calls", "busy_s", "self_s"),
    "liealg.check_jacobi": ("calls", "busy_s", "self_s"),
    "deform.rigidity_report": ("calls", "self_s"),
    "deform.deformation_is_lie": ("calls", "self_s"),
    "extend.central_extension": ("calls", "self_s"),
    "extend.induced_cocycle": ("calls", "self_s"),
    "qheis.normal_order": ("calls", "self_s", "letters_in"),
    "qheis.q_binomial_closed": ("calls", "self_s"),
    "fock.monomial_rep": ("self_s",),
    "fock.qccr_defect": ("self_s",),
    "fock.number_operator_spectrum": ("self_s",),
    "fock.biorthogonal_pair": ("self_s",),
    "fock.cuntz_toeplitz": ("self_s",),
    "catalog.get": ("calls", "self_s"),
    "cli.run": ("calls", "busy_s", "self_s", "failed"),
}
DETERMINISTIC = {"calls", "term_pairs", "quot_terms", "rows_in", "pivots", "columns", "letters_in",
                 "failed"}
STAT_UNITS = {"calls": "count", "self_s": "s", "busy_s": "s", "pivot_ratio": "ratio",
              "repeat_ratio": "ratio"}
EXTRA_LAYER = {"cli.import_s": "s", "cli.verify_all_s": "s", "trace.overhead_s": "s"}


def layer_metric_units() -> dict[str, str]:
    units = {}
    for fn, stats in LAYER_STATS.items():
        for stat in stats:
            units[f"{fn}.{stat}"] = STAT_UNITS.get(stat, "count")
    units.update(EXTRA_LAYER)
    return units


# -- running workers ---------------------------------------------------------------


class WorkerFailed(Exception):
    """A worker died before answering: lieq could not even be run."""


class Pass:
    """What one pass over a request list measured.  Times are calibrated
    (see calibration.py) unless named raw."""

    def __init__(self):
        self.latencies_ms: list[float] = []   # failed requests hold the limit
        self.ok: list[bool] = []              # completed and checked correct
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self.busy_s = 0.0                     # sum of request times
        self.raw_busy_s = 0.0
        self.peak_rss_mb = 0.0
        self.verify_all_s = 0.0
        self.traces: list[dict] = []


def _spawn(args: list[str], timeout: float) -> int | None:
    """Run a worker to completion; None if it had to be killed for time.

    The worker measures its own set-up time from the moment given in
    --spawned (CLOCK_MONOTONIC is shared by all processes of the machine).
    A blocking wait() returns as soon as the worker exits; wait(timeout=)
    would poll in steps of up to 50 ms and quantize battery latencies."""
    argv = [sys.executable, str(HERE / "worker.py"), *args, f"--spawned={time.monotonic()!r}"]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=str(ROOT))
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        timer.join()
    return None if code == -signal.SIGKILL else code


def serve_pass(workload: str, requests: list[dict], work: Path, tag: str, trace: bool,
               check, speed: calibration.Speed) -> Pass:
    inputs = work / f"{tag}.inputs.json"
    results = work / f"{tag}.results.json"
    inputs.write_text(json.dumps(requests), encoding="utf-8")
    out = Pass()
    factor = speed.refresh(force=True)
    code = _spawn(["serve", workload, str(inputs), str(results)] + (["--trace"] if trace else []),
                  timeout=170.0)
    if code != 0 or not results.exists():
        raise WorkerFailed(f"{workload} worker exited with {code}")
    doc = json.loads(results.read_text(encoding="utf-8"))
    out.setup_s.append(doc["setup_s"] * factor)
    out.import_s.append(doc["import_s"])
    out.peak_rss_mb = doc["peak_rss_mb"]
    if trace:
        out.traces.append(doc["trace"])
    for req, res in zip(requests, doc["results"]):
        verdict = check(req, res["answer"]) if res["ok"] else None
        _record(out, req, res["ok"], verdict, res.get("error"), res["ms"], res["factor"],
                REQUEST_LIMIT_S * 1000)
    return out


def _record(out: Pass, req, completed: bool, verdict, error, ms: float, factor: float,
            limit_ms: float) -> None:
    """verdict: None when the request did not complete, else '' for a correct
    answer or a description of what was wrong."""
    if not completed:
        out.errors.append(f"{_describe(req)}: {error}")
    elif verdict:
        out.wrong.append(f"{_describe(req)}: {verdict}")
    good = completed and not verdict
    out.ok.append(good)
    out.latencies_ms.append(ms * factor if good else max(ms * factor, limit_ms))
    out.busy_s += ms * factor / 1000
    out.raw_busy_s += ms / 1000


def _describe(req: dict) -> str:
    if "argv" in req:
        return "lieq " + " ".join(req["argv"])
    return json.dumps({k: v for k, v in req.items() if k != "algebra"}, sort_keys=True)


def battery_pass(requests: list[dict], work: Path, tag: str, trace: bool, check,
                 speed: calibration.Speed) -> Pass:
    out = Pass()
    start = time.perf_counter()
    limit_ms = CLI_LIMIT_S * 1000
    for idx, req in enumerate(requests):
        if time.perf_counter() - start > BATTERY_LIMIT_S:
            _record(out, req, False, None, "not started: battery limit", 0.0, 1.0, limit_ms)
            continue
        argv_file = work / f"{tag}.{idx}.argv.json"
        results = work / f"{tag}.{idx}.results.json"
        argv_file.write_text(json.dumps(req["argv"]), encoding="utf-8")
        factor = speed.refresh()
        cmd_start = time.perf_counter()
        code = _spawn(["cli", str(argv_file), str(results)] + (["--trace"] if trace else []),
                      timeout=CLI_LIMIT_S)
        # a user waits for the whole process: start, import and the command
        elapsed_ms = (time.perf_counter() - cmd_start) * 1000
        if code != 0 or not results.exists():
            _record(out, req, False, None, f"worker exited with {code}", elapsed_ms, factor, limit_ms)
            continue
        doc = json.loads(results.read_text(encoding="utf-8"))
        out.setup_s.append(doc["setup_s"] * factor)
        out.import_s.append(doc["import_s"])
        out.peak_rss_mb = max(out.peak_rss_mb, doc["peak_rss_mb"])
        if trace:
            out.traces.append(doc["trace"])
        if req["argv"][0] == "verify-all":
            out.verify_all_s = doc["ms"] / 1000 * factor
        completed = doc["error"] is None
        verdict = check(req, doc) if completed else None
        if completed and verdict and doc["code"] != 0 and not doc["stdout"]:
            # no answer at all: a failure, not a wrong answer
            completed, verdict = False, None
        _record(out, req, completed, verdict, doc["error"] or f"exit {doc['code']}", elapsed_ms,
                factor, limit_ms)
    return out


# -- correctness ---------------------------------------------------------------------


def make_checker(workload: str):
    import reference
    import workloads

    if workload == "qcalc":
        def check(req, answer):
            op = req["op"]
            if op == "qbin":
                got = reference.poly_from_doc(answer)
                want = reference.pascal_binomial(req["n"], req["k"])
                return "" if got == want else "q_binomial_closed differs from the Pascal recursion"
            if op == "normalize":
                got = reference.normal_form_from_doc(answer)
                return "" if got == reference.expected_normal_form(req["expr"]) else "normal form differs"
            return "" if answer is True else "identity reported False"
        return check

    if workload == "cohom":
        pool = {}
        for entry in workloads.load_pool():
            if reference.algebra_digest(entry["doc"]) != entry["digest"]:
                raise RuntimeError(f"pool entry {entry['name']} changed without new references")
            pool[entry["name"]] = entry["ref"]

        def check(req, answer):
            ref = pool[req["ref"]]
            op = req["op"]
            if op == "signature":
                want = ref["signature"]
            elif op == "rigidity":
                want = ref["rigidity"]
            elif op == "d_squared":
                want = True
            else:
                want = ref["H"][int(op[1])]
            return "" if answer == want else f"got {answer}, oracle says {want}"
        return check

    def check(req, doc):
        if doc["code"] != 0:
            return f"exit code {doc['code']}"
        try:
            payload = json.loads(doc["stdout"])
        except ValueError:
            return "stdout is not JSON"
        if req["expect"] == "pass":
            return "" if payload.get("status") == "pass" else f"status {payload.get('status')}"
        got = reference.normal_form_from_doc(payload.get("normal_form", {}))
        want = reference.expected_normal_form(req["argv"][2])
        return "" if got == want else "normal form differs"
    return check


# -- metrics ---------------------------------------------------------------------------


def p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def end_to_end(p: Pass) -> dict[str, float]:
    return {
        "setup_s": statistics.median(p.setup_s),
        "req_per_s": sum(p.ok) / p.busy_s,
        "req_p50_ms": statistics.median(p.latencies_ms),
        "req_p95_ms": p95(p.latencies_ms),
        "peak_rss_mb": p.peak_rss_mb,
    }


def layer_values(traces: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Sum the per-process trace summaries; return (metrics, deterministic counts)."""
    summary: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for tr in traces:
        for name, stats in tr["summary"].items():
            acc = summary.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key, value in stats.items():
                acc[key] += value
        for key, value in tr["counts"].items():
            counts[key] = counts.get(key, 0) + value
    values: dict[str, float] = {}
    for fn, stats in LAYER_STATS.items():
        base = summary.get(fn, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat in stats:
            if stat in base:
                values[f"{fn}.{stat}"] = base[stat]
            elif stat == "pivot_ratio":
                rows = counts.get("linalg.rref.rows_in", 0)
                values[f"{fn}.{stat}"] = counts.get("linalg.rref.pivots", 0) / rows if rows else 0.0
            elif stat == "repeat_ratio":
                built = base["calls"]
                values[f"{fn}.{stat}"] = (
                    counts.get("cohomology.differential_matrix.repeats", 0) / built if built else 0.0
                )
            else:
                values[f"{fn}.{stat}"] = counts.get(f"{fn}.{stat}", 0)
    deterministic = {
        f"{fn}.{stat}": values[f"{fn}.{stat}"]
        for fn, stats in LAYER_STATS.items() for stat in stats if stat in DETERMINISTIC
    }
    return values, deterministic


def _gather_spans(traces: list[dict], path: Path) -> int:
    """One spans file per workload and seed; each process's request ids are
    offset by its position so they stay distinct."""
    total = 0
    with open(path, "w", encoding="utf-8") as out:
        out.write("process\tname\tstart\tend\tparent\trequest\n")
        for proc, tr in enumerate(traces):
            with open(tr["spans_file"], "r", encoding="utf-8") as handle:
                next(handle)
                for line in handle:
                    out.write(f"{proc}\t{line}")
            total += tr["spans"]
    return total


# -- main ------------------------------------------------------------------------------------


def main() -> int:
    try:
        return run()
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["qcalc", "cohom", "battery"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/lieq/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a lieq source checkout ({', '.join(missing)} missing under {ROOT})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import workloads

    seconds = args.seconds * (TRACE_SHARE if args.trace else 1.0)
    requests = workloads.GENERATORS[args.workload](args.seed, seconds)
    check = make_checker(args.workload)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        speed = calibration.Speed()
        if args.workload == "battery":
            def run_pass(tag, trace):
                return battery_pass(requests, work, tag, trace, check, speed)
        else:
            def run_pass(tag, trace):
                return serve_pass(args.workload, requests, work, tag, trace, check, speed)

        if not args.trace:
            main_pass = run_pass("run", False)
            passes = [main_pass]
            if args.workload != "battery":
                inputs = str(work / "run.inputs.json")
                for idx in range(SETUP_SPAWNS):
                    results = work / f"setup{idx}.results.json"
                    factor = speed.refresh(force=True)
                    if _spawn(["serve", args.workload, inputs, str(results), "--setup-only"], 60.0) != 0:
                        raise WorkerFailed("set-up-only worker failed")
                    setup = json.loads(results.read_text(encoding="utf-8"))["setup_s"]
                    main_pass.setup_s.append(setup * factor)
            metrics = {name: (value, END_TO_END[name]) for name, value in end_to_end(main_pass).items()}
            mismatch = []
        else:
            untraced = run_pass("untraced", False)
            first = run_pass("traced1", True)
            second = run_pass("traced2", True)
            passes = [untraced, first, second]
            values, counts1 = layer_values(first.traces)
            _, counts2 = layer_values(second.traces)
            mismatch = [k for k in counts1 if counts1[k] != counts2[k]]
            values["cli.import_s"] = statistics.median(untraced.import_s + first.import_s + second.import_s)
            values["cli.verify_all_s"] = untraced.verify_all_s
            values["trace.overhead_s"] = (first.busy_s + second.busy_s) / 2 - untraced.busy_s
            units = layer_metric_units()
            metrics = {name: (values[name], units[name]) for name in units}
            spans_out = HERE / ".work" / f"{args.workload}-{args.seed}.spans.tsv"
            spans = _gather_spans(first.traces, spans_out)
            print(f"{spans} spans of traced pass 1 written to {spans_out.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    main_pass = passes[0]
    attempted = sum(len(p.ok) for p in passes)
    failed = sum(len(p.ok) - sum(p.ok) for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    for line in wrong[:20]:
        print(f"WRONG {line}")
    for line in sorted({e for p in passes for e in p.errors})[:20]:
        print(f"FAILED {line}")
    for key in mismatch:
        print(f"NONDETERMINISTIC {key}")
    print(f"workload {args.workload} seed {args.seed}: {len(main_pass.ok)} requests per pass, "
          f"{len(passes)} pass(es), fail_ratio {failed / attempted:.4f} ({failed}/{attempted}), "
          f"p95 over {len(main_pass.latencies_ms)} samples")
    print(f"host speed: request time x {main_pass.busy_s / main_pass.raw_busy_s:.3f} on average "
          f"(calibrated); uncalibrated req_per_s {sum(main_pass.ok) / main_pass.raw_busy_s:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:.6g} {unit}")
    result = {
        "correct": not wrong and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
