"""One benchmark worker process.

    python3 bench/worker.py serve <workload> <inputs.json> <results.json> --spawned=T [--trace] [--setup-only]
    python3 bench/worker.py cli <argv.json> <results.json> --spawned=T [--trace]

T is the parent's time.monotonic() just before it started this process;
set-up time runs from T until ``lieq.cli`` is imported and the inputs are
loaded.  ``serve`` then answers the requests back to back (``qcalc`` and ``cohom``); module-level
caches stay warm across requests, as in a library session.  ``cli`` runs
one command through ``lieq.cli.run`` in this fresh process, as a user at a
shell would (``battery``).  Answers are serialized after each request's
timer stops; results go to a JSON file.  Each request records the host-speed
factor of ``calibration.py`` that applies to it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibration  # noqa: E402  (after the path set-up above)

REQUEST_LIMIT_S = 30.0  # a request running longer counts as failed
LOOP_LIMIT_S = 110.0    # requests not started by then count as failed


class RequestTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that library code
    catching Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- request handlers: (run, serialize) ------------------------------------------


def _qcalc(req):
    from lieq import qheis

    op = req["op"]
    if op == "qbin":
        return qheis.q_binomial_closed(req["n"], req["k"]), lambda p: p.to_doc()
    if op == "normalize":
        nf = qheis.normal_order(qheis.parse_qexpr(req["expr"]))
        return nf, lambda nf: {f"{m},{n}": p.to_doc() for (m, n), p in nf.coeffs.items()}
    if op == "jacobi":
        return qheis.verify_generalized_jacobi(req["which"], req["n"], req.get("m")), bool
    if op == "powandprod":
        return qheis.verify_powandprod(req["n"]), bool
    raise ValueError(f"unknown qcalc op {op!r}")


def _cohom(req):
    from lieq import cohomology, deform
    from lieq.liealg import LieAlgebra

    op = req["op"]
    g = LieAlgebra.from_doc(req["algebra"])
    if op == "signature":
        return g.invariant_signature(), lambda s: s.to_doc()
    if op == "rigidity":
        return deform.rigidity_report(g), lambda r: r.to_doc()
    if op in ("H0", "H1", "H2", "H3"):
        return cohomology.cohomology_dim(int(op[1]), g, cohomology.adjoint_rep(g)), int
    if op == "d_squared":
        return cohomology.d_squared_check(g, cohomology.adjoint_rep(g), req["k"]), bool
    raise ValueError(f"unknown cohom op {op!r}")


HANDLERS = {"qcalc": _qcalc, "cohom": _cohom}


def serve(workload: str, inputs: str, results: str, spawned: float, trace: bool, setup_only: bool) -> None:
    t0 = time.perf_counter()
    import lieq.cli  # noqa: F401  (the user-visible entry point, imported as users do)

    import_s = time.perf_counter() - t0
    with open(inputs, "r", encoding="utf-8") as handle:
        requests = json.load(handle)
    setup_s = time.monotonic() - spawned
    if setup_only:
        _write(results, {"setup_s": setup_s, "import_s": import_s})
        return
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    speed = calibration.Speed()
    handler = HANDLERS[workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    out = []
    loop_start = time.perf_counter()
    for idx, req in enumerate(requests):
        if time.perf_counter() - loop_start > LOOP_LIMIT_S:
            out.append({"ok": False, "ms": 0.0, "factor": 1.0, "error": "not started: loop limit"})
            continue
        if tracer is not None:
            tracer.begin_request(idx)
        factor = speed.refresh()
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
            try:
                value, serialize = handler(req)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            ms = (time.perf_counter() - start) * 1000
            out.append({"ok": True, "ms": ms, "factor": factor, "answer": serialize(value)})
        except (Exception, RequestTimeout) as err:
            ms = (time.perf_counter() - start) * 1000
            out.append({"ok": False, "ms": ms, "factor": factor, "error": f"{type(err).__name__}: {err}"[:300]})
    doc = {"results": out, "setup_s": setup_s, "import_s": import_s, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        doc["trace"] = _trace_doc(tracer, results)
    _write(results, doc)


def cli(argv_file: str, results: str, spawned: float, trace: bool) -> None:
    t0 = time.perf_counter()
    import lieq.cli

    import_s = time.perf_counter() - t0
    with open(argv_file, "r", encoding="utf-8") as handle:
        argv = json.load(handle)
    setup_s = time.monotonic() - spawned
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin_request(0)
    buffer = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
            code = lieq.cli.run(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as err:
        # An uncaught exception: the real `lieq` process prints a traceback
        # and exits 1.
        code, error = 1, f"{type(err).__name__}: {err}"[:300]
        if tracer is not None:
            tracer.counts["cli.run.failed"] += 1
    ms = (time.perf_counter() - start) * 1000
    doc = {"code": code, "stdout": buffer.getvalue(), "ms": ms, "error": error, "setup_s": setup_s,
           "import_s": import_s, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        doc["trace"] = _trace_doc(tracer, results)
    _write(results, doc)


def _trace_doc(tracer, results: str) -> dict:
    spans_path = results[: -len(".json")] + ".spans.tsv"
    return {"summary": tracer.summary(), "counts": dict(tracer.counts),
            "spans": tracer.write_spans(spans_path), "spans_file": spans_path}


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def main(argv: list[str]) -> None:
    flags = {a.split("=", 1)[0]: a.split("=", 1)[-1] for a in argv if a.startswith("--")}
    pos = [a for a in argv if not a.startswith("--")]
    if "--spawned" not in flags:
        sys.exit(__doc__)
    spawned = float(flags["--spawned"])
    if pos and pos[0] == "serve" and len(pos) == 4:
        serve(pos[1], pos[2], pos[3], spawned, "--trace" in flags, "--setup-only" in flags)
    elif pos and pos[0] == "cli" and len(pos) == 3:
        cli(pos[1], pos[2], spawned, "--trace" in flags)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
