"""Benchmark of the ``foldylax`` CLI on three cluster workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client drives ``foldylax.cli.main`` in this process, one request at a
time (a closed loop), with OpenBLAS/OpenMP/MKL pinned to one thread before
numpy is imported.  Requests run until the next would end after
``--seconds``; a run always holds at least one.  Every
output is then checked against the independent reference in
``reference.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``request_s.p50``, the median
wall time of a successful request; ``peak_rss_mb``, the process's high-water
RSS after the timed requests and before any check; ``setup_s``, the median
time of a fresh interpreter importing ``foldylax.cli``, sampled between
requests at most every ``SETUP_INTERVAL_S`` seconds.  ``--trace 1``
alternates untraced and traced requests and reports the per-layer metrics of
``spans.py`` (medians over the traced successful requests), the traced
request median and the tracing overhead, traced minus untraced median.
Results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import METRICS, Tracer, request_layers  # noqa: E402
from workloads import WORKLOADS, write_request  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORK = os.path.join(HERE, ".work")

SETUP_MIN_SAMPLES = 9
SETUP_INTERVAL_S = 2.0


class SetupTimer:
    """Wall time of fresh interpreters importing ``foldylax.cli``.

    A sample is taken after a request once `SETUP_INTERVAL_S` have passed
    since the last one, so the samples spread over the whole run rather than
    over one moment of a machine whose speed drifts, without crowding out
    short requests; `median` tops them up to `SETUP_MIN_SAMPLES`.  The first
    start, which may compile bytecode, is not counted.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.samples: list[float] = []
        self._time()
        self.last = time.perf_counter()

    def _time(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import foldylax.cli"], env=self.env, cwd=ROOT,
                       check=True)
        return time.perf_counter() - start

    def sample(self):
        self.samples.append(self._time())
        self.last = time.perf_counter()

    def sample_due(self):
        if time.perf_counter() - self.last >= SETUP_INTERVAL_S:
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


def run_request(main, argv, tracer=None, request_id=None):
    """One CLI call; returns (exit status, seconds, captured stderr)."""
    err = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            status = main(argv) if tracer is None else tracer.request(request_id, main, argv)
        except Exception as exc:  # the CLI would exit 1 with a traceback
            print(f"error: {type(exc).__name__}: {exc}", file=err)
            status = 1
    return status, time.perf_counter() - start, err.getvalue()


def _last_line(record) -> str | None:
    """The error message of a failed request (the last line it wrote to stderr)."""
    lines = record["stderr"].strip().splitlines()
    return lines[-1] if record["status"] != 0 and lines else None


def run_requests(main, generate, seed, seconds, workdir, setup, tracer=None):
    """Requests until the next would end after ``seconds``; at least one.

    With a tracer, requests alternate untraced / traced and come in pairs.
    Only what the checks need is kept of each request's inputs, so the
    process's memory does not grow with the number of requests.
    """
    records = []
    start = time.perf_counter()
    step = 2 if tracer is not None else 1
    while True:
        index = len(records)
        traced = tracer is not None and index % 2 == 1
        request = generate(seed, index)
        directory = os.path.join(workdir, f"r{index}")
        argv = write_request(request, directory)
        request["files"] = {}
        request["scenario"] = {"wave": request["scenario"]["wave"]}
        status, seconds_taken, stderr = run_request(
            main, argv, tracer if traced else None, index)
        records.append({"index": index, "request": request, "out": argv[-1],
                        "status": status, "seconds": seconds_taken,
                        "stderr": stderr, "traced": traced})
        setup.sample_due()
        done = len(records)
        elapsed = time.perf_counter() - start
        if done % step == 0 and elapsed * (done + step) / done > seconds:
            return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "foldylax", "cli.py")):
        print(f"error: no foldylax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import foldylax.cli

    if not os.path.abspath(foldylax.cli.__file__).startswith(SRC + os.sep):
        print(f"error: foldylax imported from {foldylax.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    setup = SetupTimer()
    generate = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        records = run_requests(foldylax.cli.main, generate, args.seed, args.seconds,
                               workdir, setup, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = setup.median()
        if tracer is not None:
            tracer.uninstall()
        problems = []
        for rec in records:
            if rec["status"] == 0:
                found = checks.check(rec["request"], rec["out"])
                problems += [f"request {rec['index']}: {p}" for p in found]
                rec["output_bytes"] = os.path.getsize(rec["out"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = [r for r in records if r["status"] == 0]
    failed = [r for r in records if r["status"] != 0]
    untraced = [r["seconds"] for r in ok if not r["traced"]]
    p50 = statistics.median(untraced) if untraced else None
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
               "requests": [{k: r[k] for k in ("index", "status", "seconds", "traced")}
                            | {"kind": r["request"]["kind"], "error": _last_line(r)}
                            for r in records],
               "problems": problems}

    if args.trace:
        traced = [r for r in ok if r["traced"]]
        layers = [request_layers(tracer, r["index"], r["output_bytes"]) for r in traced]
        traced_p50 = statistics.median(r["seconds"] for r in traced) if traced else None
        units = dict(METRICS)
        values = {}
        for name in layers[0] if layers else ():
            pick = statistics.median_low if units[name] == "count" else statistics.median
            values[name] = pick(row[name] for row in layers)
        values["trace.instrument_s"] = (values["trace.spans"] * tracer.span_cost()
                                        if layers else None)
        values["trace.request_s.p50"] = traced_p50
        values["trace.overhead_s"] = (traced_p50 - p50) if traced_p50 and p50 else None
        metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in METRICS}
        summary["layers"] = [{"index": r["index"]} | row for r, row in zip(traced, layers)]
    else:
        metrics = {
            "request_s.p50": {"value": p50, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    summary["metrics"] = metrics

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"trace-{stem}.json"),
                    {"workload": args.workload, "seed": args.seed})

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for rec in failed:
        print(f"request {rec['index']} ({rec['request']['kind']}) exited {rec['status']}: "
              f"{_last_line(rec)}", file=sys.stderr)
    print(f"{args.workload}: attempted {len(records)}, failed {len(failed)}, "
          f"successful {len(ok)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    correct = not problems and p50 is not None
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
