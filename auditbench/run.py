"""Audit benchmark: ``proxyaudit full`` on seeded workloads, end to end and
layer by layer.

    python3 auditbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is ``src/proxyaudit`` of the
checkout this file sits in. Workloads (see ``workloads.py``):
``james_use_200k``, ``wide_search_50k`` and ``probe_50k``.

``--trace 0`` measures the end-to-end metrics with tracing off, one audit at
a time, each in a fresh process, until ``--seconds`` are spent:

* ``audit_s``: median wall time of ``proxyaudit full`` from spawn to exit;
* ``setup_s``: median wall time of a fresh ``import proxyaudit.cli``;
* ``peak_rss_mb``: median peak resident memory of the audit, which for
  ``probe_50k`` is the larger of the audit and its probe.

``--trace 1`` alternates set-up samples, untraced audits and traced ones
(``tracer.py``) and reports per-layer self times and counts as medians over
the traced audits, with the tracing overhead (traced minus untraced
``audit_s``) and ``trace.accounted_share``, the sum of all layer self times
over the traced ``audit_s`` less ``setup_s``. ``models.probe_peak_rss_mb``
is the peak of the probe process alone.

Every audit's ``report.json`` is checked: its bytes must equal the digest
recorded in ``digests.json`` for this workload and seed (where one is
recorded) and every other report of the run, and it must meet the
workload's semantic expectations. A failed check counts toward
``error_rate = failed / attempted``; no run is dropped. ``--record`` audits
once and records the digest for this workload and seed. Every run checks
that it emits exactly the metrics ``BENCHMARK.json`` lists for its mode,
with the units listed there. ``--smoke`` runs tiny inputs, for the
harness's own tests (``test_smoke.py``); it sets no timing bound.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it holds the
provenance (git sha, Python, numpy and scipy versions, ``nproc``, kernel
backend, seed) and every sample behind each median. The numbers are
warm-cache medians: caches are never dropped, and the machine may be shared.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".auditbench"

SOURCE_DATE_EPOCH = "1700000000"
# every child is killed past this point, so a run ends well within 180 s
HARD_LIMIT_S = 160.0

SPEC = ROOT / "BENCHMARK.json"


def _read_digests():
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    """One benchmark invocation: its inputs, children and samples."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PROXYAUDIT_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
        self.work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digest = None
        self.reference = None
        self.digest_key = f"{args.workload}:{args.seed}"
        # smoke inputs are smaller, so no digest is recorded for them
        recorded = {} if args.smoke else _read_digests()
        self.recorded_digest = recorded.get(self.digest_key)

    # --- children -------------------------------------------------------

    def spawn(self, argv, log_name):
        """Run ``argv`` to completion in its own session; returns
        (wall seconds, exit code, peak RSS in MB)."""
        with open(self.work / log_name, "ab") as log:
            begin = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=log,
                                    start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - begin),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def setup_sample(self):
        wall, code, _rss = self.spawn(
            [sys.executable, "-c", "import proxyaudit.cli"], "setup.log")
        if code != 0:
            raise RuntimeError(f"import proxyaudit.cli exited {code}")
        return wall

    def audit(self, inputs, traced=False):
        """One audit in a fresh process; returns (wall, rss, trace or None),
        with wall None when the audit failed."""
        self.attempted += 1
        out = self.work / f"out-{self.attempted}"
        argv = [sys.executable, "-m", "proxyaudit.cli"]
        spans = out / "spans.json"
        if traced:
            out.mkdir(parents=True)
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans)]
        wall, code, rss = self.spawn(argv + inputs.full_args(out), "audit.log")
        problems = [f"exit code {code}"] if code != 0 else self.check(
            inputs, out / "report.json")
        trace = None
        if traced and not problems:
            trace = json.loads(spans.read_text(encoding="utf-8"))
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(f"audit {self.attempted}: {p}" for p in problems)
            return None, rss, None
        return wall, rss, trace

    def check(self, inputs, path):
        try:
            body = path.read_bytes()
            report = json.loads(body)
        except (OSError, ValueError) as exc:
            return [f"no readable report: {exc}"]
        digest = hashlib.sha256(body).hexdigest()
        problems = []
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("report bytes differ between audits of one input")
        if self.recorded_digest and digest != self.recorded_digest:
            problems.append(f"report digest {digest[:16]} != recorded "
                            f"{self.recorded_digest[:16]}")
        return problems + workloads.check_report(inputs, report, self.reference)

    def reference_audit(self, inputs):
        """Builtin-model audit whose red flags the probe audit must equal."""
        out = self.work / "reference"
        _wall, code, _rss = self.spawn(
            [sys.executable, "-m", "proxyaudit.cli"]
            + inputs.full_args(out, model=inputs.reference_model),
            "reference.log")
        if code != 0:
            raise RuntimeError(f"builtin reference audit exited {code}")
        return json.loads((out / "report.json").read_text(encoding="utf-8"))

    # --- measurement ------------------------------------------------------

    def measure(self, step):
        """Repeat ``step`` until the next repetition would overrun
        ``--seconds``; at least once. A failed audit is counted, not
        retried, and measuring goes on."""
        stop = time.perf_counter() + self.args.seconds
        while True:
            begin = time.perf_counter()
            step()
            now = time.perf_counter()
            if now + (now - begin) > stop or now > self.deadline - 30.0:
                return

    def end_to_end(self, inputs):
        audits, rss = [], []
        # one set-up sample up front and one with each audit
        setups = [self.setup_sample()]

        def step():
            setups.append(self.setup_sample())
            wall, peak, _ = self.audit(inputs)
            if wall is not None:
                audits.append(wall)
                rss.append(peak)

        self.measure(step)
        samples = {"audit_s": audits, "setup_s": setups, "peak_rss_mb": rss}
        if not audits:
            return {}, samples
        return {
            "audit_s": statistics.median(audits),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }, samples

    def per_layer(self, inputs):
        untraced, traced, setups, layers = [], [], [], []

        def step():
            setups.append(self.setup_sample())
            wall, _peak, _ = self.audit(inputs)
            twall, _tpeak, trace = self.audit(inputs, traced=True)
            if wall is not None and twall is not None:
                untraced.append(wall)
                traced.append(twall)
                layers.append(tracer.layer_metrics(trace))

        self.measure(step)
        samples = {"traced audit_s": traced, "untraced audit_s": untraced,
                   "setup_s": setups}
        if not layers:
            return {}, samples
        # counts repeat exactly, so the median only smooths the times
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.audit_s"] = statistics.median(traced)
        metrics["trace.setup_s"] = statistics.median(setups)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(untraced))
        # what the layers explain of a traced audit beyond interpreter set-up
        metrics["trace.accounted_share"] = sum(
            metrics[f"{layer}.self_s"] for layer in tracer.LAYERS
        ) / (metrics["trace.audit_s"] - metrics["trace.setup_s"])
        return metrics, samples


def provenance(run):
    probe = (
        "import json, os, sys, numpy, scipy\n"
        "from proxyaudit import kernels\n"
        "print(json.dumps({'python': sys.version.split()[0],"
        " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'nproc': os.cpu_count(), 'kernels_backend': kernels.active_backend()}))"
    )
    facts = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=run.env, check=True,
        capture_output=True, text=True, timeout=60).stdout)
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            check=True, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = sha = None
    if top is None or Path(top).resolve() != ROOT:
        sha = None  # the checkout need not be a git repository of its own
    source = hashlib.sha256()
    for path in sorted((SRC / "proxyaudit").rglob("*")):
        if path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    return {
        **facts,
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "workload": run.args.workload,
        "seed": run.args.seed,
        "proxyaudit_env": "none set (default configuration)",
        "digest": run.digest_key if run.recorded_digest else "not recorded",
        "note": f"warm-cache medians on a shared {facts['nproc']}-core machine; "
                "one audit at a time",
    }


def with_units(values, trace):
    """Metrics with the units BENCHMARK.json gives them, and the names it
    lists for this mode that were not measured or that it does not list."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in values.items() if k in units}
    return metrics, sorted(set(units) ^ set(values))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{workloads.SMOKE_ROWS}-row inputs, for the "
                             "harness's own tests")
    parser.add_argument("--record", action="store_true",
                        help="audit once and record the report digest")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "proxyaudit" / "cli.py").is_file():
        print(f"auditbench: no program at {SRC / 'proxyaudit'}", file=sys.stderr)
        return 2
    run = Run(args)
    run.work.mkdir(parents=True)
    try:
        make = workloads.WORKLOADS[args.workload]
        sized = {"rows": workloads.SMOKE_ROWS} if args.smoke else {}
        inputs = make(run.env, run.work / "inputs", args.seed, **sized)
        if inputs.reference_model is not None:
            run.reference = run.reference_audit(inputs)
        if args.record:
            return record(run, inputs)
        facts = provenance(run)
        if args.trace:
            values, samples = run.per_layer(inputs)
        else:
            values, samples = run.end_to_end(inputs)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics, unlisted = with_units(values, args.trace)
    error_rate = run.failed / run.attempted
    for name, m in metrics.items():
        print(f"{name:38s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':38s} {error_rate:>16.6g} ratio "
          f"({run.failed} of {run.attempted} audits)")
    for problem in run.problems:
        print(f"problem: {problem}")
    for name in unlisted:
        print(f"problem: metric {name} is measured or listed in "
              f"{SPEC.name}, not both")
    print(json.dumps({"provenance": facts, "samples": samples}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and not unlisted,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def record(run, inputs):
    run.recorded_digest = None
    wall, _rss, _ = run.audit(inputs)
    if wall is None:
        print("\n".join(run.problems), file=sys.stderr)
        return 1
    digests = _read_digests()
    digests[run.digest_key] = run.first_digest
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"recorded {run.digest_key} {run.first_digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
