"""End-to-end and per-layer benchmark of infolat.

    python3 benchmarks/run.py --workload flow-large [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root or anywhere else: the library is imported
from ``src/`` next to this directory and nowhere else.  One client
drives the library from one thread as a closed loop: each operation
starts after the previous one returned.  Operations are replayed in
whole rounds until ``--seconds`` of operation time and at least
MIN_SAMPLES operations have been measured.  Each round runs on input
objects built afresh from the seed, outside the timed region, so no
per-object cache carries over between rounds.  Before the first round,
an untimed pass runs each operation once and checks its result against
``oracle.py`` in a forked child, so that the oracle's memory never
counts in this process's peak; every measured result must match the
fingerprint of that checked result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced rounds for half the time, then exactly one round with every
public library function wrapped, and prints the per-layer metrics of
that round and ``trace.overhead_ratio``.  Spans go to
``.bench_out/spans-<workload>-<seed>.bin``, and each run's metrics with
the host facts to ``.bench_out/result-<workload>-<seed>-trace<t>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path

import inputs as gen
from speed import SpeedProbe
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "spec.json").read_text())
SETUP_REPEATS = 3
MIN_SAMPLES = 100
TALLIES = {
    "loci.enumerate_loci": ("loci.enumerate.results", len),
    "loci.enumerate_loi": ("loci.enumerate.results", len),
    "tini.observer_impossibility_search": ("tini.observer.checked",
                                           lambda res: res.checked),
}
EXACT_COUNTS = ("poset.close_rows", "relation.Rel", "relation.is_transitive",
                "relation.bit_tuple", "loi.pullback", "tini.compatible_extension",
                "catalog.get_example")


def import_library():
    """A fresh import of the library from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "infolat"]:
        del sys.modules[name]
    il = importlib.import_module("infolat")
    if not Path(il.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"infolat was imported from {il.__file__}, not {SRC}")
    return il, importlib.import_module("infolat.cli")


def build(workload, seed, paths):
    il, cli = import_library()
    return (il, cli) + WORKLOADS[workload](il, cli, random.Random(seed), paths)


def setup(workload, seed, paths, probe):
    """Import and build the inputs SETUP_REPEATS times; keep the last set."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        built = None  # let the previous set go before building the next
        probe.sample()
        before = len(probe.samples) - 1
        built, error, raw, last = probe.timed(
            lambda: build(workload, seed, paths))
        if error is not None:
            raise error
        probe.sample()
        times.append(probe.scale(raw, before, last))
        digests.add(gen.digest(built[2]))
    il, cli, _, ops = built
    return il, cli, ops, statistics.median(times), digests


def canon(result):
    """The part of a result that later rounds must reproduce."""
    if isinstance(result, list):
        return [canon(x) for x in result]
    rows = getattr(result, "rows", None)
    if rows is not None:
        return getattr(result, "elements", None), rows
    images = getattr(result, "images", None)
    return result if images is None else images


def fingerprint(result):
    """Hash of ``canon(result)``, fed item by item so that a long list of
    results is never rendered whole."""
    h = hashlib.blake2b(digest_size=16)
    for item in result if isinstance(result, list) else [result]:
        h.update(repr(canon(item)).encode() + b"\n")
    h.update(b"list" if isinstance(result, list) else b"one")
    return h.digest()


def oracle_check(op, result):
    """Run ``op.check`` on ``result`` in a forked child; the fingerprint
    of an accepted result, or None."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            if op.check(result):
                os.write(write, fingerprint(result))
                code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        digest = pipe.read()
    _, status = os.waitpid(pid, 0)
    return digest if os.waitstatus_to_exitcode(status) == 0 and digest else None


class Session:
    """Timings, failures and verified fingerprints across rounds.

    Times are scaled to the nominal host speed of ``speed.py``.  ``rebuild``
    makes (plain data, operations) afresh; the digest of every rebuilt
    data set goes into ``digests``.
    """

    def __init__(self, ops, probe, rebuild, digests):
        self.ops = ops
        self.probe = probe
        self.rebuild = rebuild
        self.digests = digests
        self.verified = {}
        self.failures = {}
        self.wrong = 0
        self.peak_rss_mb = None

    def round(self, tracer=None):
        """One pass over the operations: (raw seconds, first and last
        speed sample, failed) per operation."""
        out = []
        for k, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = k
            before = self.probe.due()
            # a sample taken from the signal handler could land inside the
            # tracer's bookkeeping, so traced operations are not sampled
            result, error, raw, last = self.probe.timed(op.call, tracer is None)
            if error is not None:
                out.append((raw, before, last, True))
                self.failures.setdefault(
                    op.name, f"raised {type(error).__name__}: {error}")
                continue
            ok = self.verify(op, result)
            del result
            out.append((raw, before, last, not ok))
            if not ok:
                self.wrong += 1
                self.failures.setdefault(op.name, "wrong result")
        return out

    def fresh(self):
        """Build the next round's operations on new input objects."""
        self.ops = None
        data, self.ops = self.rebuild()
        self.digests.add(gen.digest(data))

    def check_all(self):
        """Untimed: run each distinct operation once and keep the
        fingerprint of its result if the oracle accepts it, else None.

        Forking write-protects every page of this process until it next
        writes there, so no timed operation runs between two forks.
        """
        for op in self.ops:
            if op.name not in self.verified:
                try:
                    result = op.call()
                except Exception:
                    self.verified[op.name] = None
                    continue
                self.verified[op.name] = oracle_check(op, result)
                del result
        self.ops = None

    def verify(self, op, result):
        digest = self.verified.get(op.name)
        return digest is not None and digest == fingerprint(result)

    def run(self, seconds, min_samples, tracer=None, max_rounds=None):
        """Whole rounds, at least one, until ``seconds`` of raw operation time and
        ``min_samples`` operations; returns scaled times, failure flags and
        the scale factor of each operation."""
        measured = []
        for rounds in itertools.count(1):
            if self.ops is None:
                self.fresh()
            measured += self.round(tracer)
            self.ops = None
            if self.peak_rss_mb is None:
                # set-up, the checks and one round: later rounds repeat
                # the same work
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if rounds == max_rounds or (len(measured) >= min_samples and
                                        sum(m[0] for m in measured) >= seconds):
                break
        self.probe.sample()
        factors = [self.probe.scale(1.0, first, last) for _, first, last, _ in measured]
        times = [m[0] * c for m, c in zip(measured, factors)]
        return times, [m[3] for m in measured], factors


def nearest_rank(ordered, q):
    return ordered[math.ceil(q * len(ordered)) - 1]


def end_to_end(times, failed, setup_s, peak_rss_mb):
    # a failed operation misses every latency target: rank it as the
    # run's slowest operation
    worst = max(times)
    ranked = sorted(worst if bad else t for t, bad in zip(times, failed))
    done = failed.count(False)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * nearest_rank(ranked, 0.5), "ms"),
        "op_p90_ms": (1e3 * nearest_rank(ranked, 0.9), "ms"),
        "ops_per_s": (done / sum(times), "1/s"),
        "ok_ratio": (done / len(times), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced(session, il, seconds, out_dir, stem):
    """Untraced rounds for half the time, then one traced round."""
    times, failed, _ = session.run(seconds / 2, 1)
    plain_rate = len(times) / sum(times)
    session.fresh()
    tracer = Tracer(TALLIES)
    tracer.install(il)
    t, f, factors = session.run(0, 0, tracer, max_rounds=1)
    tracer.write(out_dir / f"spans-{stem}.bin")
    layers, calls = tracer.layer_metrics(factors)
    metrics = {}
    for name, value in layers.items():
        metrics[name] = (value, "s" if name.endswith("self_s") else "count")
    for label in EXACT_COUNTS:
        metrics[f"{label}.calls"] = (calls.get(label, 0), "count")
    for name in ("tini.observer.checked", "loci.enumerate.results"):
        metrics[name] = (tracer.tally.get(name, 0), "count")
    metrics["trace.overhead_ratio"] = (len(t) / sum(t) / plain_rate, "ratio")
    return times + t, failed + f, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "infolat").is_dir() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no infolat checkout around {HERE}", file=sys.stderr)
        return 2
    seed = SPEC["default_seed"][args.workload] if args.seed is None else args.seed
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    paths = {"golden": ROOT / "tests" / "golden", "work": work}
    sys.path.insert(0, str(SRC))

    probe = SpeedProbe()
    il, cli, ops, setup_s, digests = setup(args.workload, seed, paths, probe)
    host = {"nproc": os.cpu_count(), "python": platform.python_version()}
    print(f"# workload={args.workload} seed={seed} inputs={','.join(sorted(digests))} "
          f"ops/round={len(ops)} " + " ".join(f"{k}={v}" for k, v in host.items()))
    rebuild = lambda: WORKLOADS[args.workload](il, cli, random.Random(seed), paths)
    session = Session(ops, probe, rebuild, digests)
    del ops  # the session drops each round's operations after the round
    session.check_all()
    stem = f"{args.workload}-{seed}"
    if args.trace:
        times, failed, metrics = traced(session, il, args.seconds, out_dir, stem)
    else:
        times, failed, _ = session.run(args.seconds, MIN_SAMPLES)
        metrics = end_to_end(times, failed, setup_s, session.peak_rss_mb)
    for name, error in sorted(session.failures.items()):
        print(f"# failed: {name}: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value if isinstance(value, int) else f'{value:.6g}':>14} {unit}")
    # ``correct``: no wrong answer and the same inputs in every build;
    # operations that raised count in ``failed`` only
    result = {
        "correct": session.wrong == 0 and len(digests) == 1,
        "attempted": len(times),
        "failed": failed.count(True),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=seed, trace=args.trace,
                  inputs=sorted(digests), host=host, failures=session.failures)
    (out_dir / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for path in work.iterdir():
        path.unlink()
    work.rmdir()
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
