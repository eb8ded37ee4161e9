"""homkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the workload's inputs from the
seed, repeats the workload's round of tasks for about S seconds (whole
rounds only, at least one), checks the first round's task outputs against
the benchmark's own references and every later round's against the first
round's, and prints one line per metric followed by a last line of JSON:
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb).  With --trace 1 the first half of the time runs untraced
rounds and the second half traced rounds, and the metrics are the
per-layer ones from the traced rounds plus trace.overhead_ratio.  Spans
and a full result record go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_homkit():
    """Import homkit from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [HERE, SRC]
    import homkit

    if not os.path.abspath(homkit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"homkit found outside {SRC}")


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure_setup(workload: str, seed: int, workdir: str) -> list:
    """Seconds to import homkit and build the inputs, in fresh
    interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             str(seed), workdir],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def plain_round(w, out: list) -> list:
    plain = []
    for name, result in out:
        try:
            plain.append((name, w.plain(name, result)))
        except Exception as exc:  # an unexpected result shape fails the task
            plain.append((name, f"unreadable result: {exc!r}"))
    return plain


def run_rounds(w, seconds: float, reference=None, tracer=None) -> tuple:
    """Whole rounds until the next one would end after ``seconds``.

    Only one round's plain results are kept: ``reference``, or the first
    round's when it is None; later rounds are compared with it and then
    dropped, so memory and collector work do not grow with the round
    count.  Returns round seconds, the reference, the number of rounds
    whose results differ from it and, when traced, the (span range,
    counts, per-task counts) of each round."""
    times, traced = [], []
    differ = 0
    begin = perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            first = tracer.mark()
            tracer.counts.clear()
            tracer.task_counts = {}
        t0 = perf_counter()
        out = w.run_round()
        t1 = perf_counter()
        times.append(t1 - t0)
        if tracer is not None:
            traced.append(((first, tracer.mark()), dict(tracer.counts),
                           tracer.task_counts))
        plain = plain_round(w, out)
        del out
        if reference is None:
            reference = plain
        elif plain != reference:
            differ += 1
        del plain
        if t1 - begin + statistics.median(times) > seconds:
            return times, reference, differ, traced


def check_rounds(w, reference: list, rounds: int, differ: int) -> tuple:
    """(attempted, failed, errors) over ``rounds`` rounds.  The reference
    round's results are checked against ``ref``; every other round must
    have given the same results, and each of the ``differ`` rounds that
    did not counts as one more failure."""
    attempted = failed = 0
    errors: list = []
    for name, value in reference:
        try:
            n, errs = w.check(name, value)
        except Exception as exc:  # a malformed output fails its task
            n, errs = 1, [f"{name}: check raised {exc!r}"]
        attempted += n * rounds
        failed += len(errs) * rounds
        errors += errs
    if differ:
        failed += differ
        errors.append(f"{differ} round(s) gave other results than the "
                      "reference round")
    return attempted, failed, errors


def check_traced(w, traced: list) -> list:
    """Errors in the traced counts: they must be the same in every round
    and match the workload's closed forms."""
    errors = w.check_counts(traced[0][2])
    if any(counts != traced[0][1] for _, counts, _ in traced):
        errors.append("per-layer counts differ between traced rounds")
    return errors


def per_layer(spans, tracer, traced: list, times: list, untraced_s: float):
    """Counts from the first traced round, times as medians over traced
    rounds, and the traced/untraced round-time ratio."""
    rounds = [spans.layer_metrics(tracer.summary(*marks), counts)
              for marks, counts, _ in traced]
    metrics = {}
    for name, unit in spans.PER_LAYER_UNITS.items():
        if name == "trace.overhead_ratio":
            metrics[name] = statistics.median(times) / untraced_s
        elif unit == "s" or unit == "1/s":
            metrics[name] = statistics.median(r[name] for r in rounds)
        else:
            metrics[name] = rounds[0][name]
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_homkit()
    except ImportError as exc:
        print(f"error: cannot import homkit from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        setup = measure_setup(args.workload, args.seed, workdir)
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        gc.collect()
        gc.freeze()  # the inputs live through every round; scan them once
        seconds = args.seconds / 2 if args.trace else args.seconds
        times, reference, differ, _ = run_rounds(w, seconds)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, errors = check_rounds(w, reference, len(times),
                                                 differ)
        q1, wall, q3 = quartiles(times)
        s1, setup_s, s3 = quartiles(setup)
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "round_s": times, "setup_s": setup}
        print(f"workload {args.workload} seed {args.seed} "
              f"trace {args.trace}")
        print(f"wall_s {wall:.4f} s (median of {len(times)} rounds; "
              f"q1 {q1:.4f}, q3 {q3:.4f})")
        print(f"setup_s {setup_s:.4f} s (median of {len(setup)} fresh "
              f"interpreters; q1 {s1:.4f}, q3 {s3:.4f})")
        print(f"peak_rss_mb {peak_rss_mb:.2f} MB")
        units = dict(END_TO_END_UNITS)
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            workloads.task_hook = tracer.task
            try:
                ttimes, _, tdiffer, traced = run_rounds(w, seconds,
                                                        reference, tracer)
            finally:
                workloads.task_hook = None
                tracer.uninstall()
            # traced rounds must reproduce the untraced results exactly
            n, f, errs = check_rounds(w, reference, len(ttimes), tdiffer)
            count_errs = check_traced(w, traced)
            attempted += n
            failed += f + len(count_errs)
            errors += errs + count_errs
            metrics = per_layer(spans, tracer, traced, ttimes, wall)
            units = spans.PER_LAYER_UNITS
            tracer.write(os.path.join(OUT, f"spans-{tag}"))
            record["traced_round_s"] = ttimes
            for name, value in metrics.items():
                shown = value if isinstance(value, int) else f"{value:.6g}"
                print(f"{name} {shown} {units[name]}")
        else:
            metrics = {"wall_s": wall, "setup_s": setup_s,
                       "peak_rss_mb": peak_rss_mb}
        print(f"fail_ratio {failed}/{attempted}")
        for err in errors[:10]:
            print(f"failure: {err}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        }
        record["result"] = result
        with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
            json.dump(record, fh, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
