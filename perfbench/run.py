"""Seeded benchmark of blockerlab: certified answers end to end, spans per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cograph_colouring --seed 1 --seconds 25 --trace 0

``--trace 0`` measures end to end for ``--seconds`` and prints throughput,
median and tail latency, set-up time, peak memory and the certified share;
its times are scaled to a fixed host speed (see ``HostSpeed``).
``--trace 1`` replays a fixed prefix of the same seeded items four times,
each in a fresh process, plain and with spans around every public call of
each layer, and prints calls, total and self time per function; it also
checks that the replays saw identical instances, answers and call counts.
The last line of standard output is one JSON object either way.

    python3 perfbench/run.py --workload ... --out BENCH_x.json   # keep a result
    python3 perfbench/run.py --compare BENCH_old.json BENCH_new.json

``--compare`` only reports the change of each metric; it gates nothing.
See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
workloads = None  # imported by main() once the sources are known to exist
TAIL_LADDER = (99, 95, 90, 75, 50)
CHILD_TIMEOUT_S = 170
REFERENCE_S = 1e-3  # scaled times are for a host where reference_s() returns this
REFERENCE_EVERY_S = 0.1  # least time between two reference timings in a run

# Derived per-layer metrics; a workload that does not exercise one reports 0.
DERIVED_UNITS = {
    "bipartite_blocker.route.tiny_oracle.count": "count",
    "bipartite_blocker.route.alpha_le_d.count": "count",
    "bipartite_blocker.route.tree.count": "count",
    "bipartite_blocker.route.enumerate.count": "count",
    "bipartite_blocker.enumerate.hit_ratio": "ratio",
    "oracle.hit_ratio": "ratio",
}

E2E_UNITS = {
    "instances_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "certified_ratio": ("ratio", "higher"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the result, with its metadata, to this JSON file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print each metric's change; gates nothing")
    p.add_argument("--replay", type=int, choices=(0, 1), help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- metadata and statistics -----------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def nearest_rank(sorted_values, p):
    return sorted_values[max(1, math.ceil(p / 100 * len(sorted_values))) - 1]


def tail_latency(latencies, design_percentile):
    """The highest ladder percentile, up to the workload's, with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        if p <= design_percentile and n - math.ceil(p / 100 * n) >= 10:
            return p, nearest_rank(ordered, p), n - math.ceil(p / 100 * n)
    return 50, statistics.median(ordered), n // 2


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# -- running and checking items ---------------------------------------------------------------


def timed(w, item, tracer=None):
    """One timed call.  Returns (seconds, result, Failed or None)."""
    result = failure = None
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = w.run(item)
    except workloads.Failed as exc:
        failure = exc
    except Exception as exc:  # the program crashed: count it, keep measuring
        failure = workloads.Failed("exception", f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return elapsed, result, failure


class Verdicts:
    """Checks every answer outside the timed region, once per distinct item."""

    def __init__(self, w, items):
        self.w, self.items = w, items
        self.memo = {}
        self.failed = 0
        self.rejected = 0
        self.kinds = collections.Counter()
        self.examples = {}
        self.answer_keys = []

    def add(self, index, result, failure) -> bool:
        """Record one sample; returns True when its answer is certified."""
        Failed, Rejected = workloads.Failed, workloads.Rejected
        if failure is None:
            key = self.w.answer_key(self.items[index], result)
            self.answer_keys.append(key)
            if index not in self.memo:
                try:
                    self.w.check(self.items[index], result)
                    verdict = None
                except Failed as exc:
                    verdict = exc
                except Rejected as exc:
                    verdict = Failed("rejected", str(exc))
                except Exception as exc:  # unreadable output is a wrong answer too
                    verdict = Failed("rejected", f"{type(exc).__name__}: {exc}")
                self.memo[index] = (key, verdict)
            first_key, verdict = self.memo[index]
            if verdict is None and key != first_key:
                verdict = Failed("rejected", f"{self.items[index].key}: answer changed between repeats")
            failure = verdict
        else:
            self.answer_keys.append(f"failed {failure.kind}")
        if failure is None:
            return True
        self.failed += 1
        self.rejected += failure.kind == "rejected"
        self.kinds[failure.kind] += 1
        self.examples.setdefault(failure.kind, f"{self.items[index].key}: {failure}")
        return False


# -- the three modes ---------------------------------------------------------------------


# The reference computation's inputs, built once.
REF_DOC = {"rows": [{"k": i, "v": str(i) * 3, "l": list(range(i % 10))} for i in range(300)]}
REF_PATTERN = re.compile(r"(\w+)=(\d+)")
REF_TEXT = " ".join(f"k{i}={i * 7}" for i in range(300))


def reference_s() -> float:
    """The faster of two runs of a fixed mix of interpreter work that does
    not touch blockerlab: JSON, a regular expression, a sort, sets."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        rows = json.loads(json.dumps(REF_DOC))["rows"]
        dict(REF_PATTERN.findall(REF_TEXT))
        rows.sort(key=lambda r: (-len(r["l"]), r["v"]))
        {frozenset(r["l"]) for r in rows}
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Reference timings taken between timed calls.

    The shared host this was tuned on runs the same Python code up to half
    again slower in stretches of seconds to minutes, and a stretch often
    lasts a whole run.  Interleaved reference timings follow it: over 100 s
    of one oracle table, 5-second medians of the table ranged 78-138 ms and
    correlated 0.97 with those of the reference.  A call's time is scaled
    by REFERENCE_S over the mean of the reference timings just before and
    just after it, which gives the time on a host where the reference takes
    REFERENCE_S.  The reference does not use blockerlab, so a change to the
    program moves the scaled times as much as the wall-clock ones.
    """

    def __init__(self):
        self.stamps, self.values = [], []
        self.sample()

    def sample(self):
        self.values.append(reference_s())
        self.stamps.append(time.perf_counter())

    def maybe_sample(self):
        if time.perf_counter() - self.stamps[-1] >= REFERENCE_EVERY_S:
            self.sample()

    def scale(self, t0, t1) -> float:
        """Factor for work done from t0 to t1; needs a sample taken after t1."""
        before = self.values[max(0, bisect.bisect_right(self.stamps, t0) - 1)]
        after = self.values[bisect.bisect_left(self.stamps, t1)]
        return REFERENCE_S / ((before + after) / 2)


def setup(w, seed, workdir, repeats=SETUP_REPEATS):
    """Seeded generation (and input-file writing), repeated; returns items and the median time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        items = w.generate(seed, workdir)
        times.append(time.perf_counter() - t0)
    return items, statistics.median(times), times


def end_to_end(args, w, workdir, import_s):
    """Cycle after cycle through the seeded pool until the next cycle would
    end past ``--seconds``.

    A run that gets through the pool starts it again, so the instances of a
    small pool are called several times, spread over the run (at least
    ``w.min_rounds`` times each).  Every call's time is scaled to the
    reference host speed (see ``HostSpeed``), and an instance's latency is
    the median of its scaled calls: the program does the same work on
    each, so the median also drops the host's short stalls.
    """
    if w.spawns_processes:
        # The children do the work and the reference is timed here, so keep
        # both on one CPU: the two vCPUs of the shared host do not always
        # run at the same speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    speed = HostSpeed()
    items, gen_s, gen_times = setup(w, args.seed, workdir)
    speed.sample()
    setup_scale = speed.scale(speed.stamps[0], speed.stamps[-1])
    pool_cycles = len(items) // w.cycle
    samples = []
    cycles = 0
    start = time.perf_counter()
    while True:
        base = cycles % pool_cycles * w.cycle
        for index in range(base, base + w.cycle):
            elapsed, result, failure = timed(w, items[index])
            samples.append((index, elapsed, time.perf_counter(), result, failure))
            speed.maybe_sample()
        cycles += 1
        spent = time.perf_counter() - start
        if cycles >= w.min_rounds * pool_cycles and spent + spent / cycles > args.seconds:
            break
    speed.sample()
    who = resource.RUSAGE_CHILDREN if w.spawns_processes else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    verdicts = Verdicts(w, items)
    certified_flags = [verdicts.add(index, result, failure) for index, _, _, result, failure in samples]
    calls, raw = collections.defaultdict(list), collections.defaultdict(list)
    for index, elapsed, end, _, _ in samples:
        calls[index].append(elapsed * speed.scale(end - elapsed, end))
        raw[index].append(elapsed)
    latency = {index: statistics.median(times) for index, times in calls.items()}
    # Each certified call counts once, at its instance's latency, so the
    # tail's "samples beyond" are calls and every instance weighs the same.
    latencies = [latency[s[0]] for s, ok in zip(samples, certified_flags) if ok]
    raw_latencies = [statistics.median(raw[s[0]]) for s, ok in zip(samples, certified_flags) if ok]
    attempted = len(samples)
    certified = attempted - verdicts.failed
    busy = sum(s[1] for s in samples)
    pct, tail, beyond = tail_latency(latencies, w.tail_percentile) if latencies else (50, math.nan, 0)
    values = {
        "instances_per_s": certified / attempted * len(latency) / sum(latency.values()),
        "latency_p50_ms": 1e3 * statistics.median(latencies) if latencies else math.nan,
        "latency_tail_ms": 1e3 * tail,
        "setup_s": (import_s + gen_s) * setup_scale,
        "peak_rss_mb": peak_rss_mb,
        "certified_ratio": certified / attempted,
    }
    print(f"# attempted {attempted}, certified {certified}, failed {verdicts.failed} "
          f"(failed_ratio {verdicts.failed / attempted:.4f}): {len(latency)} of a pool of {len(items)} "
          f"instances, {attempted / len(latency):.2f} calls each, {busy:.2f} s timed")
    for kind, count in sorted(verdicts.kinds.items()):
        print(f"# failed {kind}: {count}, e.g. {verdicts.examples[kind][:300]}")
    print(f"# latency over {len(latencies)} certified calls: p50 {values['latency_p50_ms']:.3f} ms, "
          f"tail p{pct} {values['latency_tail_ms']:.3f} ms with {beyond} calls beyond it")
    raw_p50 = 1e3 * statistics.median(raw_latencies) if raw_latencies else math.nan
    print(f"# host speed: reference {1e3 * statistics.median(speed.values):.3f} ms median of "
          f"{len(speed.values)} ({1e3 * min(speed.values):.3f}..{1e3 * max(speed.values):.3f}); "
          f"unscaled p50 {raw_p50:.3f} ms")
    print(f"# setup: imports {import_s:.3f} s + median seeded generation {gen_s:.3f} s "
          f"of {', '.join(f'{t:.3f}' for t in gen_times)}, unscaled")
    extra = {"failed_ratio": verdicts.failed / attempted, "tail_percentile": pct,
             "tail_calls_beyond": beyond, "latency_calls": len(latencies),
             "instances": len(latency), "pool": len(items), "failures": dict(verdicts.kinds),
             "reference_ms_median": 1e3 * statistics.median(speed.values), "unscaled_p50_ms": raw_p50}
    return verdicts.rejected == 0, attempted, verdicts.failed, values, extra


def replay(args, w, workdir):
    """Child process: replay the fixed prefix, plain or traced; print one JSON line."""
    items, _, _ = setup(w, args.seed, workdir, repeats=1)
    tracer = None
    if args.replay:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if w.spawns_processes:
        w.in_process = True  # spans cannot reach into child processes
    prefix = items[: w.replay_cycles * w.cycle]
    busy = 0.0
    records = []
    for item in prefix:
        before = dict(tracer.calls) if tracer else {}
        elapsed, result, failure = timed(w, item, tracer)
        busy += elapsed
        delta = {k: tracer.calls[k] - v for k, v in before.items()}
        records.append((item, result, failure, delta))
    verdicts = Verdicts(w, items)
    for index, (item, result, failure, _) in enumerate(records):
        verdicts.add(index, result, failure)
    out = {
        "pass_s": busy,
        "instances": digest(w.fingerprint(item) for item in prefix),
        "answers": digest(verdicts.answer_keys),
        "attempted": len(records),
        "failed": verdicts.failed,
        "correct": verdicts.rejected == 0,
    }
    if tracer:
        out["calls"] = tracer.calls
        out["total_s"] = {k: v / 1e9 for k, v in tracer.total_ns.items()}
        out["self_s"] = {k: tracer.self_ns(k) / 1e9 for k in tracer.calls}
        out["derived"] = w.derived([(item, result, delta) for item, result, _, delta in records])
    print(json.dumps(out))


def spawn_replay(args, traced: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--replay", str(traced)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"replay child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(args):
    """Four fresh replays in the order plain, traced, traced, plain.

    The order cancels a steady drift of the shared CPU's speed out of the
    overhead ratio, and the two traced replays double as the self-check:
    the same seed must give identical instances, answers and call counts.
    """
    runs = [spawn_replay(args, traced) for traced in (0, 1, 1, 0)]
    plain, traced = (runs[0], runs[3]), (runs[1], runs[2])
    checks = {
        "instances": len({r["instances"] for r in runs}) == 1,
        "answers": len({r["answers"] for r in runs}) == 1,
        "calls": traced[0]["calls"] == traced[1]["calls"],
    }
    print("# self-check over four replays: " + ", ".join(
        f"{what} {'identical' if ok else 'DIFFER'}" for what, ok in checks.items()))
    first = traced[0]
    values = {}
    for name, calls in first["calls"].items():
        values[f"{name}.calls"] = (calls, "count")
        values[f"{name}.total_s"] = (statistics.mean(t["total_s"][name] for t in traced), "s")
        values[f"{name}.self_s"] = (statistics.mean(t["self_s"][name] for t in traced), "s")
    for name, unit in DERIVED_UNITS.items():
        values[name] = (first["derived"].get(name, 0), unit)
    plain_s, traced_s = sum(r["pass_s"] for r in plain), sum(r["pass_s"] for r in traced)
    values["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    busiest = sorted(first["self_s"].items(), key=lambda kv: -kv[1])[:8]
    print(f"# replayed {first['attempted']} items: plain {plain_s / 2:.3f} s, traced {traced_s / 2:.3f} s per pass; "
          f"instances {first['instances']}, answers {first['answers']}")
    print("# largest self time: " + ", ".join(f"{k} {v:.3f} s ({first['calls'][k]} calls)" for k, v in busiest))
    correct = all(checks.values()) and all(r["correct"] for r in runs)
    return correct, first["attempted"], first["failed"], values


def compare(old_path, new_path) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for side, res in (("old", old), ("new", new)):
        meta = res["meta"]
        print(f"{side}: {meta['workload']} seed {meta['seed']} trace {meta['trace']} git {meta['git_sha']} "
              f"python {meta['python']} nproc {meta['nproc']}")
    if old["meta"]["seed"] != new["meta"]["seed"] or old["meta"]["workload"] != new["meta"]["workload"]:
        print("note: different workload or seed; the change mixes inputs and code")
    for name, m in new["metrics"].items():
        if name not in old["metrics"]:
            print(f"{name}: new {m['value']:.6g} {m['unit']} (absent before)")
            continue
        before, after = old["metrics"][name]["value"], m["value"]
        change = (after - before) / before if before else math.nan
        better = m.get("better")
        verdict = ""
        if better and before != after:
            verdict = "better" if (after > before) == (better == "higher") else "worse"
        print(f"{name}: {before:.6g} -> {after:.6g} {m['unit']} ({change:+.1%}) {verdict}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "blockerlab" / "__init__.py").is_file():
        print(f"error: no blockerlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    global workloads
    import workloads

    import_s = time.perf_counter() - START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.replay is None:
        print("# perfbench " + " ".join(f"{k} {v}" for k, v in metadata(args).items()))
    if args.trace and args.replay is None:
        correct, attempted, failed, values = traced_run(args)
        extra = {}
    else:
        w = workloads.make(args.workload, SRC)
        workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            if args.replay is not None:
                replay(args, w, workdir)
                return 0
            correct, attempted, failed, raw, extra = end_to_end(args, w, workdir, import_s)
            values = {k: (v, E2E_UNITS[k][0]) for k, v in raw.items()}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass
    metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
    if args.out:
        kept = {k: {**m, "better": E2E_UNITS.get(k, (None, None))[1]} for k, m in metrics.items()}
        Path(args.out).write_text(json.dumps({"meta": metadata(args), "correct": correct, "attempted": attempted,
                                              "failed": failed, "metrics": kept, "extra": extra}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
