"""axcalc benchmark: seeded workloads, exact per-item checks, optional trace.

Run from the root of a source checkout:

    python3 bench/run.py --workload fields --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones of
one traced pass.  The package is imported from ``src/`` of the checkout and
nothing is installed.  See DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5      # set-up is timed in this many fresh processes per run
MIN_PASSES = 1         # every item is timed at least this many times per run
PROBE_REPEATS = 7      # fresh interpreters per start-up probe (cli.interpreter_ms)
# Which reference (reference.py) scales each workload's items, how much item
# CPU time runs between two reference samples, and how many samples nearest
# to an item set its scale.
REFERENCE = {"fields": "kernel", "identities": "kernel", "cli-offcenter": "child"}
REF_EVERY_NS = {"kernel": 50_000_000, "child": 250_000_000}
REF_WINDOW = 7


def _fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def _child_env() -> dict:
    """Environment of every child interpreter: the checkout's ``src`` on the
    path (the package is not installed) and no solver degree override."""
    env = {k: v for k, v in os.environ.items() if k != "AXC_MAX_DEGREE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _judge(wl, item, call) -> tuple[bool, int]:
    """Run one item: (correct, CPU ns of the call).  A raise or a wrong
    answer is a failed item; nothing is retried or dropped."""
    start = reference.cpu_ns()
    try:
        result = call()
    except Exception:
        return False, reference.cpu_ns() - start
    cpu = reference.cpu_ns() - start
    try:
        return bool(wl.check(item, result)), cpu
    except Exception:
        return False, cpu


def _self_test(wl):
    """Feed the checker corrupted versions of a real result, and a raising
    call; each must count as failed.  Whether the real result itself passes
    is the program's business and is counted in the timed passes."""
    item = wl.items[0]
    result = wl.prepare(item, True)()
    accepted = [bad for bad in wl.corrupted(item, result) if _judge(wl, item, lambda: bad)[0]]
    raised = _judge(wl, item, lambda: 1 / 0)[0]
    if accepted or raised:
        _fail(f"checker self-test failed: {len(accepted)} corrupted results passed, "
              f"raising call passed={raised}")


def _recorded(rec, item_id: int, call):
    """``call`` with the recorder on for its duration only, so that the
    check of its result stays out of the trace."""
    def run():
        rec.item = item_id
        try:
            return call()
        finally:
            rec.item = None
    return run


def _run_pass(wl, in_process: bool, rec=None):
    """One pass over the items: (per-item CPU ns, failed)."""
    cpu, failed = [], 0
    for i, item in enumerate(wl.items):
        call = wl.prepare(item, in_process)
        if rec is not None:
            call = _recorded(rec, i, call)
        ok, item_cpu = _judge(wl, item, call)
        cpu.append(item_cpu)
        failed += not ok
    return cpu, failed


def _time_setups(args) -> list[float]:
    """Normalised CPU seconds of fresh processes that only set up:
    interpreter start, ``import axc``, input generation, input files and
    warm-up, including any child process the warm-up starts.  Each is
    scaled by the mean of the ``child`` references just before and after."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = reference.child_ns()
    for _ in range(SETUP_REPEATS):
        start = reference.cpu_ns()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=ROOT)
        cpu = reference.cpu_ns() - start
        if done.returncode != 0:
            _fail("set-up process failed: " + done.stderr.decode(errors="replace").strip())
        after = reference.child_ns()
        times.append(cpu / 1e9 * reference.NOMINAL_NS["child"] / ((before + after) / 2))
        before = after
    return times


def _timed_pass(wl, ref: str):
    """One pass over the items with reference samples between them:
    (normalised per-item CPU ns, raw per-item CPU ns, reference ns, wall ns
    of the pass, failed).  Each item is scaled by the median of the
    ``REF_WINDOW`` reference samples nearest to it in the pass."""
    sample = reference.SAMPLERS[ref]
    wall = time.perf_counter_ns()
    raw, marks, refs, failed, since = [], [], [], 0, REF_EVERY_NS[ref]
    for item in wl.items:
        if since >= REF_EVERY_NS[ref]:
            marks.append(len(raw))
            refs.append(sample())
            since = 0
        ok, cpu = _judge(wl, item, wl.prepare(item, False))
        raw.append(cpu)
        failed += not ok
        since += cpu
    marks.append(len(raw))
    refs.append(sample())
    wall = time.perf_counter_ns() - wall
    nominal = reference.NOMINAL_NS[ref]
    scaled = []
    for i, cpu in enumerate(raw):
        near = sorted(range(len(marks)), key=lambda j: abs(marks[j] - i - 0.5))[:REF_WINDOW]
        scaled.append(cpu * nominal / statistics.median(refs[j] for j in near))
    return scaled, raw, refs, wall, failed


def _startup_probe(code: str, env: dict) -> float:
    """Median wall ms of fresh interpreters running ``code``."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _end_to_end(args, wl) -> tuple[int, int, dict]:
    setup_times = _time_setups(args)
    _self_test(wl)
    ref = REFERENCE[args.workload]
    scaled, raw, refs, failed, passes, measured = [], [], [], 0, 0, 0
    while True:
        pass_scaled, pass_raw, pass_refs, wall, f = _timed_pass(wl, ref)
        scaled.append(pass_scaled)
        raw.append(pass_raw)
        refs += pass_refs
        if passes == 0:
            # after one pass every item has run; later passes only add the
            # benchmark's own per-pass records to the high-water mark
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed += f
        passes += 1
        measured += wall
        if passes >= MIN_PASSES and measured + wall > args.seconds * 1e9:
            break
    # Items are timed in CPU time scaled by the reference (reference.py), and
    # each counts with its median over the passes.  Other tenants of the host
    # take the CPUs away, which CPU time leaves out, and slow what they leave
    # by up to 2x for seconds to minutes, which the reference takes out.
    ms = sorted(statistics.median(x) / 1e6 for x in zip(*scaled))
    raw_ms = sorted(statistics.median(x) / 1e6 for x in zip(*raw))
    if args.workload == "cli-offcenter":
        rss_kb = wl.child_rss_kb
    p50, p90 = statistics.median(ms), statistics.quantiles(ms, n=10)[8]
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"wall_s={measured / 1e9:.1f} ops={passes * len(ms)} failed_ops={failed} "
          f"item samples={len(ms)} (median of {passes} per item) "
          f"setup samples={len(setup_times)}")
    print(f"reference {ref}: {len(refs)} samples, median {statistics.median(refs) / 1e6:.4g} ms "
          f"(nominal {reference.NOMINAL_NS[ref] / 1e6:.4g} ms); unscaled item CPU "
          f"p50={statistics.median(raw_ms):.4g} ms "
          f"p90={statistics.quantiles(raw_ms, n=10)[8]:.4g} ms")
    # The item times next to each percentile show whether it sits inside a
    # populated cluster of item times or in a gap between two clusters.
    for name, q, at in (("p50", 0.5, p50), ("p90", 0.9, p90)):
        rank = int(q * len(ms))
        near = " ".join(f"{x:.3g}" for x in ms[max(0, rank - 4):rank + 4])
        print(f"{name}={at:.4g} ms; item times around it: {near}")
    metrics = {
        "items_per_norm_cpu_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "norm_cpu_p50_ms": (p50, "ms"),
        "norm_cpu_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return passes * len(ms), failed, metrics


def _per_layer(args, wl) -> tuple[int, int, dict]:
    import spans

    _self_test(wl)
    plain, failed_plain = _run_pass(wl, in_process=True)
    rec = spans.Recorder()
    spans.install(rec)
    chars_before = getattr(wl, "chars_out", 0)
    traced, failed_traced = _run_pass(wl, in_process=True, rec=rec)
    rec.counts["textio.chars_out"] = getattr(wl, "chars_out", 0) - chars_before
    interpreter = _startup_probe("pass", _child_env())
    with_import = _startup_probe("import axc", _child_env())
    out = WORK / f"spans-{args.workload}.json"
    rec.write(out)
    metrics = spans.layer_metrics(rec)
    metrics["cli.interpreter_ms"] = (interpreter, "ms")
    metrics["cli.import_ms"] = (with_import - interpreter, "ms")
    n = len(wl.items)
    metrics["trace.items_per_s_untraced"] = (n / (sum(plain) / 1e9), "1/s")
    metrics["trace.items_per_s_traced"] = (n / (sum(traced) / 1e9), "1/s")
    metrics["trace.overhead_x"] = (sum(traced) / sum(plain), "ratio")
    print(f"workload={args.workload} seed={args.seed} traced pass items={n} "
          f"failed_ops={failed_plain + failed_traced} spans={len(rec.s_name)} -> {out}")
    return 2 * n, failed_plain + failed_traced, metrics


def main():
    args = _parse_args()
    if not (SRC / "axc" / "__init__.py").is_file():
        _fail(f"no axc package under {SRC}; run from the root of a source checkout")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = workloads.make(args.workload, _child_env())
        wl.setup(args.seed, workdir)
        wl.warm_up()
        if args.setup_only:
            return
        run = _per_layer if args.trace else _end_to_end
        attempted, failed, metrics = run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    main()
