#!/usr/bin/env python3
"""edgeclust benchmark: `run_pipeline` end to end, plus a traced run that
splits the time by layer.

    python3 perfbench/run.py --workload crossbones_lp --seed 3 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports edgeclust from `src/`.
With `--trace 0` it times pipeline instances drawn from `--seed` until
`--seconds` have passed and prints the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it runs each instance untraced and then traced, and prints
the per-layer metrics. Every instance is checked; a failed check is counted,
never fatal. The last line of output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the full record, spans included, is
written to `.perfbench-out/`. `--write-reference` re-solves the reference
panels and rewrites `perfbench/reference.json`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
INTERACTIONS = HERE / "interactions.json"

# One process and one thread: the pipeline is single-threaded apart from
# BLAS and the optional expected_dis pool, and a single thread keeps runs
# steady on a small shared machine.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "EDGECLUST_THREADS")
SETUP_SAMPLES = 5
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; "
              "import workloads; workloads.warm_up()")
STAGES = ("data", "pairs", "edges", "fit", "graph", "solve", "score", "likelihood")
COUNT_KEYS = ("corrclust.highs.rounds", "corrclust.highs.rows_final",
              "corrclust.highs.iterations", "density.kernel_evals")
# Layers called only by the Theorem-2 check, reported per check.
CHECK_LAYERS = ("analysis.expected_dis.s", "densities.logpdf_many.s")
# Layers that do not contain one another; on crossbones_lp HiGHS must lead.
LEAF_LAYERS = ("corrclust.highs.s", "corrclust.lp_relax.self_s", "density.logpdf_many.s",
               "corrclust.round_regions.s", "corrclust.kwik_cluster.s", "density.kde_fit.s",
               "datagen.gen_synthetic.s", "datagen.gen_edge_level.s",
               "edge_features.sample_labeled_pairs.s", "edge_features.build_edge_features.s")


# End-to-end metrics printed but not gated in BENCHMARK.json: the tail needs
# 11+ samples, and the other two are 0 whenever the program is correct.
UNGATED = {"run_s.tail": "s", "cert_gap": "ratio", "failed_frac": "ratio"}


def _show(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, dict):
        return f"{v['value']:.6g} (p{v['percentile']:.0f} of {v['samples']})"
    return f"{v:.6g}"


def thread_count() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 1


def environment(threads_max: int) -> dict:
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or "unknown"
    mem_kb = 0
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_kb = next((int(l.split()[1]) for l in fh if l.startswith("MemTotal")), 0)
    except OSError:
        pass
    return {"nproc": nproc, "cpu_model": cpu, "mem_total_mb": round(mem_kb / 1024),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
            "threads_max": threads_max, "threads_over_nproc": threads_max > nproc}


def measure_setup() -> list:
    """Wall seconds of fresh processes that import edgeclust and warm up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                       check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


class Run:
    """Counts attempts and failures; a failure is recorded, never raised."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failures = []
        self.threads_max = thread_count()

    def fail(self, what, messages):
        self.failures.append({"what": what, "messages": list(messages)})

    def pipeline(self, seed, what, fn=None):
        """One checked run_pipeline call; returns (report, seconds) or None."""
        from edgeclust.pipeline import run_pipeline
        from workloads import check_report
        self.attempted += 1
        cfg = self.w.run_config(seed)
        start = time.perf_counter()
        try:
            rep = (fn or run_pipeline)(cfg)
        except Exception:  # noqa: BLE001 - counted as a failed instance
            self.fail(f"{what} seed={seed}", [traceback.format_exc(limit=3)])
            return None
        elapsed = time.perf_counter() - start
        self.threads_max = max(self.threads_max, thread_count())
        fails = check_report(rep, self.w.n)
        if fails:
            self.fail(f"{what} seed={seed}", fails)
            return None
        return rep, elapsed


def timed_loop(seed, seconds, step):
    """Call step(instance_seed) until `seconds` have passed (at least once)."""
    from workloads import instance_seeds
    seeds = instance_seeds(seed)
    start = time.perf_counter()
    while True:
        step(next(seeds))
        if time.perf_counter() - start >= seconds:
            return


def reference_panel(run, refs):
    """Solve the fixed panel, compare with the stored references and score
    quality. Returns (nmi mean, disagreement sum, reports)."""
    from workloads import check_reference, panel_seeds
    stored = refs.get(run.w.name, [])
    nmis, dis, reps = [], [], []
    for t, seed in enumerate(panel_seeds(run.w)):
        got = run.pipeline(seed, "reference panel")
        if got is None:
            continue
        rep = got[0]
        reps.append(rep)
        if t >= len(stored) or stored[t]["seed"] != seed:
            run.fail(f"reference panel seed={seed}", ["no stored reference"])
        else:
            fails = check_reference(rep, stored[t])
            if fails:
                run.fail(f"reference panel seed={seed}", fails)
        nmis.append(rep.scores["structured"]["nmi"])
        dis.append(rep.likelihood["disagreement_term"])
    return (statistics.fmean(nmis) if nmis else 0.0), float(sum(dis)), reps


def theorem2(run, seed, tracer=None):
    from workloads import theorem2_check
    run.attempted += 1
    try:
        if tracer is None:
            result, root = theorem2_check(seed), None
        else:
            from tracing import installed
            with installed(tracer):
                result, root = tracer.root("theorem2", theorem2_check, seed)
    except Exception:  # noqa: BLE001 - counted as a failed check
        run.fail("theorem2", [traceback.format_exc(limit=3)])
        return None, None
    if not result["ok"]:
        run.fail("theorem2", [f"mean empirical disagreement off by {result['z']:.2f} "
                              "combined standard errors"])
    return result, root


def cert_gap(reports):
    certs = [r.certificate for r in reports if r.certificate is not None]
    lb = sum(c["lp_lower_bound"] for c in certs)
    if not certs or lb <= 0:
        return None
    return sum(c["rounded_cost"] - c["lp_lower_bound"] for c in certs) / lb


def tail(times):
    """Highest percentile with at least 10 samples above it, or None."""
    n = len(times)
    if n < 11:
        return None
    return {"value": sorted(times)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def untraced(args, w, refs):
    from workloads import warm_up
    setup = measure_setup()
    warm_up()
    run = Run(w)
    times, reports = [], []

    def step(seed):
        got = run.pipeline(seed, "instance")
        if got is not None:
            reports.append(got[0])
            times.append(got[1])

    timed_loop(args.seed, args.seconds, step)
    nmi, dis, panel = reference_panel(run, refs)
    t2 = theorem2(run, args.seed)[0] if w.theorem2 else None
    metrics = {
        "run_s": statistics.median(times) if times else 0.0,
        "pairs_per_s": w.pairs_per_instance * len(times) / sum(times) if times else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nmi": nmi,
        "disagreement": dis,
    }
    extra = {"run_s.tail": tail(times), "cert_gap": cert_gap(reports + panel),
             "failed_frac": len(run.failures) / max(run.attempted, 1),
             "instances": len(times), "setup_samples": setup, "theorem2": t2,
             "instance_seconds": times}
    return run, metrics, extra, None


def traced(args, w, refs):
    from tracing import Tracer, installed, root_metrics
    from edgeclust.pipeline import run_pipeline
    from workloads import warm_up
    warm_up()
    run = Run(w)
    tracer = Tracer()
    plain_s, traced_s, stage_s, per_instance, roots = [], [], [], [], []
    repeat = {}
    selftest = []

    def traced_call(cfg):
        with installed(tracer):
            rep, root = tracer.root("instance", run_pipeline, cfg)
        roots.append(root)
        return rep

    def step(seed):
        plain = run.pipeline(seed, "instance")
        if plain is None:
            return
        got = run.pipeline(seed, "traced instance", traced_call)
        if got is None:
            return
        plain_s.append(plain[1])
        traced_s.append(got[1])
        stage_s.append(plain[0].timing)
        per_instance.append(root_metrics(tracer.spans, roots[-1]))
        if plain[0].to_json(include_timing=False) != got[0].to_json(include_timing=False):
            selftest.append(f"seed={seed}: traced and untraced reports differ")
        if not repeat:
            with installed(tracer):
                _, again_root = tracer.root("instance.repeat", run_pipeline, w.run_config(seed))
            again = root_metrics(tracer.spans, again_root)
            repeat.update({k: (per_instance[-1].get(k, 0), again.get(k, 0)) for k in COUNT_KEYS})
            for k, (a, b) in repeat.items():
                if a != b:
                    selftest.append(f"{k} differs between two traced runs: {a} vs {b}")

    timed_loop(args.seed, args.seconds, step)
    nmi, dis, panel = reference_panel(run, refs)
    t2_root = theorem2(run, args.seed, tracer)[1] if w.theorem2 else None

    def mean(key):
        return statistics.fmean(m.get(key, 0.0) for m in per_instance) if per_instance else 0.0

    def total(key):
        return sum(m.get(key, 0.0) for m in per_instance)

    metrics = {f"pipeline.{s}_s": (statistics.fmean(t.get(s, 0.0) for t in stage_s)
                                   if stage_s else 0.0) for s in STAGES}
    layer_keys = {k for m in per_instance for k in m}
    for k in sorted(layer_keys):
        metrics[k] = mean(k)
    evals_s = total("density.logpdf_many.s")
    metrics["density.kernel_evals_per_s"] = total("density.kernel_evals") / evals_s if evals_s else 0.0
    rows = total("corrclust.highs.rows_final")
    metrics["corrclust.rows_tight_frac"] = total("corrclust.rows_tight") / rows if rows else 0.0
    lp_s = total("corrclust.lp_relax.s")
    metrics["corrclust.lp_relax.self_frac"] = total("corrclust.lp_relax.self_s") / lp_s if lp_s else 0.0
    t2 = root_metrics(tracer.spans, t2_root) if t2_root is not None else {}
    for k in CHECK_LAYERS:
        metrics[k] = t2.get(k, 0.0)
    overhead = (statistics.median(traced_s) - statistics.median(plain_s)) if plain_s else 0.0
    metrics["trace.overhead_s"] = overhead

    table = json.loads(INTERACTIONS.read_text())["per_layer"]
    for name, row in table.items():
        if w.name in row["present_on"] and not metrics.get(name, 0.0) > 0.0:
            selftest.append(f"{name} is empty on {w.name}: its wrapper missed the call site")
    run_mean = statistics.fmean(plain_s) if plain_s else 0.0
    extra = {"instances": len(plain_s), "self_test": selftest or "ok",
             "count_repeat": repeat, "load": load_checks(w.name, metrics, run_mean),
             "trace_overhead_s": overhead, "run_s_untraced_mean": run_mean}
    return run, metrics, extra, tracer.spans


def load_checks(name, m, run_mean):
    """The shape each workload was chosen for, as measured by the trace."""
    if not run_mean:
        return {}
    if name == "crossbones_pivot":
        return {"density.logpdf_many.s / run_s": m["density.logpdf_many.s"] / run_mean,
                "corrclust.solve.s / run_s": m.get("corrclust.solve.s", 0.0) / run_mean,
                "pipeline.solve_s / run_s": m["pipeline.solve_s"] / run_mean}
    largest = max(LEAF_LAYERS, key=lambda k: m.get(k, 0.0))
    return {"largest_layer": largest,
            "corrclust.lp_relax.self_frac": m.get("corrclust.lp_relax.self_frac", 0.0)}


def write_reference():
    from workloads import WORKLOADS, panel_seeds, reference_entry, warm_up
    from edgeclust.pipeline import run_pipeline
    warm_up()
    blocks = []
    for name, w in WORKLOADS.items():
        entries = [json.dumps(reference_entry(s, run_pipeline(w.run_config(s))), sort_keys=True)
                   for s in panel_seeds(w)]
        blocks.append(f' "{name}": [\n  ' + ",\n  ".join(entries) + "\n ]")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "edgeclust" / "__init__.py").is_file():
        print(f"error: {SRC / 'edgeclust'} not found; run from an edgeclust checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.write_reference:
        write_reference()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}

    w = WORKLOADS[args.workload]
    run, metrics, extra, spans = (traced if args.trace else untraced)(args, w, refs)
    env = environment(run.threads_max)
    correct = not run.failures and extra.get("self_test", "ok") == "ok"
    result = {"correct": correct, "attempted": run.attempted, "failed": len(run.failures),
              "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                          for m in wanted}}

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": w.config,
              "environment": env, "result": result, "all_metrics": metrics,
              "extra": extra, "failures": run.failures, "spans": spans}
    out = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    print(f"# edgeclust benchmark  workload={w.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment " + json.dumps(env))
    if env["threads_over_nproc"]:
        print(f"# WARNING: {env['threads_max']} threads exceed nproc={env['nproc']}")
    for m in wanted:
        print(f"{m['name']:<40} {metrics.get(m['name'], 0.0):>16.6g} {m['unit']}")
    for name, unit in UNGATED.items():
        if name in extra:
            print(f"{name:<40} {_show(extra[name]):>16} {unit}")
    for k, v in extra.items():
        if k not in UNGATED and k not in ("instance_seconds", "setup_samples"):
            print(f"# {k}: {json.dumps(v, default=str)}")
    for f in run.failures:
        print(f"# FAILED {f['what']}: {' | '.join(f['messages'])}")
    print(f"# full record: {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
