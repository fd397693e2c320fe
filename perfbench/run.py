"""pestab benchmark: certify-battery, tune-search and cli-mix.

    python3 perfbench/run.py --workload tune-search --seed 1 --trace 0

runs one workload in this process, one caller in a closed loop: each op
starts after the previous one returns, with BLAS and OpenMP pinned to one
thread.  It makes the workload's fixed number of passes over seeded op lists
(a fresh list per pass), checks every op's output, and prints the metrics as
the last line of stdout in JSON.  With `--trace 1` it makes TRACED_PASSES
passes, each twice on the same ops, untraced and traced in alternating
order, and the traced runs give the per-layer metrics.  Without `--workload`
every workload runs untraced, each in its own process.  The exit code is 0
only when every op passed its checks; a failed op, or a package that cannot
be loaded from this checkout's src/, gives a non-zero exit.

The run length is fixed by the pass counts, sized to BENCHMARK.json's
`run_seconds`; `--seconds` is accepted for the benchmark's command line and
must equal it.

Times are reported at reference speed (see `reference_ns`); the raw times
are kept in the result file.  Metric names and units come from
BENCHMARK.json; perfbench/README.md defines them.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# Pinned before numpy is imported, so BLAS and OpenMP start one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("certify-battery", "tune-search", "cli-mix")
# Passes of a traced run; every traced pass feeds the per-layer metrics.
TRACED_PASSES = 3
# Fresh interpreters timed for the import part of setup_s.
IMPORT_SAMPLES = 9
# Reference kernels: REF_STEPS steps of `reference_ns` take about REF_NS,
# and one run of the import-like kernel of IMPORT_PROBE about IMPORT_REF_NS,
# on an uncontended Intel Xeon vCPU of the machine the benchmark was built on.
REF_STEPS = 360
REF_NS = 1_000_000
IMPORT_REF_NS = 5_700_000
# Run in a fresh interpreter from the checkout's root: the import time, and
# the summed time of three runs before and three after it of a kernel that
# does what an import does (stat, open and read files, unmarshal and execute
# code).  It reads the benchmark's own files, never pestab's, so a change to
# pestab cannot change the kernel.
IMPORT_PROBE = """
import marshal, os
from time import perf_counter_ns
SRC = "".join(f"def f{i}(a, b=1):\\n    return a + b * {i}\\n"
              f"class C{i}:\\n    x = {i}\\n"
              f"    def m(self):\\n        return self.x\\n"
              for i in range(150))
CODE = marshal.dumps(compile(SRC, "<reference>", "exec"))
FILES = sorted(os.path.join("perfbench", f)
               for f in os.listdir("perfbench") if f.endswith(".py"))
def ref():
    t0 = perf_counter_ns()
    for _ in range(40):
        for f in FILES:
            os.stat(f)
            with open(f, "rb") as fh:
                fh.read()
    for _ in range(3):
        exec(marshal.loads(CODE), {})
    return perf_counter_ns() - t0
ref()
before = sum(ref() for _ in range(3))
t0 = perf_counter_ns()
import pestab.cli
dt = perf_counter_ns() - t0
print(dt, before + sum(ref() for _ in range(3)))
"""


def reference_ns() -> int:
    """Time a fixed kernel shaped like pestab's hot loops: small numpy
    matrix products, list appends, float formatting.

    The machine the benchmark was built on shifts between speeds up to
    about 2x apart, often within seconds, under load from outside.  Every
    op is timed between two runs of this kernel, and its time is scaled by
    REF_NS over their mean, so a speed shift cancels while a change in
    pestab's code, which the kernel does not run, shows in full.  The
    garbage collector is off while it runs, so heap state left by pestab
    cannot slow it."""
    import numpy as np
    phi = np.array([[0.99, 0.01], [-0.01, 0.99]])
    x = np.ones((2, 1))
    out = []
    acc = 0.0
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        for _ in range(REF_STEPS):
            x = phi @ x
            out.append(x)
            acc += float(x[0, 0])
            repr(acc)
        np.stack(out)
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, choices=(spec["run_seconds"],),
                    default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv), spec


def load_package():
    """Import pestab from this checkout's src/, never from elsewhere."""
    pkg_dir = ROOT / "src" / "pestab"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"benchmark: no package at {pkg_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    import pestab
    if Path(pestab.__file__).resolve().parent != pkg_dir.resolve():
        sys.exit(f"benchmark: pestab imported from {pestab.__file__}")
    return pestab


def provenance() -> dict:
    import numpy as np
    import scipy
    sha = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or sha
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def import_seconds() -> tuple:
    """Time to import the package (numpy, scipy and jsonschema with it) in
    a fresh interpreter: the median over IMPORT_SAMPLES interpreters, at
    reference speed and raw.  Each import is scaled by the import-like
    kernel timed in its own interpreter just before and after it, which
    tracks the speed the import ran at far better than `reference_ns` run
    in this process around the child, or a pure-Python loop in the child."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scaled, raw = [], []
    for _ in range(IMPORT_SAMPLES):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        dt, ref = map(int, res.stdout.split())
        raw.append(dt / 1e9)
        scaled.append(raw[-1] * 6 * IMPORT_REF_NS / ref)
    return statistics.median(scaled), statistics.median(raw)


class PassResult(NamedTuple):
    ns: list        # raw op times
    scale: list     # per-op factor to reference speed
    digest: str
    fails: list
    written: int

    @property
    def wall_s(self) -> float:
        return sum(n * s for n, s in zip(self.ns, self.scale)) / 1e9


def run_ops(ops, tracer=None, pass_no=0) -> PassResult:
    """Time each op between two reference-kernel runs, then check it."""
    times, scale, fails = [], [], []
    digest = hashlib.sha256()
    written = 0
    ref = reference_ns()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = pass_no * 1_000_000 + i + 1
            tracer.on = True
        err = None
        t0 = perf_counter_ns()
        try:
            result = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            err = exc
        times.append(perf_counter_ns() - t0)
        if tracer is not None:
            tracer.on = False
        ref_after = reference_ns()
        scale.append(2 * REF_NS / (ref + ref_after))
        ref = ref_after
        if err is not None:
            fails.append(f"{op.kind} #{i}: raised {err!r}")
            digest.update(b"raised")
            continue
        try:
            probs, blob, nbytes = op.check(result)
        except Exception as exc:  # a check that breaks fails its op
            probs, blob, nbytes = [f"check raised {exc!r}"], b"", 0
        digest.update(blob)
        written += nbytes
        if probs:
            fails.append(f"{op.kind} #{i}: " + "; ".join(probs))
    return PassResult(times, scale, digest.hexdigest(), fails, written)


class Run:
    def __init__(self, args, workload):
        self.args = args
        self.wl = workload
        self.setups, self.raw_setups, self.setup_scale = [], [], []
        self.walls, self.raw_walls, self.op_ms, self.raw_op_ms = [], [], [], []
        self.fails, self.digests = [], []
        self.attempted = 0
        self.passes = 0

    def next_ops(self, tracer=None):
        """Input generation plus one untimed warm-up op: the in-process
        part of set-up, repeated for every pass.  With a tracer, the input
        generation is traced as op 0 of the pass."""
        ref = reference_ns()
        t0 = perf_counter_ns()
        if tracer is not None:
            tracer.op, tracer.on = self.passes * 1_000_000, True
        try:
            ops, warm = self.wl.ops(self.args.seed, self.passes)
        finally:
            if tracer is not None:
                tracer.on = False
        self.gen_ns = perf_counter_ns() - t0
        res = run_ops([warm])
        dt = self.gen_ns + res.ns[0]
        scale = 2 * REF_NS / (ref + reference_ns())
        self.raw_setups.append(dt / 1e9)
        self.setups.append(dt * scale / 1e9)
        self.setup_scale.append(scale)
        self.attempted += 1
        self.fails += [f"warm-up {f}" for f in res.fails]
        return ops

    def record(self, res: PassResult):
        self.attempted += len(res.ns)
        self.fails += res.fails
        self.walls.append(res.wall_s)
        self.raw_walls.append(sum(res.ns) / 1e9)
        self.op_ms += [n * s / 1e6 for n, s in zip(res.ns, res.scale)]
        self.raw_op_ms += [n / 1e6 for n in res.ns]
        self.digests.append(res.digest)


def measure(args, wl) -> Run:
    run = Run(args, wl)
    for _ in range(wl.PASSES):
        run.record(run_ops(run.next_ops()))
        run.passes += 1
    return run


def measure_traced(args, wl, pestab) -> tuple:
    import numpy as np
    import tracer as tracing
    import oracles
    import workloads
    tr = tracing.Tracer()
    tr.install(pestab)
    run = Run(args, wl)
    traced_walls, layer, kept = [], [], []
    selfchecks = []
    for _ in range(TRACED_PASSES):
        tr.reset()
        ops = run.next_ops(tr)
        traced_first = run.passes % 2 == 1
        for traced in (traced_first, not traced_first):
            res = run_ops(ops, tr if traced else None, run.passes)
            if not traced:
                run.record(res)
                continue
            run.attempted += len(res.ns)
            run.fails += [f"traced {f}" for f in res.fails]
            traced_walls.append(res.wall_s)
            traced_digest = res.digest
            a = tr.arrays()
            selfchecks += [f"pass {run.passes}: {p}"
                           for p in tr.nesting_problems(a)]
            self_total = float(tr.self_ns(a).sum())
            traced_ns = sum(res.ns) + run.gen_ns
            if self_total > traced_ns:
                selfchecks.append(f"pass {run.passes}: summed self time "
                                  f"{self_total / 1e9:.6f} s exceeds wall "
                                  f"{traced_ns / 1e9:.6f} s")
            tr.counts["cli.bytes_written"] += res.written
            scale = np.array([run.setup_scale[-1]] + res.scale)
            m = tracing.layer_metrics(
                tr, a, scale[a["op"] - run.passes * 1_000_000])
            m["trace.wall_s"] = res.wall_s
            layer.append(m)
            kept.append(a)
        if traced_digest != run.digests[-1]:
            selfchecks.append(f"pass {run.passes}: traced digest "
                              f"{traced_digest} != untraced {run.digests[-1]}")
        run.passes += 1
    selfchecks += [f"unwrapped binding {b}" for b in tr.unwrapped_bindings(
        pestab, extra_modules=(workloads, oracles, tracing,
                               sys.modules[__name__]))]
    tr.uninstall()
    metrics = {k: statistics.fmean(m[k] for m in layer) for k in layer[0]}
    ratios = [t / u for t, u in zip(traced_walls, run.walls)]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    offsets = np.cumsum([0] + [len(a["name"]) for a in kept[:-1]])
    spans = {f: np.concatenate([a[f] for a in kept]) for f in kept[0]}
    spans["parent"] = np.concatenate(
        [np.where(a["parent"] >= 0, a["parent"] + off, -1)
         for a, off in zip(kept, offsets)])
    tr.save(OUT / f"trace_{wl.name}_seed{args.seed}.npz", spans,
            {"workload": wl.name, "seed": args.seed, "passes": len(kept)})
    run.fails += [f"tracer self-check: {c}" for c in selfchecks]
    return run, metrics


def end_to_end(run, imports: tuple) -> dict:
    def summary(import_s, setups, walls, op_ms):
        return {"setup_s": import_s + statistics.median(setups),
                "wall_s": statistics.median(walls),
                "op_p50_ms": statistics.median(op_ms),
                "op_p90_ms": statistics.quantiles(op_ms, n=10)[-1]}
    m = summary(imports[0], run.setups, run.walls, run.op_ms)
    m["fail_frac"] = len(run.fails) / run.attempted
    m["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["raw"] = summary(imports[1], run.raw_setups, run.raw_walls,
                       run.raw_op_ms)
    return m


def print_splits(name: str, metrics: dict) -> None:
    """Compare the traced layer shares of wall time with the predictions
    the workloads were chosen for.  Informational: a later change may
    legitimately move a share."""
    pred = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    wall = metrics["trace.wall_s"]
    for rule in pred["splits"].get(name, []):
        share = sum(metrics[k] for k in rule["sum"]) / wall
        ok = share >= rule.get("min", 0.0) and share <= rule.get("max", 1.0)
        bound = (f">= {rule['min']:.2f}" if "min" in rule
                 else f"<= {rule['max']:.2f}")
        print(f"  split  {' + '.join(rule['sum'])} = {share:.3f} of traced "
              f"wall (predicted {bound}) {'ok' if ok else 'NOT MET'}")


def run_one(args, spec) -> int:
    pestab = load_package()
    import workloads
    own_import_s = time.perf_counter() - _T0
    reference_ns()  # first call pays numpy's dispatch set-up
    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](OUT)
    try:
        if args.trace:
            run, metrics = measure_traced(args, wl, pestab)
        else:
            imports = import_seconds()
            run = measure(args, wl)
            metrics = end_to_end(run, imports)
            metrics["raw"]["own_import_s"] = own_import_s
    finally:
        wl.close()
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in names}
    correct = not run.fails
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace,
              "passes": run.passes, "ops": len(run.op_ms),
              "pass_walls": run.walls, "raw_pass_walls": run.raw_walls,
              "attempted": run.attempted, "failed": len(run.fails),
              "digest_pass0": run.digests[0], "metrics": metrics,
              "failures": run.fails[:50], "provenance": provenance()}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{run.passes} passes, {len(run.op_ms)} timed ops, "
          f"digest {run.digests[0][:16]}")
    for name, m in out.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'fail_frac':<42} {metrics['fail_frac']:>14.6g} ratio")
        print("  raw (unscaled) " + json.dumps(metrics["raw"]))
    else:
        print_splits(args.workload, metrics)
    print("  provenance " + json.dumps(record["provenance"], sort_keys=True))
    for f in run.fails[:20]:
        print(f"  FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.fails), "metrics": out}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, one process each."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
