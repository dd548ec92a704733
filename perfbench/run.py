"""infobridge benchmark runner.

    python3 perfbench/run.py --workload headline --seed 0 --seconds 15 --trace 0

Runs one workload in a closed loop (one caller; each run or query starts
when the previous one has ended) for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` instead makes one untraced run at the
configured worker count, one untraced serial run and one serial traced run
of the same inputs, checks that the traced outputs match bit for bit, and
prints the per-layer metrics.  A per-layer metric whose layer the workload
does not call is measured on the workload ``spec.json`` names as its home,
at a reduced size and the same seed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit and sample count.  ``--workload all`` does
both modes for every workload, each in a process of its own.  ``--smoke``
runs all four workloads at a tiny size and asserts that every metric in
``BENCHMARK.json`` is emitted and that traced and untraced outputs agree.  ``--record-reference 0-15,1009``
rewrites the ``--workload`` entries of ``reference.json`` from the current
program.

Everything is read and written inside the checkout: the package comes
from ``src/`` next to this directory, outputs go to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SIZES = {
    # paths or law queries per workload run
    "full": {"headline": 2048, "short-tanaka": 4096, "window": 480, "laws": 120},
    "fill": {"headline": 1024, "short-tanaka": 1024, "window": 16, "laws": 24},
    "smoke": {"headline": 128, "short-tanaka": 128, "window": 8, "laws": 8},
}
MIN_REPEATS = 2
_now = time.perf_counter


def _load_package():
    """Import infobridge from this checkout's ``src/``, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "infobridge", "__init__.py")):
        sys.stderr.write(f"perfbench: no infobridge sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import infobridge
    if os.path.dirname(os.path.dirname(os.path.abspath(infobridge.__file__))) != SRC:
        sys.stderr.write(f"perfbench: imported infobridge from {infobridge.__file__}\n")
        sys.exit(2)


def _read_json(name, default=None):
    path = os.path.join(HERE, name)
    if default is not None and not os.path.exists(path):
        return default
    with open(path) as fh:
        return json.load(fh)


class Checks:
    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append((name, bool(ok), detail))

    @property
    def attempted(self):
        return len(self.items)

    @property
    def failed(self):
        return sum(1 for _, ok, _ in self.items if not ok)

    def lines(self):
        return [f"  {'ok  ' if ok else 'FAIL'} {name}{(' (' + d + ')') if d else ''}"
                for name, ok, d in self.items]


def _outdir(*parts):
    path = os.path.join(OUT, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def _same_outputs(a, b):
    return set(a) == set(b) and all(
        a[k].shape == b[k].shape and bool((a[k] == b[k]).all()) for k in a)


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _reference_check(w, run, seed, scale, spec, refs, checks):
    """Compare with the values recorded when the benchmark landed; returns,
    per artifact, whether it is byte-identical to the recorded one, or None
    when nothing is recorded for this seed and size."""
    ref = refs.get(w.name, {}).get(str(seed))
    if scale != "full" or ref is None or ref["items"] != run.items:
        return None
    summary = w.summary(run)
    tol = spec["tolerances"]
    bad = []
    for name, ref_vals in ref["values"].items():
        new = summary["values"].get(name)
        for k, rv in enumerate(ref_vals):
            if "stderr" in ref:
                limit = tol["monte_carlo_stderr_fraction"] * ref["stderr"][name][k]
            else:
                limit = tol["law_rel"] * abs(rv) + tol["law_abs"]
            if new is None or len(new) != len(ref_vals) or not abs(new[k] - rv) <= limit:
                bad.append(f"{name}[{k}]")
    n = sum(len(v) for v in ref["values"].values())
    checks.add(f"{w.name}: {n} outputs match the reference within tolerance", not bad,
               ", ".join(bad[:6]))
    return {name: hashlib.sha256(data).hexdigest() == ref["sha256"].get(name)
            for name, data in run.artifacts.items()}


# ---------------------------------------------------------------------------
# timed run (end-to-end metrics, tracing off)
# ---------------------------------------------------------------------------

def timed(w, seed, seconds, scale, spec, refs):
    inputs = w.inputs(seed, SIZES[scale][w.name])
    out = _outdir(w.name, "timed")
    runs = []
    t0 = _now()
    while len(runs) < MIN_REPEATS or _now() - t0 < seconds:
        runs.append(w.run(inputs, out))
    checks = Checks()
    first = runs[0]
    for name, ok in w.invariants(first):
        checks.add(f"{w.name}: {name}", ok)
    for k, r in enumerate(runs[1:], start=2):
        checks.add(f"{w.name}: run {k} reproduces run 1 bit for bit",
                   _same_outputs(first.outputs, r.outputs))
    identical = _reference_check(w, first, seed, scale, spec, refs, checks)

    n = len(runs)
    setups = [t for r in runs for t in r.setups]
    work = statistics.median(r.work for r in runs)
    rate_name = "law_queries_per_s" if w.name == "laws" else "paths_per_s"
    metrics = {
        "wall_s": (statistics.median(r.wall for r in runs), "s", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "throughput_per_s": (first.items / work, "1/s", n),
        "peak_rss_mb": (_peak_rss_mb(), "MB", 1),
    }
    extra = {rate_name: (first.items / work, "1/s", n)}
    lat = [x for r in runs for x in r.latencies]
    if lat:
        q = statistics.quantiles(lat, n=10, method="inclusive")
        extra["query_p50_ms"] = (1e3 * statistics.median(lat), "ms", len(lat))
        extra["query_p90_ms"] = (1e3 * q[8], "ms", len(lat))
    extra["fail_frac"] = (checks.failed / checks.attempted, "1", checks.attempted)
    info = {"repeats": n, "items_per_run": first.items, "identical_artifacts": identical,
            "gates": first.info.get("gates"), "exit_codes": first.info.get("exit_codes")}
    return metrics, extra, checks, info


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)
# ---------------------------------------------------------------------------

def _path_stats(tracer):
    stats = {"paths": 0, "steps": 0, "live": 0}

    def on_sample(args, path):
        knots = path.grid.knots
        stats["paths"] += 1
        stats["steps"] += len(knots) - 1
        stats["live"] += int((knots[:-1] < path.tau).sum())

    tracer.hooks["paths.sample"] = on_sample
    return stats


def layer_metrics(tracer, stats, par, ser, trun, memo):
    """Per-layer values; None where the workload does not reach the layer."""
    tot = tracer.totals()
    n = stats["paths"]

    def calls(name):
        return tot[name][0] if name in tot else 0

    def mean(name, scale):
        return scale * tot[name][1] / tot[name][0] if name in tot else None

    def per_path(name, scale, own=False):
        if name not in tot or not n:
            return None
        return scale * tot[name][2 if own else 1] / n

    ensemble_ran = calls("ensemble.chunk") > 0
    return {
        "paths.stream_us_per_path": per_path("paths.stream", 1e6),
        "paths.sample_us_per_path": per_path("paths.sample", 1e6, own=True),
        "paths.steps_per_path": stats["steps"] / n if n else None,
        "paths.recover_b_us_per_path": per_path("paths.recover_b", 1e6),
        "localtime.occupation_us_per_path": per_path("localtime.occupation", 1e6),
        "localtime.occupation_exact_us_per_call": mean("localtime.occupation_exact", 1e6),
        "localtime.tanaka_us_per_path": per_path("localtime.tanaka", 1e6),
        "localtime.credit_table_s": mean("localtime.credit_table", 1.0),
        "localtime.live_step_frac": (stats["live"] / stats["steps"]
                                     if "localtime.occupation" in tot else None),
        "compensator.curve_us_per_path": per_path("compensator.curve", 1e6),
        "compensator.window_ms_per_path_lag": mean("compensator.window", 1e3),
        "compensator.window_calls": calls("compensator.window") or None,
        "laws.compensator_weights_s": mean("laws.compensator_weights", 1.0),
        "laws.drift_table_build_s": mean("laws.drift_table_build", 1.0),
        "laws.hazard_rates_ms_per_call": mean("laws.hazard_rates", 1e3),
        "laws.survival_ms_per_call": mean("laws.survival", 1e3),
        "laws.posterior_us_per_call": mean("laws.posterior", 1e6),
        "laws.drift_ms_per_call": mean("laws.drift", 1e3),
        "laws.memo_entries": memo,
        "distributions.density_calls": calls("distributions.density") or None,
        "distributions.density_us_per_call": mean("distributions.density", 1e6),
        "distributions.quantile_us_per_call": mean("distributions.quantile", 1e6),
        "quadrature.calls": calls("quadrature.integrate") or None,
        "quadrature.self_s": tot["quadrature.integrate"][2] if "quadrature.integrate" in tot else None,
        "ensemble.run_s": par.work if ensemble_ran else None,
        "ensemble.chunks": calls("ensemble.chunk") or None,
        "ensemble.parallel_efficiency": (ser.work / (_workers() * par.work)
                                         if ensemble_ran else None),
        "ensemble.summarize_s": mean("ensemble.summarize", 1.0),
        "ensemble.csv_write_s": mean("ensemble.csv_write", 1.0),
        "ensemble.csv_bytes": (sum(len(v) for v in trun.artifacts.values())
                               if ensemble_ran else None),
        "cli.self_s": tot["cli.main"][2] if "cli.main" in tot else None,
    }


def _workers():
    from workloads import WORKERS
    return WORKERS


def traced(w, seed, scale, spec, refs, checks):
    """Untraced, untraced-serial and traced runs of one workload's inputs."""
    from tracing import Tracer

    inputs = w.inputs(seed, SIZES[scale][w.name])
    par = w.run(inputs, _outdir(w.name, "untraced"))
    serial = w.parallel and _workers() > 1
    ser = w.run(inputs, _outdir(w.name, "serial"), workers=1) if serial else par
    tracer = Tracer()
    stats = _path_stats(tracer)
    trun = w.traced(inputs, _outdir(w.name, "traced"), tracer)

    for name, ok in w.invariants(par):
        checks.add(f"{w.name}: {name}", ok)
    if ser is not par:
        checks.add(f"{w.name}: serial run reproduces the {_workers()}-worker run bit for bit",
                   _same_outputs(par.outputs, ser.outputs))
    checks.add(f"{w.name}: traced outputs equal untraced outputs bit for bit",
               _same_outputs(par.outputs, trun.outputs))
    checks.add(f"{w.name}: traced artifacts equal untraced artifacts byte for byte",
               par.artifacts == trun.artifacts)
    for name, ok in trun.info.get("checks", ()):
        checks.add(f"{w.name}: {name}", ok)
    _reference_check(w, par, seed, scale, spec, refs, checks)

    with open(os.path.join(_outdir(w.name), f"spans-{seed}.csv"), "w") as fh:
        tracer.write(fh)
    memo = int(trun.outputs["memo"].sum()) if "memo" in trun.outputs else None
    values = layer_metrics(tracer, stats, par, ser, trun, memo)
    return values, {"tracing_overhead_s": trun.wall - ser.wall, "untraced_serial_s": ser.wall,
                    "traced_serial_s": trun.wall, "spans": len(tracer.names)}


def traced_all_layers(name, workloads, seed, scale, spec, refs):
    """Per-layer metrics of ``name``; layers it does not reach come from their
    home workload at the reduced size."""
    checks = Checks()
    values, info = traced(workloads[name], seed, scale, spec, refs, checks)
    source = {k: name for k, v in values.items() if v is not None}
    fills = {}
    fill_scale = "smoke" if scale == "smoke" else "fill"
    for metric, home in spec["per_layer_home"].items():
        if values.get(metric) is not None:
            continue
        if home not in fills:
            fills[home] = traced(workloads[home], seed, fill_scale, spec, refs, checks)[0]
        values[metric] = fills[home][metric]
        source[metric] = f"{home} ({fill_scale})"
    return values, source, checks, info


# ---------------------------------------------------------------------------
# run record and output
# ---------------------------------------------------------------------------

def run_record(workload, seed, trace):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if res.returncode == 0:
            sha = res.stdout.strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "infobridge")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha,
            "source_sha256": digest.hexdigest(), "workers": _workers()}


def _fmt_metric(name, value, unit, count, note=""):
    return f"  {name:<42} {value:>16.6g} {unit:<6} n={count}{note}"


def _emit(record, lines, checks, metrics):
    for line in lines:
        print(line)
    print("checks:")
    for line in checks.lines():
        print(line)
    print("record: " + json.dumps(record, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    fname = f"record-{record['workload']}-{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(OUT, fname), "w") as fh:
        json.dump(dict(record, metrics=metrics, checks=checks.items), fh, indent=1,
                  default=str)
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))


def do_timed(name, workloads, seed, seconds, scale, spec, refs):
    metrics, extra, checks, info = timed(workloads[name], seed, seconds, scale, spec, refs)
    lines = [f"workload {name}: seed {seed}, {info['repeats']} runs of "
             f"{info['items_per_run']} items, {_workers()} workers, tracing off"]
    for k, (v, u, c) in list(metrics.items()) + list(extra.items()):
        lines.append(_fmt_metric(k, v, u, c))
    if info["identical_artifacts"] is None:
        lines.append("no reference values recorded for this seed and size")
    else:
        lines.append("artifacts byte-identical to reference: "
                     + ", ".join(f"{k}={'yes' if v else 'no'}"
                                 for k, v in info["identical_artifacts"].items()))
    for g in info["gates"] or ():
        lines.append(f"gate {g['kind']} t={g['t']:g}"
                     + (f" s={g['s']:g} {g['functional']}" if "s" in g else "")
                     + f": z = {g['z']:+.2f} "
                     + ("(within 3 sigma)" if abs(g["z"]) <= 3.0 else "(beyond 3 sigma; information)"))
    if info["exit_codes"] is not None:
        lines.append(f"convergence exit codes {info['exit_codes']} (1 = TREND not met; information)")
    out = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    return lines, checks, out


def do_traced(name, workloads, seed, scale, spec, refs):
    units = {m["name"]: m["unit"] for m in _read_json("../BENCHMARK.json")["per_layer"]}
    values, source, checks, info = traced_all_layers(name, workloads, seed, scale, spec, refs)
    lines = [f"workload {name}: seed {seed}, traced serial run; "
             f"tracing overhead {info['tracing_overhead_s']:.3f} s "
             f"(traced {info['traced_serial_s']:.3f} s - untraced serial "
             f"{info['untraced_serial_s']:.3f} s), {info['spans']} spans"]
    for k in units:
        v = values.get(k)
        note = "" if source.get(k) == name else f"  [from {source.get(k)}]"
        lines.append(_fmt_metric(k, float("nan") if v is None else v, units[k], 1, note))
    out = {k: {"value": values[k], "unit": units[k]} for k in units if values.get(k) is not None}
    return lines, checks, out


def record_reference(workloads, names, seeds, refs):
    """Record reference values of ``names`` for each seed at the full size."""
    for name in names:
        w = workloads[name]
        refs[name] = {}
        for seed in seeds:
            inputs = w.inputs(seed, SIZES["full"][name])
            out = _outdir(name, "reference")
            if name == "window":
                from tracing import Tracer
                run = w.traced(inputs, out, Tracer())
            else:
                run = w.run(inputs, out)
            entry = {"items": run.items, **w.summary(run),
                     "sha256": {k: hashlib.sha256(v).hexdigest()
                                for k, v in run.artifacts.items()}}
            refs[name][str(seed)] = entry
            print(f"recorded {name} seed {seed}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        parts = []
        for name in sorted(refs):       # one line per workload and seed
            rows = [f"  {json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}"
                    for seed, entry in sorted(refs[name].items(), key=lambda kv: int(kv[0]))]
            parts.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")


def smoke(workloads, spec, refs):
    """Tiny runs of every workload in both modes; asserts every metric named in
    BENCHMARK.json is emitted and traced outputs match untraced ones."""
    bench = _read_json("../BENCHMARK.json")
    failures = []
    for name in workloads:
        _, checks, e2e = do_timed(name, workloads, spec["default_seed"], 0.0, "smoke", spec, refs)
        missing = [m["name"] for m in bench["end_to_end"] if m["name"] not in e2e]
        failures += [f"{name}: missing end-to-end {m}" for m in missing]
        failures += [f"{name}: {c}" for c, ok, _ in checks.items if not ok]
        lines, checks, layers = do_traced(name, workloads, spec["default_seed"], "smoke", spec, refs)
        missing = [m["name"] for m in bench["per_layer"] if m["name"] not in layers]
        failures += [f"{name}: missing per-layer {m}" for m in missing]
        failures += [f"{name}: {c}" for c, ok, _ in checks.items if not ok]
        print(f"smoke {name}: {len(e2e)} end-to-end and {len(layers)} per-layer metrics, "
              f"{checks.attempted} traced checks", flush=True)
    for f in failures:
        print("SMOKE FAIL " + f)
    print("SMOKE OK" if not failures else f"SMOKE FAILED ({len(failures)})")
    return 0 if not failures else 1


def _seed_list(text):
    seeds = []
    for part in text.split(","):
        a, _, b = part.partition("-")
        seeds += list(range(int(a), int(b) + 1)) if b else [int(a)]
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="headline")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", dest="record", default=None)
    args = parser.parse_args(argv)

    _load_package()
    from workloads import make_workloads

    spec = _read_json("spec.json")
    refs = _read_json("reference.json", default={})
    workloads = make_workloads(SRC)
    seed = spec["default_seed"] if args.seed is None else args.seed
    if args.smoke:
        return smoke(workloads, spec, refs)
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(list(workloads) + ["all"]))
    if args.record:
        record_reference(workloads, names, _seed_list(args.record), refs)
        return 0
    if args.workload == "all":
        return run_all(names, seed, args.seconds)
    if args.trace == 0:
        lines, checks, metrics = do_timed(
            args.workload, workloads, seed, args.seconds, "full", spec, refs)
    else:
        lines, checks, metrics = do_traced(args.workload, workloads, seed, "full", spec, refs)
    _emit(run_record(args.workload, seed, args.trace), lines, checks, metrics)
    return 0


def run_all(names, seed, seconds):
    """Both modes of every workload, each in a process of its own so that
    ``peak_rss_mb`` and set-up times are not carried from one to the next."""
    attempted, failed, metrics = 0, 0, {}
    for name in names:
        for mode in (0, 1):
            res = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode)],
                capture_output=True, text=True)
            lines = res.stdout.splitlines()
            if res.returncode != 0 or not lines:
                sys.stderr.write(res.stderr)
                return res.returncode or 1
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
