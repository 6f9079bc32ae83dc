#!/usr/bin/env python3
"""kfi campaign benchmark.

Builds kfi and the kfibench binary from source (cmake, into
$CARGO_TARGET_DIR or .bench_build), then measures one workload:

    python3 kfibench/run.py --workload smoke_abc --seed 2003 \
        --seconds 30 --trace 0

Run it from the root of a kfi checkout.  Every campaign runs in a fresh
kfibench process (closed loop, one campaign at a time, engine fixed to
ExecEngine::Chained in code).  --seconds fixes the number of campaign
processes: --seconds over the workload's nominal process time, rounded,
and at least 1 (2 processes of each smoke workload and 3 of
paper_bc_sharded at --seconds 30).  The count never depends on measured
time, so every run at one --seed and --seconds covers the same inputs.
Set-up-only processes top the set-ups up to five.  The first process
runs --seed, later ones seeds derived from it.  Each process's records
are then checked against references by `kfibench verify`, outside every
timed region.

--trace 0 prints the end-to-end metrics (medians over the run's
processes).  --trace 1 runs the workload once untraced and once
traced, plus its campaigns once more, traced, through the other
execution path (in-process vs the campaign service), and prints the
per-layer metrics computed from the recorded spans; the span file is
kept under <build>/spans/.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 when every record matched
its reference, 1 when a check failed, 2 on usage errors.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Own execution path, reference directory (seed 2003) and nominal
# wall-clock seconds of one campaign process (set-up included) per
# workload.  The nominal time only turns --seconds into a fixed process
# count; it is never compared with a measurement.
WORKLOADS = {
    "smoke_abc": {"path": "inproc", "refs": os.path.join(HERE, "refs"),
                  "process_s": 15.0},
    "smoke_def": {"path": "inproc", "refs": os.path.join(HERE, "refs"),
                  "process_s": 15.0},
    "paper_bc_sharded": {"path": "serve",
                         "refs": os.path.join(ROOT, "kfi-results"),
                         "process_s": 10.0},
}
OUTCOMES = ["not_activated", "not_manifested", "fail_silence",
            "dumped_crash", "hang"]
# Every process of one run (the build aside) ends within this budget.
RUN_BUDGET_S = 170
MIN_TAIL_SAMPLES = 10
# setup_s is the median of at least MIN_SETUPS set-ups: set-up-only
# processes make up what the campaign processes leave short.
MIN_SETUPS = 5
SEED_STRIDE = 1_000_003


def log(message):
    print(f"[kfibench] {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the kfibench binary; returns its path."""
    build_dir = os.path.join(build_root(), "kfibench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(build_dir, "kfibench")


def child_env():
    env = dict(os.environ)
    env.pop("KFI_EXEC", None)  # the engine is set in code, never here
    env.pop("KFI_JOBS", None)
    return env


def run_child(cmd, deadline, allow_fail=False):
    """Runs one kfibench process in its own process group (so forked
    campaign workers die with it on a timeout) and returns its last
    stdout line parsed as JSON."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if (proc.returncode != 0 and not allow_fail) or not lines:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    result["returncode"] = proc.returncode
    return result


def campaign_processes(workload, seconds):
    """Campaign processes of one run: fixed by --seconds, never by how
    fast the host happens to be."""
    return max(1, round(seconds / WORKLOADS[workload]["process_s"]))


def process_seed(seed, index):
    """Seed of the index-th campaign process of a run: the run's seed
    first, then distinct derived seeds, so a run's median spans several
    input sets instead of repeating one."""
    return seed + index * SEED_STRIDE


def run_campaign(ctx, name, path, traced, seed, setup_only=False):
    """One campaign in a fresh process; its records land in its own
    directory under the run directory."""
    proc_dir = os.path.join(ctx.run_dir, name)
    cmd = [ctx.binary, "campaign", "--workload", ctx.workload,
           "--seed", str(seed), "--dir", proc_dir, "--path", path,
           "--t0", str(time.monotonic_ns())]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    result = run_child(cmd, ctx.deadline)
    # Only the saved records and spans are read back; bundles and shard
    # stores (165 MiB at paper scale) go as soon as the process ends.
    for scratch in ("bundles", "campaign"):
        shutil.rmtree(os.path.join(proc_dir, scratch), ignore_errors=True)
    if setup_only:
        shutil.rmtree(proc_dir, ignore_errors=True)
        log(f"{name}: setup {result['setup_s']:.2f} s")
        return result
    result["dir"] = proc_dir
    log(f"{name}: seed {seed}, {result['injections']} injections in "
        f"{result['timed_s']:.2f} s, setup {result['setup_s']:.2f} s, "
        f"digest {result['digest']}")
    return result


def verify(ctx, procs):
    spans = os.path.join(ctx.run_dir, "verify_spans.jsonl")
    cmd = [ctx.binary, "verify", "--workload", ctx.workload,
           "--procs", ",".join(p["dir"] for p in procs),
           "--seeds", ",".join(str(p["seed"]) for p in procs),
           "--refs", ctx.refs, "--spans", spans]
    result = run_child(cmd, ctx.deadline, allow_fail=True)
    result["spans"] = load_spans(spans)
    # Records aggregated from a campaign whose workers died are not
    # trusted, even when a later wave re-ran their shards.
    dead = sum(p["injections"] for p in procs if p["workers_failed"])
    result["failed"] = min(result["attempted"], result["failed"] + dead)
    result["ok"] = (result["returncode"] == 0 and dead == 0 and
                    result["pinned_ok"])
    log(f"verify: {result['attempted'] - result['failed']}/"
        f"{result['attempted']} records match, folds {result['folds']}, "
        f"{result['replayed']} replayed under the stepper, reference "
        f"fold {'as pinned' if result['pinned_ok'] else 'NOT as pinned'}")
    return result


def load_spans(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def cpu_ticks():
    """The aggregate CPU line of /proc/stat (user ... steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def host_record(procs, ticks_before):
    ticks_after = cpu_ticks()
    steal = None
    if ticks_before and ticks_after:
        delta = [b - a for a, b in zip(ticks_before, ticks_after)]
        # Time the hypervisor ran something else while a vCPU was ready:
        # the co-tenant interference that moves wall-clock figures.
        steal = delta[7] / sum(delta) if sum(delta) else 0.0
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "steal_share": steal,
        "build_type": procs[0]["build_type"],
        "engine": procs[0]["engine"],
        "processes": len(procs),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


# ---- untraced run: end-to-end metrics ----

def measure(ctx):
    path = WORKLOADS[ctx.workload]["path"]
    procs = [run_campaign(ctx, f"p{k}", path, False,
                          process_seed(ctx.seed, k))
             for k in range(campaign_processes(ctx.workload, ctx.seconds))]
    setups = [p["setup_s"] for p in procs]
    while len(setups) < MIN_SETUPS:
        setups.append(run_campaign(ctx, f"s{len(setups)}", path, False,
                                   ctx.seed, setup_only=True)["setup_s"])
    check = verify(ctx, procs)
    attempted = check["attempted"]
    failed = check["failed"]
    median = statistics.median
    metrics = {
        "runs_per_s": metric(median(p["injections"] / p["timed_s"]
                                    for p in procs), "1/s"),
        "setup_s": metric(median(setups), "s"),
        "cpu_ms_per_run": metric(median(1000.0 * p["cpu_s"] / p["injections"]
                                        for p in procs), "ms"),
        "peak_rss_mib": metric(median(p["peak_rss_mib"] for p in procs),
                               "MiB"),
        "verified_share": metric((attempted - failed) / attempted, "ratio"),
    }
    return procs, check, metrics


# ---- traced run: per-layer metrics ----

def span_seconds(spans, name):
    return sum(s["end_ns"] - s["start_ns"]
               for s in spans if s["name"] == name) * 1e-9


def self_seconds(spans, name):
    """Duration of the named spans minus the time their children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    total = 0
    for s in spans:
        if s["name"] != name:
            continue
        covered = sum(c["end_ns"] - c["start_ns"]
                      for c in children.get(s["id"], []))
        total += s["end_ns"] - s["start_ns"] - covered
    return total * 1e-9


def tail(samples):
    """Highest percentile with at least MIN_TAIL_SAMPLES samples beyond
    it, as (value, percentile); (largest, 0) when there are too few."""
    if len(samples) <= MIN_TAIL_SAMPLES:
        return (max(samples) if samples else 0.0), 0.0
    ordered = sorted(samples)
    rank = len(ordered) - MIN_TAIL_SAMPLES - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(own, inproc, served, check, untraced):
    """The per-layer metrics named in BENCHMARK.json."""
    m = {}
    own_spans = load_spans(os.path.join(own["dir"], "spans.jsonl"))
    in_spans = load_spans(os.path.join(inproc["dir"], "spans.jsonl"))
    serve_spans = load_spans(os.path.join(served["dir"], "spans.jsonl"))

    m["setup.self_s"] = metric(self_seconds(own_spans, "setup"), "s")
    m["kernel.build_s"] = metric(span_seconds(own_spans, "kernel"), "s")
    m["profile.build_s"] = metric(span_seconds(own_spans, "profile"), "s")
    m["inject.targets.gen_s"] = metric(span_seconds(own_spans, "targets"),
                                       "s")
    m["inject.targets.count"] = metric(own["targets"], "count")
    m["inject.golden.build_s"] = metric(span_seconds(in_spans, "golden"), "s")
    m["inject.golden.workloads"] = metric(inproc["golden_builds"], "count")

    runs = [s for s in in_spans if s["name"] == "injection"]
    for outcome in OUTCOMES:
        mine = [s for s in runs if s["outcome"] == outcome]
        ms = [(s["end_ns"] - s["start_ns"]) * 1e-6 for s in mine]
        tail_ms, tail_pct = tail(ms)
        key = f"inject.run.{outcome}"
        m[f"{key}.count"] = metric(len(mine), "count")
        m[f"{key}.host_s"] = metric(sum(ms) * 1e-3, "s")
        m[f"{key}.p50_ms"] = metric(statistics.median(ms) if ms else 0.0,
                                    "ms")
        m[f"{key}.tail_ms"] = metric(tail_ms, "ms")
        m[f"{key}.tail_pct"] = metric(tail_pct, "%")
        m[f"{key}.post_mcycles"] = metric(
            sum(s["post_cycles"] for s in mine) * 1e-6, "Mcycles")
    resumes = inproc["checkpoint_hits"] + inproc["checkpoint_misses"]
    m["inject.pre_mcycles"] = metric(inproc["pre_cycles"] * 1e-6, "Mcycles")
    m["inject.checkpoint_hit_rate"] = metric(
        ratio(inproc["checkpoint_hits"], resumes), "ratio")
    m["inject.reconverged"] = metric(inproc["reconverged"], "count")

    m["machine.restores"] = metric(inproc["restores"], "count")
    m["machine.kib_per_restore"] = metric(
        ratio(inproc["bytes_restored"] / 1024.0, inproc["restores"]), "KiB")

    run_s = sum(s["end_ns"] - s["start_ns"] for s in runs) * 1e-9
    entries = inproc["block_builds"] + inproc["block_hits"]
    m["vm.sim_mcycles_per_s"] = metric(
        ratio((inproc["pre_cycles"] + inproc["post_cycles"]) * 1e-6, run_s),
        "Mcycles/s")
    m["vm.block_hit_rate"] = metric(ratio(inproc["block_hits"], entries),
                                    "ratio")
    m["vm.avg_trace_len"] = metric(
        ratio(inproc["trace_len"], inproc["block_builds"]), "uops")
    m["vm.chain_follows"] = metric(inproc["chain_follows"], "count")
    m["vm.block_fallbacks"] = metric(inproc["block_fallbacks"], "count")
    m["vm.block_invalidations"] = metric(inproc["block_invalidations"],
                                         "count")

    m["serve.prepare_s"] = metric(span_seconds(serve_spans, "prepare"), "s")
    m["serve.bundle_mib"] = metric(served["bundle_mib"], "MiB")
    m["serve.run_s"] = metric(span_seconds(serve_spans, "run_service"), "s")
    m["serve.shards"] = metric(served["shards"], "count")
    m["serve.steals"] = metric(served["steals"], "count")
    m["serve.workers_failed"] = metric(served["workers_failed"], "count")
    m["serve.aggregate_s"] = metric(span_seconds(serve_spans, "aggregate"),
                                    "s")
    m["analysis.shard_mib"] = metric(served["shard_mib"], "MiB")
    m["analysis.digest_s"] = metric(span_seconds(own_spans, "digest"), "s")
    m["analysis.io.load_s"] = metric(span_seconds(check["spans"], "io_load"),
                                     "s")
    m["check.verify_s"] = metric(span_seconds(check["spans"], "verify"), "s")

    plain = own["injections"] / untraced["timed_s"]
    traced = own["injections"] / own["timed_s"]
    m["trace.overhead_share"] = metric((plain - traced) / plain, "ratio")
    return m


def measure_traced(ctx):
    own_path = WORKLOADS[ctx.workload]["path"]
    other_path = "serve" if own_path == "inproc" else "inproc"
    untraced = run_campaign(ctx, "untraced", own_path, False, ctx.seed)
    own = run_campaign(ctx, "traced", own_path, True, ctx.seed)
    other = run_campaign(ctx, "traced_other", other_path, True, ctx.seed)
    procs = [untraced, own, other]
    check = verify(ctx, procs)
    digests = {p["digest"] for p in procs}
    if len(digests) != 1:
        log(f"traced digests {sorted(digests)} differ from the untraced one")
        check["ok"] = False
    inproc, served = (own, other) if own_path == "inproc" else (other, own)
    metrics = layer_metrics(own, inproc, served, check, untraced)

    spans_dir = os.path.join(build_root(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_file = os.path.join(spans_dir, f"{ctx.workload}_s{ctx.seed}.jsonl")
    with open(spans_file, "w") as out:
        for label, proc in (("traced", own), ("traced_other", other)):
            for s in load_spans(os.path.join(proc["dir"], "spans.jsonl")):
                out.write(json.dumps({"process": label, **s}) + "\n")
        for s in check["spans"]:
            out.write(json.dumps({"process": "verify", **s}) + "\n")
    log(f"spans written to {spans_file}")
    return procs, check, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refs", default=None,
                        help="reference directory for seed 2003 "
                             "(default: the workload's committed one)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.refs is None:
        args.refs = WORKLOADS[args.workload]["refs"]
    args.refs = os.path.abspath(args.refs)

    # A terminated run still kills its process groups and removes its
    # run directory: SystemExit unwinds through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # Everything the build and the runs write stays in the build tree,
    # compiler temporaries included.
    tmp_root = os.path.join(build_root(), "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    os.environ["TMPDIR"] = tmp_root
    try:
        args.binary = build()
        args.deadline = time.monotonic() + RUN_BUDGET_S
        ticks = cpu_ticks()
        args.run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                                        dir=tmp_root)
        try:
            run = measure_traced if args.trace else measure
            procs, check, metrics = run(args)
        finally:
            shutil.rmtree(args.run_dir, ignore_errors=True)
    except BenchError as error:
        log(f"error: {error}")
        return 1

    host = host_record(procs, ticks)
    log(f"host: {json.dumps(host)}")
    print(json.dumps({"host": host, "workload": args.workload,
                      "seeds": [p["seed"] for p in procs],
                      "folds": check["folds"]}))
    print(json.dumps({"correct": check["ok"],
                      "attempted": check["attempted"],
                      "failed": check["failed"],
                      "metrics": metrics}))
    return 0 if check["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
