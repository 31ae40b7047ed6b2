"""Timed and traced runs of one workload, and the record each run leaves.

A timed run measures the end-to-end metrics with tracing off: a closed loop
with one client runs the workload's ops for the requested number of seconds
and times every op.  The ops of the list that the time did not reach are
then run untimed, so that every op is checked, and counted, exactly once
(see ``Tally``).  Between ops, about every PROBE_EVERY_S, it also times a
fixed pure-Python probe.  On a shared host the speed of Python code can
swing by a third within a minute; on a shared 2-core x86-64 host the probe's
mean time tracked those swings with correlation 0.95 over 10-second windows
of corpus-grouplaw.  Every reported op time is therefore the wall time
divided by the run's slowdown, the probe's mean over PROBE_REFERENCE_S.
Each set-up is divided by its own slowdown, from probes just before and
after it.  The wall times themselves stay in the record.

A traced run replays the first block of ops twice, once plain and once under
cProfile, and turns the profile into per-layer metrics; the ratio of the two
wall times is the tracing overhead.
"""

import cProfile
import gc
import hashlib
import importlib
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import SETUPS, causes_over_allowance, known_cause

SETUP_REPEATS = 9
SETUP_PROBES = 16  # probes on each side of a timed set-up
PROBE_EVERY_S = 0.1
PROBE_REFERENCE_S = 0.0015  # the probe's mean time on a quiet 2-core x86-64 box, Python 3.11
TAIL_BEYOND = 10  # the tail percentile is the highest with this many samples beyond it

# end-to-end metrics: name -> unit
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_rate": "ratio",
    "certified_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "base", "linalg", "chart", "galois", "pdring", "higgs",
    "sen", "cohomology", "deltaring", "serialize", "cli",
)

# named per-layer counters: name -> (module, qualified function name, kind);
# "calls" is the exact profiled call count, "time" the inclusive time in s
COUNTERS = {
    "base.kelem_init": ("base", "KElem.__init__", "calls"),
    "base.kelem_add": ("base", "KElem.__add__", "calls"),
    "base.kelem_mul": ("base", "KElem.__mul__", "calls"),
    "base.kelem_inv": ("base", "KElem.inv", "calls"),
    "base.okelem_mul": ("base", "OkElem.__mul__", "calls"),
    "base.witt_mul": ("base", "WittRing.mul", "calls"),
    "linalg.mat_mul": ("linalg", "Mat.__mul__", "calls"),
    "chart.elem_mul": ("chart", "ChartElem.__mul__", "calls"),
    "galois.formal_mul": ("galois", "FormalCElem.__mul__", "calls"),
    "galois.subs_t": ("galois", "FormalCElem.subs_t", "calls"),
    "pdring.pd_mul": ("pdring", "PdElement.__mul__", "calls"),
    "pdring.face_apply": ("pdring", "FaceContext.apply", "calls"),
    "pdring.face_apply_s": ("pdring", "FaceContext.apply", "time"),
    "higgs.stratify_s": ("higgs", "stratification_from_higgs", "time"),
    "higgs.descent_s": ("higgs", "check_cocycle_strat", "time"),
    "sen.cocycle_matrix": ("sen", "cocycle_matrix", "calls"),
    "sen.cocycle_law_s": ("sen", "verify_cocycle_law", "time"),
    "cohomology.snf": ("cohomology", "snf_dvr", "calls"),
    "cohomology.snf_s": ("cohomology", "snf_dvr", "time"),
    "cohomology.build_complex_s": ("cohomology", "build_higgs_complex", "time"),
    "deltaring.factorize_s": ("deltaring", "teichmuller_factorize", "time"),
    "serialize.parse_s": ("serialize", "higgs_from_json", "time"),
    "serialize.dumps_s": ("serialize", "dumps", "time"),
}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    for name, (_, _, kind) in COUNTERS.items():
        units[name] = "count" if kind == "calls" else "s"
    units["trace_overhead"] = "ratio"
    return units


PER_LAYER = per_layer_units()


class Tally:
    """Outcomes of the ops of one run, counted once per op of the workload.

    An op is one entry of the workload's list, and ``key`` names it (its
    index).  The timed loop may run an op several times; the op is counted
    once, so ``attempted``, ``failed`` and ``limited`` depend only on the
    inputs, never on how many ops the host got through in the time.  An op
    whose status differs between two executions is failed and unstable, and
    makes the run incorrect.  Failures are attributed to known causes.
    """

    def __init__(self):
        self.executions = 0
        self.outcomes = {}  # key -> (label, status, cause)
        self.unstable = []
        self.unexplained = []

    def add(self, op, key):
        try:
            status, detail = op.run()
        except Exception as exc:  # a raised exception is a failed op, never an abort
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        self.executions += 1
        if key in self.outcomes:
            label, first, cause = self.outcomes[key]
            if status != first and cause != "unstable":
                self.outcomes[key] = (label, "error", "unstable")
                if len(self.unstable) < 5:
                    self.unstable.append(f"{label}: {first} then {status}")
            return
        cause = None
        if status not in ("pass", "limited"):
            detail = f"wrong: {detail}" if status == "wrong" else detail
            cause = known_cause(op.label, detail)
            if cause is None:
                cause = "unexplained"
                if len(self.unexplained) < 5:
                    self.unexplained.append(f"{op.label}: {detail}")
        self.outcomes[key] = (op.label, status, cause)

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        return sum(cause is not None for _, _, cause in self.outcomes.values())

    @property
    def limited(self):
        return sum(status == "limited" for _, status, _ in self.outcomes.values())

    @property
    def causes(self):
        causes = {}
        for _, _, cause in self.outcomes.values():
            if cause is not None:
                causes[cause] = causes.get(cause, 0) + 1
        return causes

    @property
    def label_counts(self):
        counts = {}
        for label, _, _ in self.outcomes.values():
            counts[label] = counts.get(label, 0) + 1
        return counts

    @property
    def over_allowance(self):
        """Known causes that failed far more often than at the baseline."""
        return causes_over_allowance(self.causes, self.label_counts)

    @property
    def correct(self):
        causes = self.causes
        return "unexplained" not in causes and "unstable" not in causes and not self.over_allowance

    def to_json(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "limited": self.limited,
            "executions": self.executions,
            "causes": dict(sorted(self.causes.items())),
            "over_allowance": self.over_allowance,
            "unexplained": self.unexplained,
            "unstable": self.unstable,
        }


def tail(values):
    """(value, percentile): the highest order statistic with TAIL_BEYOND samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / n


def probe():
    """Time one fixed pure-Python kernel of tuple, dict and modular int work."""
    t0 = time.perf_counter()
    acc, seen = 1, {}
    for i in range(4000):
        t = ((i * 2654435761) % 390625, (i * 7 + 1) % 390625)
        acc = (acc * t[0] + t[1]) % 390625
        seen[i & 255] = t
    return time.perf_counter() - t0


def _fresh_import():
    for name in [m for m in sys.modules if m == "htlab" or m.startswith("htlab.")]:
        del sys.modules[name]
    importlib.import_module("htlab")


def set_up(name, seed, workdir):
    """Set the workload up once untimed, then SETUP_REPEATS times timed.

    The untimed set-up searches for the kept draws and leaves htlab's
    bytecode cached.  Each timed set-up starts from a collected heap with no
    workload alive, so that peak RSS is that of one workload and of what its
    ops accumulate.  The host's speed drifts within a second, so each set-up
    is calibrated by the probes just before and after it.

    Returns the last workload, the wall time of every timed set-up and its
    slowdown.
    """
    kept = {}
    wl = SETUPS[name](seed, _subdir(workdir, "draws"), kept)
    times, slowdowns = [], []
    for i in range(SETUP_REPEATS):
        sub = _subdir(workdir, str(i))
        wl = None
        gc.collect()
        before = [probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        _fresh_import()
        wl = SETUPS[name](seed, sub, kept)
        times.append(time.perf_counter() - t0)
        after = [probe() for _ in range(SETUP_PROBES)]
        slowdowns.append(statistics.fmean(before + after) / PROBE_REFERENCE_S)
    wl.write_files()
    return wl, times, slowdowns


def _subdir(workdir, name):
    path = os.path.join(workdir, name)
    os.mkdir(path)
    return path


def timed_phase(wl, seconds, probes):
    """Warm up, run ops for ``seconds`` probing between them, then run untimed
    whatever ops of the list the time did not reach.

    Every op of the list is thus checked at least once, whatever the host's
    speed.  Returns the tally, the op latencies, and the busy time: the wall
    time of the timed loop less the time spent in probes.
    """
    tally = Tally()
    for i, op in enumerate(wl.ops[: wl.warmup]):
        tally.add(op, i)
    lat = []
    n = len(wl.ops)
    probing = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    now = next_probe = start
    while now < deadline:
        i = len(lat) % n
        t0 = time.perf_counter()
        tally.add(wl.ops[i], i)
        now = time.perf_counter()
        lat.append(now - t0)
        if now >= next_probe:
            probes.append(probe())
            probing += probes[-1]
            next_probe = now + PROBE_EVERY_S
    busy = now - start - probing
    for i in range(len(lat), n):
        tally.add(wl.ops[i], i)
    return tally, lat, busy


def traced_phase(wl):
    """Replay the first block plain, then under cProfile.

    Returns the tally of both passes and the per-layer metrics.
    """
    ops = wl.ops[: wl.block]
    tally = Tally()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        tally.add(op, i)
    t_plain = time.perf_counter() - t0
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    for i, op in enumerate(ops):
        tally.add(op, i)
    prof.disable()
    t_traced = time.perf_counter() - t0
    metrics = layer_metrics(prof.getstats())
    metrics["trace_overhead"] = t_traced / t_plain
    return tally, metrics


def end_to_end(tally, lat, busy, setup_times, slowdown=1.0):
    """The end-to-end metric values of a timed run.

    Op times are divided by ``slowdown``; ``setup_times`` are taken as given.
    """
    return {
        "ops_per_s": len(lat) / busy * slowdown,
        "op_ms_p50": statistics.median(lat) * 1000 / slowdown,
        "op_ms_tail": tail(lat)[0] * 1000 / slowdown,
        "ok_rate": 1 - tally.failed / tally.attempted,
        "certified_rate": 1 - tally.limited / tally.attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(entries):
    """Per-layer metrics from ``cProfile.Profile.getstats()``.

    The raw entries are keyed by code object.  pstats keys them by (file,
    line, name) instead, which merges the nested comprehensions of one line
    in an order that varies between processes.
    """
    pkg = Path(sys.modules["htlab"].__file__).resolve().parent
    layer_of = {str(pkg / f"{layer}.py"): layer for layer in LAYERS}
    counters = {}
    for name, (module, qualname, kind) in COUNTERS.items():
        fn = sys.modules[f"htlab.{module}"]
        for part in qualname.split("."):
            fn = getattr(fn, part, None)
        code = getattr(fn, "__code__", None)
        if code is not None:  # a function that no longer exists reads 0
            counters.setdefault(code, []).append((name, kind))
    out = {name: 0 for name in PER_LAYER}
    for entry in entries:
        code = entry.code
        if isinstance(code, str):
            continue  # a builtin
        layer = layer_of.get(str(Path(code.co_filename).resolve()))
        if layer:
            out[f"{layer}.self_s"] += entry.inlinetime
            out[f"{layer}.calls"] += entry.callcount
        for name, kind in counters.get(code, ()):
            out[name] = entry.callcount if kind == "calls" else entry.totaltime
    return out


def git_commit(root):
    """The commit of a git checkout, read from .git without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src" / "htlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run(name, seed, seconds, trace, root):
    """One run of one workload; returns the full record."""
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(root),
        "src_digest": src_digest(root),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    workdir = tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).parent)
    try:
        wl, setup_times, setup_slowdowns = set_up(name, seed, workdir)
        calibrated = [t / s for t, s in zip(setup_times, setup_slowdowns)]
        if trace:
            tally, values = traced_phase(wl)
            units = PER_LAYER
            samples = {"traced_ops": tally.attempted}
        else:
            probes = []
            tally, lat, busy = timed_phase(wl, seconds, probes)
            slowdown = statistics.fmean(probes) / PROBE_REFERENCE_S
            values = end_to_end(tally, lat, busy, calibrated, slowdown)
            units = END_TO_END
            samples = {
                "ops": len(lat),
                "list_ops": len(wl.ops),
                "busy_s": busy,
                "p50_samples": len(lat),
                "tail_percentile": tail(lat)[1],
                "tail_samples_beyond": TAIL_BEYOND,
                "block_ops": wl.block,
                "probes": len(probes),
                "slowdown": slowdown,
                "wall": end_to_end(tally, lat, busy, setup_times),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    samples["setup_samples"] = setup_times
    samples["setup_slowdowns"] = setup_slowdowns
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "correct": tally.correct,
        **tally.to_json(),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "samples": samples,
        "env": env,
    }
