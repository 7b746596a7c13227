#!/usr/bin/env python3
"""Benchmark of schurkit: the realization route, the verifier and the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload scalar-deep --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, one after another

Each run draws its inputs from ``--seed``, times whole passes over the
workload for ``--seconds`` seconds, checks every output against
computations made apart from the program (``checks.py``), writes a result
file under ``perfbench/results/`` and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a separate
traced run and reports the per-layer metrics (see README.md).

BLAS and OpenMP threads are pinned to one here and in every process this
script starts: on a two-core machine the default thread count speeds up
some sizes and slows down others, which would swamp the effects measured.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

VERBS = ("analyze", "schur", "realize", "verify", "sample")
SETUP_REPEATS = 7
MIN_PASSES = 3
CLI_TIMEOUT_S = 120
SAMPLE_TOL = 1e-12
MATCH_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple  # (state_dim, io_dim) per system
    verify: bool = False
    cli: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("scalar-deep", ((6, 1), (8, 1), (10, 1)), verify=True),
        Workload("matrix-wide", ((40, 4),), verify=True),
        Workload("build-large", ((40, 2), (48, 3))),
        Workload("cli-verbs", ((8, 1), (16, 2)), cli=True),
    )
}


def die(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "schurkit" / "__init__.py").is_file():
    die(f"no schurkit sources under {SRC}; run from a checkout of the repository")
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402

import schurkit as sk  # noqa: E402
import schurkit.serialize  # noqa: E402,F401  (sk.serialize)
from checks import ChainData, Colligation, check_chain  # noqa: E402
from tracer import Tracer  # noqa: E402

if not Path(sk.__file__).resolve().is_relative_to(SRC):
    die(f"schurkit was imported from {sk.__file__}, not from {SRC}")


# -- environment ---------------------------------------------------------

def blas_threads() -> dict:
    """Thread count reported by the OpenBLAS that numpy bundles."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"threads": int(fn()), "library": lib.name}
    return {"threads": None, "library": None}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "loadavg_at_start": os.getloadavg(),
    }


# -- plain-matrix views of program output ----------------------------------

def colligation(system) -> Colligation:
    return Colligation(system.d, system.c, system.b, system.a)


def matrix(obj: dict) -> np.ndarray:
    data = np.array(obj["data"], dtype=float).reshape(-1, 2) if obj["data"] else np.zeros((0, 2))
    return (data[:, 0] + 1j * data[:, 1]).reshape(int(obj["rows"]), int(obj["cols"]))


def json_colligation(obj: dict) -> Colligation:
    return Colligation(matrix(obj["D"]), matrix(obj["C"]), matrix(obj["B"]), matrix(obj["A"]))


def chain_arrays(data: ChainData) -> list[np.ndarray]:
    """Every matrix of a chain, in a fixed order, for exact comparison."""
    out = list(data.gammas)
    for family in data.families:
        for s in family:
            out += [s.d, s.c, s.b, s.a]
    return out


def max_diff(xs: list[np.ndarray], ys: list[np.ndarray]) -> float:
    if len(xs) != len(ys) or any(x.shape != y.shape for x, y in zip(xs, ys)):
        return float("inf")
    return max((float(np.max(np.abs(x - y))) for x, y in zip(xs, ys) if x.size), default=0.0)


# -- one run ---------------------------------------------------------------

@dataclass
class Run:
    workload: Workload
    seed: int
    workdir: Path
    systems: list = field(default_factory=list)
    files: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # per-item reference output of the first pass, for exact comparison
    reference: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)

    def problem(self, text: str):
        if len(self.problems) < 20:
            self.problems.append(text)

    def note_residuals(self, residuals: dict):
        for key, value in residuals.items():
            self.worst[key] = max(self.worst.get(key, 0.0), value)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Draw the systems, write their JSON files and warm up; returns the
        wall time."""
        start = time.perf_counter()
        self.systems, self.files = [], []
        for d, io in self.workload.sizes:
            system = sk.random_conservative_system(d, io, np.random.default_rng(self.seed))
            path = self.workdir / f"{self.workload.name}-d{d}-io{io}.json"
            path.write_text(sk.serialize.dumps(
                sk.serialize.system_to_json(system, system.classify().as_dict())))
            self.systems.append(system)
            self.files.append(path)
        if self.workload.cli:
            out = self.cli("analyze", self.files[0])
            if out.returncode != 0:
                self.problem(f"warm-up analyze exited {out.returncode}")
        else:
            warm = sk.random_conservative_system(3, 1, np.random.default_rng(self.seed))
            sk.verify_chain(sk.build_chain(warm))
        return time.perf_counter() - start

    # -- library passes ----------------------------------------------------

    def library_pass(self, tracer: Tracer | None = None) -> dict:
        times = {"build_s": 0.0, "verify_s": 0.0}
        outputs = []
        with tracer or contextlib.nullcontext():
            for system in self.systems:
                outputs.append(self.library_item(system, times))
        self.check_library(outputs)
        times["items"] = {o["label"]: {k: o[k] for k in ("build_s", "verify_s") if k in o}
                          for o in outputs}
        return times

    def library_item(self, system, times: dict) -> dict:
        """Build (and verify) one system; failures are counted, not raised."""
        item = {"label": f"d{system.state_dim}-io{system.in_dim}"}
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            chain = sk.build_chain(system)
        except Exception as exc:
            self.failed += 1
            self.problem(f"build_chain {item['label']}: {exc!r}")
            return item
        item["build_s"] = time.perf_counter() - t0
        times["build_s"] += item["build_s"]
        item["chain"] = chain
        if self.workload.verify:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                report = sk.verify_chain(chain)
            except Exception as exc:
                self.failed += 1
                self.problem(f"verify_chain {item['label']}: {exc!r}")
                return item
            item["verify_s"] = time.perf_counter() - t0
            times["verify_s"] += item["verify_s"]
            item["verify_ok"] = report.ok
        return item

    def check_library(self, outputs: list):
        for item in outputs:
            label = item["label"]
            if "verify_ok" in item and not item["verify_ok"]:
                self.problem(f"verify_chain {label}: FAIL verdict on a chain that checks 1-5 judge")
            if "chain" not in item:
                continue
            data = ChainData.from_chain(item["chain"])
            arrays = chain_arrays(data)
            previous = self.reference.get(label)
            if previous is not None and max_diff(previous, arrays) == 0.0:
                continue  # bit-identical to an output that passed the checks
            report = check_chain(data)
            self.note_residuals(report.residuals)
            if not report.ok:
                self.problem(f"checks {label}: {report.failures()}")
            elif previous is None:
                self.reference[label] = arrays

    # -- command-line passes -----------------------------------------------

    def cli(self, verb: str, path: Path, trace_out: Path | None = None,
            spans_out: Path | None = None) -> subprocess.CompletedProcess:
        if trace_out is None:
            prefix = [sys.executable, "-m", "schurkit.cli"]
        else:
            prefix = [sys.executable, str(BENCH / "trace_cli.py"), str(trace_out),
                      str(spans_out) if spans_out else "-"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        return subprocess.run(prefix + [verb, "--input", str(path)], capture_output=True,
                              env=env, cwd=str(ROOT), timeout=CLI_TIMEOUT_S)

    def cli_pass(self, traced: bool = False, keep_spans: bool = False) -> dict:
        times = {f"cli_{verb}_s": 0.0 for verb in VERBS}
        children = []
        for index, path in enumerate(self.files):
            for verb in VERBS:
                tag = f"{path.stem}-{verb}"
                trace_out = self.workdir / f"{tag}.totals.json" if traced else None
                spans_out = self.workdir / f"{tag}.spans.npz" if keep_spans else None
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = self.cli(verb, path, trace_out, spans_out)
                except subprocess.TimeoutExpired:
                    self.failed += 1
                    self.problem(f"{verb} {path.name}: timed out")
                    continue
                times[f"cli_{verb}_s"] += time.perf_counter() - t0
                if out.returncode != 0:
                    self.failed += 1
                    self.problem(f"{verb} {path.name}: exit {out.returncode}: "
                                 f"{out.stderr.decode(errors='replace')[-200:]}")
                    continue
                self.check_cli(index, verb, out.stdout)
                if traced:
                    child = json.loads(trace_out.read_text())
                    child["verb"] = verb
                    if spans_out is not None:
                        with np.load(spans_out) as z:
                            child["spans"] = (json.loads(str(z["names"])),
                                              {k: z[k] for k in ("name", "parent", "start", "end")})
                    children.append(child)
        if traced:
            times["children"] = children
        return times

    def check_cli(self, index: int, verb: str, stdout: bytes):
        key = (index, verb)
        if key in self.reference:
            if stdout != self.reference[key]:
                self.problem(f"{verb} {self.files[index].name}: output differs between invocations")
            return
        self.reference[key] = stdout
        system = self.systems[index]
        name = self.files[index].name
        try:
            if verb == "sample":
                self.check_sample(system, stdout.decode())
                return
            obj = json.loads(stdout)
        except (ValueError, KeyError, IndexError) as exc:
            self.problem(f"{verb} {name}: unreadable output: {exc!r}")
            return
        if verb == "analyze":
            cls = obj["classification"]
            if not (cls["conservative"] and cls["simple"]):
                self.problem(f"analyze {name}: not reported conservative and simple")
        elif verb == "verify":
            if obj.get("pass") is not True:
                self.problem(f"verify {name}: pass is not true")
        else:
            self.check_cli_chain(index, verb, obj)

    def check_cli_chain(self, index: int, verb: str, obj: dict):
        system = self.systems[index]
        name = self.files[index].name
        if ("chain", index) not in self.reference:
            self.reference[("chain", index)] = ChainData.from_chain(sk.build_chain(system))
        ref = self.reference[("chain", index)]
        families = [[json_colligation(s) for s in family] for family in obj["iterates"]]
        if verb == "schur":
            gammas = [matrix(g) for g in obj["gammas"]]
            terminated = obj["terminated"]
        else:  # realize prints no parameters: read them off the iterates
            gammas = [system.d] + [family[0].d for family in families]
            terminated = False
        data = ChainData(colligation(system), gammas, obj["h_dims"], families, terminated)
        report = check_chain(data, require_terminated=verb == "schur")
        self.note_residuals(report.residuals)
        if not report.ok:
            self.problem(f"{verb} {name}: checks {report.failures()}")
        ref_gammas = ref.gammas if verb == "schur" else ref.gammas[: len(gammas)]
        expected = chain_arrays(ChainData(ref.source, ref_gammas, ref.h_dims, ref.families,
                                          ref.terminated))
        if (max_diff(chain_arrays(data), expected) > MATCH_TOL or obj["h_dims"] != ref.h_dims
                or obj["terminated"] != ref.terminated):
            self.problem(f"{verb} {name}: differs from build_chain on the same file")

    def check_sample(self, system, text: str):
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        values = np.array([[float(x) for x in row] for row in rows])
        lam = values[:, 0] + 1j * values[:, 1]
        got = (values[:, 2::2] + 1j * values[:, 3::2]).reshape(len(rows), system.out_dim,
                                                               system.in_dim)
        want = colligation(system).transfer(lam)
        err = float(np.max(np.abs(got - want)))
        self.note_residuals({"sample": err})
        if len(rows) != 25 or np.any(np.abs(lam) >= 1.0) or not err <= SAMPLE_TOL:
            self.problem(f"sample: {len(rows)} rows, worst deviation {err:.3e}")

    def one_pass(self, **kw) -> dict:
        return self.cli_pass(**kw) if self.workload.cli else self.library_pass(**kw)


# -- metrics ---------------------------------------------------------------

def pass_total(times: dict) -> float:
    return sum(v for k, v in times.items() if k.endswith("_s"))


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p.get(key, 0.0) for p in passes)


def layer_metrics(totals: list[dict], children: list[dict], untraced: list[dict],
                  traced: list[dict]) -> dict:
    """Per-layer metrics of the traced passes; ``totals`` holds one tracer
    summary per pass (for the command line, the sum over its children)."""

    def per_pass(fn):
        return statistics.median(fn(t) for t in totals)

    def calls(name):
        return per_pass(lambda t: t["calls"].get(name, 0))

    def self_s(name):
        return per_pass(lambda t: t["self_s"].get(name, 0.0))

    def group(name):
        return per_pass(lambda t: t["groups"].get(name, 0.0))

    def counter(name):
        return per_pass(lambda t: t["counters"].get(name, 0))

    count, sec = "count", "s"
    out = {}
    for layer in ("linalg.defect_of", "linalg.kernel_basis", "linalg.subspace_intersect"):
        out[f"{layer}.calls"] = (calls(layer), count)
        out[f"{layer}.s"] = (self_s(layer), sec)
    out["contractions.h_subspace.calls"] = (calls("contractions.h_subspace"), count)
    out["contractions.h_subspace.computed"] = (counter("contractions.h_subspace.computed"), count)
    out["contractions.h_subspace.s"] = (self_s("contractions.h_subspace"), sec)
    out["schur.extend.s"] = (self_s("schur.extend"), sec)
    out["schur.family.s"] = (self_s("schur.family"), sec)
    out["schur.family.systems"] = (counter("schur.family.systems"), count)
    out["schur.schur_oracle.s"] = (self_s("schur.schur_oracle"), sec)
    for grp in ("params", "transfer", "similarity", "pure_char"):
        out[f"verify.{grp}.s"] = (group(f"verify.{grp}"), sec)
    for layer in ("sampled", "transfer", "unitarily_similar", "classify"):
        out[f"systems.{layer}.calls"] = (calls(f"systems.{layer}"), count)
        out[f"systems.{layer}.s"] = (self_s(f"systems.{layer}"), sec)
    out["serialize.dumps.s"] = (self_s("serialize.dumps"), sec)
    out["serialize.report_bytes"] = (counter("serialize.report_bytes"), "bytes")
    imports = [c["import_s"] for c in children]
    out["cli.import_s"] = (statistics.median(imports) if imports else 0.0, sec)
    realize = [c["calls"].get("schur.verify_chain", 0) for c in children if c["verb"] == "realize"]
    out["cli.realize.verify_chain.calls"] = (statistics.mean(realize) if realize else 0, count)
    for kernel in ("solve", "svd", "eigh", "lstsq"):
        out[f"kernel.{kernel}.calls"] = (calls(f"kernel.{kernel}"), count)
    for kernel in ("solve", "svd", "lstsq"):
        out[f"kernel.{kernel}.s"] = (self_s(f"kernel.{kernel}"), sec)
    for stage in ("build_s", "verify_s") + tuple(f"cli_{v}_s" for v in VERBS):
        out[f"stage.{stage}"] = (median_of(untraced, stage), sec)
    ratios = [pass_total(t) / pass_total(u) for u, t in zip(untraced, traced)]
    out["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    return out


def merge_children(children: list[dict]) -> dict:
    total = {"calls": {}, "self_s": {}, "groups": {}, "counters": {}}
    for child in children:
        for part, values in total.items():
            for key, value in child[part].items():
                values[key] = values.get(key, 0) + value
    return total


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (BENCH / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "work") as tmp:
        run = Run(workload, seed, Path(tmp))
        setups = [run.setup()]
        start = time.perf_counter()
        untraced, traced, totals, children = [], [], [], []
        walls: list[float] = []
        if not trace:
            while len(untraced) < MIN_PASSES or (
                    time.perf_counter() - start + statistics.median(walls) <= seconds):
                # Set-ups are spread over the run, so that their median, like
                # the passes', spans the host's drift in speed.
                due = 1 + int((time.perf_counter() - start) / seconds * SETUP_REPEATS)
                while len(setups) < min(due, SETUP_REPEATS):
                    setups.append(run.setup())
                t0 = time.perf_counter()
                untraced.append(run.one_pass())
                walls.append(time.perf_counter() - t0)
            while len(setups) < SETUP_REPEATS:
                setups.append(run.setup())
        else:
            # Untraced and traced passes alternate, so that the host's drift
            # in speed, which lasts seconds to minutes, cancels in the
            # overhead of each pair.
            tracer = Tracer()
            while not traced or time.perf_counter() - start + statistics.median(walls) <= seconds:
                t0 = time.perf_counter()
                untraced.append(run.one_pass())
                tracer.keep_spans = not traced
                tracer.reset_totals()
                if workload.cli:
                    times = run.cli_pass(traced=True, keep_spans=not traced)
                    children += times["children"]
                    totals.append(merge_children(times["children"]))
                else:
                    times = run.library_pass(tracer)
                    totals.append(tracer.totals())
                traced.append(times)
                walls.append(time.perf_counter() - t0)
            trace_path = results / f"trace-{workload.name}-seed{seed}.npz"
            tracer.save(trace_path, [c["spans"] for c in children if "spans" in c])

    if trace:
        metrics = layer_metrics(totals, children, untraced, traced)
    else:
        metrics = {"pass_s": (statistics.median(pass_total(p) for p in untraced), "s"),
                   "setup_s": (statistics.median(setups), "s")}
    stages = {k: median_of(untraced, k) for k in untraced[0] if k.endswith("_s")}
    items = {label: {k: statistics.median(p["items"][label][k] for p in untraced
                                          if k in p["items"][label])
                     for k in times}
             for label, times in untraced[0].get("items", {}).items()}
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_s": [pass_total(p) for p in untraced],
        "traced_pass_s": [pass_total(p) for p in traced],
        "setup_s": setups,
        "stages_s": stages,
        "items_s": items,
        "worst_residuals": run.worst,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def summary(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result["environment"] = env
        out = BENCH / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1, default=str) + "\n")
        results.append(result)
        print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} passes={result['passes']}")
        for problem in result["problems"]:
            print(f"#   problem: {problem}")
        stages = ", ".join(f"{k}={v:.4g}" for k, v in result["stages_s"].items() if v)
        print(f"#   stages (s, untraced median): {stages}")
        for key, metric in result["metrics"].items():
            print(f"#   {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"# BLAS threads {env['blas']['threads']} ({env['blas']['library']}), "
          f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"git {env['git_sha'][:12]}")
    if len(results) == 1:
        final = summary(results[0])
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
