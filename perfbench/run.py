"""End-to-end benchmark of the alphaspec CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is graphs, family, or ``all`` for both in turn.  Run it from a
checkout of the repository: the program is imported from ``src/``;
nothing needs installing.

A run writes the workload's inputs from the seed, then runs batches of
CLI commands, each in a fresh interpreter and a fresh working directory,
one at a time, until the next batch would end after S seconds (at least
one batch).  Fresh processes matter: alphaspec memoises enumeration
levels and scans per process, so a second batch in the same process
would only read its caches.  Every output is checked against the
benchmark's own references (see check.py).  The process times itself
from outside: ``setup_s`` is spawn to the end of ``import alphaspec.cli``
(median over the batches and extra import-only spawns), and ``wall_s``
and ``cpu_s`` sum the times of the batch's ``cli.main`` calls (median
over the batches).  Every time reported is scaled to a fixed host speed
by a reference loop timed next to it (see reference.py); the raw
medians are printed and kept in the result file.

With ``--trace 1`` one more batch runs with every layer wrapped (see
tracing.py) and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  A result file with
provenance, timings and the deterministic part of the run goes to
``.perfbench/results/``; the deterministic part must repeat exactly for
the same code and seed, which is checked against ``.perfbench/deterministic/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import networkx
import numpy

import reference
import tracing
from check import json_records
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src" / "alphaspec"
STATE = ROOT / ".perfbench"

SETUP_SPAWNS = 5  # import-only interpreters per run, after one warm-up
SETUP_TIMINGS = ("setup_s", "setup_ref_s", "scaled_setup_s")
BATCH_TIMINGS = (*SETUP_TIMINGS, "wall_s", "cpu_s", "scaled_wall_s", "scaled_cpu_s")
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ALPHASPEC_JOBS", None)  # --jobs stays at its default of 1
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads bytecode, as an installed package does
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def spawn(args: list[str], cwd: Path) -> dict:
    """Run worker.py in a fresh interpreter; add its set-up time and the
    batch's raw and scaled totals (see reference.py)."""
    ref_before = reference.reference_s()
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=cwd,
        env=worker_env(),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["imported_at"] - spawned_at
    result["setup_ref_s"] = (ref_before + result["ref_s"]) / 2
    outputs = result.get("outputs", [])
    for key in ("wall_s", "cpu_s"):
        result[key] = sum(o[key] for o in outputs)
        result["scaled_" + key] = sum(reference.scaled(o[key], o["ref_s"]) for o in outputs)
    result["scaled_setup_s"] = reference.scaled(result["setup_s"], result["setup_ref_s"])
    return result


def run_batch(job, trace: bool, tmp: Path) -> dict:
    cwd = Path(tempfile.mkdtemp(prefix="batch-", dir=tmp))
    job_file = cwd / "job.json"
    job_file.write_text(json.dumps({"commands": job.commands, "trace": trace}), encoding="utf-8")
    return spawn([str(job_file)], cwd)


def check_batch(job, outputs: list[dict]) -> list[str]:
    problems = []
    for spec, out in zip(job.specs, outputs):
        lines = out["stderr"].strip().splitlines()
        tail = f" ({lines[-1]})" if out["code"] != 0 and lines else ""
        problems.extend(p + tail for p in spec.problems(out["code"], out["stdout"]) if p)
    return problems


def deterministic_records(outputs: list[dict]) -> list[dict]:
    """Exit codes and parsed records, minus the program's own timings."""
    out = []
    for o in outputs:
        records = json_records(o["stdout"])
        for r in records:
            r.pop("wall_time", None)
        out.append({"code": o["code"], "records": records})
    return out


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*SOURCE.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # no git: the code hash still identifies the code
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "code_sha256": code_hash(),
    }


def check_repeats(workload: str, seed: int, code: str, deterministic: dict) -> list[str]:
    """Compare this run's deterministic part with an earlier run of the
    same code and seed, or store it as the reference for later runs."""
    path = STATE / "deterministic" / f"{workload}-seed{seed}-{code[:16]}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if not path.exists():
        path.write_text(json.dumps(deterministic), encoding="utf-8")
        return []
    earlier = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if earlier["records"] != deterministic["records"]:
        problems.append("records differ from an earlier run of the same code and seed")
    if earlier["counts"] is None:
        earlier["counts"] = deterministic["counts"]
        path.write_text(json.dumps(earlier), encoding="utf-8")
    elif deterministic["counts"] is not None and earlier["counts"] != deterministic["counts"]:
        problems.append("trace counts differ from an earlier run of the same code and seed")
    return problems


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=STATE / "tmp"))
    try:
        job = WORKLOADS[name](seed, tmp)
        spawn(["--setup-only"], tmp)  # warm-up: writes bytecode caches
        setup_only = [spawn(["--setup-only"], tmp) for _ in range(SETUP_SPAWNS)]
        batches = []
        start = time.monotonic()
        while True:
            batches.append(run_batch(job, False, tmp))
            spent = time.monotonic() - start
            if spent + spent / len(batches) > seconds:
                break
        traced = run_batch(job, True, tmp) if trace else None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    runs = batches + ([traced] if traced else [])
    problems = []
    for batch in runs:
        problems.extend(check_batch(job, batch["outputs"]))
    failed = len(problems)
    attempted = job.records * len(runs)

    records = deterministic_records(batches[0]["outputs"])
    consistency = []
    if any(deterministic_records(b["outputs"]) != records for b in runs[1:]):
        consistency.append("records differ between batches of one run")
    counts = tracing.deterministic_counts(traced["trace"]) if traced else None
    prov = provenance(name, seed, seconds, trace)
    consistency += check_repeats(name, seed, prov["code_sha256"], {"records": records, "counts": counts})
    if traced:
        consistency += tracing.bypass_violations(name, traced["trace"])

    spawns = setup_only + runs

    def median(key: str, samples: list[dict]) -> float:
        return statistics.median(b[key] for b in samples)

    wall = median("scaled_wall_s", batches)
    end_to_end = {
        "wall_s": wall,
        "cpu_s": median("scaled_cpu_s", batches),
        "setup_s": median("scaled_setup_s", spawns),
        "throughput_per_s": job.items / wall,
        "peak_rss_mb": statistics.median(b["peak_rss_kb"] for b in batches) / 1024,
    }
    units = dict(END_TO_END)
    if traced:
        overhead = traced["scaled_wall_s"] / wall - 1
        per_layer = tracing.layer_metrics(traced["trace"], job.commands, overhead)
        units.update((n, u) for n, u, _better in tracing.PER_LAYER)
        speed = traced["scaled_wall_s"] / traced["wall_s"]  # the traced batch's scale factor
        per_layer = {k: v * speed if units[k] == "s" else v for k, v in per_layer.items()}
        reported = per_layer
    else:
        per_layer = None
        reported = end_to_end

    result = {
        "correct": failed == 0 and not consistency,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }
    STATE.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {
        "provenance": prov,
        "deterministic": {"records": records, "counts": counts},
        "timings": {
            "batches": [{k: b[k] for k in (*BATCH_TIMINGS, "peak_rss_kb")} for b in batches],
            "setup_spawns": [{k: b[k] for k in SETUP_TIMINGS} for b in spawns],
            "traced": {**{k: traced[k] for k in BATCH_TIMINGS}, "edges": traced["trace"]["edges"]}
            if traced else None,
            "raw_medians": {
                "wall_s": median("wall_s", batches),
                "cpu_s": median("cpu_s", batches),
                "setup_s": median("setup_s", spawns),
            },
        },
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "failed_frac": failed / attempted,
        "problems": problems + consistency,
        "result": result,
    }
    out = STATE / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{name} seed={seed}: {len(batches)} batch(es), {len(spawns)} set-up samples, "
          f"python {prov['python']}, numpy {prov['numpy']}, {prov['blas']}, nproc {prov['nproc']}")
    for key, value in (per_layer or {}).items():
        print(f"  {key:44s} {value:.6g} {units[key]}")
    for key, value in end_to_end.items():
        print(f"  {key:44s} {value:.6g} {units[key]}")
    for key, value in record["timings"]["raw_medians"].items():
        print(f"  {'raw ' + key:44s} {value:.6g} s (unscaled)")
    print(f"  {'failed_frac':44s} {failed / attempted:.6g} ({failed} of {attempted} records)")
    for problem in problems + consistency:
        print(f"  PROBLEM: {problem}", file=sys.stderr)
    print(f"  result file: {out.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        print(f"error: {SOURCE.relative_to(ROOT)}/cli.py not found; run from a checkout of alphaspec",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for n, r in results.items():
            print(f"{n}: {json.dumps(r)}")
        results = {"all": {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }}
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
