"""lowdeg benchmark: one run of one workload.

    python3 perfbench/run.py --workload adv-enum --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; lowdeg is imported from src/.
A run

1. times `setup_s`, the import of lowdeg and its ten modules in fresh
   interpreters (median of several), in untraced runs only;
2. repeats whole rounds until --seconds have passed (at least one).  A
   round runs the workload's README commands, each as a fresh
   `python -m lowdeg.cli` process, then the workload's library script
   (workloads.py) in a fresh process.  Every output is checked against
   the oracles in oracles.py;
3. reports the end-to-end metrics, or with --trace 1, where the library
   script runs with spans around lowdeg's layers (spans.py), the
   per-layer metrics.  Each is the median over rounds.

The last line of standard output is the JSON result.  Per-operation
times go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("exactnum", "graph_core", "measures", "basis", "advantage",
           "certificate", "models", "reduction", "bounds", "cli")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import oracles as orc  # noqa: E402

# -- the README commands, kept verbatim (without the leading `lowdeg`) --------------

README_COMMANDS = {
    "sample": "sample --model corr-er --n 12 --q 1/4 --rho 1/3 --seed 7 --trials 2 --exact --out samples",
    "adv": "adv --model corr-er --n 3 --q 1/3 --rho 1/2 --D 3 --exact",
    "adv-condition": "adv --model corr-er --n 3 --q 1/3 --rho 1/2 --D 2 --exact --condition pi(1)=1",
    "xi": "xi --n 6 --k 2 --eps 3/10 --lambda 1 --D 3 --exact",
    "dual-check": "dual-check --n 4 --k 2 --eps 1/5 --lambda 1 --delta 1/100 --D 3 --exact",
    "hidden": "hidden --M 4 --base-spec base.json",
    "bounds-audit": "bounds-audit --suite P-sum --out audits.csv",
    "reduce": "reduce --model corr-er --estimator greedy --n 10 --q 1/4 --rho 1/3 "
              "--lambda-mix 1/2 --trials 20 --seed 3 --exact",
    "otter": "otter --max-n 50",
    "verify": "verify",
}
# The hidden-sample base pair: (1/2, 1/2) against (1/5, 4/5).
BASE_SPEC = {"outcomes": [0, 1], "null": ["1/2", "1/2"], "alt": ["1/5", "4/5"]}

WORKLOAD_COMMANDS = {
    "adv-enum": ("adv", "adv-condition", "hidden"),
    "dual-cert": ("xi", "dual-check"),
    "canon-sample": ("sample", "reduce", "otter", "verify", "bounds-audit"),
}
# canon-sample's commands each spend most of their ~0.4 s starting the
# interpreter, and that start-up time varies up to twofold from one process
# to the next; each runs three times and counts its median.  dual-cert's
# ~8 s `dual-check` varies by a tenth from one process to the next; its
# commands run twice and count their mean (the median of two).  A third run
# would not fit the time budget of a full comparison.
CLI_REPEATS = {"adv-enum": 1, "dual-cert": 2, "canon-sample": 3}


class RunError(Exception):
    """The run cannot produce a result."""


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("LOWDEG_THREADS", None)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"

    def _run(self, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RunError("deadline passed")
        try:
            return subprocess.run(argv, cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"timed out: {argv[1:4]}") from exc

    # -- set-up -------------------------------------------------------------------

    def setup_times(self) -> list[float]:
        snippet = ("import time, lowdeg\nfrom lowdeg import " + ", ".join(MODULES)
                   + "\nprint(repr(time.monotonic()))")
        self._run([sys.executable, "-c", snippet], self.work)  # writes bytecode caches
        times = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.monotonic()
            done = self._run([sys.executable, "-c", snippet], self.work)
            if done.returncode:
                raise RunError(f"import failed: {done.stderr.strip()[-300:]}")
            times.append(float(done.stdout.split()[-1]) - t0)
        return times

    # -- one round ------------------------------------------------------------------

    def cli_round(self, index: int) -> dict:
        cwd = self.work / f"cli-{index}"
        cwd.mkdir()
        (cwd / "base.json").write_text(json.dumps(BASE_SPEC), encoding="utf-8")
        times, failures, failed = {}, [], []
        repeats = CLI_REPEATS[self.workload]
        for name in WORKLOAD_COMMANDS[self.workload]:
            argv = [sys.executable, "-m", "lowdeg.cli"] + README_COMMANDS[name].split()
            runs = []
            for _ in range(repeats):
                t0 = time.monotonic()
                done = self._run(argv, cwd)
                runs.append(time.monotonic() - t0)
                problem = check_cli(name, done, cwd)
                if problem:
                    failures.append(f"cli {name}: {problem}")
                    failed.append(f"cli {name}")
            times[name] = statistics.median(runs)
        shutil.rmtree(cwd)
        # every run of a command is one operation; a run whose output does
        # not match its oracle is a failed one
        return {"times": times, "failures": failures, "attempted": repeats * len(times),
                "failed": failed}

    def script_round(self, trace: bool) -> dict:
        argv = [sys.executable, str(HERE / "workloads.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--trace", "1" if trace else "0"]
        done = self._run(argv, self.work)
        if done.returncode or not done.stdout.strip():
            raise RunError(f"workload script failed: {done.stderr.strip()[-500:]}")
        out = json.loads(done.stdout.strip().splitlines()[-1])
        ops = out["ops"]
        out["run_s"] = sum(op["s"] for op in ops)
        out["max_op_s"] = max(op["s"] for op in ops)
        return out


# -- checks on the README commands ------------------------------------------------------


def _fraction(field: dict) -> Fraction:
    return Fraction(field["numerator"], field["denominator"])


def _read_edges(path: Path) -> tuple[int, frozenset]:
    lines = path.read_text(encoding="utf-8").split("\n")
    n, m = map(int, lines[0].split())
    return n, frozenset(orc.norm_edge(*map(int, ln.split())) for ln in lines[1:m + 1])


def check_cli(name: str, done: subprocess.CompletedProcess, cwd: Path) -> str:
    """An empty string when the command's output matches the oracles."""
    if done.returncode:
        return f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    out = done.stdout
    if name in ("adv", "adv-condition"):
        got = _fraction(json.loads(out)["value_squared"])
        want = orc.correlated_er_advantage_sq(3, Fraction(1, 2), 3) if name == "adv" else \
            orc.correlated_er_advantage_sq(3, Fraction(1, 2), 2, fixed=1)
        return "" if got == want else f"value_squared {got} != {want}"
    if name == "hidden":
        doc = json.loads(out)
        chi2 = orc.chi_square([Fraction(w) for w in BASE_SPEC["null"]],
                              [Fraction(w) for w in BASE_SPEC["alt"]])
        ok = (doc["identity_residual"] == 0 and _fraction(doc["base_value_squared"]) == 1 + chi2
              and _fraction(doc["composite_value_squared"]) == 1 + chi2 / 4)
        return "" if ok else f"hidden output {doc}"
    if name == "xi":
        doc = json.loads(out)
        xi3 = orc.xi_triangle(2, Fraction(3, 10), Fraction(1), 6, False)
        copies = orc.labeled_copies(6, orc.cycle_edges(3))
        want = (1 + copies * xi3 ** 2) ** 0.5
        counts = sorted(row["labeled_copies"] for row in doc["table"].values())
        ok = abs(doc["norm"] - want) <= 1e-12 and counts == [1, copies]
        return "" if ok else f"norm {doc['norm']} != {want} or copies {counts}"
    if name == "dual-check":
        doc = json.loads(out)
        ok = (doc["residual_exactly_zero"] is True and doc["duality_holds"] is True
              and doc["rows"] == orc.edge_subgraph_count(4, 3)
              and 1.0 <= doc["reversed_advantage"] <= doc["dual_norm"])
        return "" if ok else f"dual-check output {doc}"
    if name == "bounds-audit":
        with open(cwd / "audits.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ok = rows and all(r["holds"] == "True" and float(r["lhs"]) <= float(r["rhs"]) for r in rows)
        return "" if ok else f"audit rows {rows}"
    if name == "reduce":
        doc = json.loads(out)
        ok = (doc["trials"] == 20 and len(doc["overlaps"]) == 20
              and all(0 <= x <= 1 for x in doc["overlaps"])
              and 0 <= doc["q_accept_rate"] <= 1 and 0 <= doc["p_reject_rate"] <= 1)
        return "" if ok else "reduce output out of range"
    if name == "otter":
        doc = json.loads(out)
        ok = (doc["counts"][:12] == orc.A000081 and doc["converged"] is True
              and abs(doc["estimate"] - orc.OTTER_ALPHA) < 1e-4)
        return "" if ok else f"otter counts {doc['counts'][:12]} estimate {doc['estimate']}"
    if name == "verify":
        return "" if "5/5 invariant checks passed" in out else out.strip()[-300:]
    if name == "sample":
        for trial in range(2):
            meta = json.loads((cwd / "samples" / f"trial{trial:04d}_meta.json").read_text())
            n, parent = _read_edges(cwd / "samples" / f"trial{trial:04d}_G.edges")
            _, left = _read_edges(cwd / "samples" / f"trial{trial:04d}_A.edges")
            _, right = _read_edges(cwd / "samples" / f"trial{trial:04d}_B.edges")
            pi = meta["pi_star"]
            inv = {v: i for i, v in enumerate(pi)}
            pulled = {orc.norm_edge(inv[u], inv[v]) for u, v in right}
            if n != 12 or sorted(pi) != list(range(12)) or not (left <= parent and pulled <= parent):
                return f"trial {trial} does not pull back through pi_star"
        return ""
    return f"no check for {name}"


# -- the run ------------------------------------------------------------------------------


def round_verdict(script: dict, failures: list[str]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) of one script round.  Failed checks are
    added to `failures`; any entry there, from the CLI commands too, makes
    the round incorrect."""
    correct = script["aborted"] is None
    for op in script["ops"]:
        if not op["ok"] and not op.get("known_fault"):
            correct = False
    for chk in script["checks"]:
        if not chk["ok"]:
            failures.append(f"check {chk['name']}: {chk['detail']}")
            correct = False
    correct = correct and not failures
    failed = sum(1 for op in script["ops"] if not op["ok"])
    return len(script["ops"]), failed, correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [m for m in MODULES if not (SRC / "lowdeg" / f"{m}.py").is_file()]
    if missing:
        print(f"lowdeg sources not found under {SRC}: {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, Runner(args.workload, args.seed, work), spec)
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def run(args, runner: Runner, spec: dict) -> int:
    setup = [] if args.trace else runner.setup_times()
    rounds = []
    attempted = failed = 0
    correct = True
    failures: list[str] = []
    t0 = time.monotonic()
    while not rounds or time.monotonic() - t0 < args.seconds:
        cli = runner.cli_round(len(rounds))
        script = runner.script_round(trace=bool(args.trace))
        failures.extend(cli["failures"])
        a, f, ok = round_verdict(script, failures)
        attempted += a + cli["attempted"]
        failed += f + len(cli["failed"])
        correct = correct and ok
        rounds.append({"cli": cli, "script": script})

    for op in rounds[0]["script"]["ops"]:
        print(f"op {op['s']:10.4f} s  {'ok  ' if op['ok'] else 'FAIL'}  {op['name']}", file=sys.stderr)
    failed_names = sorted({op["name"] for r in rounds for op in r["script"]["ops"] if not op["ok"]}
                          | {name for r in rounds for name in r["cli"]["failed"]})
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations attempted, {failed} failed {failed_names}")
    for problem in failures:
        print(f"INCORRECT: {problem}")

    def med(value_of) -> float:
        return statistics.median(value_of(r) for r in rounds)

    if args.trace:
        declared = spec["per_layer"]
        layers = [dict(r["script"]["trace"], **{f"cli.{name}.s": s for name, s in r["cli"]["times"].items()})
                  for r in rounds]
        values = {m["name"]: statistics.median(lay.get(m["name"], 0) for lay in layers) for m in declared}
    else:
        declared = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup),
            "run_s": med(lambda r: r["script"]["run_s"]),
            "max_op_s": med(lambda r: r["script"]["max_op_s"]),
            "cli_s": med(lambda r: sum(r["cli"]["times"].values())),
            "peak_rss_mib": med(lambda r: r["script"]["peak_rss_mib"]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
