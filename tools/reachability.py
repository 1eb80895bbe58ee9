"""Which functions of ``src/repro`` does a user-facing entry point reach?

A ``sys.setprofile`` hook records the code object of every Python
function that starts running, keyed by ``(co_filename,
co_firstlineno)``.  It follows forks: a forked child (an mp pool worker,
a benchmark pass in a fresh fork) inherits the hook and appends every
function it reaches first to a file as it goes, so a worker that is
killed rather than asked to exit still reports.  Subprocesses that
``exec`` are not followed, so everything below runs in-process.

Two drives, each in an interpreter of its own so that neither warms the
other's caches:

- ``entry``: every ``repro`` subcommand as CI and the README run it
  (``verify`` with ``--fast``, in full and with each ``--inject`` mode),
  the artefact readers (plans, traces, schedule fixtures, run logs, bad
  ones included), ``python -m repro.experiments --plot``, the eight
  examples, and one traced run of each ``bench/worker.py`` workload;
- ``tests``: the tier-1 suite.

Every ``def`` under ``src/repro`` the entry drive does not reach is a row
of the table, marked by whether the tests reach it and, if it is kept on
purpose, why (``KEPT``).

    python tools/reachability.py table   # both drives -> tools/reachability.md
    python tools/reachability.py check   # entry drive; exit 1 on an unreached
                                         # def that KEPT does not name
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TABLE = Path(__file__).resolve().parent / "reachability.md"

#: Functions no entry point reaches that stay, keyed
#: ``"<path under src>::<qualified name>"``.  A reason is one of: worker
#: code, an oracle or validator, an ``--inject`` hook, deadlock
#: diagnosis, a documented client API, or a name ``bench/`` calls.
_BROADCAST = ("client API: `broadcast` and `send`, on both backends "
              "(DESIGN.md, Communication substrate)")
_DEADLOCK = "deadlock diagnosis: names the ops a stuck schedule waits on"
KEPT: dict[str, str] = {
    "repro/__init__.py::lazy_exports.__dir__":
        "client API: `dir()` of a lazy package front lists its names "
        "(PEP 562; DESIGN.md, Start-up)",
    "repro/comm/backend.py::ring_ops.copy": _BROADCAST,
    "repro/comm/backend.py::MpBackend._broadcast": _BROADCAST,
    "repro/comm/backend.py::MpBackend._send": _BROADCAST,
    "repro/comm/primitives.py::Backend.broadcast": _BROADCAST,
    "repro/comm/primitives.py::CoopBackend._broadcast": _BROADCAST,
    "repro/comm/primitives.py::broadcast_hops": _BROADCAST,
    "repro/comm/shm_ring.py::cleanup_all_segments":
        "worker code: the atexit unlink of an mp run's segments; it runs "
        "after the hook is gone",
    "repro/comm/shm_ring.py::WorkerPool._fail":
        "worker code: a pool worker died or went silent",
    "repro/nn/gradcheck.py::numerical_gradient":
        "oracle: finite differences for every analytic backward",
    "repro/nn/gradcheck.py::check_module_gradients":
        "oracle: finite differences for every analytic backward",
    "repro/obs/export.py::validate_chrome_trace":
        "validator: the Chrome trace-event schema",
    "repro/obs/metrics.py::MetricsRegistry.counter_value":
        "client API: README, Observability",
    "repro/perf/analytic_time.py::AnalyticEstimate.tflops_per_gpu":
        "oracle: the closed form the simulator is held to within 5%",
    "repro/perf/analytic_time.py::estimate_iteration":
        "oracle: the closed form the simulator is held to within 5%",
    "repro/perf/autotune.py::heuristic_gap":
        "validator: the Takeaway heuristic against the searched optimum",
    "repro/schedule/execution.py::OpInstance.__str__": _DEADLOCK,
    "repro/schedule/execution.py::DeadlockError.__init__": _DEADLOCK,
    "repro/schedule/execution.py::_deadlock": _DEADLOCK,
    "repro/schedule/execution.py::resolve":
        "validator: an observed completion order against the dependencies",
    "repro/schedule/execution.py::dependencies":
        "validator: an observed completion order against the dependencies",
    "repro/schedule/execution.py::completion_order_is_serializable":
        "validator: an observed completion order against the dependencies",
    "repro/serve/engine.py::ServeEngine.cancel":
        "client API: README, Serving under fire",
    "repro/verify/sanitizer.py::CollectiveSanitizer.assert_clean":
        "validator: the sanitizer's raising form",
    "repro/verify/schedule_check.py::ScheduleViolationError.__init__":
        "validator: the schedule checker's raising form",
    "repro/verify/schedule_check.py::assert_valid_schedule":
        "validator: the schedule checker's raising form",
    "repro/verify/schedule_check.py::_deadlock_violations": _DEADLOCK,
}


# -- the hook -----------------------------------------------------------------

class Recorder:
    """Records every function that starts running while active, in this
    process and in the processes it forks."""

    _active: list["Recorder"] = []
    _fork_hook_installed = False

    def __init__(self) -> None:
        self.codes: dict[int, object] = {}  # id -> code (kept alive)
        self.child_dir = tempfile.mkdtemp(prefix="reach-")
        self._sink = None
        self._previous = None

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            if id(code) not in self.codes:
                self.codes[id(code)] = code
                if self._sink is not None:
                    self._sink.write(
                        f"{code.co_filename}\t{code.co_firstlineno}\n")
        if self._previous is not None:
            self._previous(frame, event, arg)

    @classmethod
    def _after_fork_in_child(cls) -> None:
        for recorder in cls._active:
            # Line-buffered: every line is on disk before the next call,
            # whatever kills the child.
            recorder._sink = open(
                os.path.join(recorder.child_dir, f"{os.getpid()}.tsv"),
                "a", buffering=1, encoding="utf-8")

    def __enter__(self) -> "Recorder":
        if not Recorder._fork_hook_installed:
            os.register_at_fork(after_in_child=Recorder._after_fork_in_child)
            Recorder._fork_hook_installed = True
        self._previous = sys.getprofile()
        Recorder._active.append(self)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._previous)
        Recorder._active.remove(self)

    def reached(self, package_dir: Path) -> set[tuple[str, int]]:
        """``(path, first line)`` of every function under ``package_dir``
        that ran here or in a forked child."""
        keys = {(code.co_filename, code.co_firstlineno)
                for code in self.codes.values()}
        for name in os.listdir(self.child_dir):
            with open(os.path.join(self.child_dir, name),
                      encoding="utf-8") as fh:
                for line in fh:
                    path, _, first = line.rstrip("\n").rpartition("\t")
                    keys.add((path, int(first)))
        root = str(package_dir.resolve()) + os.sep
        return {(os.path.realpath(path), first) for path, first in keys
                if os.path.realpath(path).startswith(root)}


# -- what exists ---------------------------------------------------------------

@dataclass(frozen=True)
class Function:
    path: str  # absolute
    qualname: str
    first: int  # the first decorator's line, as co_firstlineno has it
    last: int
    nested_in_def: bool

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def _abstract(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "abstractmethod"
               for d in node.decorator_list)


def inventory(package_dir: Path) -> list[Function]:
    """Every ``def`` under ``package_dir``, in file order, but for
    abstract methods: a declaration never runs."""
    found: list[Function] = []

    def walk(body, path: str, prefix: str, in_def: bool) -> None:
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _abstract(node)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                found.append(Function(path, prefix + node.name, first,
                                      node.end_lineno, in_def))
                walk(node.body, path, f"{prefix}{node.name}.", True)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, path, f"{prefix}{node.name}.", in_def)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    inner = getattr(node, field, None)
                    if isinstance(inner, list):
                        walk(inner, path, prefix, in_def)

    for file in sorted(package_dir.resolve().rglob("*.py")):
        walk(ast.parse(file.read_text(encoding="utf-8")).body,
             str(file), "", False)
    return found


def key_of(function: Function, src_dir: Path) -> str:
    return (f"{Path(function.path).relative_to(src_dir.resolve())}"
            f"::{function.qualname}")


@dataclass(frozen=True)
class Row:
    key: str
    lines: int
    tests: bool  # reached by the tests (else by nothing)
    kept: str  # the KEPT reason, or ""


def unreached(package_dir: Path, entry: set, tests: set,
              kept: dict[str, str]) -> list[Row]:
    """The functions ``entry`` does not reach.  A def nested in one that
    is itself listed is left out: its lines are already counted."""
    src_dir = package_dir.resolve().parent
    rows: list[Row] = []
    listed: list[Function] = []
    for function in inventory(package_dir):
        if (function.path, function.first) in entry:
            continue
        if any(outer.path == function.path
               and outer.first <= function.first <= outer.last
               for outer in listed):
            continue
        listed.append(function)
        key = key_of(function, src_dir)
        rows.append(Row(key, function.lines,
                        (function.path, function.first) in tests,
                        kept.get(key, "")))
    return rows


def total_lines(package_dir: Path) -> int:
    """Lines inside some ``def`` (nested ones counted once)."""
    return sum(f.lines for f in inventory(package_dir)
               if not f.nested_in_def)


# -- the entry drive -----------------------------------------------------------

class DriveError(RuntimeError):
    pass


def _expect(label: str, want: int, call) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            got = call()
        except SystemExit as exc:
            got = exc.code
    got = 0 if got is None else got
    if got != want:
        raise DriveError(f"{label}: exit {got}, expected {want}\n"
                         f"{out.getvalue()[-3000:]}")


def _module(name: str, argv: list[str], want: int = 0) -> None:
    def call():
        sys.argv = [name, *argv]
        runpy.run_module(name, run_name="__main__", alter_sys=True)

    _expect(f"python -m {name} {' '.join(argv)}", want, call)


def _repro(*argv: str, want: int = 0) -> None:
    _module("repro", list(argv), want)


def _example(name: str, *argv: str) -> None:
    path = ROOT / "examples" / name

    def call():
        sys.argv = [str(path), *argv]
        runpy.run_path(str(path), run_name="__main__")

    _expect(f"python examples/{name} {' '.join(argv)}", 0, call)


def _bench(workload: str, spans_dir: str) -> None:
    bench = str(ROOT / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import worker

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        worker.main(["--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", "1", "--started", repr(time.perf_counter()),
                     "--spans-out",
                     os.path.join(spans_dir, f"spans_{workload}.json")])
    result = json.loads(out.getvalue().splitlines()[-1])
    if result["problems"]:
        raise DriveError(f"bench {workload}: {result['problems']}")


TINY = ["--layers", "4", "--hidden", "64", "--heads", "4",
        "--vocab", "128", "--seq", "16"]
CHAOS = ["chaos", "--backoff", "0.001"]


def drive_entry_points() -> None:
    """Every user-facing entry point, in a scratch working directory."""
    from repro.resilience import (
        AllocExhaustion, ChaosPlan, CorruptCheckpoint, DecodeCrash, Kill,
        KVCorruption, LossSpike, SaveFailure, ServeChaosPlan, Stall)
    from repro.schedule import make_schedule
    from repro.verify import schedule_to_json
    from repro.verify.runner import INJECT_MODES

    home = os.getcwd()
    work = tempfile.mkdtemp(prefix="reach-drive-")
    os.chdir(work)
    try:
        # -- simulator, planner, schedules (README "There is also a CLI")
        _repro("simulate", "--layers", "96", "--hidden", "12288",
               "--heads", "96", "-p", "12", "-t", "8", "-d", "8",
               "--batch", "1536", "--schedule", "interleaved", "--chunks", "2")
        _repro("simulate", "--layers", "96", "--hidden", "12288",
               "--heads", "96", "-p", "12", "-t", "8", "-d", "8",
               "--batch", "1536")
        _repro("simulate", "--layers", "96", "--hidden", "12288",
               "--heads", "96", "-p", "5", "--batch", "1536", want=2)
        _repro("suggest", "--layers", "24", "--hidden", "2304",
               "--heads", "24", "--gpus", "32", "--batch", "512")
        _repro("autotune", "--layers", "32", "--hidden", "3840",
               "--heads", "32", "--gpus", "64", "--batch", "128")
        for name in ("gpipe", "1f1b", "interleaved", "interleaved-gpipe"):
            _repro("schedule", name, "-p", "4", "-m", "8", "--chunks", "2")

        # -- tracing and profiling (README "Observability")
        _repro("trace", *TINY, "-p", "2", "-t", "2", "-d", "2",
               "--batch", "8", "--out", "trace.json",
               "--metrics", "metrics.json")
        _repro("trace", *TINY, "-p", "2", "-d", "2", "--batch", "8",
               "--profile", "--folded", "trace.folded",
               "--metrics-out", "metrics.json", "--runlog", "runs")
        _repro("trace", "--layers", "8", "--hidden", "32", "--heads", "4",
               "--vocab", "64", "--seq", "16", "-p", "2", "--chunks", "2",
               "--schedule", "interleaved", "--batch", "8", "--mode", "sim",
               "--out", "sim.json")

        # -- goodput (README "Resilience & goodput")
        _repro("goodput", "--preset", "1t")
        _repro("goodput", "--preset", "175b", "--out", "goodput.json")
        _repro("goodput", "--preset", "530b", "--failures", "10,20",
               "--iterations", "40", "--metrics-out", "goodput_metrics.json")
        _module("repro.experiments", ["goodput_interval"])

        # -- verification (README "Verification", CI)
        _repro("verify")
        _repro("verify", "--fast")
        for mode in INJECT_MODES:
            _repro("verify", "--fast", "--inject", mode, want=1)
        _repro("verify", "--only", "serve", "--inject", "reorder", want=2)
        _repro("verify", "--case", "p=2,t=1,d=2,v=1,b=1,m=2,schedule=1f1b,"
               "recompute=0,zero=0,seed=5")
        with open("schedule.json", "w", encoding="utf-8") as fh:
            fh.write(schedule_to_json(make_schedule("interleaved", 2, 4, 2)))
        _repro("verify", "--only", "schedules", "--schedule-json",
               "schedule.json")
        with open("broken.json", "w", encoding="utf-8") as fh:
            fh.write("{not json")
        _repro("verify", "--only", "schedules", "--schedule-json",
               "broken.json", want=1)

        # -- chaos harness and mission control (README, CI)
        _repro(*CHAOS, "--kill-at", "3")
        _repro(*CHAOS, "--kill-at", "5", "--corrupt", "4")
        _repro(*CHAOS, "--kill-at", "3", "--permanent")
        _repro(*CHAOS, "--fast", "--out", "chaos.json",
               "--metrics-out", "chaos_metrics.json")
        _repro(*CHAOS, "--fast", "--backend", "mp")
        _repro(*CHAOS, "--fast", "--loss-spike", "3", "--stall", "4,5:1",
               "--runlog", "runs", "--no-verify", "--monitor")
        _repro(*CHAOS, "--fast", "--runlog", "runs", "--no-verify",
               "--monitor", "--metrics-out", "monitor_run.json")
        plan = ChaosPlan(
            kills=(Kill(at_iteration=5),),
            corruptions=(CorruptCheckpoint(at_iteration=4, mode="truncate"),),
            save_failures=(SaveFailure(at_iteration=2),),
            loss_spikes=(LossSpike(at_iteration=6),),
            stalls=(Stall(at_iteration=3, rank=1),),
        )
        with open("plan.json", "w", encoding="utf-8") as fh:
            fh.write(plan.to_json())
        _repro(*CHAOS, "--plan", "plan.json")
        _repro(*CHAOS, "--plan", "broken.json", want=2)
        _repro("monitor", "--runs", "runs", "--list")
        _repro("monitor", "--runs", "runs")
        _repro("monitor", "--runs", "runs", "--check", want=1)
        _repro("monitor", "--runs", "runs", "--check",
               "--ack", "heartbeat-gap", "--ack", "checkpoint")
        _repro("monitor", "--runs", "runs", "--follow", want=1)
        _repro("monitor", "--runs", "runs", "--score",
               "--metrics-out", "monitor_metrics.json")
        _repro("monitor", "--runs", "runs", "--gc", "1")

        # -- serving (README "Serving", "Serving under fire", CI)
        _repro("serve", "--requests", "8", "--rate", "0.7", "--blocks", "4",
               "--block-size", "3")
        _repro("serve", "--smoke", "--metrics-out", "serve_metrics.json")
        _repro("serve", "--save-trace", "serve_trace.json",
               "--runlog", "runs")
        _repro("monitor", "--runs", "runs", "--check")  # request events
        _repro("serve", "--trace", "serve_trace.json")
        _repro("serve", "--requests", "12", "--rate", "3.0",
               "--max-queue", "2", "--shed", "edf", "--deadline", "8",
               "--ttl", "3")
        _repro("serve", "--smoke", "--chaos", "--deadline", "64",
               "--ttl", "32", "--max-queue", "6")
        serve_plan = ServeChaosPlan(
            crashes=(DecodeCrash(at_step=1, times=2),),
            corruptions=(KVCorruption(at_step=4),),
            exhaustions=(AllocExhaustion(at_step=6, steps=3),),
        )
        with open("serve_plan.json", "w", encoding="utf-8") as fh:
            fh.write(serve_plan.to_json())
        _repro("serve", "--smoke", "--chaos-plan", "serve_plan.json")
        _repro("serve", "--chaos-plan", "broken.json", want=2)

        # -- the paper's tables and figures, the examples
        _module("repro.experiments", ["--plot"])
        _example("quickstart.py")
        _example("capacity_planner.py", "18", "256", "1024")
        _example("schedule_explorer.py", "4", "8", "2")
        _example("schedule_explorer.py", "4", "6", "2")
        _example("trillion_param_plan.py")
        _example("end_to_end_training.py")
        _example("language_modeling.py")
        _example("serving_demo.py")
        _example("verification_demo.py")

        # -- the benchmark of record, one traced run per workload
        for workload in ("train_ptd", "sim_plan", "serve_decode",
                         "serve_prefill"):
            _bench(workload, work)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)


def drive_tests() -> None:
    import pytest
    from hypothesis import settings

    # The hook slows every call; a deadline would turn that into failures.
    settings.register_profile("reachability", deadline=None)
    settings.load_profile("reachability")
    pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])


# -- commands -----------------------------------------------------------------

def record(drive, package_dir: Path = PACKAGE) -> set[tuple[str, int]]:
    with Recorder() as recorder:
        drive()
    try:
        return recorder.reached(package_dir)
    finally:
        shutil.rmtree(recorder.child_dir, ignore_errors=True)


def _record_in_child(which: str) -> set[tuple[str, int]]:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as fh:
        out = fh.name
    try:
        subprocess.run([sys.executable, __file__, "record", which,
                        "--out", out], check=True)
        with open(out, encoding="utf-8") as fh:
            return {tuple(key) for key in json.load(fh)}
    finally:
        os.unlink(out)


def render(rows: list[Row], total: int, seconds: dict[str, float]) -> str:
    lines_unreached = sum(r.lines for r in rows)
    tests_only = [r for r in rows if r.tests]
    out = [
        "# Reachability of `src/repro`",
        "",
        "Written by `python tools/reachability.py table`; "
        "`python tools/reachability.py check` (CI) fails on any row "
        "without a reason.  A row is a `def` that no user-facing entry "
        "point reaches (see the tool's docstring for the drive); `tests` "
        "says whether tier-1 reaches it.  A def nested in a listed one is "
        "not listed again.",
        "",
        f"- lines inside a `def`: {total}",
        f"- of those, in a def no entry point reaches: {lines_unreached} "
        f"({len(rows)} defs)",
        f"- reached only by tests: "
        f"{sum(r.lines for r in tests_only)} lines ({len(tests_only)} defs)",
        f"- reached by nothing: "
        f"{lines_unreached - sum(r.lines for r in tests_only)} lines "
        f"({len(rows) - len(tests_only)} defs)",
        f"- drives: entry points {seconds['entry']:.0f} s, "
        f"tier-1 {seconds['tests']:.0f} s under the hook",
        "",
        "| file | function | lines | reached by | kept because |",
        "|---|---|---:|---|---|",
    ]
    for row in rows:
        path, _, name = row.key.partition("::")
        out.append(f"| `{path}` | `{name}` | {row.lines} | "
                   f"{'tests' if row.tests else 'nothing'} | {row.kept} |")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run one drive under the hook")
    rec.add_argument("drive", choices=("entry", "tests"))
    rec.add_argument("--out", required=True)
    sub.add_parser("table", help=f"both drives -> {TABLE.name}")
    sub.add_parser("check", help="entry drive; fail on an unkept row")
    args = parser.parse_args(argv)

    # One BLAS thread, as the benchmark pins it, before numpy loads; the
    # checkout's src first, here and in the subprocesses tests start.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    if args.command == "record":
        drive = drive_entry_points if args.drive == "entry" else drive_tests
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(sorted(record(drive)), fh)
        return 0
    if args.command == "table":
        seconds = {}
        reached = {}
        for which in ("entry", "tests"):
            start = time.perf_counter()
            reached[which] = _record_in_child(which)
            seconds[which] = time.perf_counter() - start
        rows = unreached(PACKAGE, reached["entry"], reached["tests"], KEPT)
        TABLE.write_text(render(rows, total_lines(PACKAGE), seconds),
                         encoding="utf-8")
        print(f"wrote {TABLE.relative_to(ROOT)}: {len(rows)} rows")
        return 0
    rows = unreached(PACKAGE, record(drive_entry_points), set(), KEPT)
    missing = [row for row in rows if not row.kept]
    for row in missing:
        print(f"unreached and not kept: {row.key} ({row.lines} lines)")
    print(f"{len(rows)} unreached defs, {len(rows) - len(missing)} kept "
          "on purpose")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
