"""List the body lines of src/uavdsa that the tier-1 suite never runs, or
that the system's own traffic never runs.

Runs the suite in-process under a stdlib line tracer (`sys.settrace` and
`threading.settrace`; no coverage package needed) and prints each function
body line of `src/uavdsa` that no test executed, then pytest's result.

With --traffic it runs only the system's own traffic instead: the CLI
goldens, the learner goldens and the acceptance suite, then one pass of
each benchmark workload (benchmarks/workloads.py, run by benchmarks/run.py's
run_pass and checked by its check_pass, in a temporary directory). A body
line that this traffic never runs is either a boundary refusal, which a
boundary test reaches, or code that only unit tests use. So the boundary
tests (tests/test_cli.py, and tests/test_config.py for the config parse
the CLI runs) run too, after the traffic and traced apart from it, and
each listed line names the first boundary test that runs it, or "no
boundary test". The acceptance suite counts as traffic, so a function that
only tests call does not show here; tests/test_package_surface.py catches
those, by listing every top-level function, class and assigned name of
src/uavdsa that nothing in the package references.

Acceptance criteria 6 and 7 are deselected in both modes: their shared
`m4_runs` fixture trains DDQN agents for minutes, and the code it runs is
run by other tests too. Tracing slows Python-heavy tests several-fold, so
criterion 1, which bounds its own wall time, can fail that bound here;
such a failure is reported as a tracing artifact, not as a test failure.

Usage, from the repository root:

    python tools/line_trace.py [--traffic] [extra pytest arguments]

Exits 0 when every test passed (criterion 1's wall-time bound aside) and,
with --traffic, every workload pass ran and passed its checks; 1 otherwise.
"""

import ast
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "uavdsa")
DESELECTED = (
    "tests/test_acceptance.py::test_criterion_6_ddqn_soft_near_optimality",
    "tests/test_acceptance.py::test_criterion_7_two_uav_scaling",
)
TIMED_TEST = "tests/test_acceptance.py::test_criterion_1_fusion_oracle_equivalence"
TRAFFIC_TESTS = ("tests/test_cli_goldens.py", "tests/test_learner_goldens.py",
                 "tests/test_acceptance.py")
BOUNDARY_TESTS = ("tests/test_cli.py", "tests/test_config.py")


def body_lines(path: str) -> set[int]:
    """Lines that carry code inside a function body: the executable lines of
    every code object compiled from `path`, restricted to the spans of
    function bodies (a docstring, a def line and a decorator are not body
    lines)."""
    with open(path) as f:
        source = f.read()
    tree = ast.parse(source)
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            if body:
                spans.append((body[0].lineno, node.end_lineno))
    executable, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        executable.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return {line for line in executable if any(lo <= line <= hi for lo, hi in spans)}


def run_workloads() -> list[str]:
    """One pass of each benchmark workload with its output checks, each in
    its own directory under a temporary one; returns the problems found."""
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    import run
    from workloads import WORKLOADS

    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in sorted(WORKLOADS.items()):
            out = Path(tmp, name)
            out.mkdir()
            config = out / "config.json"
            config.write_text(json.dumps(workload.config(1)))
            _, found, digests, reports = run.run_pass(workload, config, out)
            found += run.check_pass(workload, out, reports, digests, None)
            problems += [f"{name}: {stage}: {problem}" for stage, problem in found]
    return problems


def main(argv: list[str]) -> int:
    traffic = "--traffic" in argv
    if traffic:
        argv = [arg for arg in argv if arg != "--traffic"]
    ran: set[tuple[str, int]] = set()
    reached: dict[tuple[str, int], str] = {}  # line -> the first boundary test that ran it
    record = ran.add

    def local(frame, event, arg):
        if event == "line":
            record((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            record((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    import pytest

    failed = []  # (node id, failure text) of each failed test phase

    class Outcomes:
        def pytest_runtest_logreport(self, report):
            if report.failed:
                failed.append((report.nodeid, str(report.longrepr)))

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            nonlocal record
            if traffic and item.nodeid.startswith(BOUNDARY_TESTS):
                record = lambda line, test=item.nodeid: reached.setdefault(line, test)  # noqa: E731

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    args = ["-q", "-p", "no:cacheprovider",
            *((*TRAFFIC_TESTS, *BOUNDARY_TESTS) if traffic else ["tests"])]
    for nodeid in DESELECTED:
        args += ["--deselect", nodeid]
    workload_problems = []
    t0 = time.perf_counter()
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        code = pytest.main(args + argv, plugins=[Outcomes()])
        if traffic:
            record = ran.add
            workload_problems = run_workloads()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - t0

    never = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            never += [(name, line) for line in sorted(body_lines(path))
                      if (path, line) not in ran]
    print(f"\nnever-run body lines of src/uavdsa{' under the traffic' if traffic else ''}: "
          f"{len(never)}")
    sources = {}
    for name, line in never:
        if name not in sources:
            with open(os.path.join(PACKAGE, name)) as f:
                sources[name] = f.read().splitlines()
        test = reached.get((os.path.join(PACKAGE, name), line), "no boundary test")
        print(f"  {name}:{line}: {sources[name][line - 1].strip()}"
              + (f"  [{test}]" if traffic else ""))

    real = []
    for nodeid, text in failed:
        if nodeid == TIMED_TEST and "assert elapsed < 10.0" in text:
            print(f"tracing artifact: {nodeid} failed its 10 s wall-time bound "
                  "under the tracer")
        else:
            real.append(nodeid)
            print(f"FAILED: {nodeid}")
    for problem in workload_problems:
        print(f"WORKLOAD FAILED: {problem}")
    print(f"pytest exit code {int(code)}, {len(real)} failure(s) besides tracing "
          f"artifacts, {elapsed:.0f} s traced")
    return 1 if real or workload_problems or code not in (0, 1) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
