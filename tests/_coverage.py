"""Line arcs taken in src/vegas_restart while the suite runs, and a report of
the function-body statements never run and the branches that went one way.

    PYTHONPATH=src:tests python -m pytest -p _coverage --arcs ARCS.json -q \\
        --deselect tests/test_acceptance.py::test_criterion_8_oracle_vs_monte_carlo
    python tests/_coverage.py ARCS.json

The first form loads this file as a pytest plugin.  Before each test's
setup, call and teardown it arms sys.settrace afresh, so a test that
replaced the trace function loses no later test, and it records every arc
(from line, to line) that a frame of a module in src/vegas_restart takes.
A frame's entry or a generator's resume is the line -1, a return or yield
the line 0 and an exception that leaves a line the line -2, which is where
the next line a handler runs comes from.  At the end of the session it
writes the arcs of each module to ARCS.json.  Without --arcs the plugin
does nothing.  Criterion 8 is deselected above because it
runs past its time limit under the tracer: traced, the rest of the suite
takes 4-7 minutes on a 2-vCPU host.  Two tests that count allocations with
tracemalloc, test_std_error_makes_no_per_trial_array and
test_mc_keeps_a_byte_per_trial_while_costs_repeat, fail under the tracer,
as the arcs it adds are allocations too; they pass untraced.

The second form lists
  - each function-body statement never run: the line starts of every
    function, lambda and comprehension (dis.findlinestarts), less the def or
    decorator line where the frame's prologue sits, which fires no line
    event.  Module and class bodies, and the comprehensions in them, run at
    import, before any test is armed, and are not listed;
  - each if, while and for statement that went only one way: an arc from
    its header into its body ("taken", "body") and none elsewhere
    ("not taken", "exit"), or the other way round.  An exception out of the
    header, as a loop's iterator may raise, leaves it.  A body on its
    header's line cannot be told apart and is not listed.

The leading underscore keeps pytest from collecting this file.
"""

import ast
import dis
import inspect
import json
import os
import sys
import types

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "vegas_restart")
ENTRY, EXIT, RAISED = -1, 0, -2

# --- the plugin -------------------------------------------------------------

class ArcRecorder:
    """The plugin while --arcs is given: arcs[name] holds each (from, to) that
    a frame of the package module file name took."""

    def __init__(self, path):
        self.path = path
        self.arcs = {}
        self._names = {}  # code file name -> module file name, or None outside the package

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        name = self._names.get(filename, False)
        if name is False:
            path = os.path.realpath(filename)
            name = self._names[filename] = (
                os.path.basename(path) if os.path.dirname(path) == PACKAGE else None)
        if name is None:
            return None
        arcs = self.arcs.setdefault(name, set())
        last = ENTRY

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                arcs.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "exception":
                arcs.add((last, RAISED))
                last = RAISED
            elif event == "return" and last != RAISED:
                arcs.add((last, EXIT))
            return local

        return local

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(self.trace)

    pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        with open(self.path, "w") as f:
            json.dump({name: sorted(arcs) for name, arcs in sorted(self.arcs.items())}, f)


def pytest_addoption(parser):
    parser.addoption("--arcs", metavar="PATH",
                     help="write the line arcs taken in src/vegas_restart to PATH")


def pytest_configure(config):
    if config.getoption("arcs"):
        config.pluginmanager.register(ArcRecorder(config.getoption("arcs")))


# --- the report -------------------------------------------------------------

_COMPREHENSIONS = {"<genexpr>", "<listcomp>", "<setcomp>", "<dictcomp>"}


def function_lines(code, in_function=False):
    """The line starts of each function body in code, nested ones included,
    without the lines that hold only the prologue up to RESUME.  A
    comprehension outside every function runs at import, as a module does."""
    in_function = in_function or bool(
        code.co_flags & inspect.CO_NEWLOCALS and code.co_name not in _COMPREHENSIONS)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from function_lines(const, in_function)
    if in_function:
        instructions = list(dis.get_instructions(code))
        resume = next(i for i, ins in enumerate(instructions) if ins.opname == "RESUME")
        body = {ins.positions.lineno for ins in instructions[resume + 1:]}
        yield from {line for _, line in dis.findlinestarts(code) if line in body}


def ways(node, arcs):
    """The ways an if, while or for statement went: "in" to its body, "out"
    anywhere else; None for a body on its header's line."""
    test = node.iter if isinstance(node, ast.For) else node.test
    head = range(node.lineno, test.end_lineno + 1)
    body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
    if body.start in head:
        return None
    return {"in" if to in body else "out" for frm, to in arcs if frm in head and to not in head}


_WAY_NAMES = {ast.If: {"in": "taken", "out": "not taken"},
              ast.While: {"in": "body", "out": "exit"},
              ast.For: {"in": "body", "out": "exit"}}


def report(arcs_path):
    """Print the statements never run and the branches that went one way."""
    with open(arcs_path) as f:
        recorded = {name: {tuple(arc) for arc in arcs} for name, arcs in json.load(f).items()}
    lines = branches = 0
    never_run, one_way = [], []
    for name in sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")):
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        arcs = recorded.get(name, set())
        run = {to for _, to in arcs}
        starts = set(function_lines(compile(source, path, "exec")))
        lines += len(starts)
        never_run += [f"{name}:{line}" for line in sorted(starts - run)]
        for node in ast.walk(ast.parse(source)):
            if type(node) in _WAY_NAMES:
                branches += 1
                went = ways(node, arcs)
                if went is not None and len(went) == 1:
                    kind, way = type(node).__name__.lower(), _WAY_NAMES[type(node)][went.pop()]
                    one_way.append((name, node.lineno, f"{kind}, {way} only"))
    print(f"function-body statements: {lines}, never run: {len(never_run)}")
    for where in never_run:
        print(f"  {where}")
    print(f"if/while/for statements: {branches}, one way only: {len(one_way)}")
    for name, line, what in sorted(one_way):
        print(f"  {name}:{line} {what}")


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    report(argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
