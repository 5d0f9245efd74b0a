#!/usr/bin/env python3
"""Which functions of ``src/repro`` does any user path call?

Runs the user paths below with a call hook in every Python process they
start, and compares the functions that were called with the functions
``ast`` finds in ``src/repro``. A function no path calls is either on the
allowlist, with one reason, or a finding:

    python tools/reach.py                   # run every path, check
    python tools/reach.py --json reach.json # also write the full report

Exit status 1 when an unreached function is not on the allowlist, or when
an allowlisted function is reached or no longer exists. Standard library
only.

**Recording.** The paths run with a generated ``sitecustomize`` first on
``PYTHONPATH``, so every interpreter they start, sweep and perfbench
workers included, installs the hook before its main module runs. The hook
is a ``sys.settrace``/``threading.settrace`` call hook that returns None,
so no line events are generated. It writes the ``(file, first line)`` of
each ``src/repro`` code object the first time it is called, one line to a
per-process file, flushed at once: a worker that is terminated, or that
leaves through ``os._exit``, has already written what it called.

**Matching.** A code object's first line is the line of its first
decorator, or of its ``def``; ``ast`` gives the same line for each
function, method and nested function. Lambdas and comprehensions are not
functions here.

**The allowlist** (``tools/reach_allowlist.txt``) holds one
``<module>::<qualname>  <reason>`` per line. The module is the path under
``src/repro``, and the reason is one of ``REASONS``.

**The paths**: every ``run:`` block of ``.github/workflows/ci.yml`` that
calls ``python -m repro``, under the shell options GitHub runs it with,
``/tmp/`` pointed at a fresh directory and the hook kept on the block's
own ``PYTHONPATH=src``;
the README's commands, at small scale; the seven ``examples/``; the
``benchmarks/`` suite with its result cache off; one traced perfbench
pass over every workload; and the ``message-scale`` harness (HotStuff and
IBFT) at n = 16.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).with_name("reach_allowlist.txt")
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: why a function may stay although no user path calls it
REASONS = {
    "hook": "called by something outside the package (a signal, an"
            " interpreter protocol, a caller's callback) on no user path",
    "abstract": "an interface method; subclasses override it",
    "needs-path": "user-facing, or dead, with no user path yet: give it"
                  " one or delete it",
    "error-path": "raises on input no user path supplies; safety code,"
                  " never a deletion target",
    "perfbench-pinned": "perfbench wraps or reads it by name, and"
                        " perfbench/ changes only in a benchmark PR",
}

SITECUSTOMIZE = '''\
import os
import sys
import threading

_PREFIX = {prefix!r}
_OUT = {out!r}
_seen = set()
_files = {{}}


def _hook(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        name = os.path.abspath(code.co_filename)
        if name.startswith(_PREFIX):
            pid = os.getpid()
            handle = _files.get(pid)
            if handle is None:
                handle = _files[pid] = open(
                    os.path.join(_OUT, f"{{pid}}.txt"), "a", buffering=1)
            handle.write(f"{{name}}:{{code.co_firstlineno}}\\n")
    return None


sys.settrace(_hook)
threading.settrace(_hook)
'''

TRANSFER_SPEC = """\
workloads:
  - number: 1
    client:
      location: { sample: !location [ ".*" ] }
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 100 } }
          load: { 0: 100, 20: 0 }
"""

FIG3_SWEEP = """\
sweep:
  chains: [quorum, solana]
  configurations: [testnet]
  workloads: [native-100]
  scales: [0.05]
"""

#: the README's commands, shrunk to small scale (``{tmp}`` is a scratch
#: directory holding ``workload.yaml`` and ``fig3.yaml``)
README = (
    "python -m repro chains",
    "python -m repro workloads",
    "python -m repro suite --chain solana --configuration consortium"
    " --workload dapp-web --stat --scale 0.01",
    "python -m repro run --chain quorum --configuration testnet --scale 0.05"
    " --output {tmp}/results.json --compress {tmp}/workload.yaml",
    "python -m repro csv {tmp}/results.json.gz",
    "python -m repro run --chain quorum --configuration testnet --scale 0.05"
    " examples/specs/crash-and-recover.yaml",
    "python -m repro run --chain quorum --configuration testnet --scale 0.05"
    " examples/specs/partition.yaml",
    "python -m repro run --chain solana --configuration testnet --scale 0.05"
    " --max-sim-seconds 600 examples/specs/overload.yaml",
    "python -m repro run --chain quorum --configuration testnet --scale 0.05"
    " examples/specs/byzantine.yaml",
    "python -m repro run --chain ethereum --configuration testnet"
    " --scale 0.05 --seed 3 examples/specs/dos.yaml",
    "python -m repro byzantine quorum --equivocators 1",
    "python -m repro trace ethereum examples/specs/transfer.yaml"
    " --scale 0.05 --chrome-trace {tmp}/trace.json"
    " --spans-jsonl {tmp}/spans.jsonl --prometheus {tmp}/metrics.prom"
    " --output {tmp}/trace-result.json",
    "python -m repro run --chain quorum --configuration testnet --scale 0.05"
    " --stat examples/specs/population.yaml",
    "python -m repro sweep {tmp}/fig3.yaml --workers 2"
    " --cache-dir {tmp}/sweep-cache --output-dir {tmp}/fig3-out",
)

MESSAGE_SCALE = """\
from repro.consensus.testbed import build_harness

for protocol, until in (("hotstuff", 2.0), ("ibft", 0.5)):
    harness = build_harness(protocol, n=16)
    for i in range(20):
        harness.submit(f"tx-{i}")
    harness.run(until=until)
    harness.check_agreement()
"""


# -- the paths ----------------------------------------------------------------


def ci_blocks() -> List[str]:
    """The ``run: |`` blocks of ci.yml that call ``python -m repro``."""
    blocks: List[str] = []
    lines = CI.read_text().splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if not re.match(r"\s*run: \|\s*$", line):
            continue
        indent = len(line) - len(line.lstrip()) + 2
        body: List[str] = []
        while index < len(lines) and (
                not lines[index].strip()
                or len(lines[index]) - len(lines[index].lstrip()) >= indent):
            body.append(lines[index][indent:])
            index += 1
        text = "\n".join(body).strip() + "\n"
        if "python -m repro" in text:
            blocks.append(text)
    return blocks


def paths(tmp: Path) -> List[Tuple[str, List[str]]]:
    """(label, argv) of every user path, in run order."""
    python = sys.executable
    (tmp / "workload.yaml").write_text(TRANSFER_SPEC)
    (tmp / "fig3.yaml").write_text(FIG3_SWEEP)
    runs: List[Tuple[str, List[str]]] = []
    for number, block in enumerate(ci_blocks()):
        ci_tmp = tmp / f"ci-{number}"
        ci_tmp.mkdir()
        # a block's own PYTHONPATH=src keeps the hook directory after it
        block = re.sub(r"PYTHONPATH=src\b",
                       f"PYTHONPATH=src{os.pathsep}$PYTHONPATH", block)
        runs.append((f"ci.yml block {number}",
                     ["bash", "-e", "-o", "pipefail", "-c",
                      block.replace("/tmp/", f"{ci_tmp}/")]))
    for command in README:
        argv = command.format(tmp=tmp).split()
        argv[0] = python
        runs.append((f"README: {command.split(' --')[0]}", argv))
    for script in sorted((ROOT / "examples").glob("*.py")):
        extra = ["solana", "devnet"] if script.name == "quickstart.py" else []
        runs.append((f"examples/{script.name}",
                     [python, str(script), *extra]))
    runs.append(("benchmarks/ (cold)",
                 [python, "-m", "pytest", "benchmarks", "-q",
                  "-p", "no:cacheprovider"]))
    runs.append(("perfbench --passes 1 --trace 1",
                 [python, "perfbench/run.py", "--passes", "1",
                  "--trace", "1"]))
    runs.append(("message-scale at n = 16", [python, "-c", MESSAGE_SCALE]))
    return runs


def record(tmp: Path) -> Set[Tuple[str, int]]:
    """Run every path under the hook; the (module, first line) called."""
    out = tmp / "calls"
    out.mkdir()
    hook_dir = tmp / "hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        prefix=str(PACKAGE) + os.sep, out=str(out)))
    env = dict(os.environ, REPRO_BENCH_CACHE="0", PYTHONPATH=os.pathsep.join(
        filter(None, (str(hook_dir), str(ROOT / "src"),
                      os.environ.get("PYTHONPATH")))))
    for label, argv in paths(tmp):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        status = ("ok" if done.returncode == 0
                  else f"exit {done.returncode}")
        print(f"  {time.perf_counter() - start:6.1f} s  {status:8} {label}",
              flush=True)
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-3:]
            print("".join(f"      {line}\n" for line in tail), end="")
    called: Set[Tuple[str, int]] = set()
    for log in out.glob("*.txt"):
        for line in log.read_text().splitlines():
            name, _, first = line.rpartition(":")
            called.add((Path(name).relative_to(PACKAGE).as_posix(),
                        int(first)))
    return called


# -- the functions ------------------------------------------------------------


class Function:
    __slots__ = ("module", "qualname", "first", "last")

    def __init__(self, module: str, qualname: str, first: int,
                 last: int) -> None:
        self.module, self.qualname = module, qualname
        self.first, self.last = first, last

    @property
    def key(self) -> str:
        return f"{self.module}::{self.qualname}"


def functions() -> List[Function]:
    """Every function ``src/repro`` defines; the first line is that of
    its first decorator, as on its code object. A qualname that repeats
    in a module (a property's setter) gets ``#2``, ``#3``."""
    found: List[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        seen: Dict[str, int] = {}

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    seen[qualname] = seen.get(qualname, 0) + 1
                    if seen[qualname] > 1:
                        qualname += f"#{seen[qualname]}"
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    found.append(Function(module, qualname, first,
                                          child.end_lineno or first))
                    visit(child, f"{qualname}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def read_allowlist() -> Dict[str, str]:
    """Key -> reason; a malformed line or an unknown reason is an error."""
    allowed: Dict[str, str] = {}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or parts[1] not in REASONS:
            raise SystemExit(f"{ALLOWLIST.name}:{number}: expected"
                             f" '<module>::<qualname> <reason>' with a"
                             f" reason in {sorted(REASONS)}: {line!r}")
        allowed[parts[0]] = parts[1]
    return allowed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, default=None,
                        help="write every function, reached or not, here")
    args = parser.parse_args()

    allowed = read_allowlist()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        print("running the user paths:", flush=True)
        called = record(Path(tmp))
    every = functions()
    unreached = [f for f in every if (f.module, f.first) not in called]
    lines = {(f.module, line) for f in unreached
             for line in range(f.first, f.last + 1)}
    print(f"{len(every)} functions, {len(every) - len(unreached)} reached,"
          f" {len(unreached)} unreached ({len(lines)} lines)")

    keys = {f.key for f in every}
    new = [f for f in unreached if f.key not in allowed]
    reached = sorted(key for key in allowed
                     if key in keys and key not in {f.key for f in unreached})
    gone = sorted(key for key in allowed if key not in keys)
    for f in new:
        print(f"NOT REACHED, NOT ALLOWLISTED: {f.key}"
              f" (src/repro/{f.module}:{f.first},"
              f" {f.last - f.first + 1} lines)")
    for key in reached:
        print(f"ALLOWLISTED BUT REACHED: {key}")
    for key in gone:
        print(f"ALLOWLISTED BUT GONE: {key}")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "functions": len(every),
            "unreached_lines": len(lines),
            "unreached": [{"function": f.key, "line": f.first,
                           "lines": f.last - f.first + 1,
                           "reason": allowed.get(f.key)}
                          for f in unreached],
        }, indent=1) + "\n")
    return 1 if new or reached or gone else 0


if __name__ == "__main__":
    sys.exit(main())
