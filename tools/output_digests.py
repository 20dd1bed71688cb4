"""Digest every output of a fixed matrix of qvar commands.

Runs each command through `qvar.cli.run_command` inside a fresh temporary
directory and prints one line per command with its exit code and the sha256
of its stdout and stderr, followed by one indented line per written file.
Two source trees give the same output exactly when their CLI bytes agree on
the whole matrix:

    mkdir ../qvar-parent && git archive HEAD~1 | tar -x -C ../qvar-parent
    python3 tools/output_digests.py --src ../qvar-parent/src > parent.txt
    python3 tools/output_digests.py --src src > change.txt
    diff parent.txt change.txt
    rm -r ../qvar-parent

The matrix:
- solve, trace and certify for every builtin on both boundary conditions
  (plaplacian on dirichlet only) at n = 2, 8, 16, 64 and 100 (where h is
  inexact and the kernel FFT length is not aligned to the dof count);
- solve and certify of kernel_qvi with kernel = one, gauss(0.05) and
  gauss(5.0) on both boundary conditions at n = 8 and 100;
- regpath, perturb (both families), refine and robust on every builtin at
  n = 32 (perturb family=coefficient exits 4 on the nonlinear plaplacian and
  nonmonotone_sine);
- oracle-check --trials 10.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

BUILTINS = ("example1d", "plaplacian", "kernel_qvi", "nonmonotone_sine", "fixed_obstacle")
SOLVE_COMMANDS = ("solve", "trace", "certify")
SOLVE_SIZES = (2, 8, 16, 64, 100)
KERNELS = ("one", "gauss(0.05)", "gauss(5.0)")
KERNEL_SIZES = (8, 100)
STUDY_SIZE = 32


def _matrix():
    """(label, argv, config text) for every command of the matrix."""
    for name in BUILTINS:
        for bc in ("dirichlet",) if name == "plaplacian" else ("dirichlet", "neumann"):
            for n in SOLVE_SIZES:
                config = f"[problem]\nname = {name}\nbc = {bc}\nn = {n}\n"
                for cmd in SOLVE_COMMANDS:
                    yield f"{cmd} {name} bc={bc} n={n}", [cmd], config
    for kernel in KERNELS:
        for bc in ("dirichlet", "neumann"):
            for n in KERNEL_SIZES:
                config = f"[problem]\nname = kernel_qvi\nbc = {bc}\nn = {n}\nkernel = {kernel}\n"
                for cmd in ("solve", "certify"):
                    yield f"{cmd} kernel_qvi kernel={kernel} bc={bc} n={n}", [cmd], config
    for name in BUILTINS:
        problem = f"[problem]\nname = {name}\nn = {STUDY_SIZE}\n"
        yield f"regpath {name}", ["regpath"], problem
        for family in ("scaled_identity", "coefficient"):
            yield (
                f"perturb {name} family={family}",
                ["perturb"],
                problem + f"[study]\nfamily = {family}\n",
            )
        yield f"refine {name}", ["refine"], problem
        yield f"robust {name}", ["robust"], problem
    yield "oracle-check trials=10", ["oracle-check", "--trials", "10"], None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(run_command, argv, config):
    """Run one command in a fresh directory; returns (exit code, stdout,
    stderr, {relative path: bytes})."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            if config is not None:
                with open("run.cfg", "w", encoding="utf-8") as fh:
                    fh.write(config)
                argv = argv + ["-c", "run.cfg", "--out", "out"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(argv)
            files = {}
            for root, _, names in os.walk("out"):
                for fname in names:
                    path = os.path.join(root, fname)
                    with open(path, "rb") as fh:
                        files[path] = fh.read()
        finally:
            os.chdir(cwd)
    return code, out.getvalue().encode(), err.getvalue().encode(), files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, metavar="DIR",
                        help="directory that holds the qvar package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    os.environ.pop("QVAR_SEED", None)
    from qvar.cli import run_command

    for label, cmd, config in _matrix():
        code, out, err, files = _run(run_command, cmd, config)
        print(f"{label}: exit={code} stdout={_sha(out)} stderr={_sha(err)}")
        for path in sorted(files):
            print(f"  {path} {_sha(files[path])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
