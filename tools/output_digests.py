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

With `--dump DIR` every command's exit code, stdout, stderr and written
files are also kept under DIR, one directory per command.  `--compare A B`
reads two such dumps and prints, for every file that moved, the largest
absolute and relative difference of its numeric fields.  It flags any change
in an integer field, a verdict or other non-numeric token, a line count or
an exit code, and exits 1 when it flagged one:

    python3 tools/output_digests.py --src ../qvar-parent/src --dump parent > parent.txt
    python3 tools/output_digests.py --src src --dump change > change.txt
    python3 tools/output_digests.py --compare parent change

The matrix:
- solve, trace and certify for every builtin on both boundary conditions
  (plaplacian on dirichlet only) at n = 2, 8, 16, 64 and 100 (where h is
  inexact and the kernel FFT length is not aligned to the dof count);
- solve and certify of kernel_qvi with kernel = one, gauss(0.05) and
  gauss(5.0) on both boundary conditions at n = 8 and 100;
- regpath, perturb (both families), refine and robust on every builtin at
  n = 32 (perturb family=coefficient exits 4 on the nonlinear plaplacian and
  nonmonotone_sine);
- oracle-check --trials 10;
- certify plaplacian with p = 2 and with eps_op = 0 at n = 16 and 64, the
  closed-form edge cases of the structural constants (the exact stiffness
  pencil, and a zero linear part that certifies c = 0);
- oracle-check --ndof 1 --trials 10, the size-1 tridiagonal solve under
  Newton;
- regpath, perturb (both families), refine and robust on neumann
  fixed_obstacle and kernel_qvi at n = 32, whose a0 = 0 stiffness is
  singular;
- one out-of-range value for each config key whose range rule the library
  owns, and oracle-check --seed -3: each exits 4 with the library's message
  after the line and key (or after --seed), so these rows pin its bytes;
- regpath with reference = 1e-6 on every builtin and boundary condition at
  n = 32, whose reference eps is the last point of the walk;
- inf and nan list entries, plaplacian on a neumann mesh and refine's three
  n_list rules: each exits 4 with its message after the line and key;
- regpath with reference = -1e-3, which exits 4 with the library's
  regularization message after the line and key;
- regpath and perturb on example1d with f = -0.5: every study solves the
  minimal branch, so each exits 4 with the nonnegative-force message;
- solve example1d with alpha = 1e300, whose starting merit overflows: it
  exits 3 with the stagnation message and no RuntimeWarning on stderr;
- solve and trace of fixed_obstacle and kernel_qvi at n = 16 on a
  psi_file that holds the ramp 0.02 + 0.06 x, written by this tool into the
  command's directory;
- the three psi_file refusals: a missing file, a file of 9 nodes on the
  16-cell mesh and a row that is not two numbers: each exits 4 naming the
  file;
- a psi_file that is not UTF-8 and one of two rows, and robust with 4
  f_deltas and 3 phi_deltas: each exits 4;
- `qvar --help` and `qvar <command> --help` for every subcommand, with
  COLUMNS=80 set before anything runs, since argparse wraps help to the
  terminal width.
Rows are only ever appended, so that the dump index of every earlier
command stays put.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import re
import sys
import tempfile

BUILTINS = ("example1d", "plaplacian", "kernel_qvi", "nonmonotone_sine", "fixed_obstacle")
SOLVE_COMMANDS = ("solve", "trace", "certify")
SOLVE_SIZES = (2, 8, 16, 64, 100)
KERNELS = ("one", "gauss(0.05)", "gauss(5.0)")
KERNEL_SIZES = (8, 100)
STUDY_SIZE = 32
SUBCOMMANDS = SOLVE_COMMANDS + ("regpath", "perturb", "refine", "robust", "oracle-check")
# (command, config) with one value out of the range that a library check owns
BAD_VALUES = (
    ("solve", "[problem]\nn = 1\n"),
    ("solve", "[problem]\nbc = periodic\n"),
    ("certify", "[problem]\nname = plaplacian\np = 1.5\n"),
    ("certify", "[problem]\nname = plaplacian\neps_op = -1\n"),
    ("certify", "[problem]\nalpha = -0.5\n"),
    ("solve", "[solver]\ntol_outer = 0\n"),
    ("solve", "[solver]\ntol_inner = -1e-3\n"),
    ("solve", "[solver]\nmax_outer = 0\n"),
    ("solve", "[solver]\nmax_inner = -5\n"),
    ("regpath", "[study]\neps_list = 0.5,0.25\n"),
    ("perturb", "[study]\ndelta_list = 0.4,0.2,0.2,0.1\n"),
    ("refine", "[study]\nn_list = 1,2,4,8\n"),
    ("perturb", "[study]\nfamily = rotation\n"),
)
# (command, config) of the messages located since: non-finite list entries,
# the builder's refusal of the mesh that bc picked, refine's n_list rules and
# a negative regpath reference eps
BAD_ENTRIES = (
    ("regpath", "[problem]\nn = 8\n[study]\neps_list = inf,1,0.5,0.25\n"),
    ("regpath", "[problem]\nn = 8\n[study]\neps_list = 1,nan,0.5,0.25\n"),
    ("robust", "[problem]\nn = 8\n[study]\nf_deltas = inf,1,0.5,0.25\n"),
    ("certify", "[problem]\nname = plaplacian\nn = 8\nbc = neumann\n"),
    ("refine", "[study]\nn_list = 16,8,32,64\n"),
    ("refine", "[study]\nn_list = 8,12,32,64\n"),
    ("refine", "[study]\nn_list = 8,16,32\n"),
    ("regpath", "[study]\nreference = -1e-3\n"),
)


def _psi_file(n: int, bad_row: int | None = None) -> str:
    """The ramp 0.02 + 0.06 x as an `x,value` file on n cells, formatted as
    `solve` writes a solution, with row bad_row (if given) not two numbers."""
    rows = ["%.17g,%.17g" % (i / n, 0.02 + 0.06 * i / n) for i in range(n + 1)]
    if bad_row is not None:
        rows[bad_row] = rows[bad_row].split(",")[0] + ",high"
    return "x,value\n" + "".join(row + "\n" for row in rows)


def _bcs(name: str):
    """The boundary conditions a builtin is assembled on."""
    return ("dirichlet",) if name == "plaplacian" else ("dirichlet", "neumann")


def _bad(rows):
    """One labelled command per (command, config) row, named by its last line."""
    for cmd, config in rows:
        bad = config.rstrip("\n").rsplit("\n", 1)[1].replace(" ", "")
        yield f"{cmd} bad {bad}", [cmd], config


def _studies(name: str, problem: str, tag: str):
    """The study commands of the matrix on one problem config."""
    yield f"regpath {name}{tag}", ["regpath"], problem
    for family in ("scaled_identity", "coefficient"):
        yield (
            f"perturb {name}{tag} family={family}",
            ["perturb"],
            problem + f"[study]\nfamily = {family}\n",
        )
    yield f"refine {name}{tag}", ["refine"], problem
    yield f"robust {name}{tag}", ["robust"], problem


def _matrix():
    """(label, argv, config text) for every command of the matrix, followed
    by {file name: text or bytes} of its input files where it reads any."""
    for name in BUILTINS:
        for bc in _bcs(name):
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
        yield from _studies(name, f"[problem]\nname = {name}\nn = {STUDY_SIZE}\n", "")
    yield "oracle-check trials=10", ["oracle-check", "--trials", "10"], None
    for key in ("p = 2", "eps_op = 0"):
        for n in (16, 64):
            config = f"[problem]\nname = plaplacian\nn = {n}\n{key}\n"
            yield f"certify plaplacian {key.replace(' ', '')} n={n}", ["certify"], config
    yield "oracle-check ndof=1 trials=10", ["oracle-check", "--ndof", "1", "--trials", "10"], None
    for name in ("fixed_obstacle", "kernel_qvi"):
        yield from _studies(name, f"[problem]\nname = {name}\nbc = neumann\nn = {STUDY_SIZE}\n",
                            " bc=neumann")
    yield from _bad(BAD_VALUES)
    yield "oracle-check seed=-3", ["oracle-check", "--seed", "-3"], None
    for name in BUILTINS:
        for bc in _bcs(name):
            config = f"[problem]\nname = {name}\nbc = {bc}\nn = {STUDY_SIZE}\n"
            yield (f"regpath {name} bc={bc} reference=1e-6", ["regpath"],
                   config + "[study]\nreference = 1e-6\n")
    yield from _bad(BAD_ENTRIES)
    negative = "[problem]\nname = example1d\nn = 32\nf = -0.5\n"
    for cmd in ("regpath", "perturb"):
        yield f"{cmd} example1d f=-0.5", [cmd], negative
    yield "solve example1d alpha=1e300", ["solve"], "[problem]\nname = example1d\nalpha = 1e300\n"
    ramp = {"psi.csv": _psi_file(16)}
    for name in ("fixed_obstacle", "kernel_qvi"):
        config = f"[problem]\nname = {name}\nn = 16\npsi_file = psi.csv\n"
        for cmd in ("solve", "trace"):
            yield f"{cmd} {name} n=16 psi_file", [cmd], config, ramp
    config = "[problem]\nname = fixed_obstacle\nn = 16\npsi_file = psi.csv\n"
    for what, inputs in (("missing", {}), ("nodes=9", {"psi.csv": _psi_file(8)}),
                         ("bad_row", {"psi.csv": _psi_file(16, bad_row=8)})):
        yield f"solve fixed_obstacle psi_file {what}", ["solve"], config, inputs
    for what, data in (("not_utf8", b"\xffx,value\n"), ("rows=2", "x,value\n0,0.02\n1,0.08\n")):
        yield f"solve fixed_obstacle psi_file {what}", ["solve"], config, {"psi.csv": data}
    yield from _bad([("robust", "[problem]\nn = 8\n[study]\nf_deltas = 0.2,0.1,0.05,0.025\n"
                                "phi_deltas = 0.02,0.01,0.005\n")])
    yield "qvar --help", ["--help"], None
    for cmd in SUBCOMMANDS:
        yield f"{cmd} --help", [cmd, "--help"], None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(run_command, argv, config, inputs=None):
    """Run one command in a fresh directory that holds its input files;
    returns (exit code, stdout, stderr, {relative path: bytes})."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, data in (inputs or {}).items():
                with open(name, "wb") as fh:
                    fh.write(data.encode("utf-8") if isinstance(data, str) else data)
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


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.=-]+", "_", label)


def _dump(root: str, index: int, label: str, code: int, out: bytes, err: bytes, files) -> None:
    """Write one command's exit code, stdout, stderr and files under root."""
    base = os.path.join(root, f"{index:03d}-{_slug(label)}")
    outputs = {"exit_code": f"{code}\n".encode(), "stdout": out, "stderr": err, **files}
    for path, data in outputs.items():
        target = os.path.join(base, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "wb") as fh:
            fh.write(data)


def _tree(root: str) -> dict:
    """{relative path: bytes} of every file below root."""
    files = {}
    for top, _, names in os.walk(root):
        for fname in names:
            path = os.path.join(top, fname)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


_TOKEN = re.compile(r"[^\s,=]+")
_INT = re.compile(r"[-+]?\d+")


def _float(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _moves(old: str, new: str):
    """(largest absolute, largest relative numeric difference, flags) between
    two versions of a text file, compared token by token on each line."""
    max_abs = max_rel = 0.0
    flags = []
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        flags.append(f"line count {len(old_lines)} -> {len(new_lines)}")
    for k, (a_line, b_line) in enumerate(zip(old_lines, new_lines), start=1):
        a_tokens, b_tokens = _TOKEN.findall(a_line), _TOKEN.findall(b_line)
        if len(a_tokens) != len(b_tokens):
            flags.append(f"line {k}: {a_line!r} -> {b_line!r}")
            continue
        for a, b in zip(a_tokens, b_tokens):
            if a == b:
                continue
            x, y = _float(a), _float(b)
            integers = _INT.fullmatch(a) and _INT.fullmatch(b)
            if integers or x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                kind = "integer" if integers else "token"
                flags.append(f"line {k}: {kind} {a} -> {b}")
                continue
            diff = abs(x - y)
            max_abs = max(max_abs, diff)
            max_rel = max(max_rel, diff / max(abs(x), abs(y)))
    return max_abs, max_rel, flags


def compare(old_root: str, new_root: str) -> int:
    """Print every moved file of two dumps with its largest numeric moves
    and its flagged changes; 1 when anything was flagged."""
    old, new = _tree(old_root), _tree(new_root)
    moved = flagged = 0
    for path in sorted(set(old) | set(new)):
        if old.get(path) == new.get(path):
            continue
        moved += 1
        if path not in old or path not in new:
            print(f"{path}: only in {old_root if path in old else new_root}")
            flagged += 1
            continue
        max_abs, max_rel, flags = _moves(old[path].decode(), new[path].decode())
        print(f"{path}: max_abs={max_abs:.3g} max_rel={max_rel:.3g}")
        for flag in flags:
            print(f"  FLAG {flag}")
        flagged += bool(flags)
    print(f"{len(set(old) | set(new))} files, {moved} moved, {flagged} flagged")
    return 1 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", metavar="DIR",
                        help="directory that holds the qvar package to run")
    parser.add_argument("--dump", metavar="DIR",
                        help="also write every command's outputs under DIR")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two dumps instead of running the matrix")
    args = parser.parse_args(argv)
    if args.compare:
        if args.src or args.dump:
            parser.error("--compare takes no --src or --dump")
        return compare(*args.compare)
    if not args.src:
        parser.error("--src is required")
    sys.path.insert(0, os.path.abspath(args.src))
    os.environ.pop("QVAR_SEED", None)
    os.environ["COLUMNS"] = "80"  # the width argparse wraps help to
    from qvar.cli import run_command

    for index, (label, cmd, config, *inputs) in enumerate(_matrix()):
        code, out, err, files = _run(run_command, cmd, config, *inputs)
        print(f"{label}: exit={code} stdout={_sha(out)} stderr={_sha(err)}")
        for path in sorted(files):
            print(f"  {path} {_sha(files[path])}")
        if args.dump:
            _dump(os.path.abspath(args.dump), index, label, code, out, err, files)
    return 0


if __name__ == "__main__":
    sys.exit(main())
