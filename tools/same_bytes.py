"""Compare the outputs of two checkouts of this repository byte for byte.

    python tools/same_bytes.py PARENT [CHANGE]

PARENT and CHANGE are checkout directories; CHANGE defaults to the
checkout that holds this script. Each checkout runs in its own Python
subprocess with its own ``src/`` first on the path, and both take the
same inputs, read from CHANGE's ``bench/catalogue.json`` and, for fig8,
CHANGE's ``sweep.PRESETS``:

- ``cli.main`` (argv, exit code, stdout, stderr) of every catalogue
  ``cli`` entry, of ``sweep fig2`` ... ``fig8`` and of seven edge cases:
  ``pu-snr --ptn0 1e300``, ``pu-rate --ptn0 1e300``, ``pu-snr --tol
  1e-14``, ``pu-snr --budget 100``, ``pu-rate --tol 1e-2``, ``pop
  --ptn0 0.025 --theta 0.01`` (an outage that rounds to 1) and ``pcdf
  300 --mu 0.3 --theta 0.01`` (a -log F that underflows to 0);
- ``sweep_csv`` of ``run_scenario`` (or the repr of its error) for every
  catalogue ``quad`` scenario at its own tolerance, at 1e-12 and at 1e-4.
  As the CSV rounds to 12 digits, each such output also holds the
  ``float.hex`` of every row's value and err with its n_eval, or, for a
  ToleranceNotMet, of the value and abs_error it carries with its
  evaluation count;
- the same ``run_scenario`` output of every 8th catalogue ``oracle``
  document and of fig8, each with an ``mc`` block of 1000 samples (one
  slice) and of 2**19 + 1 (past one batch), seed 0;
- the repr of the error ``run_scenario`` raises on ``pu_snr`` and
  ``pu_rate`` documents that each fail at one grid point: an invalid
  value on each PU axis, or an invalid fixed ``mu``, ``pt_over_n0`` or
  ``reference``, alone or next to an invalid first grid value.

Prints the number of outputs and of differences, in all and per group
of inputs (CLI entries, presets, edge cases, ``quad`` at each
tolerance, ``mc`` at each sample count, and errors), and the first few
differences; exits 1 if any output differs, 0 if none does.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

EDGE_ARGVS = [["pu-snr", "--ptn0", "1e300"], ["pu-rate", "--ptn0", "1e300"],
              ["pu-snr", "--tol", "1e-14"], ["pu-snr", "--budget", "100"],
              ["pu-rate", "--tol", "1e-2"],
              ["pop", "--ptn0", "0.025", "--theta", "0.01"],
              ["pcdf", "300", "--mu", "0.3", "--theta", "0.01"]]
TOLERANCES = (None, 1e-12, 1e-4)  # None: the scenario's own tolerance
MC_SAMPLES = (1000, (1 << 19) + 1)
ERROR_BASE = {"schema": "percept-scenario/1",
              "value_params": {"alpha": 0.5, "lambda_gain": 1.0,
                               "lambda_loss": 2.0},
              "weight_params": {"gamma": 1.0, "theta": 0.8},
              "reference": 4.0, "mu": 1.0, "pt_over_n0": 10.0}
INF = float("inf")  # a document's 1e400
# an axis, its grid and the fixed fields that differ from ERROR_BASE; each
# document fails at the one grid point or fixed field that is invalid
ERROR_CASES = [
    ("pt_over_n0", [1.0, 10.0, INF], {}),
    ("reference", [0.0, 4.0, INF], {}),
    ("mu", [0.0, 1.0, 2.0], {}),
    ("alpha", [0.3, 0.5, 1.0], {}),
    ("lambda_gain", [0.5, 1.0, 2.0], {}),
    ("lambda_loss", [1.0, 2.0, 3.0], {}),
    ("gamma", [0.5, 1.0, INF], {}),
    ("theta", [0.5, 0.8, 1.0], {}),
    ("pt_over_n0", [1.0, 10.0], {"mu": 0.0}),
    ("mu", [1.0, 2.0], {"pt_over_n0": -1.0}),
    ("pt_over_n0", [1.0, 10.0], {"reference": -1.0}),
    ("reference", [-1.0, 4.0], {"mu": INF}),
    ("pt_over_n0", [-1.0, 10.0], {"mu": -1.0}),
]
SHOW = 5  # differences printed in full


def error_doc(metric: str, axis: str, grid: list, fixed: dict) -> dict:
    """A scenario document of ERROR_CASES; a parameter block keeps its
    value of the axis field as a placeholder."""
    return dict(ERROR_BASE, metric=metric, axis={"name": axis, "grid": grid},
                **fixed)


def jobs(catalogue: dict, fig8: dict) -> dict:
    """Every input by group name, as ("cli", argv) or ("scenario",
    scenario document); ``fig8`` is that preset's document."""
    out = {"cli entries": [("cli", e["argv"]) for e in catalogue["cli"]],
           "presets": [("cli", ["sweep", f"fig{k}"]) for k in range(2, 9)],
           "edge cases": [("cli", argv) for argv in EDGE_ARGVS]}
    for tol in TOLERANCES:
        out["quad at " + ("own tol" if tol is None else f"tol {tol:g}")] = [
            ("scenario", e["doc"] if tol is None else dict(e["doc"],
                                                          tolerance=tol))
            for e in catalogue["quad"]]
    mc_docs = [e["doc"] for e in catalogue["oracle"][::8]] + [fig8]
    for n in MC_SAMPLES:
        out[f"mc at {n} samples"] = [
            ("scenario", dict(doc, mc={"samples": n})) for doc in mc_docs]
    out["errors"] = [("scenario", error_doc(metric, *case))
                     for metric in ("pu_snr", "pu_rate")
                     for case in ERROR_CASES]
    return out


def collect(todo: list) -> list:
    """The output of every job, run with the ``percept`` on the path."""
    from percept import cli
    from percept.errors import PerceptError, ToleranceNotMet
    from percept.sweep import run_scenario, scenario_from_dict, sweep_csv

    out = []
    for kind, arg in todo:
        if kind == "cli":
            stdout, stderr = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(stdout),
                  contextlib.redirect_stderr(stderr)):
                try:
                    code = cli.main(list(arg))
                except SystemExit as exc:
                    code = exc.code
            out.append([arg, code, stdout.getvalue(), stderr.getvalue()])
            continue
        try:
            rows = run_scenario(scenario_from_dict(arg))
            text = sweep_csv(rows)
            exact = [[r.value.hex(), r.err.hex(), r.n_eval] for r in rows]
        except PerceptError as exc:  # the error is the output
            text, exact = repr(exc), None
            if isinstance(exc, ToleranceNotMet):
                exact = [exc.value.hex(), exc.abs_error.hex(),
                         exc.evaluations]
        out.append([arg, text, exact])
    return out


def run_checkout(root: Path, todo: list) -> list:
    """:func:`collect` in a subprocess importing ``root/src``."""
    src = str((root / "src").resolve())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, __file__, "--collect", src],
        input=json.dumps(todo), capture_output=True, text=True, env=env,
        check=False)
    if proc.returncode != 0:
        sys.exit(f"{root}: collecting failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def child(src: str) -> int:
    """The subprocess side: jobs on stdin, outputs on stdout."""
    import percept
    if not Path(percept.__file__).resolve().is_relative_to(src):
        sys.exit(f"imported {percept.__file__}, not from {src}")
    json.dump(collect(json.load(sys.stdin)), sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    catalogue = json.loads(
        (args.change / "bench" / "catalogue.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(args.change / "src"))
    from percept.sweep import PRESETS
    groups = jobs(catalogue, PRESETS["fig8"])
    todo = [job for group in groups.values() for job in group]
    before = run_checkout(args.parent, todo)
    after = run_checkout(args.change, todo)
    differ = [a != b for a, b in zip(before, after)]
    diffs = [(a, b) for a, b, d in zip(before, after, differ) if d]
    print(f"{len(diffs)} of {len(todo)} outputs differ")
    flags = iter(differ)
    for name, group in groups.items():
        print(f"  {name}: {sum(itertools.islice(flags, len(group)))} of "
              f"{len(group)} differ")
    for a, b in diffs[:SHOW]:
        print(f"- parent: {json.dumps(a)}\n+ change: {json.dumps(b)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(child(sys.argv[2]) if sys.argv[1:2] == ["--collect"]
             else main())
