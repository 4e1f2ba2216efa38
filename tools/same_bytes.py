"""Compare the outputs of two checkouts of this repository byte for byte.

    python tools/same_bytes.py PARENT [CHANGE]

PARENT and CHANGE are checkout directories; CHANGE defaults to the
checkout that holds this script. Each checkout runs in its own Python
subprocess with its own ``src/`` first on the path, and both take the
same inputs, read from CHANGE's ``bench/catalogue.json``, its
``tests/support.py`` (imported with ``tests/`` on the path; it imports
numpy and percept, not pytest) and, for fig8, its ``sweep.PRESETS``:

- ``cli.main`` (argv, exit code, stdout, stderr) of every catalogue
  ``cli`` entry, of ``sweep fig2`` ... ``fig8`` and of fourteen edge cases:
  ``pu-snr --ptn0 1e300``, ``pu-rate --ptn0 1e300``, ``pu-snr --tol
  1e-14``, ``pu-snr --budget 100``, ``pu-rate --tol 1e-2``, ``pop
  --ptn0 0.025 --theta 0.01`` (an outage that rounds to 1), ``pcdf
  300 --mu 0.3 --theta 0.01`` (a -log F that underflows to 0),
  ``ppdf 216 --mu 0.3 --theta 0.9`` and ``ppdf 746`` (the far tail of the
  perceived density, where -log F is subnormal or 0), the quadrature's
  two failing checks, ``pu-snr --lambda-loss 1e308`` (a perceived value
  past the float range) and ``pu-snr --ptn0 1e300 --mu 1e10`` (an
  infinite quantity), and the exits the rest never reach: ``value -1``
  (2, a DomainError at a grid point), ``pu-snr --alpha 1.5`` (2, a
  ConstraintViolation before the sweep) and ``sweep fig9`` (4, neither
  a preset nor a file);
- ``sweep_csv`` of ``run_scenario`` (or the repr of its error) for every
  catalogue ``quad`` scenario at its own tolerance, at 1e-12 and at 1e-4.
  As the CSV rounds to 12 digits, each such output also holds the
  ``float.hex`` of every row's value and err with its n_eval, or, for a
  ToleranceNotMet, of the value and abs_error it carries with its
  evaluation count;
- the same ``run_scenario`` output of every 8th catalogue ``oracle``
  document and of fig8, each with an ``mc`` block of 1000 samples (one
  slice) and of 2**19 + 1 (past one batch), seed 0;
- ``cross_check_csv`` of ``cross_check`` (or the repr of its error) on
  the same documents with the 1000-sample ``mc`` block; fig8 is a ``pop``
  scenario, so it gives the DomainError;
- ``cli.main`` (document, exit code, stdout, stderr) of ``cross-check``
  on each of those documents written to a temporary file, and on
  tier-1's failing one, ``doc()`` at ``pt_over_n0`` 100 with 2 samples
  and seed 4, which exits 3;
- the repr of the error ``run_scenario`` raises on the ``pu_snr`` and
  ``pu_rate`` documents of tier-1's ``AXIS_ERRORS``, built by ``doc()``:
  each fails at one grid point, with an invalid value on a PU axis or an
  invalid fixed field;
- the same ``run_scenario`` output of the ``pop`` sweeps of tier-1's
  ``POP_AXES``, one along each axis, in closed form and with an ``mc``
  block of 1000 samples, and the repr of the error it raises on the
  ``pop`` documents of ``POP_AXIS_ERRORS``, both built by ``pop_doc()``;
- the sha256 of ``gain_samples`` on both sides of the 16384-draw chunk
  boundary, at K = 1, 7 (scale 0.3) and 64, seed 0, and ``cli.main`` of
  ``simulate-channel --samples 20000 --seed 0`` at ``--k-paths`` 1, 7
  and 64.

Prints the number of outputs and of differences, in all and per group
of inputs (CLI entries, presets, edge cases, ``quad`` at each
tolerance, ``mc`` at each sample count, cross-check, its CLI, errors,
``pop`` axes, and channel), and the first few differences; exits 1 if any
output differs, 0 if none does.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EDGE_ARGVS = [["pu-snr", "--ptn0", "1e300"], ["pu-rate", "--ptn0", "1e300"],
              ["pu-snr", "--tol", "1e-14"], ["pu-snr", "--budget", "100"],
              ["pu-rate", "--tol", "1e-2"],
              ["pop", "--ptn0", "0.025", "--theta", "0.01"],
              ["pcdf", "300", "--mu", "0.3", "--theta", "0.01"],
              ["ppdf", "216", "--mu", "0.3", "--theta", "0.9"],
              ["ppdf", "746"], ["pu-snr", "--lambda-loss", "1e308"],
              ["pu-snr", "--ptn0", "1e300", "--mu", "1e10"], ["value", "-1"],
              ["pu-snr", "--alpha", "1.5"], ["sweep", "fig9"]]
TOLERANCES = (None, 1e-12, 1e-4)  # None: the scenario's own tolerance
MC_SAMPLES = (1000, (1 << 19) + 1)
# (k_paths, amplitude_scale, n) of the gain_samples digests, seed 0
CHANNEL_DRAWS = [(k, scale, n) for k, scale in ((1, 1.0), (7, 0.3), (64, 1.0))
                 for n in (1 << 14, (1 << 14) + 1)]
SHOW = 5  # differences printed in full
ROOT = Path(__file__).resolve().parent.parent  # this script's checkout


def jobs(catalogue: dict, fig8: dict, root: Path = ROOT) -> dict:
    """Every input by group name, as ("cli", argv), ("scenario",
    "cross-check" or "cross-check file", scenario document) or ("gains",
    [k_paths, scale, n]);
    ``fig8`` is that preset's document, and the error and ``pop`` cases
    come from checkout ``root``'s ``tests/support.py``."""
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
            ("scenario", dict(d, mc={"samples": n})) for d in mc_docs]
    out["cross-check"] = [
        ("cross-check", dict(d, mc={"samples": MC_SAMPLES[0]}))
        for d in mc_docs]
    sys.path.insert(0, str(root / "tests"))
    from support import AXIS_ERRORS, POP_AXES, POP_AXIS_ERRORS, doc, pop_doc
    cli_docs = [d for _, d in out["cross-check"]] + [
        doc(axis={"name": "pt_over_n0", "grid": [100.0]},
            mc={"samples": 2, "seed": 4})]
    out["cross-check CLI"] = [("cross-check file", d) for d in cli_docs]
    out["errors"] = [
        ("scenario", doc(metric=metric, axis={"name": axis, "grid": grid},
                         **{"pt_over_n0": 10.0, **fixed}))
        for metric in ("pu_snr", "pu_rate")
        for axis, grid, fixed, _ in AXIS_ERRORS]
    sweeps = [pop_doc(axis, grid) for axis, grid in POP_AXES]
    out["pop axes"] = [("scenario", d) for d in sweeps] + [
        ("scenario", pop_doc(axis, grid, **fixed))
        for axis, grid, fixed, _ in POP_AXIS_ERRORS] + [
        ("scenario", dict(d, mc={"samples": MC_SAMPLES[0]})) for d in sweeps]
    out["channel"] = [("gains", list(draw)) for draw in CHANNEL_DRAWS] + [
        ("cli", ["simulate-channel", "--samples", "20000", "--seed", "0",
                 "--k-paths", str(k)]) for k in (1, 7, 64)]
    return out


def run_cli(argv: list) -> list:
    """The exit code, stdout and stderr of ``cli.main(argv)``."""
    from percept import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, stdout.getvalue(), stderr.getvalue()]


def collect(todo: list) -> list:
    """The output of every job, run with the ``percept`` on the path."""
    from percept.channel import MultipathConfig, gain_samples
    from percept.errors import PerceptError, ToleranceNotMet
    from percept.sweep import (cross_check, cross_check_csv, run_scenario,
                               scenario_from_dict, sweep_csv)

    out = []
    for kind, arg in todo:
        if kind == "cli":
            out.append([arg, *run_cli(list(arg))])
            continue
        if kind == "cross-check file":
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "scenario.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(arg, fh)
                out.append([arg, *run_cli(["cross-check", path])])
            continue
        if kind == "gains":
            k, scale, n = arg
            gains = gain_samples(MultipathConfig(k, scale, 0), n)
            out.append([arg, hashlib.sha256(gains.tobytes()).hexdigest()])
            continue
        if kind == "cross-check":
            try:
                text = cross_check_csv(cross_check(scenario_from_dict(arg)))
            except PerceptError as exc:
                text = repr(exc)
            out.append([arg, text])
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
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    args = parser.parse_args(argv)
    catalogue = json.loads(
        (args.change / "bench" / "catalogue.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(args.change / "src"))
    from percept.sweep import PRESETS
    groups = jobs(catalogue, PRESETS["fig8"][1], args.change)
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
