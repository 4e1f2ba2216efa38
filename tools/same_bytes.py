"""Compare the outputs of two checkouts of this repository byte for byte.

    python tools/same_bytes.py PARENT [CHANGE]

PARENT and CHANGE are checkout directories; CHANGE defaults to the
checkout that holds this script. Each checkout runs in its own Python
subprocess with its own ``src/`` first on the path, and both take the
same inputs, read from CHANGE's ``bench/catalogue.json``, its
``tests/support.py`` (imported with ``tests/`` on the path; it imports
numpy and percept, not pytest) and, for the presets, its
``sweep.PRESETS``:

- ``cli.main`` (argv, exit code, stdout, stderr) of every catalogue
  ``cli`` entry, of ``sweep fig2`` ... ``fig8`` and of sixteen edge cases:
  ``pu-snr --ptn0 1e300``, ``pu-rate --ptn0 1e300``, ``pu-snr --tol
  1e-14``, ``pu-snr --budget 100``, ``pu-rate --tol 1e-2``, ``pop
  --ptn0 0.025 --theta 0.01`` (an outage that rounds to 1), ``pcdf
  300 --mu 0.3 --theta 0.01`` (a -log F that underflows to 0),
  ``ppdf 216 --mu 0.3 --theta 0.9`` and ``ppdf 746`` (the far tail of the
  perceived density, where -log F is subnormal or 0), ``ppdf 1e-300
  --gamma 3 --theta 0.9`` (a density whose weight w(F) underflows, taken
  in logs), the quadrature's two failing checks, ``pu-snr --lambda-loss
  1e308`` (a perceived value past the float range), ``pu-snr --ptn0
  1e300 --mu 1e10`` (an infinite quantity) and ``pu-snr --ptn0 0.2724
  --ref 10.05 ... --mu 0.0245 --tol 1e-10`` (a kink that weighs at
  g*/mu ~ 1506, where -log F(g*) underflows to 0), and the exits the
  rest never reach: ``value -1`` (2, a DomainError at a grid point),
  ``pu-snr --alpha 1.5`` (2, a ConstraintViolation before the sweep)
  and ``sweep fig9`` (4, neither a preset nor a file);
- ``sweep_csv`` of ``run_scenario`` (or the repr of its error) for every
  catalogue ``quad`` scenario at its own tolerance, at 1e-12 and at 1e-4.
  As the CSV rounds to 12 digits, each such output also holds the
  ``float.hex`` of every row's value and err with its n_eval, or, for a
  ToleranceNotMet, of the value and abs_error it carries with its
  evaluation count;
- the same ``run_scenario`` output of every 8th catalogue ``oracle``
  document and of fig8, each with an ``mc`` block of 1000 samples (one
  slice) and of 2**19 + 1 (past one batch), seed 0;
- ``cli.main`` (document, exit code, stdout, stderr) of ``cross-check``
  on the same documents with the 1000-sample ``mc`` block, each written
  to a temporary file, and on tier-1's failing one, ``doc()`` at
  ``pt_over_n0`` 100 with 2 samples and seed 4, which exits 3; fig8 is a
  ``pop`` scenario, so it exits 2;
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
  and 64;
- the same ``run_scenario`` output of the documents of fig2 ... fig8, so
  that a last-bit change the 12-digit CSV of their ``sweep`` rounds away
  shows in the ``float.hex`` of their rows;
- the sha256 of ``ppdf`` at four (mu, gamma, theta), each over 4096
  seeded s/mu: 1e-320, 745, 2047 log-uniform on [1e-320, 1] and 2047
  uniform on [1, 745], so that the near tail, the far tail past s/mu ~
  708 and, at gamma 3 and 2, the points with gamma*t > 700 whose density
  is taken in logs are all covered; each returns a number at every point.

Prints the number of outputs and of differences, in all and per group
of inputs (CLI entries, presets, edge cases, ``quad`` at each
tolerance, ``mc`` at each sample count, the cross-check CLI, errors,
``pop`` axes, channel, preset rows and ``ppdf``), and the first few
differences;
exits 1 if any output differs, 0 if none does.
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
              ["ppdf", "746"],
              ["ppdf", "1e-300", "--gamma", "3", "--theta", "0.9"],
              ["pu-snr", "--lambda-loss", "1e308"],
              ["pu-snr", "--ptn0", "1e300", "--mu", "1e10"],
              ["pu-snr", "--ptn0", "0.2724", "--ref", "10.05", "--alpha",
               "0.587", "--lambda-loss", "3.162", "--gamma", "0.7385",
               "--theta", "0.01001", "--mu", "0.0245", "--tol", "1e-10"],
              ["value", "-1"],
              ["pu-snr", "--alpha", "1.5"], ["sweep", "fig9"]]
TOLERANCES = (None, 1e-12, 1e-4)  # None: the scenario's own tolerance
MC_SAMPLES = (1000, (1 << 19) + 1)
# (k_paths, amplitude_scale, n) of the gain_samples digests, seed 0
CHANNEL_DRAWS = [(k, scale, n) for k, scale in ((1, 1.0), (7, 0.3), (64, 1.0))
                 for n in (1 << 14, (1 << 14) + 1)]
# (mu, gamma, theta) of the ppdf digests; the seed is the index
PPDF_PARAMS = [(1.0, 1.0, 0.65), (0.3, 3.0, 0.9), (2.5, 2.0, 0.95),
               (1e-3, 0.9, 0.65)]
SHOW = 5  # differences printed in full
ROOT = Path(__file__).resolve().parent.parent  # this script's checkout


def jobs(catalogue: dict, presets: dict, root: Path = ROOT) -> dict:
    """Every input by group name, as ("cli", argv), ("scenario" or
    "cross-check file", scenario document), ("gains", [k_paths, scale,
    n]) or ("ppdf", [mu, gamma, theta, seed]); ``presets`` is
    ``sweep.PRESETS``, and the error and ``pop`` cases come from
    checkout ``root``'s ``tests/support.py``."""
    figs = [presets[f"fig{k}"][1] for k in range(2, 9)]
    out = {"cli entries": [("cli", e["argv"]) for e in catalogue["cli"]],
           "presets": [("cli", ["sweep", f"fig{k}"]) for k in range(2, 9)],
           "edge cases": [("cli", argv) for argv in EDGE_ARGVS]}
    for tol in TOLERANCES:
        out["quad at " + ("own tol" if tol is None else f"tol {tol:g}")] = [
            ("scenario", e["doc"] if tol is None else dict(e["doc"],
                                                          tolerance=tol))
            for e in catalogue["quad"]]
    mc_docs = [e["doc"] for e in catalogue["oracle"][::8]] + [presets["fig8"][1]]
    for n in MC_SAMPLES:
        out[f"mc at {n} samples"] = [
            ("scenario", dict(d, mc={"samples": n})) for d in mc_docs]
    sys.path.insert(0, str(root / "tests"))
    from support import AXIS_ERRORS, POP_AXES, POP_AXIS_ERRORS, doc, pop_doc
    cli_docs = [dict(d, mc={"samples": MC_SAMPLES[0]}) for d in mc_docs] + [
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
    out["preset rows"] = [("scenario", d) for d in figs]
    out["ppdf"] = [("ppdf", [*params, seed])
                   for seed, params in enumerate(PPDF_PARAMS)]
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
    import numpy as np

    from percept.channel import MultipathConfig, gain_samples
    from percept.distributions import ExponentialGain, PerceptualDistribution
    from percept.errors import PerceptError, ToleranceNotMet
    from percept.prospect import WeightParams
    from percept.sweep import run_scenario, scenario_from_dict, sweep_csv

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
        if kind == "ppdf":
            mu, gamma, theta, seed = arg
            rng = np.random.default_rng(seed)
            x = np.concatenate([[1e-320, 745.0],
                                10.0 ** rng.uniform(-320.0, 0.0, 2047),
                                rng.uniform(1.0, 745.0, 2047)])
            pd = PerceptualDistribution(ExponentialGain(mu),
                                        WeightParams(gamma, theta))
            density = pd.ppdf(mu * x)
            out.append([arg, hashlib.sha256(density.tobytes()).hexdigest()])
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
    groups = jobs(catalogue, PRESETS, args.change)
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
