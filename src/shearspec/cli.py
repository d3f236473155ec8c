"""Command-line front end: validated configs in, CSV/JSON artifacts out.

Commands print a short summary on stdout and, when an output directory
is given, write diff-able artifacts next to a manifest recording the
config hash, seed, and library versions.  Runs are deterministic for a
fixed config and seed, so rerunning a manifest at the same BLAS thread
count reproduces its CSVs byte for byte.  Dense and factored solves run
on one BLAS thread at any count, so the CSVs of a ladder whose rungs are
all dense or factored reproduce across thread counts too; on block-CG
rungs the ``residual`` column, each value's bound sqrt(8) ||Ax - theta
Mx||_D on its distance to the spectrum, is rounding noise.  Every file
is written by ``_write``, every CSV made by ``_csv``.  Exit codes: 0
success, 2 bad arguments, config or output directory, 3 solver
non-convergence, 4 inconclusive result.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .certificates import (BRANCH_POINT, beta_star, bound_factor,
                           existence_certificate)
from .cross_section import refine_mask, section_eigenvalues
from .geometry import MaskSection, Rect, Section, WaveguideSpec, beta_value
from .waveguide import (CSV_COLUMNS, DiscretizationSpec, compute_spectrum,
                        separation_check, sweep_beta)
from .eigcore import EigOptions

__all__ = ["main", "ConfigError", "load_config", "load_mask"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INCONCLUSIVE = 4

MODE_ALIAS = {"half": "half_DN", "full": "full_sign", "reduced": "reduced2d",
              "half_DN": "half_DN", "full_sign": "full_sign",
              "reduced2d": "reduced2d"}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- config

# the JSON kinds a config value may take, with the name an error uses
INT = (int, "an integer")
NUM = ((int, float), "a number")
STR = (str, "a string")


def _is(v, kind) -> bool:
    """isinstance, except that a boolean is of no kind but bool and an
    integer beyond the float range is no number."""
    if kind is NUM[0] and isinstance(v, int) and abs(v) > sys.float_info.max:
        return False
    return isinstance(v, bool) == (kind is bool) and isinstance(v, kind)


def _check_keys(d, kinds: dict, where: str) -> None:
    """Raise ConfigError unless ``d`` is a JSON object whose keys are all
    in ``kinds`` and each holds a value of its kind; a boolean is never
    a number."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = set(d) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key, v in d.items():
        kind, name = kinds[key]
        if not _is(v, kind):
            raise ConfigError(f"{where} {key} must be {name}, got {v!r}")


def load_mask(path: str) -> MaskSection:
    """Plain-text mask: a 'cell <h>' line, then rows of 0/1 characters
    (axis 0 is y1).  '#' and '.' are accepted as aliases of 1 and 0."""
    rows = []
    cell = None
    try:
        f = open(path)
    except OSError as e:
        raise ConfigError(f"cannot read mask file {path}: {e}")
    with f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            if line.startswith("cell"):
                try:
                    cell = float(line[4:])
                except ValueError:
                    raise ConfigError(f"mask file {path} line {lineno}: bad "
                                      f"cell size in {line!r}") from None
                continue
            trans = {"#": True, "1": True, ".": False, "0": False}
            try:
                rows.append([trans[ch] for ch in line])
            except KeyError as e:
                raise ConfigError(f"bad mask character {e} in {path}")
    if cell is None:
        raise ConfigError(f"mask file {path} lacks a 'cell <h>' line")
    if not rows:
        raise ConfigError(f"mask file {path} has no cell rows")
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"mask file {path} needs equal-length rows")
    return MaskSection(inside=np.array(rows, dtype=bool), cell=cell)


def _parse_rect(values) -> Rect:
    """A rectangle from the text "a,b,c,d" or a list of four numbers."""
    text = isinstance(values, str)
    parts = values.split(",") if text else values
    try:
        if len(parts) != 4 or not (text or all(_is(v, NUM[0]) for v in parts)):
            raise ValueError
        vals = [float(v) for v in parts]
    except ValueError:
        raise ConfigError(f"rect needs four numbers a,b,c,d, "
                          f"got {values!r}") from None
    return Rect(*vals)


def _section(rect, mask, base_dir: str) -> Section:
    """The section of a config or of the flags: exactly one of ``rect``
    and ``mask``, a relative mask path read from ``base_dir``."""
    if (rect is None) == (mask is None):
        raise ConfigError("give exactly one of rect or mask")
    if rect is not None:
        return _parse_rect(rect)
    return load_mask(os.path.join(base_dir, mask))


def _disc_from(cfg: dict) -> DiscretizationSpec:
    _check_keys(cfg, {"nx": INT, "n1": INT, "n2": INT, "L": NUM,
                      "mode": STR, "refine": INT, "l_steps": INT}, "disc")
    kw = dict(cfg)
    if "mode" in kw:
        mode = kw["mode"]
        if mode not in MODE_ALIAS:
            raise ConfigError(f"unknown mode {mode!r}; use half, full or "
                              f"reduced")
        kw["mode"] = MODE_ALIAS[mode]
    missing = {"nx", "n1", "n2", "L"} - set(kw)
    if missing:
        raise ConfigError(f"disc lacks keys: {sorted(missing)}")
    kw["L"] = float(kw["L"])
    return DiscretizationSpec(**kw)


def _eig_from(cfg: dict) -> EigOptions:
    _check_keys(cfg, {"k": INT, "tol": NUM, "maxit": INT, "seed": INT},
                "eig")
    return EigOptions(**cfg)


def _check_betas(betas: list) -> list[float]:
    """Each beta as a float, held to ``beta_value`` and given once."""
    if not all(_is(b, NUM[0]) for b in betas):
        raise ConfigError(f"beta must be a number, got {betas!r}")
    try:
        vals = [beta_value(v, allow_zero=True) for v in betas]
    except ValueError as e:
        raise ConfigError(str(e)) from None
    repeated = sorted({v for v in vals if vals.count(v) > 1})
    if repeated:
        raise ConfigError(f"beta {repeated[0]:.12g} is given more than once")
    return vals


TOP_KEYS = {"beta": NUM, "betas": (list, "a list"),
            "rect": ((str, list), "a list a,b,c,d"), "mask": STR,
            "disc": (dict, "a JSON object"), "eig": (dict, "a JSON object"),
            "out": STR}


def load_config(path: str, sweep: bool = False):
    """Parse and validate one run config; raises ConfigError on any
    unknown key, mistyped or inconsistent value before touching a
    solver."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    _check_keys(cfg, TOP_KEYS, "config")
    if "beta" in cfg and "betas" in cfg:
        raise ConfigError("give one of 'beta' and 'betas', not both")
    section = _section(cfg.get("rect"), cfg.get("mask"),
                       os.path.dirname(os.path.abspath(path)))
    if "disc" not in cfg:
        raise ConfigError("config lacks 'disc'")
    disc = _disc_from(cfg["disc"])
    opts = _eig_from(cfg.get("eig", {}))
    if sweep:
        if not cfg.get("betas"):
            raise ConfigError("sweep config needs a nonempty 'betas'")
        betas = _check_betas(cfg["betas"])
        return cfg, section, betas, disc, opts
    if "beta" not in cfg:
        raise ConfigError("config needs 'beta'")
    spec = WaveguideSpec(_check_betas([cfg["beta"]])[0], section)
    return cfg, spec, disc, opts


# ---------------------------------------------------------------- output

def _round12(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(data) -> str:
    """JSON text of ``data``, floats to 12 digits, newline-terminated."""
    return json.dumps(_round12(data), indent=2) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _csv(columns, rows) -> str:
    """CSV text of ``rows``, dicts keyed by ``columns``, floats to 12
    digits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows([_cell(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


def _out_dir(path):
    """Make the output directory ``path``, if one is given, and return
    it; a path that cannot be one is a bad argument, found before any
    solve."""
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot write {path}: {e}") from None
    return path


def _write(out_dir, command: str, cfg: dict, seed: int, files: dict) -> None:
    """Write each ``name: text`` of ``files`` into ``out_dir`` and a
    manifest.json naming them beside the config hash, seed and library
    versions; nothing without an ``out_dir``."""
    if not _out_dir(out_dir):
        return
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    man = {
        "command": command,
        "config": cfg,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "shearspec": __version__,
        },
        "outputs": sorted(files),
    }
    files = {**files, "manifest.json": json.dumps(man, indent=2) + "\n"}
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write {path}: {e}") from None


def _config_out(args, cfg: dict):
    """``--out`` as given, else the config's ``out`` key, which is read
    from the config's own directory, as its ``mask`` is."""
    if args.out or "out" not in cfg:
        return args.out
    return os.path.join(os.path.dirname(os.path.abspath(args.config)),
                        cfg["out"])


def _report_exit(flags) -> int:
    if any(f.startswith("nonconverged") for f in flags):
        return EXIT_SOLVER
    if "inconclusive" in flags:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# -------------------------------------------------------------- commands

def cmd_thresholds(args) -> int:
    section = _section(args.rect, args.mask, "")
    beta = _beta_arg(args)
    if args.grid_factor is not None:
        if isinstance(section, Rect):
            raise ConfigError("--grid-factor refines masks only")
        try:
            section = refine_mask(section, args.grid_factor)
        except ValueError as e:
            raise ConfigError(f"--grid-factor: {e}") from None
    E1, E2 = section_eigenvalues(beta, section, 2)
    out = {"beta": beta, "E1": E1, "E2": E2, "ess_threshold": E1}
    if isinstance(section, Rect):
        R = section.aspect
        out["R"] = R
        out["beta_star"] = beta_star(R)
        out["branch"] = "narrow" if R <= BRANCH_POINT else "wide"
    # the straight tube (beta = 0) has no shear to bound
    out["bound_factor"] = bound_factor(beta) if beta > 0.0 else None
    print(_emit(out), end="")
    return EXIT_OK


def cmd_certify(args) -> int:
    rect = _parse_rect(args.rect)
    beta = _beta_arg(args)
    out_dir = _out_dir(args.out)
    cert = existence_certificate(beta, rect)
    out = dataclasses.asdict(cert)
    out["cross_term"] = cert.piece_cross / (2.0 * cert.eps)
    out["rayleigh"] = cert.rayleigh
    text = _emit(out)
    print(text, end="")
    _write(out_dir, "certify",
           {"beta": beta, "rect": [rect.a, rect.b, rect.c, rect.d]}, 0,
           {"certificate.json": text})
    return EXIT_OK if cert.verdict else EXIT_INCONCLUSIVE


def cmd_spectrum(args) -> int:
    cfg, spec, disc, opts = load_config(args.config)
    out_dir = _out_dir(_config_out(args, cfg))
    rep = compute_spectrum(spec, disc, opts)
    print(f"count {rep.count}  stable {rep.stable}  "
          f"threshold {rep.threshold:.12g}  lam1 {rep.eigenvalues[0]:.12g}  "
          f"flags {rep.flags}")
    _write(out_dir, "spectrum", cfg, opts.seed,
           {"report.json": _emit(rep.as_dict()),
            "eigenvalues.csv": _csv(CSV_COLUMNS, rep.rows())})
    return _report_exit(rep.flags)


def cmd_sweep(args) -> int:
    cfg, section, betas, disc, opts = load_config(args.config, sweep=True)
    out_dir = _out_dir(_config_out(args, cfg))
    reports = sweep_beta(section, betas, disc, opts)
    for rep in reports:
        print(f"beta {rep.beta:.12g}  count {rep.count}  "
              f"gap {rep.gap:.12g}  flags {rep.flags}")
    _write(out_dir, "sweep", cfg, opts.seed,
           {"sweep.csv": _csv(CSV_COLUMNS, [row for rep in reports
                                            for row in rep.rows()]),
            "reports.json": _emit([rep.as_dict() for rep in reports])})
    return max(_report_exit(rep.flags) for rep in reports)


def cmd_convergence(args) -> int:
    cfg, spec, disc, opts = load_config(args.config)
    out_dir = _out_dir(_config_out(args, cfg))
    rep = compute_spectrum(spec, disc, opts)
    rows = _convergence_rows(rep, disc)
    for row in rows:
        if row["j"] == 0:
            print(f"rung {row['rung']}  lam1 {_cell(row['lambda'])}  "
                  f"diff {_cell(row['diff'])}  ratio {_cell(row['ratio'])}")
    _write(out_dir, "convergence", cfg, opts.seed,
           {"convergence.csv": _csv(CONVERGENCE_COLUMNS, rows)})
    return _report_exit(rep.flags)


CONVERGENCE_COLUMNS = ("rung", "L", "nx", "n1", "n2", "j", "lambda", "diff",
                       "ratio", "extrapolated", "est")


def _convergence_rows(rep, disc: DiscretizationSpec) -> list[dict]:
    """Mesh-series table of the solved values with successive differences
    and their ratios; a clean second-order run shows ratios near 4."""
    ts = disc.l_steps - 1
    series = [rr for rr in rep.rungs if rr.grid.s == ts]
    series.sort(key=lambda rr: rr.grid.r)
    vals = [rr.solved for rr in series]
    rows = []
    for j in range(len(rep.solved)):
        prev_diff = None
        for i, rr in enumerate(series):
            g = rr.grid
            row = {"rung": f"r{g.r}s{g.s}", "L": g.L, "nx": g.nx,
                   "n1": g.n1, "n2": g.n2, "j": j, "lambda": vals[i][j],
                   "diff": "", "ratio": "", "extrapolated": "", "est": ""}
            if i > 0:
                diff = vals[i - 1][j] - vals[i][j]
                row["diff"] = diff
                if prev_diff is not None and diff != 0.0:
                    row["ratio"] = prev_diff / diff
                prev_diff = diff
            if i == len(series) - 1:
                row["extrapolated"] = rep.solved[j]
                row["est"] = rep.solved_est[j]
            rows.append(row)
    return rows


def cmd_oracle_compare(args) -> int:
    rect = _parse_rect(args.rect)
    spec = WaveguideSpec(_beta_arg(args), rect)
    try:
        nx, n1, n2 = (int(v) for v in args.grid.split(","))
    except ValueError:
        raise ConfigError(f"--grid needs three integers nx,n1,n2, got "
                          f"{args.grid!r}") from None
    disc = DiscretizationSpec(nx=nx, n1=n1, n2=n2, L=args.L,
                              refine=2, l_steps=2)
    out_dir = _out_dir(args.out)
    sep = separation_check(spec, disc, EigOptions(k=args.k))
    out = {
        "beta": sep.beta,
        "max_rel": sep.max_rel,
        "values3d": sep.values3d.tolist(),
        "synthesized": sep.synthesized.tolist(),
        "pairs": [list(p) for p in sep.pairs],
    }
    text = _emit(out)
    print(text, end="")
    _write(out_dir, "oracle-compare",
           {"beta": sep.beta, "rect": [rect.a, rect.b, rect.c, rect.d],
            "grid": args.grid, "L": args.L, "k": args.k}, 0,
           {"separation.json": text})
    return EXIT_OK


def _beta_arg(args) -> float:
    """``--beta``, held to the rule of the configs' beta."""
    return _check_betas([args.beta])[0]


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shearspec",
        description="Spectra of Dirichlet Laplacians on broken sheared "
                    "waveguides.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("thresholds",
                       help="closed-form and numeric spectral thresholds")
    t.add_argument("--beta", type=float, required=True)
    t.add_argument("--rect", help="a,b,c,d")
    t.add_argument("--mask", help="mask file path")
    t.add_argument("--grid-factor", type=int, default=None,
                   help="mask refinement factor for the numeric modes")
    t.set_defaults(func=cmd_thresholds)

    c = sub.add_parser("certify",
                       help="variational existence certificate")
    c.add_argument("--beta", type=float, required=True)
    c.add_argument("--rect", required=True, help="a,b,c,d")
    c.add_argument("--out", help="output directory")
    c.set_defaults(func=cmd_certify)

    s = sub.add_parser("spectrum", help="one ladder run from a JSON config")
    s.add_argument("config")
    s.add_argument("--out", help="output directory (overrides config)")
    s.set_defaults(func=cmd_spectrum)

    w = sub.add_parser("sweep", help="ladder runs over a beta grid")
    w.add_argument("config")
    w.add_argument("--out", help="output directory (overrides config)")
    w.set_defaults(func=cmd_sweep)

    v = sub.add_parser("convergence",
                       help="mesh-series table with h^2 diagnostics")
    v.add_argument("config")
    v.add_argument("--out", help="output directory (overrides config)")
    v.set_defaults(func=cmd_convergence)

    o = sub.add_parser("oracle-compare",
                       help="discrete tensor-separation identity check")
    o.add_argument("--beta", type=float, required=True)
    o.add_argument("--rect", required=True, help="a,b,c,d")
    o.add_argument("--grid", default="10,8,8", help="nx,n1,n2")
    o.add_argument("--L", type=float, default=4.0)
    o.add_argument("--k", type=int, default=4)
    o.add_argument("--out", help="output directory")
    o.set_defaults(func=cmd_oracle_compare)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # last-resort solver guard
        print(f"solver failure: {str(e) or type(e).__name__}",
              file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
