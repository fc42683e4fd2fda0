"""Command-line front end.

Every subcommand is deterministic given its full flag set (seed and thread
count included): rerunning produces byte-identical files.  File outputs get
a JSON manifest sidecar recording the invocation and a sha256 checksum of
the payload.

In-process calls of :func:`main` share one argument parser, built on first
use: parsing writes only into each call's own namespace, and every default
is an immutable value.

Exit codes: 0 success, 2 usage error, 3 data error, 4 search/compute error.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

from . import __version__
from .efficiency import AreVariant, are, dominance_grid, efficacy_t, efficacy_w
from .errors import (
    DataFileError,
    DomainError,
    InsufficientDataError,
    MixrankError,
    SearchOverflowError,
)
from .mixture import MixtureParams
from .power import (
    SimConfig,
    TestKind,
    empirical_are,
    min_sample_size,
    power_ratio_surface,
)
from .rank_tests import Sidedness, WilcoxonMode, exact_null_pmf, t_test, wilcoxon_test

_SIDEDNESS = {"greater": Sidedness.GREATER, "less": Sidedness.LESS, "two": Sidedness.TWO_SIDED}
_VARIANTS = {"derived": AreVariant.EFFICACY_DERIVED, "printed": AreVariant.AS_PRINTED}
_MODES = {
    "exact": WilcoxonMode.EXACT,
    "normal": WilcoxonMode.NORMAL_APPROX,
    "auto": WilcoxonMode.AUTO,
}


def _fmt(x: float) -> str:
    """Locale-proof decimal rendering at 9 significant digits."""
    return format(float(x), ".9g")


def _list_of(convert, noun: str):
    def parse(text: str) -> list:
        try:
            values = [convert(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            message = f"not a comma-separated {noun} list: {text!r}"
            raise argparse.ArgumentTypeError(message) from exc
        if not values:
            raise argparse.ArgumentTypeError("empty value list")
        return values

    return parse


_float_list = _list_of(float, "float")
_int_list = _list_of(int, "integer")


def _float_pair(text: str) -> tuple[float, float]:
    values = _float_list(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    return values[0], values[1]


def _plain(obj):
    """JSON-ready copy of ``obj``.

    Dataclasses and named tuples become dicts of their fields, Enums their
    values, tuples lists; dicts and lists are copied recursively.
    """
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if hasattr(obj, "_asdict"):
        return _plain(obj._asdict())
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(item) for item in obj]
    return obj


def _json(obj) -> str:
    """The one JSON rendering of every payload, partial result and manifest."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n"


def _write_output(path: str, payload: str, subcommand: str, args: argparse.Namespace) -> None:
    """Write ``payload`` to ``path``, with the reproducibility manifest as a sidecar."""
    data = payload.encode("utf-8")
    out = Path(path)
    manifest = {
        "subcommand": subcommand,
        "parameters": {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func",) and not key.startswith("_")
        },
        "master_seed": int(getattr(args, "seed", 0) or 0),
        "parallelism": int(getattr(args, "threads", 1) or 1),
        "tool_version": __version__,
        "output_checksum": "sha256:" + hashlib.sha256(data).hexdigest(),
    }
    try:
        out.write_bytes(data)
        out.with_name(out.name + ".manifest.json").write_text(_json(manifest), encoding="utf-8")
    except OSError as exc:
        raise DataFileError(f"cannot write output file {path}: {exc}") from exc


def _emit(args: argparse.Namespace, subcommand: str, payload: str) -> None:
    if getattr(args, "out", None):
        _write_output(args.out, payload, subcommand, args)
    else:
        sys.stdout.write(payload)


def _sim_config(args: argparse.Namespace) -> SimConfig:
    return SimConfig(
        alpha=args.alpha,
        sidedness=_SIDEDNESS[args.sided],
        nreps=args.nreps,
        master_seed=args.seed,
        max_parallelism=args.threads,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_are(args: argparse.Namespace) -> None:
    variant = _VARIANTS[args.variant]
    value = are(args.mu, args.sigma, variant)
    eff_w = efficacy_w(args.mu, args.sigma)
    eff_t = efficacy_t(args.mu, args.sigma)
    if args.json:
        payload = _json(
            {
                "are": value,
                "variant": variant,
                "mu": args.mu,
                "sigma": args.sigma,
                "efficacy_w": eff_w,
                "efficacy_t": eff_t,
            }
        )
    else:
        payload = (
            f"are {_fmt(value)}\n"
            f"variant {variant.value}\n"
            f"efficacy_w slope={_fmt(eff_w.slope)} null_sd={_fmt(eff_w.null_sd)} "
            f"efficacy={_fmt(eff_w.efficacy)}\n"
            f"efficacy_t slope={_fmt(eff_t.slope)} null_sd={_fmt(eff_t.null_sd)} "
            f"efficacy={_fmt(eff_t.efficacy)}\n"
        )
    _emit(args, "are", payload)


def cmd_grid(args: argparse.Namespace) -> None:
    grid = dominance_grid(
        args.mu_range, args.sigma_range, args.steps_mu, args.steps_sigma, _VARIANTS[args.variant]
    )
    sigmas = [_fmt(sigma) for sigma in grid.sigma_axis.tolist()]
    lines = ["mu,sigma,are"]
    for mu, row in zip(grid.mu_axis.tolist(), grid.values.tolist()):
        mu_label = _fmt(mu)
        lines.extend(f"{mu_label},{sigma},{_fmt(value)}" for sigma, value in zip(sigmas, row))
    _emit(args, "grid", "\n".join(lines) + "\n")


def cmd_curve(args: argparse.Namespace) -> None:
    config = _sim_config(args)
    rows = power_ratio_surface(args.mu, args.sigma, args.theta, args.n, config)
    lines = ["theta,n,power_w,se_w,power_t,se_t,ratio,flag"]
    for row in rows:
        flag = "near_null" if row.flagged else "ok"
        lines.append(
            f"{_fmt(row.theta)},{row.n},{_fmt(row.power_w)},{_fmt(row.se_w)},"
            f"{_fmt(row.power_t)},{_fmt(row.se_t)},{_fmt(row.ratio)},{flag}"
        )
    _emit(args, "curve", "\n".join(lines) + "\n")


@contextmanager
def _partial_on_overflow(key: str):
    """On a search overflow, print the completed work under ``key`` and re-raise."""
    try:
        yield
    except SearchOverflowError as exc:
        sys.stdout.write(_json({"error": str(exc), key: exc.partial}))
        raise


def cmd_nmin(args: argparse.Namespace) -> None:
    config = _sim_config(args)
    params = MixtureParams(args.theta, args.mu, args.sigma)
    with _partial_on_overflow("partial_trace"):
        result = min_sample_size(TestKind(args.test), params, args.power, config, args.n_cap)
    _emit(args, "nmin", _json(result))


def cmd_emp_are(args: argparse.Namespace) -> None:
    config = _sim_config(args)
    with _partial_on_overflow("rows"):
        rows = empirical_are(args.mu, args.sigma, args.theta, args.power, config, args.n_cap)
    _emit(args, "emp-are", _json({"rows": rows}))


def _read_data_file(path: str) -> list[float]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFileError(f"cannot read data file {path}: {exc}") from exc
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            value = float(stripped)
        except ValueError:
            raise DataFileError(f"{path}: unparsable value at line {lineno}: {stripped!r}")
        if not math.isfinite(value):
            raise DataFileError(f"{path}: non-finite value at line {lineno}: {stripped!r}")
        values.append(value)
    if not values:
        raise DataFileError(f"{path}: no data values found")
    return values


def cmd_test(args: argparse.Namespace) -> None:
    data = _read_data_file(args.data)
    sidedness = _SIDEDNESS[args.sided]
    outcomes = {}
    try:
        if args.test in ("t", "both"):
            outcomes["t"] = t_test(data, sidedness)
        if args.test in ("wilcoxon", "both"):
            outcomes["wilcoxon"] = wilcoxon_test(data, sidedness, _MODES[args.mode])
    except MixrankError as exc:
        raise DataFileError(f"{args.data}: {exc}") from exc
    _emit(args, "test", _json({"n": len(data), "outcomes": outcomes}))


def cmd_null_dist(args: argparse.Namespace) -> None:
    pmf = exact_null_pmf(args.n)
    total = 1 << pmf.n
    # count / total is NullPmf.probability's correctly rounded quotient, in _fmt's format.
    lines = ["k,count,probability"]
    lines.extend(f"{k},{count},{count / total:.9g}" for k, count in enumerate(pmf.counts))
    _emit(args, "null-dist", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_sim_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=0.05, help="significance level")
    sub.add_argument(
        "--sided", choices=sorted(_SIDEDNESS), default="greater", help="alternative direction"
    )
    sub.add_argument("--nreps", type=int, default=10_000, help="Monte Carlo replications")
    sub.add_argument("--seed", type=int, default=0, help="master seed")
    sub.add_argument("--threads", type=int, default=1, help="worker threads")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixrank",
        description=(
            "Compare the one-sample t test and the Wilcoxon signed-rank test "
            "under contaminated-Gaussian alternatives."
        ),
    )
    parser.add_argument("--version", action="version", version=f"mixrank {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("are", help="closed-form relative efficiency at one (mu, sigma)")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="derived")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", help="write to file (with manifest) instead of stdout")
    p.set_defaults(func=cmd_are)

    p = subs.add_parser("grid", help="relative-efficiency CSV over a (mu, sigma) lattice")
    p.add_argument("--mu-range", type=_float_pair, required=True, metavar="LO,HI")
    p.add_argument("--sigma-range", type=_float_pair, required=True, metavar="LO,HI")
    p.add_argument("--steps-mu", type=int, default=50)
    p.add_argument("--steps-sigma", type=int, default=50)
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="derived")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_grid)

    p = subs.add_parser(
        "curve",
        aliases=["power"],
        help="Monte Carlo power-ratio CSV over a (theta, n) lattice",
    )
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--theta", type=_float_list, required=True, metavar="T1,T2,...")
    p.add_argument("--n", type=_int_list, required=True, metavar="N1,N2,...")
    _add_sim_flags(p)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_curve)

    p = subs.add_parser("nmin", help="minimal sample size reaching a target power")
    p.add_argument("--test", choices=[k.value for k in TestKind], required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--power", type=float, required=True, help="target power")
    _add_sim_flags(p)
    p.add_argument("--n-cap", type=int, default=1_000_000, help="largest n a search probes")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_nmin)

    p = subs.add_parser(
        "emp-are", help="empirical efficiency: sample-size ratios along a theta schedule"
    )
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument(
        "--theta", type=_float_list, required=True, metavar="T1,T2,...",
        help="decreasing schedule of mixing proportions",
    )
    p.add_argument("--power", type=float, required=True, help="target power")
    _add_sim_flags(p)
    p.add_argument("--n-cap", type=int, default=1_000_000, help="largest n a search probes")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_emp_are)

    p = subs.add_parser("test", help="run the tests on a newline-delimited data file")
    p.add_argument("--data", required=True, help="path to the data file")
    p.add_argument("--test", choices=["t", "wilcoxon", "both"], default="both")
    p.add_argument("--sided", choices=sorted(_SIDEDNESS), default="two")
    p.add_argument("--mode", choices=sorted(_MODES), default="auto")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_test)

    p = subs.add_parser("null-dist", help="exact signed-rank null distribution as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_null_dist)

    return parser


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Join a value like ``-1,1`` to the flag before it, as ``--flag=-1,1``.

    argparse takes any word that starts with a minus sign and is not a plain
    negative number for an option, so ``--mu-range -1,1`` would lack its
    value.  No mixrank option holds a comma, so such a word is always a value.
    """
    joined: list[str] = []
    for word in argv:
        flag = joined[-1] if joined else ""
        if word.startswith("-") and "," in word and flag.startswith("--") and "=" not in flag:
            joined[-1] += "=" + word
        else:
            joined.append(word)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
    try:
        args.func(args)
    except DataFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SearchOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, InsufficientDataError) as exc:
        # Bad flag values are usage errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MixrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
