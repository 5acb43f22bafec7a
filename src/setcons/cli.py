"""Command-line front end.

Subcommands::

    setcons analyze FILE       contractivity, equilibria, consensus, local attractiveness
    setcons simulate FILE      round-based run with optional random initial sets
    setcons encode FILE        partition table and per-variable bit vectors
    setcons consensus FILE     bounds of the common values the map fixes
    setcons equilibria FILE    per-cell equilibrium summary

``consensus`` prints ``exists``, whether a nonempty common set of the free
agents is fixed, and ``region`` and, when not empty, ``lower`` (never for a
linear system): the fixed common sets are exactly those between the two.
``analyze`` reports ``consensus`` for linear systems only.

Exit codes: 0 success, 1 input diagnostics, a usage error or a closed
stdout, 2 an enumeration cap was hit.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import analysis, caps as caps_mod, dsl, sim
from .encoding import encode_system
from .errors import CapExceeded, SetconsError
from .expr import is_linear


def _load(path: str) -> dsl.SystemSpec:
    """Parse the file at ``path`` as written: with no newline translation, a
    ``\r`` is a blank in a file just as in :func:`dsl.parse`."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise SetconsError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SetconsError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})")
    return dsl.parse(text)


def _names(spec: dsl.SystemSpec) -> tuple[str, ...]:
    """The names of the map's variables: the states, then the constants."""
    return spec.variables + tuple(name for name, _ in spec.constants)


def _cmd_analyze(args, caps) -> dict:
    spec = _load(args.file)
    f, names = spec.set_map(), _names(spec)
    enc = encode_system(f, spec.initials)
    verdict = analysis.is_contractive_sbm(f)
    report = {
        "contractive": verdict.contractive,
        "witness_order": [names[i] for i in verdict.witness.order] if verdict.witness else None,
        "q": verdict.q,
        "cycle": [names[i] for i in verdict.cycle] if verdict.cycle else None,
    }
    equil = analysis.equilibria_sbm(f, enc.partition, caps, list_all=False)
    report["equilibria_summary"] = equil.to_json_dict()
    report["consensus"] = analysis.consensus_bounds(enc).to_json_dict() if is_linear(f) else None
    local = None
    if verdict.contractive:
        fixed = analysis.global_fixed_point(enc, spec.initials + f.frozen_values, verdict=verdict)
        local = {
            "equilibrium": [str(s) for s in fixed[: len(spec.variables)]],
            "attractive": analysis.is_locally_attractive_sbm(enc, fixed),
        }
    report["local"] = local
    return report


def _cmd_simulate(args, caps):
    spec = _load(args.file)
    traj = sim.simulate(
        spec,
        max_rounds=args.rounds,
        seed=args.seed,
        random_init=args.random_init,
    )
    if args.format == "text":
        out = [sim.render_timeline(traj, traj.window)]
        out.append(f"transient={traj.transient} period={traj.period} closed={traj.closed}")
        if traj.consensus is not None:
            out.append(f"consensus: {traj.consensus}")
        return "\n".join(out)
    return traj


def _cmd_encode(args, caps) -> dict:
    spec = _load(args.file)
    enc = encode_system(spec.set_map(), spec.initials)
    words = enc.encode_state(spec.initials + enc.set_map.frozen_values)
    report = enc.partition.to_json_dict()
    report["vars"] = {
        name: "".join(str((word >> h) & 1) for h in range(enc.kappa))
        for name, word in zip(_names(spec), words)
    }
    return report


def _cmd_consensus(args, caps) -> dict:
    spec = _load(args.file)
    return analysis.consensus_bounds(encode_system(spec.set_map(), spec.initials)).to_json_dict()


def _cmd_equilibria(args, caps):
    spec = _load(args.file)
    enc = encode_system(spec.set_map(), spec.initials)
    return analysis.equilibria_sbm(enc.set_map, enc.partition, caps)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error with argparse's text but exit code 1: an input
    diagnostic, as exit code 2 stands for a cap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every
    :func:`main` call: parsing fills a new namespace and leaves it as it is."""
    parser = _ArgumentParser(prog="setcons", description=__doc__,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(fn=fn)
        return p

    add("analyze", _cmd_analyze)
    p_sim = add("simulate", _cmd_simulate)
    p_sim.add_argument("--rounds", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--random-init", action="store_true")
    add("encode", _cmd_encode)
    add("consensus", _cmd_consensus)
    add("equilibria", _cmd_equilibria)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        caps = caps_mod.from_env()
        result = args.fn(args, caps)
    except dsl.DslError as exc:
        for diag in exc.diagnostics:
            print(diag.render(), file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except SetconsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not isinstance(result, str):
        result = _render_text(dsl._jsonify(result)) if args.format == "text" else dsl.to_json(result)
    try:
        print(result, flush=True)
    except BrokenPipeError:
        # The reader left: the flush at exit goes to the null device instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def _render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(obj, list):
        return "\n".join(
            _render_text(v, indent) if isinstance(v, (dict, list)) else f"{pad}- {v}"
            for v in obj
        )
    return f"{pad}{obj}"


if __name__ == "__main__":
    raise SystemExit(main())
