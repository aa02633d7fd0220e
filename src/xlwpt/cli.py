"""Command-line benchmark harness.

Subcommands: solve, sweep, powermap, bench. Config keys can be overridden
with repeated --set section.key=value flags.
"""

import argparse
import json
import os
import sys
import warnings

from .baselines import pa_sa
from .bench import SweepSpec, bench_timing, probe_grid, run_methods, sweep, write_powermap
from .pa import SolverFault
from .scenario import ConfigError, read_scenario_json, scenario_from_dict


def _apply_overrides(path, overrides):
    raw = {} if path is None else read_scenario_json(path)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("--set expects section.key=value, got %r" % item)
        key, value = item.split("=", 1)
        parts = key.split(".")
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass  # keep as string
        node = raw
        for p in parts[:-1]:
            if not isinstance(node, dict):
                break
            node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError("--set %s: its section is not a JSON object" % key)
        node[parts[-1]] = value
    return scenario_from_dict(raw)


def _int_values(text):
    """The integers of a comma-separated ``--values`` list, else ConfigError."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError("--values expects comma-separated integers, got %r" % text)


def _out_path(path, is_dir):
    """``path`` if an output directory or file can go there, else ConfigError."""
    probe = os.path.abspath(path)
    while is_dir and not os.path.exists(probe):
        probe = os.path.dirname(probe)  # the directory makedirs builds on
    if os.path.isdir(probe) != is_dir or not os.path.isdir(os.path.dirname(probe)):
        raise ConfigError("cannot write output to %s" % path)
    return path


def _cmd_solve(args):
    cfg = _apply_overrides(args.config, args.set)
    outdir = _out_path(args.out or cfg.output_dir, True)
    results, faults = run_methods(cfg, outdir=outdir)
    for r in results:
        eta = "" if r.eta is None else " eta=%.4g" % r.eta
        print("%-6s hpe=%.6g%s active=%d/%d %.3gs"
              % (r.method, r.hpe, eta, r.active_count, cfg.n_sub, r.wall_clock))
    for method, msg in faults.items():
        print("%-6s FAULT: %s" % (method, msg), file=sys.stderr)
    return 1 if faults else 0


def _cmd_sweep(args):
    cfg = _apply_overrides(args.config, args.set)
    spec = SweepSpec(variable=args.var, values=_int_values(args.values),
                     repetitions=args.reps)
    rows = sweep(cfg, spec, _out_path(args.out or cfg.output_dir, True))
    faults = [r for r in rows if r.get("fault")]
    print("sweep complete: %d rows, %d faults" % (len(rows), len(faults)))
    return 1 if faults else 0


def _cmd_powermap(args):
    cfg = _apply_overrides(args.config, args.set)
    if args.res < 1:
        raise ConfigError("--res must be >= 1, got %d" % args.res)
    path = _out_path(args.out or "powermap.csv", False)
    try:
        probes = probe_grid(cfg, args.plane, resolution=args.res)
    except MemoryError:
        raise ConfigError("--res %d: a %dx%d probe raster does not fit in memory"
                          % (args.res, args.res, args.res)) from None
    ch = cfg.channel_set()
    result = pa_sa(ch, cfg.pa_config(), cfg.power, cfg.sa_config())
    write_powermap(probes, args.plane, result.allocation, ch, path)
    print("power map (%s plane, %dx%d) written to %s"
          % (args.plane, args.res, args.res, path))
    return 0


def _cmd_bench(args):
    cfg = _apply_overrides(args.config, args.set)
    _, growth = bench_timing(cfg, s_values=_int_values(args.values),
                             outdir=_out_path(args.out or cfg.output_dir, True))
    for method, factor in sorted(growth.items()):
        print("%-6s wall-clock growth per added sub-array: x%.3g"
              % (method, factor))
    return 0


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as one ``warning:`` line, without the library's source."""
    print("warning: %s" % message, file=sys.stderr)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xlwpt",
        description="HPE benchmark harness for modular XL-MIMO wireless "
                    "power transfer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", nargs="?", default=None,
                       help="JSON scenario file (omit for defaults)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key, e.g. geometry.S=8")
        p.add_argument("--out", default=None, help="output directory/file")

    p = sub.add_parser("solve", help="run the configured methods once")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="sweep S or V over a value list")
    common(p)
    p.add_argument("--var", choices=("S", "V"), default="S")
    p.add_argument("--values", default="2,4,6,8")
    p.add_argument("--reps", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("powermap", help="emit a beamfocusing raster CSV")
    common(p)
    p.add_argument("--plane", choices=("xz", "yz", "xy"), default="xz")
    p.add_argument("--res", type=int, default=40)
    p.set_defaults(func=_cmd_powermap)

    p = sub.add_parser("bench", help="timing comparison PA-SA vs PA-ES")
    common(p)
    p.add_argument("--values", default="6,7,8,9,10",
                   help="comma-separated sub-array counts")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (ConfigError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        except SolverFault as exc:
            print("solver fault: %s" % exc, file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
