"""Command-line benchmark harness.

Subcommands: solve, sweep, powermap, bench. Config keys can be overridden
with repeated --set section.key=value flags.
"""

import argparse
import json
import sys

from .baselines import pa_sa
from .bench import SweepSpec, bench_timing, emit_powermap, run_methods, sweep
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


def _cmd_solve(args):
    cfg = _apply_overrides(args.config, args.set)
    outdir = args.out or cfg.output_dir
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
    spec = SweepSpec(variable=args.var,
                     values=tuple(int(v) for v in args.values.split(",")),
                     repetitions=args.reps)
    rows = sweep(cfg, spec, args.out or cfg.output_dir)
    faults = [r for r in rows if r.get("fault")]
    print("sweep complete: %d rows, %d faults" % (len(rows), len(faults)))
    return 1 if faults else 0


def _cmd_powermap(args):
    cfg = _apply_overrides(args.config, args.set)
    ch = cfg.channel_set()
    result = pa_sa(ch, cfg.pa_config(), cfg.power, cfg.sa_config())
    path = args.out or "powermap.csv"
    emit_powermap(cfg, result.allocation, plane=args.plane,
                  resolution=args.res, path=path, ch=ch)
    print("power map (%s plane, %dx%d) written to %s"
          % (args.plane, args.res, args.res, path))
    return 0


def _cmd_bench(args):
    cfg = _apply_overrides(args.config, args.set)
    values = tuple(int(v) for v in args.values.split(","))
    _, growth = bench_timing(cfg, s_values=values,
                             outdir=args.out or cfg.output_dir)
    for method, factor in sorted(growth.items()):
        print("%-6s wall-clock growth per added sub-array: x%.3g"
              % (method, factor))
    return 0


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
