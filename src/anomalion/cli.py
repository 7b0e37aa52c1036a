"""Command-line front end.

Subcommands: anomaly2d, anomaly1d, eta-check, crossed, spt, reproduce-ccz.
Reports go to stdout as a human summary and, with --report, to a JSON file
under schema "anomalion/1".  All randomness flows from --seed, so identical
configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys

from .anomaly import (
    anomaly_2d,
    build_truncation_1d,
    build_truncation_2d,
    nayak_else_1d,
    regauge_beta,
    regauge_rho,
    spt_relative_1d,
    spt_trivialize_2d,
    tau_cochain,
)
from .circuits import (
    BUILTIN_ACTIONS,
    CircuitAction,
    MarginError,
    action_from_config,
    builtin_action,
    cluster_entangler_1d,
    validate_action,
)
from .crossed import (
    ActionTable,
    CrossedModule,
    CrossedSquare,
    KernelNotCyclic,
    TwoCrossedModule,
    all_sections,
    cm_pi1,
    homotopy_groups,
    postnikov3,
    to_two_crossed_module,
    validate_crossed_module,
    validate_crossed_square,
    validate_two_crossed_module,
    verify_lattice_square,
)
from .groups import FiniteGroup, GroupHom, classify
from .lattice import Region, Window
from .pairing import StabilizationError, _stabilization_radius, run_identity_suite
from .symop import ALL_PLUS, ALL_ZEROS, format_op
from .values import read_fields
from .sampling import random_boundary_gamma, random_inner, region_sites

SCHEMA = "anomalion/1"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


def _parse_window(text: str, margin: int, chain: bool) -> Window:
    """The window of --window N or WxH (a chain takes the first size) and
    --margin; a malformed size or margin is a config error."""
    try:
        sizes = [int(n) for n in text.split("x")]
        if len(sizes) > 2:
            raise ValueError("expected N or WxH")
        if chain:
            return Window.chain(sizes[0], margin)
        return Window.centered(sizes[0], sizes[-1], margin)
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r} with margin {margin}: {exc}") from exc


def _at_least(low: int, n: int, flag: str) -> int:
    if n < low:
        raise ConfigError(f"{flag} must be at least {low}, got {n}")
    return n


def _read_json(path: str, what: str) -> dict:
    """The JSON object in path; a missing, unreadable or malformed file is a config error."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} is not a JSON object")
    return obj


def _from_json(build, obj: dict, *args):
    """build(obj, *args), with a missing, unknown, mistyped or invalid entry
    of obj (a group table that is not a group, say) as a config error."""
    try:
        return build(obj, *args)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed input: {type(exc).__name__}: {exc}") from exc


def _load_action(name_or_path: str, window: Window) -> CircuitAction:
    """The builtin action of that name, or the action config at that path,
    on window.  A builtin on the other window kind, a config that does not
    define a group action or whose action the window is too small to
    validate, and a margin below three times the action's range are config
    errors."""
    if name_or_path in BUILTIN_ACTIONS:
        try:
            action = builtin_action(name_or_path, window)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        obj = _read_json(name_or_path, "action config")
        action = _from_json(action_from_config, obj, window)
        try:
            violations = validate_action(action)
        except MarginError as exc:
            raise ConfigError(f"window {_size(window)} with margin {window.margin}: {exc}") from exc
        if violations:
            raise ConfigError(f"config does not define a group action: {violations[:3]}")
    if window.margin < 3 * action.total_range():
        raise ConfigError("margin must be at least three times the action range")
    return action


def _emit(report: dict, path: str | None):
    """Write report, with the schema added, to path as JSON; values such as
    a Cochain or a FiniteGroup are written as their to_json().  A path that
    cannot be written is a config error."""
    if path:
        try:
            with open(path, "w") as fh:
                json.dump({"schema": SCHEMA, **report}, fh, indent=2, sort_keys=True,
                          default=lambda o: o.to_json())
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc


def _size(window: Window) -> str:
    """The window's size as --window gives it: N for a chain, WxH otherwise."""
    width = window.x_max - window.x_min + 1
    return str(width) if window.is_chain else f"{width}x{window.y_max - window.y_min + 1}"


def _window_fields(window: Window) -> dict:
    """The window as a report records it: its x range, then its y range
    unless it is a chain, and its margin."""
    bounds = [window.x_min, window.x_max]
    if not window.is_chain:
        bounds += [window.y_min, window.y_max]
    return {"window": bounds, "margin": window.margin}


def _verdicts(rep: dict) -> str:
    return f"cocycle={rep['is_cocycle']} trivial={rep['trivial']} class={rep['matched_class']}"


def _anomaly_2d_checked(action: CircuitAction, count: int, seed: int):
    """The truncation data of action, its anomaly_2d report and whether tau
    is a cocycle.  With count > 0 the report records count random beta and
    as many rho~ regaugings, and tau must not move under any of them."""
    import random

    data = build_truncation_2d(action)
    rep = anomaly_2d(action, data)
    if not _at_least(0, count, "--check-gauge"):
        return data, rep, rep["is_cocycle"]
    rng = random.Random(seed)
    tau0, G = rep["cochain"], data.group
    disk_sites = region_sites(data.window, Region.origin_disk(2))
    inner_ok = 0
    for _ in range(count):
        v = {(g, h): random_inner(rng, disk_sites) for g in G.elements() for h in G.elements()}
        if tau_cochain(regauge_beta(data, v)) == tau0:
            inner_ok += 1
    rho_ok = 0
    for _ in range(count):
        gamma = random_boundary_gamma(rng, data.window, G, skip=0.4)
        if tau_cochain(regauge_rho(data, gamma)) == tau0:
            rho_ok += 1
    ok = inner_ok == count and rho_ok == count
    rep["gauge_checks"] = {"beta_regauge_pass": inner_ok, "rho_regauge_pass": rho_ok, "count": count, "ok": ok}
    return data, rep, rep["is_cocycle"] and ok


def cmd_anomaly2d(args) -> int:
    window = _parse_window(args.window, args.margin, chain=False)
    action = _load_action(args.action, window)
    _, rep, ok = _anomaly_2d_checked(action, args.check_gauge, args.seed)
    if args.check_window:
        grown = Window.centered(
            window.x_max - window.x_min + 1 + 4,
            window.y_max - window.y_min + 1 + 4,
            window.margin + 2,
        )
        stable = anomaly_2d(_load_action(args.action, grown))["cochain"] == rep["cochain"]
        rep["window_stability"] = {"stable": stable, "margin_grown_to": window.margin + 2}
        ok = ok and stable
    print(f"anomaly2d {args.action}: {_verdicts(rep)}")
    _emit({**rep, "command": "anomaly2d", "action": args.action, "seed": args.seed, **_window_fields(window)},
          args.report)
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_anomaly1d(args) -> int:
    window = _parse_window(args.window, args.margin, chain=True)
    action = _load_action(args.action, window)
    data = build_truncation_1d(action)
    rep = nayak_else_1d(action, data)
    ok = rep["is_cocycle"]
    if args.check_window:
        grown = Window.chain(window.x_max - window.x_min + 1 + 4, window.margin + 2)
        stable = nayak_else_1d(_load_action(args.action, grown))["cochain"] == rep["cochain"]
        rep["window_stability"] = {"stable": stable}
        ok = ok and stable
    print(f"anomaly1d {args.action}: {_verdicts(rep)}")
    _emit({**rep, "command": "anomaly1d", "action": args.action, "seed": args.seed, **_window_fields(window)},
          args.report)
    return EXIT_OK if ok else EXIT_ASSERTION


def _pairing_window(args) -> Window:
    """The window of --window and --margin; one too small for the pairing
    to stabilize on is a config error."""
    window = _parse_window(args.window, args.margin, chain=False)
    try:
        _stabilization_radius(window)
    except StabilizationError as exc:
        raise ConfigError(f"window {args.window!r} with margin {args.margin}: {exc}") from exc
    return window


def cmd_eta_check(args) -> int:
    window = _pairing_window(args)
    rep = run_identity_suite(window, n_pairs=_at_least(1, args.pairs, "--pairs"), seed=args.seed)
    verdict = "all passed" if rep["ok"] else f"{len(rep['failures'])} failures"
    print(f"eta-check: {len(rep['checks'])} identity suites on {rep['pairs']} pairs; {verdict}")
    _emit({**rep, "command": "eta-check", "seed": args.seed}, args.report)
    return EXIT_OK if rep["ok"] else EXIT_ASSERTION


def _table(obj: dict, key: str, shape: tuple[FiniteGroup, ...], values: FiniteGroup):
    """obj[key] as nested tuples, one level per group of shape, each level
    as long as that group's order, and ints in range(values.order) inside;
    any other shape is a config error."""
    def check(t, dims, at):
        if not dims:
            if type(t) is not int or not 0 <= t < values.order:
                raise ConfigError(f"{key}{at} = {t!r} is not in range({values.order})")
            return t
        if not isinstance(t, list) or len(t) != dims[0].order:
            raise ConfigError(f"{key}{at} is not a list of {dims[0].order} entries")
        return tuple(check(r, dims[1:], f"{at}[{i}]") for i, r in enumerate(t))
    return check(obj[key], shape, "")


# Each crossed structure kind as JSON, and the validator of its class.  The
# class's fields are the groups, then the tables; a table is (key, the groups
# that index it, the group of its entries, GroupHom or ActionTable to wrap it
# in, or None to keep it as nested tuples).
CROSSED_KINDS = {
    "crossed_module": (CrossedModule, validate_crossed_module, "MN", (
        ("bd", "M", "N", GroupHom), ("act", "NM", "M", ActionTable),
    )),
    "crossed_square": (CrossedSquare, validate_crossed_square, "LMNP", (
        ("f", "L", "M", GroupHom), ("g", "L", "N", GroupHom), ("v", "M", "P", GroupHom),
        ("u", "N", "P", GroupHom), ("act_L", "PL", "L", ActionTable), ("act_M", "PM", "M", ActionTable),
        ("act_N", "PN", "N", ActionTable), ("eta", "MN", "L", None),
    )),
    "two_crossed_module": (TwoCrossedModule, validate_two_crossed_module, "LKP", (
        ("delta", "L", "K", GroupHom), ("bd", "K", "P", GroupHom), ("act_L", "PL", "L", ActionTable),
        ("act_K", "PK", "K", ActionTable), ("braid", "KK", "L", None),
    )),
}


def _crossed_from_json(obj: dict, kind: str):
    """The crossed structure of that kind in obj.  obj may name its kind,
    and a crossed module may carry the section that postnikov reads."""
    cls, _, groups, tables = CROSSED_KINDS[kind]
    if obj.get("kind", kind) != kind:
        raise ConfigError(f"kind: expected {kind!r}, got {obj['kind']!r}")
    optional = {"kind": str, "section": list} if kind == "crossed_module" else {"kind": str}
    read_fields(obj, "", {**dict.fromkeys(groups, dict), **{t[0]: list for t in tables}}, optional)
    G = {g: FiniteGroup.from_json(obj[g], g) for g in groups}
    values = []
    for key, shape, over, wrap in tables:
        t = _table(obj, key, tuple(G[g] for g in shape), G[over])
        values.append(t if wrap is None else wrap(G[shape[0]], G[over], t))
    return cls(*G.values(), *values)


def _crossed_to_json(s, kind: str) -> dict:
    """The structure s of that kind as _crossed_from_json reads it, without
    its kind."""
    _, _, groups, tables = CROSSED_KINDS[kind]
    obj = {g: getattr(s, g).to_json() for g in groups}
    for key, _, _, wrap in tables:
        t = getattr(s, key)
        obj[key] = t.map if wrap is GroupHom else t.table if wrap is ActionTable else t
    return obj


def _checked_section(cm: CrossedModule, obj: dict):
    """Yield obj's section, an element of N over each element of pi1."""
    pi1, proj = cm_pi1(cm)
    section = _table(obj, "section", (pi1,), cm.N)
    for x, n in enumerate(section):
        if proj[n] != x:
            raise ConfigError(f"section entry {x} is {n}, which lies over element {proj[n]} of pi1, not {x}")
    yield section


def cmd_crossed(args) -> int:
    if args.subcommand == "lattice":
        window = _pairing_window(args)
        rep = verify_lattice_square(window, samples=_at_least(1, args.samples, "--samples"), seed=args.seed)
        print(f"lattice square: ok={rep['ok']} counts={rep['counts']}")
        _emit({**rep, "command": "crossed lattice"}, args.report)
        return EXIT_OK if rep["ok"] else EXIT_ASSERTION
    if args.input is None:
        raise ConfigError(f"crossed {args.subcommand} needs --input")
    obj = _read_json(args.input, "crossed input")
    if args.subcommand == "validate":
        kind = obj.get("kind", "crossed_module")
        if kind not in tuple(CROSSED_KINDS):  # a tuple, as kind may be any JSON value
            raise ConfigError(f"unknown structure kind {kind!r}")
        violations = CROSSED_KINDS[kind][1](_from_json(_crossed_from_json, obj, kind))
        ok = not violations
        print(f"validate {kind}: ok={ok}; {len(violations)} violations")
        _emit({"command": "crossed validate", "kind": kind, "ok": ok, "violations": violations}, args.report)
        return EXIT_OK if ok else EXIT_ASSERTION
    if args.subcommand == "convert":
        t = to_two_crossed_module(_from_json(_crossed_from_json, obj, "crossed_square"))
        # K names are "(m;n)", so M and N names that contain ";" can collide
        seen = set()
        for name in t.K.names:
            if name in seen:
                raise ConfigError(f"K element name {name!r} is repeated: M or N element names contain ';'")
            seen.add(name)
        valid = not validate_two_crossed_module(t)
        print(f"convert: two-crossed module of order ({t.L.order},{t.K.order},{t.P.order}); valid={valid}")
        _emit({"command": "crossed convert", "valid": valid,
               "two_crossed_module": _crossed_to_json(t, "two_crossed_module")}, args.report)
        return EXIT_OK if valid else EXIT_ASSERTION
    if args.subcommand == "postnikov":
        cm = _from_json(_crossed_from_json, obj, "crossed_module")
        # both are generators: pi1 is defined only for a valid module, and
        # postnikov3 validates it before it draws the first section
        if args.all_sections:
            sections = all_sections(cm)
        elif "section" not in obj:
            raise ConfigError("missing key 'section', which postnikov reads without --all-sections")
        else:
            sections = _checked_section(cm, obj)
        try:
            classes = postnikov3(cm, sections)
        except KernelNotCyclic as exc:
            raise ConfigError("kernel of bd is not cyclic, and crossed postnikov takes no explicit iso") from exc
        _, _, matches = classify(classes[0], {str(i): c for i, c in enumerate(classes[1:], 1)})
        agree = len(matches) == len(classes) - 1
        print(f"postnikov: {len(classes)} section(s); classes agree={agree}")
        _emit({"command": "crossed postnikov", "cochain": classes[0], "sections": len(classes),
               "classes_agree": agree}, args.report)
        return EXIT_OK if agree else EXIT_ASSERTION
    if args.subcommand == "homotopy":
        hg = homotopy_groups(_from_json(_crossed_from_json, obj, "two_crossed_module"))
        print(f"homotopy groups: |pi1|={hg['pi1'].order} |pi2|={hg['pi2'].order} |pi3|={hg['pi3'].order}")
        _emit({**hg, "command": "crossed homotopy"}, args.report)
        return EXIT_OK
    raise ConfigError(f"unknown crossed subcommand {args.subcommand!r}")


def cmd_spt(args) -> int:
    window = _parse_window(args.window, args.margin, chain=args.mode == "relative1d")
    action = _load_action(args.action, window)
    state = ALL_PLUS if args.basis == "x" else ALL_ZEROS
    inputs = {"action": args.action, "basis": args.basis, **_window_fields(window)}
    if args.mode == "relative1d":
        dress = {"cluster": cluster_entangler_1d(window), "none": None}
        try:
            rep = spt_relative_1d(action, dress[args.dress1], dress[args.dress2], state=state)
        except MarginError as exc:
            raise ConfigError(f"window {args.window!r} with margin {args.margin}: {exc}") from exc
        print(f"spt relative1d: cocycle={rep['is_cocycle']} trivial={rep['trivial']}")
        _emit({**rep, **inputs, "command": "spt relative1d", "dress1": args.dress1, "dress2": args.dress2},
              args.report)
        return EXIT_OK if rep["is_cocycle"] else EXIT_ASSERTION
    data = build_truncation_2d(action)
    rep = spt_trivialize_2d(data, None, state=state)
    print(f"spt trivialize2d: status={rep['status']} delta_c_equals_tau={rep['delta_equals_tau']}")
    _emit({**rep, **inputs, "command": "spt trivialize2d"}, args.report)
    # no_invariant_state and truncation_not_preserving are findings, not failures
    if rep["status"] == "ok" and rep["delta_equals_tau"] is not True:
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_reproduce_ccz(args) -> int:
    window = _parse_window(args.window, args.margin, chain=False)
    action = _load_action("ccz_x_2d", window)
    data, rep, ok = _anomaly_2d_checked(action, args.check_gauge, args.seed)
    mu_example = data.mu[0b01, 0b10]
    u_example = data.u[0b01, 0b01, 0b10]
    print("reproduce-ccz on", _size(window), "margin", window.margin)
    print("  mu((0,1),(1,0)) =", format_op(mu_example))
    print("  u((0,1),(0,1),(1,0)) =", format_op(u_example))
    print("  tau cocycle:", rep["is_cocycle"], "| trivial:", rep["trivial"], "| class:", rep["matched_class"])
    expected = ok and not rep["trivial"] and rep["matched_class"] == "b^3 . a"
    _emit({**rep, "command": "reproduce-ccz", "seed": args.seed,
           "mu_example": format_op(mu_example), "u_example": format_op(u_example)}, args.report)
    return EXIT_OK if expected else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="anomalion", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, window_default="12x12"):
        sp.add_argument("--window", default=window_default)
        sp.add_argument("--margin", type=int, default=3)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--report", default=None)

    sp = sub.add_parser("anomaly2d", help="degree-4 anomaly of a 2d circuit action")
    common(sp)
    sp.add_argument("--action", default="ccz_x_2d")
    sp.add_argument("--check-gauge", type=int, default=0, metavar="N")
    sp.add_argument("--check-window", action="store_true")
    sp.set_defaults(fn=cmd_anomaly2d)

    sp = sub.add_parser("anomaly1d", help="degree-3 anomaly of a 1d circuit action")
    common(sp, window_default="12")
    sp.add_argument("--action", default="levin_gu_1d")
    sp.add_argument("--check-window", action="store_true")
    sp.set_defaults(fn=cmd_anomaly1d)

    sp = sub.add_parser("eta-check", help="commutator pairing identity suite")
    common(sp)
    sp.add_argument("--pairs", type=int, default=100)
    sp.set_defaults(fn=cmd_eta_check)

    sp = sub.add_parser("crossed", help="crossed-structure tools")
    sp.add_argument("subcommand", choices=["validate", "convert", "postnikov", "homotopy", "lattice"])
    sp.add_argument("--input", default=None)
    sp.add_argument("--all-sections", action="store_true")
    sp.add_argument("--samples", type=int, default=50)
    common(sp)
    sp.set_defaults(fn=cmd_crossed)

    sp = sub.add_parser("spt", help="SPT cochains of invariant dressed states")
    sp.add_argument("--mode", choices=["relative1d", "trivialize2d"], default="relative1d")
    sp.add_argument("--action", default="onsite_xx_1d")
    sp.add_argument("--basis", choices=["z", "x"], default="x")
    sp.add_argument("--dress1", choices=["cluster", "none"], default="cluster")
    sp.add_argument("--dress2", choices=["cluster", "none"], default="none")
    common(sp)
    sp.set_defaults(fn=cmd_spt)

    sp = sub.add_parser("reproduce-ccz", help="run the builtin 2d worked example end to end")
    common(sp)
    sp.add_argument("--check-gauge", type=int, default=0, metavar="N")
    sp.set_defaults(fn=cmd_reproduce_ccz)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AssertionError, ValueError) as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
