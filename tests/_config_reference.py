"""Reference config parser for tests: one branch per set and loss kind.

This is ``parse_config`` as it was before each set's and each loss's keys
came from the harness's kind tables, kept, with its helpers, as the oracle
that the table-driven parser must agree with: on every config both build
equal ``ExperimentSpec``s or both raise ``ConfigError``. Only the wording
of a foreign key's refusal, and which error a config with two faults
names first, may differ.
"""

from ofwkit.harness import DEFAULT_GAP_CAP, ConfigError, ExperimentSpec
from ofwkit.losses import LINEAR, QUADRATIC, LossSpec
from ofwkit.sets import FeasibleSet, L1Ball, L2Ball, LpBall, Simplex

_SET_KINDS = ("l2_ball", "lp_ball", "l1_ball", "simplex")
_KNOWN_KEYS = (
    "set.kind",
    "set.dim",
    "set.r",
    "set.p",
    "loss.kind",
    "loss.G",
    "loss.lambda",
    "algo",
    "T",
    "seed",
    "gap_check",
    "gap_cap",
    "output",
)


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None


def _parse_bool(key: str, value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"key {key!r}: expected true or false, got {value!r}")


def _require(entries: dict, key: str) -> str:
    if key not in entries:
        raise ConfigError(f"missing required key {key!r}")
    return entries[key]


def _forbid(entries: dict, key: str, why: str):
    if key in entries:
        raise ConfigError(f"key {key!r} does not apply: {why}")


def parse_config(text: str) -> ExperimentSpec:
    """Parse a flat ``key = value`` config into an ``ExperimentSpec``."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    set_kind = _require(entries, "set.kind")
    if set_kind not in _SET_KINDS:
        raise ConfigError(f"key 'set.kind': expected one of {_SET_KINDS}, got {set_kind!r}")
    dim = _parse_int("set.dim", _require(entries, "set.dim"))
    try:
        if set_kind == "simplex":
            _forbid(entries, "set.r", "the simplex has no radius")
            _forbid(entries, "set.p", "set.p only applies to lp_ball")
            domain: FeasibleSet = Simplex(dim)
        else:
            r = _parse_float("set.r", _require(entries, "set.r"))
            if set_kind == "lp_ball":
                p = _parse_float("set.p", _require(entries, "set.p"))
                domain = LpBall(dim, r, p)
            else:
                _forbid(entries, "set.p", "set.p only applies to lp_ball")
                domain = L2Ball(dim, r) if set_kind == "l2_ball" else L1Ball(dim, r)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid set: {exc}") from None

    loss_kind = _require(entries, "loss.kind")
    seed = _parse_int("seed", _require(entries, "seed"))
    try:
        if loss_kind == LINEAR:
            _forbid(entries, "loss.lambda", "linear losses have no modulus")
            G = _parse_float("loss.G", _require(entries, "loss.G"))
            loss = LossSpec(kind=LINEAR, dim=dim, seed=seed, G=G)
        elif loss_kind == QUADRATIC:
            _forbid(entries, "loss.G", "quadratic losses certify G from the set")
            lam = _parse_float("loss.lambda", _require(entries, "loss.lambda"))
            loss = LossSpec(kind=QUADRATIC, dim=dim, seed=seed, lam=lam)
        else:
            raise ConfigError(
                f"key 'loss.kind': expected linear or quadratic, got {loss_kind!r}"
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid loss: {exc}") from None

    algo = _require(entries, "algo")
    horizon = _parse_int("T", _require(entries, "T"))
    gap_check = _parse_bool("gap_check", entries["gap_check"]) if "gap_check" in entries else False
    gap_cap = (
        _parse_int("gap_cap", entries["gap_cap"]) if "gap_cap" in entries else DEFAULT_GAP_CAP
    )
    output = entries.get("output")

    try:
        return ExperimentSpec(
            domain=domain,
            loss=loss,
            algo=algo,
            horizon=horizon,
            gap_check=gap_check,
            gap_cap=gap_cap,
            output=output,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
