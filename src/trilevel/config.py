"""Experiment configuration: a flat INI file with one section per concern.

Example, with every key at its default (``;`` after a space starts a comment)::

    [problem]
    kind = quadratic        ; quadratic | quartic | adv-hpt
    n = 50
    m = 50
    t = 50
    spec_seed = 0
    csv =                   ; CSV path, adv-hpt only

    [engine]
    kind = NFD              ; H | NFD | AD
    fd_eps = 0.1            ; NFD only: its finite-difference step
    cg_max_iters = auto
    neumann_q = 30
    c0 = auto               ; auto-calibrated at the initial point
    c1 = auto

    [mode]
    kind = deterministic    ; deterministic | stochastic
    std_grad = 0.0
    std_hess = 0.0

    [schedule]
    kind = decaying         ; decaying | theorem
    alpha_bar = 0.3
    beta_bar = 0.2
    gamma_bar = 0.1

    [budget]
    ul_iters = 200
    j0 = 1
    k0 = 1
    adaptive = true

    [run]
    repetitions = 10
    base_seed = 1234
    output_dir = out
    reduction = trilevel    ; trilevel | without-ul | without-ll
    minibatch = 64
    noise_test_realizations = 100
"""

import configparser
import io
import math
import warnings
from dataclasses import dataclass
from typing import Optional, get_args, get_type_hints

from .adjoint import ENGINE_AD, ENGINE_H, ENGINE_NFD, ENGINES
from .driver import REDUCTIONS

PROBLEMS = ("quadratic", "quartic", "adv-hpt")
MODES = ("deterministic", "stochastic")
SCHEDULES = ("decaying", "theorem")


@dataclass
class ExperimentConfig:
    # [problem]
    problem: str = "quadratic"
    n: int = 50
    m: int = 50
    t: int = 50
    spec_seed: int = 0
    csv: Optional[str] = None
    # [engine]
    engine: str = ENGINE_NFD
    fd_eps: float = 0.1
    cg_max_iters: Optional[int] = None
    neumann_q: int = 30
    c0: Optional[float] = None
    c1: Optional[float] = None
    # [mode]
    mode: str = "deterministic"
    std_grad: float = 0.0
    std_hess: float = 0.0
    # [schedule]
    schedule: str = "decaying"
    alpha_bar: float = 0.3
    beta_bar: float = 0.2
    gamma_bar: float = 0.1
    # [budget]
    ul_iters: int = 200
    j0: int = 1
    k0: int = 1
    adaptive: bool = True
    # [run]
    repetitions: int = 10
    base_seed: int = 1234
    output_dir: str = "out"
    reduction: str = "trilevel"
    minibatch: int = 64
    noise_test_realizations: int = 100

    def validate(self) -> "ExperimentConfig":
        if self.problem not in PROBLEMS:
            raise ValueError(f"problem must be one of {PROBLEMS}, got {self.problem!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"reduction must be one of {REDUCTIONS}, got {self.reduction!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.noise_test_realizations < 1:
            raise ValueError("noise_test_realizations must be at least 1")
        if min(self.n, self.m, self.t) < 1:
            raise ValueError(f"n, m and t must be at least 1, got {self.n}, {self.m}, {self.t}")
        if not 0 < self.fd_eps < math.inf:  # NaN fails too
            raise ValueError(f"fd_eps must be positive and finite, got {self.fd_eps}")
        if not (0 <= self.std_grad < math.inf and 0 <= self.std_hess < math.inf):
            raise ValueError("noise standard deviations must be finite and nonnegative, "
                             f"got {self.std_grad} and {self.std_hess}")
        if self.engine == ENGINE_AD and self.neumann_q < 0:
            raise ValueError(f"the AD engine needs a nonnegative neumann_q, got {self.neumann_q}")
        for name in ("c0", "c1"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, or auto, got {value}")
        if self.problem == "adv-hpt" and not self.csv:
            raise ValueError("adv-hpt requires a csv path")
        if self.mode == "stochastic" and self.engine == ENGINE_H and self.std_hess > 0.1:
            # degradation, not failure: warn and continue
            warnings.warn(
                "H engine with Hessian noise above 0.1 is known to degrade badly",
                stacklevel=2,
            )
        return self


_SECTIONS = {
    "problem": ["problem", "n", "m", "t", "spec_seed", "csv"],
    "engine": ["engine", "fd_eps", "cg_max_iters", "neumann_q", "c0", "c1"],
    "mode": ["mode", "std_grad", "std_hess"],
    "schedule": ["schedule", "alpha_bar", "beta_bar", "gamma_bar"],
    "budget": ["ul_iters", "j0", "k0", "adaptive"],
    "run": [
        "repetitions", "base_seed", "output_dir", "reduction", "minibatch",
        "noise_test_realizations",
    ],
}
# key used inside the file for the section-defining field
_FILE_KEY = {"problem": "kind", "engine": "kind", "mode": "kind", "schedule": "kind"}
# (section, key in the file) -> field
_FIELDS = {(section, _FILE_KEY.get(name, name)): name
           for section, names in _SECTIONS.items() for name in names}


def to_ini(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    for section, names in _SECTIONS.items():
        parser[section] = {}
        for name in names:
            value = getattr(cfg, name)
            key = _FILE_KEY.get(name, name)
            if value is None:
                parser[section][key] = "auto" if name in ("cg_max_iters", "c0", "c1") else ""
            elif isinstance(value, bool):
                parser[section][key] = "true" if value else "false"
            else:
                parser[section][key] = str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w") as fh:
        fh.write(to_ini(cfg))


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse_value(hint, raw: str, name: str):
    """Parse one INI value by its field's type hint. Only ``Optional``
    fields take an empty, ``auto`` or ``none`` value (as None)."""
    raw = raw.strip()
    args = [a for a in get_args(hint) if a is not type(None)]
    optional = len(args) == 1
    base = args[0] if optional else hint
    if raw.lower() in ("", "auto", "none") and optional:
        return None
    if base is bool:
        if raw.lower() not in _BOOLS:
            raise ValueError(f"{name} must be one of {'/'.join(_BOOLS)}, got {raw!r}")
        return _BOOLS[raw.lower()]
    if not raw:
        raise ValueError(f"{name} needs a value")
    try:
        return base(raw)
    except ValueError:
        raise ValueError(f"{name} must be {base.__name__}, got {raw!r}") from None


def from_ini(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(text)
    cfg = ExperimentConfig()
    hints = get_type_hints(ExperimentConfig)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            name = _FIELDS.get((section, key))
            if name is None:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            setattr(cfg, name, _parse_value(hints[name], raw, name))
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return from_ini(fh.read())
