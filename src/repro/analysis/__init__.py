"""repro.analysis — invariant linter and runtime sanitizers.

Static half (``repro lint`` / ``python -m repro.analysis``): an AST-based
rule engine checking the contracts PRs 1-7 established by hand — seeded RNG
flow, lock-guarded attributes, frozen cached arrays, Parameter version
bumps, serializable configs, wall-clock hygiene, exception discipline, and
method-registry completeness.  See :mod:`repro.analysis.rules` for the
rules (R1-R8) and :mod:`repro.analysis.framework` for the engine.

Runtime half (``REPRO_SANITIZE=1`` or ``pytest --sanitize``): monkeypatch
sanitizers that catch what the AST cannot — actual lock-order inversions,
actual thaws of cache-published arrays, actual global-RNG draws.  See
:mod:`repro.analysis.sanitizers`.
"""

from .framework import (
    DEFAULT_EXCLUDES,
    DEFAULT_RULES,
    Analyzer,
    FileContext,
    Finding,
    Rule,
    RuleRegistry,
    register_rule,
    run_lint,
)
from .sanitizers import (
    GlobalRNGViolation,
    LockOrderViolation,
    SanitizerError,
    WriteAfterFreezeError,
    enabled_from_env,
    install,
    is_installed,
    lock_order_recorder,
    reset_lock_order,
    uninstall,
)

# Importing rules registers R1-R8 into DEFAULT_RULES as a side effect.
from . import rules  # registration side effect (F401-exempt in __init__)

__all__ = [
    # framework
    "Analyzer",
    "DEFAULT_EXCLUDES",
    "DEFAULT_RULES",
    "FileContext",
    "Finding",
    "Rule",
    "RuleRegistry",
    "register_rule",
    "run_lint",
    # sanitizers
    "SanitizerError",
    "LockOrderViolation",
    "WriteAfterFreezeError",
    "GlobalRNGViolation",
    "enabled_from_env",
    "install",
    "uninstall",
    "is_installed",
    "lock_order_recorder",
    "reset_lock_order",
]
