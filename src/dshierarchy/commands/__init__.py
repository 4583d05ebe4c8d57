"""The ``dshier`` subcommands, one module each.

Each module holds one subcommand as ``run(cfg, build) -> exit code``: ``cfg``
is the resolved ``cli.RunConfig`` and ``build(cfg)`` returns the job's
``DSHierarchy`` with the configuration checked against it.  ``cli.main``
imports only the module it dispatches to, so a process compiles only the code
of its own subcommand.  No module here imports ``cli``: under
``python -m dshierarchy.cli`` the running CLI is ``__main__``, and that import
would run ``cli.py`` a second time.
"""

DEFAULT_FLOWS = ((1, 0), (1, 1))


class ConfigError(ValueError):
    pass


def flow_labels(cfg) -> list:
    """The flows ``derive`` and ``solve`` run: ``--flows``, or ``DEFAULT_FLOWS`` unset."""
    return list(DEFAULT_FLOWS) if cfg.flows is None else cfg.flows
