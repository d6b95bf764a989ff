"""Run the command-line interface: ``python -m dibkit <subcommand> ...``."""

from .cli import main

main()
