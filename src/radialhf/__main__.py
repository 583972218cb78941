"""``python -m radialhf``: the command line of :mod:`radialhf.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
