"""``python -m hgw``: the same command line as the ``hgw`` console script."""

from .cli import main

if __name__ == "__main__":  # importing hgw.__main__ (say, walking the package) runs nothing
    raise SystemExit(main())
