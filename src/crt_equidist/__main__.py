"""`python -m crt_equidist ARGS` runs the command-line front end, also from
an uninstalled checkout with `src` on PYTHONPATH."""

from .cli import entry

if __name__ == "__main__":
    entry()
