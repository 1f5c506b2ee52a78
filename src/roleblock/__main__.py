"""``python -m roleblock``: the ``roleblock`` command, runnable from a checkout."""

from .cli import run

if __name__ == "__main__":
    run()
