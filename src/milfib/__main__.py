"""``python -m milfib``: the same command line as the ``milfib`` script."""

from .cli import run

if __name__ == "__main__":
    run()
