"""``python -m ormediate``: the same entry point as the ``ormediate`` script."""

from .cli import run

if __name__ == "__main__":
    run()
