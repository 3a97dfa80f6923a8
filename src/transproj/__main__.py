"""``python -m transproj``: the same command line as the ``transproj`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
