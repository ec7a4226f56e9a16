"""`python -m pelwedge`: the same command line as the `pelwedge` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
